"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All checks are exact (rational arithmetic); the only tolerances are the time
budgets stated inline.
"""

import time
from fractions import Fraction

import pytest

from braidorbit.errors import IdentityFailed
from braidorbit.hecke import (
    birank,
    build_dj_gl,
    build_flip,
    build_q_super,
    build_superflip,
    validation_report,
)
from braidorbit.koszul import build_projectors, conjecture1_check, p2_action_identity
from braidorbit.orbit import (
    cotangent,
    hankel_det_check,
    higher_power_reduction,
    nc_orbit,
    regularity,
)
from braidorbit.rea import centrality_check, ch_verify, relation_space
from braidorbit.scalar import EMPTY_TABLE, Scalar, SymbolTable
from braidorbit.symfun import (
    EigenvalueProfile,
    GenPoly,
    Partition,
    QuantumDims,
    ch_coefficients,
    ch_factorized,
    elementary_symmetric,
    eval_symexpr,
    jacobi_trudi,
    power_sum_param,
    quantum_dims,
    schur_param,
    vieta_checks,
)
from idempotency_oracle import entrywise_residuals


def q_num(v, table=EMPTY_TABLE):
    return Scalar.from_fraction(table, Fraction(v))


def sym_profile(m, n, with_h=False):
    t = SymbolTable.for_profile(m, n, with_h=with_h)
    q = Scalar.from_symbol(t, "q")
    h = Scalar.from_symbol(t, "h") if with_h else None
    mus = [Scalar.from_symbol(t, f"mu{i}") for i in range(1, m + 1)]
    nus = [Scalar.from_symbol(t, f"nu{j}") for j in range(1, n + 1)]
    return EigenvalueProfile(mus, nus, q, h)


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def _all_builtins():
    out = [build_flip(2), build_flip(3), build_flip(4)]
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]:
        out.append(build_superflip(m, n))
    for N in (1, 2, 3):
        out.append(build_dj_gl(N, q_num("7/5")))
    out.append(build_q_super(1, 1, q_num("9/7")))
    out.append(build_q_super(2, 1, q_num("9/7")))
    return out


def test_criterion_1_braiding_validation():
    start = time.monotonic()
    for hs in _all_builtins():
        statuses = validation_report(hs)
        assert all(statuses.values()), (hs.name, statuses)
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"validation took {elapsed:.1f}s"
    _report(1, f"all braidings validate with exact zero residuals "
               f"({elapsed:.1f}s < 30s)")


def test_criterion_2_birank_detection():
    expected = []
    for hs, mn in [
        (build_flip(2), (2, 0)), (build_flip(3), (3, 0)), (build_flip(4), (4, 0)),
        (build_superflip(1, 1), (1, 1)), (build_superflip(2, 1), (2, 1)),
        (build_superflip(1, 2), (1, 2)), (build_superflip(2, 2), (2, 2)),
        (build_superflip(3, 1), (3, 1)), (build_superflip(1, 3), (1, 3)),
        (build_dj_gl(1, q_num("7/5")), (1, 0)), (build_dj_gl(2, q_num("7/5")), (2, 0)),
        (build_dj_gl(3, q_num("7/5")), (3, 0)),
        (build_q_super(1, 1, q_num("9/7")), (1, 1)),
        (build_q_super(2, 1, q_num("9/7")), (2, 1)),
    ]:
        rep = birank(hs, mn[0] + mn[1] + 3)
        assert (rep.m, rep.n) == mn, (hs.name, rep.m, rep.n)
        expected.append(mn)
    _report(2, f"bi-rank detected exactly for {len(expected)} symmetries "
               f"at depth m+n+3")


def test_criterion_3_ch_identity():
    budgets = []
    for hs, mn, dim in [
        (build_dj_gl(2, q_num("7/5")), (2, 0), 16),
        (build_q_super(1, 1, q_num("9/7")), (1, 1), 64),
        (build_flip(2), (2, 0), 16),
    ]:
        start = time.monotonic()
        ok, report = ch_verify(hs, *mn)
        elapsed = time.monotonic() - start
        assert ok and not report["failures"], hs.name
        assert (hs.N * hs.N) ** report["degree"] == dim
        assert elapsed < 60, f"{hs.name} took {elapsed:.1f}s"
        budgets.append(elapsed)
    _report(3, "Cayley-Hamilton identity holds entrywise with zero residual "
               f"(times: {', '.join(f'{b:.1f}s' for b in budgets)})")


def test_criterion_4_centrality():
    for hs in (build_dj_gl(2, q_num("7/5")), build_q_super(1, 1, q_num("9/7"))):
        rs = relation_space(hs, "minus")
        assert centrality_check(1, hs, rs), hs.name
        assert centrality_check(2, hs, rs), hs.name
    _report(4, "Tr_R L and Tr_R L^2 commute with all generators modulo the "
               "relations (zero residuals)")


def test_criterion_5_hankel_determinant():
    assert hankel_det_check(2, 0, "symbolic")
    assert hankel_det_check(1, 1, "symbolic")
    assert hankel_det_check(2, 1, "symbolic")
    assert hankel_det_check(3, 2, "sampled", seed=42, trials=7)
    _report(5, "det of the Hankel matrix of power sums read off the generating "
               "function F equals prod d * Vandermonde^2 of the quantum dimensions: "
               "symbolic for (2|0), (1|1), (2|1); 7 exact sampled points for (3|2)")


@pytest.mark.parametrize("m, n", [(2, 0), (1, 1), (2, 1)])
def test_criterion_5_fails_on_perturbed_weights(monkeypatch, m, n):
    # the power sums do not read the weights, so wrong weights change the
    # target and not the determinant
    import braidorbit.orbit as orbit_module
    import braidorbit.symfun as symfun_module

    real = symfun_module.quantum_dims

    def perturbed(profile):
        dims = real(profile)
        return QuantumDims([2 * d + 1 for d in dims.d], [2 * d + 1 for d in dims.dprime])

    for module in (orbit_module, symfun_module):
        monkeypatch.setattr(module, "quantum_dims", perturbed)
    with pytest.raises(IdentityFailed):
        hankel_det_check(m, n, "symbolic")


def test_criterion_6_worked_example_32():
    t = SymbolTable(["q"])
    q = Scalar.from_symbol(t, "q")
    qi = q.inv()
    coeffs = ch_coefficients(3, 2, q)

    def s(k=None, r=None):
        if k is None and r is None:
            lam = Partition.rectangle(3, 2)
        elif r is None:
            lam = Partition.rectangle_plus_column(3, 2, k)
        elif k is None:
            lam = Partition.rectangle_with_row(3, 2, r)
        else:
            lam = Partition.rectangle_plus_column_row(3, 2, k, r)
        return jacobi_trudi(lam, t)

    display = [
        s(),
        s(r=1).scale(qi) - s(k=1).scale(q),
        s(r=2).scale(qi ** 2) - s(k=1, r=1) + s(k=2).scale(q ** 2),
        s(k=2, r=1).scale(q) - s(k=1, r=2).scale(qi) - s(k=3).scale(q ** 3),
        s(k=2, r=2) - s(k=3, r=1).scale(q ** 2),
        s(k=3, r=2).scale(-q),
    ]
    assert len(coeffs) == 6
    for got, want in zip(coeffs, display):
        assert got == want

    even, odd = ch_factorized(3, 2, q)
    assert even[0] == s() and odd[0] == s()
    assert even[1] == s(k=1).scale(-q)
    assert even[2] == s(k=2).scale(q ** 2)
    assert even[3] == s(k=3).scale(-(q ** 3))
    assert odd[1] == s(r=1).scale(qi)
    assert odd[2] == s(r=2).scale(qi ** 2)

    prof = sym_profile(3, 2)
    results = vieta_checks(prof)
    assert len(results) == 5 and all(ok for _, ok in results)

    rect = schur_param(Partition.rectangle(3, 2), prof)
    qq = prof.q
    mus, nus = prof.mus, prof.nus
    v3 = eval_symexpr(jacobi_trudi(Partition.rectangle_plus_column(3, 2, 3), prof.table), prof)
    assert (qq ** 3) * v3 == mus[0] * mus[1] * mus[2] * rect
    v_2 = eval_symexpr(jacobi_trudi(Partition.rectangle_with_row(3, 2, 2), prof.table), prof)
    assert v_2 == (qq ** 2) * nus[0] * nus[1] * rect
    _report(6, "the (3|2) example: six coefficients, both factor displays, "
               "five root-coefficient relations and both closed "
               "parametrizations hold symbolically")


def test_criterion_7_canonical_form():
    cases = [build_flip(2), build_dj_gl(2, q_num("7/5")),
             build_dj_gl(3, q_num("5/3")), build_q_super(1, 1, q_num("9/7"))]
    for hs in cases:
        ps = build_projectors(hs)
        ok2, rep2 = conjecture1_check(2, hs, ps)
        ok3, rep3 = conjecture1_check(3, hs, ps)
        assert ok2 and rep2["quotient_zero"], hs.name
        assert ok3 and rep3["quotient_zero"], hs.name
        rows = p2_action_identity(hs, ps)
        assert all(ok for _, ok in rows), (hs.name, rows)
    _report(7, "canonical-form identity at k = 2, 3 with exact zero residual; "
               "position-2 action, invariants and transformation table all "
               "verified on the full set")


def test_criterion_8_cotangent_idempotent():
    # rank-one symbolic case
    t = SymbolTable(["q"])
    hs1 = build_dj_gl(1, Scalar.from_symbol(t, "q"))
    prof1 = EigenvalueProfile([Scalar.from_symbol(t, "q") * 5], [],
                              Scalar.from_symbol(t, "q"))
    d1 = cotangent(hs1, prof1)
    assert d1.certificates["entrywise"] and d1.certificates["complement_idempotent"]

    flip = build_flip(2)
    prof2 = EigenvalueProfile([q_num(1), q_num(2)], [], q_num(1))
    d2 = cotangent(flip, prof2)
    assert d2.certificates["entrywise"] and d2.certificates["complement_idempotent"]

    dj = build_dj_gl(2, q_num("7/5"))
    prof3 = EigenvalueProfile([q_num(1), q_num(2)], [], q_num("7/5"))
    d3 = cotangent(dj, prof3)
    assert d3.certificates["entrywise"] and d3.certificates["complement_idempotent"]
    # the direct reduction of every entry of ebar^2 - ebar agrees
    targets = [power_sum_param(k, prof3) for k in (1, 2)]
    assert entrywise_residuals(dj, prof3, d3.ebar, targets) == (4, [])
    _report(8, "idempotent certified through the Hankel lemma (free Hankel "
               "identity, p_0 = Tr_R(I), Hankel values at the orbit targets) "
               "for the rank-one symbolic case, the classical flip orbit and "
               "the deformed orbit, the complement by the ring identity; on "
               "the deformed orbit every entry of ebar^2 - ebar also reduces "
               "to zero modulo the orbit ideal at degree 4")


def test_criterion_9_power_sum_recurrence():
    for m, n in [(2, 0), (1, 1), (2, 1)]:
        prof = sym_profile(m, n)
        higher_power_reduction(prof, m + n + 2)
    _report(9, "recurrence power sums match the parametrized values "
               "symbolically up to k = m+n+2 for (2|0), (1|1), (2|1)")


def test_criterion_10_shifted_algebra():
    # (a) q -> 1 limit of the shifted weights matches the displayed formulas
    prof = sym_profile(2, 1, with_h=True)
    dims = quantum_dims(prof)
    mu1, mu2 = prof.mus
    nu1 = prof.nus[0]
    h = prof.h
    d1 = dims.d[0].substitute({"q": 1})
    assert d1 == ((mu1 - mu2 - h) / (mu1 - mu2)) * ((mu1 - nu1 + h) / (mu1 - nu1))
    d2 = dims.d[1].substitute({"q": 1})
    assert d2 == ((mu2 - mu1 - h) / (mu2 - mu1)) * ((mu2 - nu1 + h) / (mu2 - nu1))
    dp = dims.dprime[0].substitute({"q": 1})
    assert dp == -((nu1 - mu1 - h) / (nu1 - mu1)) * ((nu1 - mu2 - h) / (nu1 - mu2))

    # (b) the two-restriction family for a 2x2 shifted orbit is reproduced
    t = SymbolTable(["q", "h", "x"])
    q = Scalar.from_symbol(t, "q")
    h = Scalar.from_symbol(t, "h")
    x = Scalar.from_symbol(t, "x")
    bad1 = EigenvalueProfile([q.inv() ** 2 * x + q.inv() * h, x], [], q, h)
    v1 = regularity(bad1)
    assert not v1.regular and ("even-even", 1, 2) in v1.violated
    bad2 = EigenvalueProfile([x, q.inv() ** 2 * x + q.inv() * h], [], q, h)
    v2 = regularity(bad2)
    assert not v2.regular and ("even-even", 2, 1) in v2.violated

    # (c) the shifted conditions reduce to the classical one exactly when
    # q = 1 and h = 0: the condition form mu1 - q^-2 mu2 - q^-1 h is
    # proportional to mu1 - mu2 iff both specializations hold
    t2 = SymbolTable.for_profile(2, 0, with_h=True)
    q2 = Scalar.from_symbol(t2, "q")
    h2 = Scalar.from_symbol(t2, "h")
    m1 = Scalar.from_symbol(t2, "mu1")
    m2 = Scalar.from_symbol(t2, "mu2")
    for qv, hv, classical in [(1, 0, True), (1, 1, False),
                              (Fraction(7, 5), 0, False), (Fraction(7, 5), 3, False)]:
        cond = (m1 - q2.inv() ** 2 * m2 - q2.inv() * h2).substitute({"q": qv, "h": hv})
        target = m1 - m2
        assert (cond == target) == classical, (qv, hv)

    # the modified pipeline itself completes on a regular shifted profile
    t3 = SymbolTable(["q", "h"])
    flip = build_flip(2, t3)
    h3 = Scalar.from_symbol(t3, "h")
    prof3 = EigenvalueProfile([Scalar.zero(t3), 3 * h3], [], Scalar.one(t3), h3)
    quotient, data = nc_orbit(flip, prof3)
    assert quotient.mode == "nc-classical"
    assert data.certificates["entrywise"]
    _report(10, "shifted quantum dimensions match the q to 1 display in h; "
                "the 2x2 two-restriction family is reproduced and collapses "
               "to the classical condition exactly at q = 1, h = 0; the "
               "shifted pipeline completes")
