from fractions import Fraction

import pytest

from braidorbit import orbit
from braidorbit.errors import ExceptionalProfile, IdentityFailed, RecurrenceMismatch
from braidorbit.graded import by_degree, ideal_span
from braidorbit.hecke import (
    build_dj_gl,
    build_flip,
    build_q_super,
    build_superflip,
    validate,
)
from braidorbit.linalg import MatrixS, RowSpace, SparseMat, TensorOp, det_bareiss
from braidorbit.orbit import (
    CotangentData,
    OrbitIdealReducer,
    cotangent,
    free_hankel_identity,
    gradient_matrices,
    hankel,
    hankel_det_check,
    hankel_det_target,
    hankel_lemma,
    hatted_ch_values,
    higher_power_reduction,
    nc_orbit,
    regularity,
)
from braidorbit.rea import NCPoly, nc_matmul, power_sum_element, relation_space
from braidorbit.scalar import EMPTY_TABLE, Scalar, SymbolTable, parse_scalar
from braidorbit.symfun import EigenvalueProfile, power_sum_param, quantum_dims
from idempotency_oracle import entrywise_residuals


def num_profile(mus, nus, q, h=None, table=EMPTY_TABLE):
    return EigenvalueProfile(
        [parse_scalar(str(x), table) for x in mus],
        [parse_scalar(str(x), table) for x in nus],
        parse_scalar(str(q), table),
        parse_scalar(str(h), table) if h is not None else None)


def sym_profile(m, n, with_h=False):
    t = SymbolTable.for_profile(m, n, with_h=with_h)
    q = Scalar.from_symbol(t, "q")
    h = Scalar.from_symbol(t, "h") if with_h else None
    mus = [Scalar.from_symbol(t, f"mu{i}") for i in range(1, m + 1)]
    nus = [Scalar.from_symbol(t, f"nu{j}") for j in range(1, n + 1)]
    return EigenvalueProfile(mus, nus, q, h)


# -- regularity ---------------------------------------------------------------


def test_regularity_classical():
    prof = num_profile([1, 2], [], q=1)
    verdict = regularity(prof, with_det=True)
    assert verdict.regular
    assert not verdict.det_hankel.is_zero()


def test_regularity_q2_scaling_exceptional():
    # mu = (q^2 c, c) violates the even-even condition for any c != 0
    t = SymbolTable(["q", "c"])
    q = Scalar.from_symbol(t, "q")
    c = Scalar.from_symbol(t, "c")
    prof = EigenvalueProfile([q ** 2 * c, c], [], q)
    verdict = regularity(prof)
    assert not verdict.regular
    assert ("even-even", 1, 2) in verdict.violated
    # numeric instance
    prof_num = num_profile(["49/25*3", 3], [], q="7/5")
    v2 = regularity(prof_num)
    assert not v2.regular and ("even-even", 1, 2) in v2.violated


def test_regularity_coincident_strengthening():
    t = SymbolTable(["q", "c"])
    q = Scalar.from_symbol(t, "q")
    c = Scalar.from_symbol(t, "c")
    prof = EigenvalueProfile([c], [c], q)
    verdict = regularity(prof)
    assert not verdict.regular
    assert any(kind == "mixed-coincident" for kind, _, _ in verdict.violated)


def test_regularity_nc_gl2_conditions():
    # shifted mode: muhat_i - q^-2 muhat_j - q^-1 h != 0 over ordered pairs
    t = SymbolTable(["q", "h", "x"])
    q = Scalar.from_symbol(t, "q")
    h = Scalar.from_symbol(t, "h")
    x = Scalar.from_symbol(t, "x")
    # choose muhat_1 = q^-2 x + q^-1 h, muhat_2 = x: exactly exceptional
    prof = EigenvalueProfile([q.inv() ** 2 * x + q.inv() * h, x], [], q, h)
    verdict = regularity(prof)
    assert not verdict.regular
    assert ("even-even", 1, 2) in verdict.violated
    # generic shifted profile is regular
    y = Scalar.from_symbol(SymbolTable(["q", "h", "x", "y"]), "y")
    t2 = y.table
    prof2 = EigenvalueProfile([Scalar.from_symbol(t2, "x"), y],
                              [], Scalar.from_symbol(t2, "q"),
                              Scalar.from_symbol(t2, "h"))
    assert regularity(prof2).regular


def test_regularity_nc_reduces_to_classical_iff_q1_h0():
    # at q = 1, h = 0 the shifted conditions collapse to mu_i != mu_j
    prof = num_profile([1, 2], [], q=1, h=0)
    assert regularity(prof).regular
    bad = num_profile([2, 2 + 1], [], q=1, h=1)
    # muhat_1 - muhat_2 - h = 2 - 3 - 1 != 0, muhat_2 - muhat_1 - h = 0: exceptional
    verdict = regularity(bad)
    assert not verdict.regular
    assert ("even-even", 2, 1) in verdict.violated


# -- Hankel -------------------------------------------------------------------


def test_hankel_10():
    prof = sym_profile(1, 0)
    H = hankel(prof)
    assert H.nrows == 1
    assert H.data[0][0] == prof.q.inv()
    assert det_bareiss(H) == prof.q.inv()


def test_hankel_20_and_11_factorizations():
    prof = sym_profile(2, 0)
    dims = quantum_dims(prof)
    det = det_bareiss(hankel(prof))
    diff = prof.mus[0] - prof.mus[1]
    assert det == dims.d[0] * dims.d[1] * diff * diff

    prof = sym_profile(1, 1)
    dims = quantum_dims(prof)
    det = det_bareiss(hankel(prof))
    diff = prof.mus[0] - prof.nus[0]
    assert det == dims.d[0] * dims.dprime[0] * diff * diff


def test_hankel_det_check_symbolic():
    assert hankel_det_check(2, 0, "symbolic")
    assert hankel_det_check(1, 1, "symbolic")
    assert hankel_det_check(2, 1, "symbolic")


def test_hankel_det_check_sampled_32():
    assert hankel_det_check(3, 2, "sampled", seed=42, trials=7)


# -- gradients ------------------------------------------------------------------


def test_gradient_columns_first_entries():
    hs = build_dj_gl(2, parse_scalar("7/5", EMPTY_TABLE))
    A, B = gradient_matrices(hs, 2)
    N = 2
    for i in range(N):
        for j in range(N):
            pos = j * N + i
            assert A[pos][0] == NCPoly.const(N, hs.table, hs.c_op.data[j][i])
            expect = NCPoly.one(N, hs.table) if i == j else NCPoly.zero(N, hs.table)
            assert B[0][pos] == expect
    # (BA)_11 = Tr C
    from braidorbit.rea import nc_matmul

    ba = nc_matmul(B, A)
    assert ba[0][0] == NCPoly.const(N, hs.table, hs.c_op.trace())


@pytest.mark.parametrize("builder,size", [
    (lambda: build_flip(2), 2),
    (lambda: build_flip(3), 3),
    (lambda: build_dj_gl(2, parse_scalar("7/5", EMPTY_TABLE)), 2),
    (lambda: build_dj_gl(3, parse_scalar("5/3", EMPTY_TABLE)), 3),
    (lambda: build_q_super(1, 1, parse_scalar("9/7", EMPTY_TABLE)), 2),
])
def test_free_hankel_identity(builder, size):
    hs = builder()
    assert free_hankel_identity(hs, *gradient_matrices(hs, size))


# -- recurrence ------------------------------------------------------------------


def test_higher_power_reduction_symbolic():
    prof = sym_profile(1, 0)
    vals = higher_power_reduction(prof, 2)
    assert vals[0] == prof.q.inv() * prof.mus[0] ** 2
    for m, n in [(2, 0), (1, 1), (2, 1)]:
        prof = sym_profile(m, n)
        higher_power_reduction(prof, m + n + 2)


def test_higher_power_reduction_mismatch_detection():
    prof = sym_profile(2, 0)
    wrong = [Scalar.one(prof.table)] * 3
    with pytest.raises(RecurrenceMismatch):
        higher_power_reduction(prof, 3, coeff_values=wrong)


def test_pipeline_recurrence_compares_for_size_two(monkeypatch):
    # with s = 2 the pipeline runs the recurrence to p_3, so a wrong
    # Cayley-Hamilton coefficient of a (1|1) orbit is caught
    prof = sym_profile(1, 1)
    coeffs, _ = orbit.orbit_coefficients(prof)
    wrong = coeffs[:-1] + [coeffs[-1] + 1]
    with pytest.raises(RecurrenceMismatch):
        higher_power_reduction(prof, 3, coeff_values=wrong)
    hs = build_q_super(1, 1, parse_scalar("9/7", EMPTY_TABLE))
    prof = num_profile([1], [2], q="9/7")
    coeffs, mode = orbit.orbit_coefficients(prof)
    assert cotangent(hs, prof).certificates["power_recurrence"]
    monkeypatch.setattr(orbit, "orbit_coefficients",
                        lambda p: (coeffs[:-1] + [coeffs[-1] + 1], mode))
    with pytest.raises(RecurrenceMismatch):
        cotangent(hs, prof)


# -- cotangent -------------------------------------------------------------------


def test_cotangent_rank_one_symbolic():
    hs = build_dj_gl(1, Scalar.from_symbol(SymbolTable(["q"]), "q"))
    t = hs.table
    prof = EigenvalueProfile([Scalar.from_symbol(t, "q") * 3], [],
                             Scalar.from_symbol(t, "q"))
    data = cotangent(hs, prof)
    assert data.certificates["entrywise"]
    assert data.certificates["free_hankel"]


def test_cotangent_flip2_classical():
    hs = build_flip(2)
    prof = num_profile([1, 2], [], q=1)
    data = cotangent(hs, prof)
    assert data.certificates["entrywise"]
    assert data.certificates["complement_idempotent"]
    assert data.certificates["power_recurrence"]


def test_cotangent_dj2():
    hs = build_dj_gl(2, parse_scalar("7/5", EMPTY_TABLE))
    prof = num_profile([1, 2], [], q="7/5")
    data = cotangent(hs, prof)
    assert data.certificates["entrywise"]
    # s = 2: every Hankel value is a generator target, nothing is reduced
    assert "reduction_degree" not in data.certificates
    degree, residuals = entrywise_residuals(
        hs, prof, data.ebar, [power_sum_param(k, prof) for k in (1, 2)])
    assert degree == 4 and not residuals


def test_cotangent_rejects_exceptional():
    hs = build_dj_gl(2, parse_scalar("7/5", EMPTY_TABLE))
    prof = num_profile(["49/25", 1], [], q="7/5")
    with pytest.raises(ExceptionalProfile):
        cotangent(hs, prof)


# -- modified-algebra orbits -------------------------------------------------------


def test_nc_orbit_h0_matches_braided():
    hs = build_dj_gl(2, parse_scalar("7/5", EMPTY_TABLE))
    prof = num_profile([1, 2], [], q="7/5", h=0)
    quotient, data = nc_orbit(hs, prof)
    assert quotient.mode == "braided"
    plain = cotangent(hs, prof)
    assert data.H == plain.H
    assert data.ebar == plain.ebar


def test_nc_orbit_dj2_shift_route():
    t = SymbolTable(["h"])
    hs = build_dj_gl(2, parse_scalar("7/5", t))
    prof = EigenvalueProfile([parse_scalar("1", t), parse_scalar("2", t)], [],
                             parse_scalar("7/5", t), Scalar.from_symbol(t, "h"))
    quotient, data = nc_orbit(hs, prof)
    assert quotient.mode == "nc"
    assert data.certificates["entrywise"]


def test_nc_orbit_gl2_classical_q1():
    # enveloping-algebra orbit with muhat = (0, 3h) at q = 1
    t = SymbolTable(["q", "h"])
    hs = build_flip(2, t)
    h = Scalar.from_symbol(t, "h")
    prof = EigenvalueProfile([Scalar.zero(t), 3 * h], [], Scalar.one(t), h)
    assert regularity(prof).regular
    quotient, data = nc_orbit(hs, prof)
    assert quotient.mode == "nc-classical"
    assert data.certificates["entrywise"]
    # hatted dims at q=1: (4/3, 2/3); top-left Hankel entry is Tr C = 2
    dims = quantum_dims(prof)
    assert dims.d[0] == Scalar.from_fraction(t, Fraction(4, 3))
    assert dims.d[1] == Scalar.from_fraction(t, Fraction(2, 3))
    assert data.H.data[0][0] == Scalar.from_fraction(t, 2)


def twisted_flip(table):
    """R(e1 e2) = 2 e2 e1, R(e2 e1) = 1/2 e1 e2, R(ei ei) = ei ei: involutive,
    and not a graded flip."""
    c = Fraction
    rows = {0: {0: c(1)}, 2: {1: c(2)}, 1: {2: c(1, 2)}, 3: {3: c(1)}}
    rows = {o: {i: Scalar.from_fraction(EMPTY_TABLE, v) for i, v in row.items()}
            for o, row in rows.items()}
    hs = validate("twisted_flip", 2, EMPTY_TABLE, Scalar.one(EMPTY_TABLE),
                  TensorOp(2, 2, SparseMat(4, 4, rows), EMPTY_TABLE))
    return hs.lift(table)


def test_nc_orbit_twisted_flip_q1():
    # the modified algebra of an involutive symmetry that is not a graded
    # flip is decided at q = 1 by the same filtered engine
    t = SymbolTable(["q", "h"])
    hs = twisted_flip(t)
    h = Scalar.from_symbol(t, "h")
    prof = EigenvalueProfile([Scalar.zero(t), 3 * h], [], Scalar.one(t), h)
    quotient, data = nc_orbit(hs, prof)
    assert quotient.mode == "nc-classical"
    assert data.certificates["entrywise"]


def _route_inputs(route):
    if route == "plain":
        hs = build_dj_gl(2, parse_scalar("7/5", EMPTY_TABLE))
        return hs, num_profile([1, 2], [], q="7/5")
    if route == "shift":
        t = SymbolTable(["h"])
        hs = build_dj_gl(2, parse_scalar("7/5", t))
        return hs, num_profile([1, 2], [], q="7/5", h="h", table=t)
    t = SymbolTable(["q", "h"])
    return build_flip(2, t), num_profile(["3*h", "5*h"], [], q=1, h="h", table=t)


@pytest.mark.parametrize("route", ["plain", "shift", "pbw"])
def test_entrywise_certificate_fails_on_perturbed_target(route):
    # the idempotent is built for the true p_1 value; an orbit ideal whose
    # p_1 target is off by one must leave some idempotency entry nonzero
    hs, prof = _route_inputs(route)
    quotient, data = nc_orbit(hs, prof)
    assert data.certificates["entrywise"]
    targets = list(quotient.targets)
    targets[0] = targets[0] - 1
    gens = [power_sum_element(k, hs) - NCPoly.const(hs.N, hs.table, t)
            for k, t in enumerate(targets, 1)]
    rs = relation_space(hs, "mrea", prof.h) if prof.is_mrea else relation_space(hs, "minus")
    sq = nc_matmul(data.ebar, data.ebar)
    n2 = hs.N * hs.N
    entries = [sq[r][c] - data.ebar[r][c] for r in range(n2) for c in range(n2)]
    reducer = OrbitIdealReducer(rs, gens, max(max(x.max_degree() for x in entries), 2))
    assert any(not reducer.reduce(x).is_zero() for x in entries)


@pytest.mark.parametrize("route", ["plain", "shift", "pbw"])
def test_hankel_lemma_agrees_with_entrywise_oracle(route):
    # for N = 2 both routes run: the lemma certifies what the direct
    # reduction of all N^4 entries finds, and a p_1 target off by one fails both
    hs, prof = _route_inputs(route)
    quotient, data = nc_orbit(hs, prof)
    assert data.certificates["entrywise"]
    assert hankel_lemma(hs, prof, data.H, quotient.targets) == (None, None)
    assert entrywise_residuals(hs, prof, data.ebar, quotient.targets) == (4, [])
    targets = list(quotient.targets)
    targets[0] = targets[0] - 1
    with pytest.raises(IdentityFailed, match="is not the orbit target"):
        hankel_lemma(hs, prof, data.H, targets)
    assert entrywise_residuals(hs, prof, data.ebar, targets)[1]


def _perturbed(H, positions):
    """H with 1 added at each of `positions`."""
    rows = [list(row) for row in H.data]
    for k, l in positions:
        rows[k][l] = rows[k][l] + 1
    return MatrixS(H.table, rows)


@pytest.mark.parametrize("positions,message", [
    ([(0, 0)], "is not Tr_R"),
    ([(0, 1)], "not a Hankel matrix"),
    ([(0, 1), (1, 0)], "p_1 .* is not the orbit target"),
    ([(1, 1)], "p_2 .* is not the orbit target"),
])
def test_hankel_lemma_refuses_perturbed_hankel_values(positions, message):
    hs, prof = _route_inputs("plain")
    quotient, data = nc_orbit(hs, prof)
    with pytest.raises(IdentityFailed, match=message):
        hankel_lemma(hs, prof, _perturbed(data.H, positions), quotient.targets)


@pytest.mark.parametrize("builder,prof,truncation", [
    (lambda: build_dj_gl(3, parse_scalar("7/5", EMPTY_TABLE)),
     num_profile([1, 2, 3], [], q="7/5"), 4),
    (lambda: build_superflip(2, 1), num_profile([1, 2], [3], q=1), 6),
], ids=["dj_gl3", "superflip21"])
def test_hankel_lemma_leaves_p4_unreduced_on_perturbed_target(builder, prof, truncation):
    # s = 3: p_4 is reduced at truncation 4, then at 4 + mn.  With the p_1
    # target and the Hankel values at index 1 both off by one, every scalar
    # condition holds, but p_4 no longer reduces to its value
    hs = builder()
    quotient, data = nc_orbit(hs, prof)
    assert data.certificates["entrywise"]
    assert data.certificates["reduction_degree"] == truncation
    targets = list(quotient.targets)
    targets[0] = targets[0] + 1
    H = _perturbed(data.H, [(0, 1), (1, 0)])
    assert hankel_lemma(hs, prof, H, targets) == (truncation, 4)


def two_sided_span(algebra, generators, max_degree):
    """Reference framing of the orbit ideal: NF(u g v) over normal words u, v."""
    nf = algebra.normal_form
    space = RowSpace()
    for g in generators:
        gdeg = max(map(len, g), default=0)
        for pad in range(max_degree - gdeg + 1):
            for lpad in range(pad + 1):
                for u in algebra.normal_words(lpad):
                    ug = nf({u + w: c for w, c in g.items()})
                    for v in algebra.normal_words(pad - lpad):
                        space.add(by_degree(nf({w + v: c for w, c in ug.items()})))
    return space


def _orbit_reducer(hs, prof, targets, degree=4):
    gens = [power_sum_element(k, hs) - NCPoly.const(hs.N, hs.table, t)
            for k, t in enumerate(targets, 1)]
    rs = relation_space(hs, "mrea", prof.h) if prof.is_mrea else relation_space(hs, "minus")
    return gens, OrbitIdealReducer(rs, gens, degree)


@pytest.mark.parametrize("route", ["plain", "shift", "pbw"])
def test_one_sided_span_equals_two_sided(route):
    # the orbit generators are central, so framing them on one side spans
    # the same truncated ideal, hence the same unique echelon basis
    hs, prof = _route_inputs(route)
    gens, reducer = _orbit_reducer(hs, prof, [power_sum_param(k, prof) for k in (1, 2)])
    reference = two_sided_span(reducer.quotient, [g.terms for g in gens], 4)
    assert reference.rank == reducer.space.rank > 0
    assert reference.pivots == reducer.space.pivots


def test_ideal_span_refuses_non_central_generator():
    # l[1,2] - 1 does not commute with the letters of the plain REA
    hs, _ = _route_inputs("plain")
    quotient = relation_space(hs, "minus").membership_reducer(2)
    one = Scalar.one(hs.table)
    central = power_sum_element(1, hs).terms
    assert ideal_span(quotient, [central], 2).rank > 0
    with pytest.raises(IdentityFailed, match="generator 1 does not commute with letter"):
        ideal_span(quotient, [central, {(1,): one, (): -one}], 2)


def test_reduce_residual_invariant_under_scaling():
    # modified algebra over Q(h): the residual of a perturbed-target entry is
    # the one the echelon basis gives without clearing denominators, and scales
    hs, prof = _route_inputs("shift")
    quotient, data = nc_orbit(hs, prof)
    targets = list(quotient.targets)
    targets[0] = targets[0] - 1
    _, reducer = _orbit_reducer(hs, prof, targets)
    sq = nc_matmul(data.ebar, data.ebar)
    n2 = hs.N * hs.N
    entries = [sq[r][c] - data.ebar[r][c] for r in range(n2) for c in range(n2)]
    x = next(x for x in entries if not reducer.reduce(x).is_zero())
    assert any(not c.is_constant() for c in x.terms.values())
    res = reducer.reduce(x)
    raw = reducer.space.reduce(by_degree(reducer.quotient.normal_form(x.terms)))
    assert res == NCPoly(hs.N, hs.table, {w: c for (_, w), c in raw.items()})
    h = Scalar.from_symbol(hs.table, "h")
    d = (h + 2) / (3 * h - 1)
    assert reducer.reduce(x.scale(d)) == res.scale(d)


def test_hatted_ch_values_match_plain_at_h0():
    prof = num_profile([1, 2], [], q="7/5", h=0)
    from braidorbit.orbit import ch_values

    assert hatted_ch_values(prof) == ch_values(prof)


def test_hankel_det_vanishes_exactly_on_scaling_conditions():
    # the determinant's vanishing locus is exactly the q^2-scaling conditions;
    # coincident eigenvalues are a removable singularity of the determinant
    # (nonzero continuation) but the Hankel itself is undefined there because
    # the quantum dimensions have poles - hence the strengthened predicate
    prof = sym_profile(2, 0)
    det = det_bareiss(hankel(prof))
    assert det == hankel_det_target(prof)
    q = prof.q
    mu1, mu2 = prof.mus
    cleared = -(q.inv() ** 2) * (mu1 - q.inv() ** 2 * mu2) * (mu2 - q.inv() ** 2 * mu1)
    assert det == cleared
    val = det.substitute({"mu1": Fraction(49, 25) * 3, "mu2": Fraction(3),
                          "q": Fraction(7, 5)})
    assert val.is_zero()
    val2 = det.substitute({"mu1": Fraction(3), "mu2": Fraction(3),
                           "q": Fraction(7, 5)})
    assert not val2.is_zero()
    from braidorbit.errors import DegenerateProfile

    with pytest.raises(DegenerateProfile):
        num_profile([3, 3], [], q="7/5")
