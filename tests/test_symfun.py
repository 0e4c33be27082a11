import random
from fractions import Fraction

import pytest

from braidorbit.errors import DegenerateProfile
from braidorbit.scalar import EMPTY_TABLE, Scalar, SymbolTable
from braidorbit.symfun import (
    EigenvalueProfile,
    GenPoly,
    NewtonConverter,
    Partition,
    a_values_param,
    ch_coefficients,
    ch_factorized,
    elementary_symmetric,
    eval_symexpr,
    jacobi_trudi,
    newton_a_from_p,
    newton_p_from_a,
    newton_s_from_p,
    power_sum_param,
    quantum_dims,
    schur_param,
    symexpr_to_s_basis,
    vieta_checks,
    wronski_s_from_a,
)

QT = SymbolTable(["q"])


def qsym():
    return Scalar.from_symbol(QT, "q")


def qconst(v):
    return Scalar.from_fraction(EMPTY_TABLE, Fraction(v))


def sym_profile(m, n, with_h=False):
    t = SymbolTable.for_profile(m, n, with_h=with_h)
    q = Scalar.from_symbol(t, "q")
    h = Scalar.from_symbol(t, "h") if with_h else None
    mus = [Scalar.from_symbol(t, f"mu{i}") for i in range(1, m + 1)]
    nus = [Scalar.from_symbol(t, f"nu{j}") for j in range(1, n + 1)]
    return EigenvalueProfile(mus, nus, q, h)


def num_profile(mus, nus, q, h=None):
    t = EMPTY_TABLE
    return EigenvalueProfile([Scalar.from_fraction(t, Fraction(x)) for x in mus],
                             [Scalar.from_fraction(t, Fraction(x)) for x in nus],
                             Scalar.from_fraction(t, Fraction(q)),
                             Scalar.from_fraction(t, Fraction(h)) if h is not None else None)


# -- partitions --------------------------------------------------------------


def test_partition_shapes():
    assert Partition.rectangle(3, 2).parts == (2, 2, 2)
    assert Partition.rectangle_with_row(3, 2, 1).parts == (2, 2, 2, 1)
    assert Partition.rectangle_plus_column(3, 2, 2).parts == (3, 3, 2)
    assert Partition.rectangle_plus_column_row(3, 2, 3, 2).parts == (3, 3, 3, 2)
    assert Partition.rectangle(1, 0).parts == ()
    assert Partition((3, 1)).conjugate().parts == (2, 1, 1)
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition.rectangle_with_row(2, 1, 2)


# -- Newton / Wronski ---------------------------------------------------------


def test_newton_k1_and_classical_table():
    one = Scalar.one(EMPTY_TABLE)
    q1 = Scalar.one(EMPTY_TABLE)
    # symbolic p values as generator polynomials at q = 1
    t = QT
    gone = GenPoly.one(t)
    ps = [GenPoly.gen(t, k) for k in (1, 2, 3)]
    avals = newton_a_from_p(ps, Scalar.one(t), gone)
    # a1 = p1
    assert avals[0] == ps[0]
    # classical: a2 = (p1^2 - p2)/2, a3 = (p1^3 - 3 p1 p2 + 2 p3)/6
    half = Scalar.from_fraction(t, Fraction(1, 2))
    sixth = Scalar.from_fraction(t, Fraction(1, 6))
    expect_a2 = (ps[0] * ps[0] - ps[1]).scale(half)
    assert avals[1] == expect_a2
    expect_a3 = (ps[0] * ps[0] * ps[0] - (ps[0] * ps[1]) * 3 + ps[2] * 2).scale(sixth)
    assert avals[2] == expect_a3


def test_newton_roundtrip_q75():
    rng = random.Random(8)
    q = qconst("7/5")
    one = Scalar.one(EMPTY_TABLE)
    ps = [Scalar.from_fraction(EMPTY_TABLE, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
          for _ in range(5)]
    avals = newton_a_from_p(ps, q, one)
    back = newton_p_from_a(avals, q, one)
    assert back == ps


def test_s_routes_agree():
    rng = random.Random(11)
    q = qconst("7/5")
    one = Scalar.one(EMPTY_TABLE)
    ps = [Scalar.from_fraction(EMPTY_TABLE, rng.randint(-5, 5)) for _ in range(4)]
    s_direct = newton_s_from_p(ps, q, one)
    avals = newton_a_from_p(ps, q, one)
    s_wronski = wronski_s_from_a(avals, one)
    assert s_direct == s_wronski
    # s1 = a1 and the classical shape of s2
    assert s_direct[0] == avals[0]
    assert s_wronski[1] == avals[0] * avals[0] - avals[1]


# -- Jacobi-Trudi -------------------------------------------------------------


def test_jacobi_trudi_small():
    t = QT
    a1 = GenPoly.gen(t, 1)
    a2 = GenPoly.gen(t, 2)
    a3 = GenPoly.gen(t, 3)
    assert jacobi_trudi(Partition((1,)), t) == a1
    assert jacobi_trudi(Partition((1, 1)), t) == a2
    # 2x2 determinant oracle for (2,1): det [[a2, a3], [1, a1]]
    assert jacobi_trudi(Partition((2, 1)), t) == a1 * a2 - a3
    assert jacobi_trudi(Partition(()), t) == GenPoly.one(t)


def test_symexpr_s_basis_roundtrip():
    t = QT
    for lam in [Partition((2, 1)), Partition((3,)), Partition((2, 2)), Partition((1, 1, 1))]:
        expr = jacobi_trudi(lam, t)
        expanded = symexpr_to_s_basis(expr)
        assert expanded == {lam: Scalar.one(t)}
    combo = jacobi_trudi(Partition((2, 1)), t) * 3 + jacobi_trudi(Partition((3,)), t)
    back = symexpr_to_s_basis(combo)
    assert back[Partition((2, 1))] == 3
    assert back[Partition((3,))] == 1


# -- Cayley-Hamilton coefficients ---------------------------------------------


def test_ch_coefficients_10():
    q = qsym()
    coeffs = ch_coefficients(1, 0, q)
    assert coeffs[0] == GenPoly.one(QT)
    assert coeffs[1] == GenPoly.gen(QT, 1).scale(-q)


def test_ch_coefficients_32_match_display():
    q = qsym()
    coeffs = ch_coefficients(3, 2, q)
    assert len(coeffs) == 6

    def s(k=None, r=None):
        if k is None and r is None:
            lam = Partition.rectangle(3, 2)
        elif r is None:
            lam = Partition.rectangle_plus_column(3, 2, k)
        elif k is None:
            lam = Partition.rectangle_with_row(3, 2, r)
        else:
            lam = Partition.rectangle_plus_column_row(3, 2, k, r)
        return jacobi_trudi(lam, QT)

    qi = q.inv()
    expected = [
        s(),
        s(r=1).scale(qi) - s(k=1).scale(q),
        s(r=2).scale(qi ** 2) - s(k=1, r=1) + s(k=2).scale(q ** 2),
        s(k=2, r=1).scale(q) - s(k=1, r=2).scale(qi) - s(k=3).scale(q ** 3),
        s(k=2, r=2) - s(k=3, r=1).scale(q ** 2),
        s(k=3, r=2).scale(-q),
    ]
    for got, want in zip(coeffs, expected):
        assert got == want
    # leading coefficient is the rectangle Schur function
    assert coeffs[0] == jacobi_trudi(Partition.rectangle(3, 2), QT)
    assert ch_coefficients(3, 2, q)[0] == s()


def test_ch_factorized_displays():
    q = qsym()
    even, odd = ch_factorized(3, 2, q)
    qi = q.inv()
    assert even[0] == jacobi_trudi(Partition.rectangle(3, 2), QT)
    assert even[1] == jacobi_trudi(Partition.rectangle_plus_column(3, 2, 1), QT).scale(-q)
    assert even[2] == jacobi_trudi(Partition.rectangle_plus_column(3, 2, 2), QT).scale(q ** 2)
    assert even[3] == jacobi_trudi(Partition.rectangle_plus_column(3, 2, 3), QT).scale(-(q ** 3))
    assert odd[1] == jacobi_trudi(Partition.rectangle_with_row(3, 2, 1), QT).scale(qi)
    assert odd[2] == jacobi_trudi(Partition.rectangle_with_row(3, 2, 2), QT).scale(qi ** 2)
    # pure even case: the odd factor degenerates to [1]
    even0, odd0 = ch_factorized(2, 0, q)
    assert len(odd0) == 1 and odd0[0] == GenPoly.one(QT)


def test_ch_factorized_11_parametrized_product():
    # expanding the two factors reproduces s_rect times the plain coefficients
    # once everything is bound to a symbolic (1|1) profile
    prof = sym_profile(1, 1)
    q = prof.q
    coeffs = ch_coefficients(1, 1, q)
    even, odd = ch_factorized(1, 1, q)
    rect = schur_param(Partition.rectangle(1, 1), prof)

    def val(expr):
        return eval_symexpr(expr, prof)

    # coefficient of L^2, L^1, L^0 in the product of the two linear factors
    prod = {
        2: val(even[0]) * val(odd[0]),
        1: val(even[0]) * val(odd[1]) + val(even[1]) * val(odd[0]),
        0: val(even[1]) * val(odd[1]),
    }
    for i in range(3):
        assert prod[2 - i] == rect * val(coeffs[i])


# -- quantum dimensions and parametrized power sums ----------------------------


def test_quantum_dims_classical_limit():
    prof = num_profile([1, 2], [5], q=1)
    dims = quantum_dims(prof)
    assert all(d == 1 for d in dims.d)
    assert all(dp == -1 for dp in dims.dprime)
    # p_k = sum mu^k - sum nu^k at q = 1
    assert power_sum_param(2, prof).as_fraction() == 1 + 4 - 25
    assert power_sum_param(0, prof).as_fraction() == 2 - 1


def test_quantum_dims_10_and_11():
    prof = sym_profile(1, 0)
    dims = quantum_dims(prof)
    assert dims.d[0] == prof.q.inv()
    assert power_sum_param(3, prof) == prof.q.inv() * prof.mus[0] ** 3

    prof = sym_profile(1, 1)
    q, mu, nu = prof.q, prof.mus[0], prof.nus[0]
    dims = quantum_dims(prof)
    assert dims.d[0] == q.inv() * (mu - q ** 2 * nu) / (mu - nu)
    assert dims.dprime[0] == -q * (nu - q.inv() ** 2 * mu) / (nu - mu)


def test_power_sum_zero_matches_superdimension():
    prof = num_profile([2, 3], [7], q=1)
    assert power_sum_param(0, prof).as_fraction() == 1  # m - n = 2 - 1


def test_degenerate_profile_rejected():
    with pytest.raises(DegenerateProfile):
        num_profile([1, 1], [], q="7/5")
    with pytest.raises(DegenerateProfile):
        num_profile([2], [2], q="7/5")


def test_hatted_dims_q_to_1_display():
    # at q = 1 the shifted weights carry (mu_i - mu_p -+ h) factors
    prof = sym_profile(2, 1, with_h=True)
    t = prof.table
    dims = quantum_dims(prof)
    mu1, mu2 = prof.mus
    nu1 = prof.nus[0]
    h = prof.h
    d1_at_1 = dims.d[0].substitute({"q": 1})
    expected = ((mu1 - mu2 - h) / (mu1 - mu2)) * ((mu1 - nu1 + h) / (mu1 - nu1))
    assert d1_at_1 == expected
    dp_at_1 = dims.dprime[0].substitute({"q": 1})
    expected_dp = -((nu1 - mu1 - h) / (nu1 - mu1)) * ((nu1 - mu2 - h) / (nu1 - mu2))
    assert dp_at_1 == expected_dp


# -- Schur parametrization ------------------------------------------------------


def test_schur_param_routes_agree_small():
    prof = sym_profile(1, 1)
    for lam in [Partition((1,)), Partition((2,)), Partition((1, 1)),
                Partition((2, 1)), Partition((2, 2))]:
        va = schur_param(lam, prof, route="a")
        vp = schur_param(lam, prof, route="p")
        assert va == vp
    prof21 = sym_profile(2, 1)
    for lam in [Partition((2, 1)), Partition((1, 1, 1))]:
        assert schur_param(lam, prof21, route="a") == schur_param(lam, prof21, route="p")


def test_schur_param_rectangle_closed_form_consistent():
    prof = sym_profile(1, 1)
    q, mu, nu = prof.q, prof.mus[0], prof.nus[0]
    rect = schur_param(Partition.rectangle(1, 1), prof)
    assert rect == q.inv() * mu - q * nu
    # the general route on the same shape agrees with the closed product
    general = eval_symexpr(jacobi_trudi(Partition.rectangle(1, 1), prof.table), prof)
    assert general == rect


def test_ch_recurrence_on_profiles():
    # sum_i c_i(param) p_{m+n-i+k}(param) = 0 for k = 0..4
    for (m, n) in [(2, 0), (1, 1), (2, 1)]:
        prof = sym_profile(m, n)
        coeffs = [eval_symexpr(c, prof) for c in ch_coefficients(m, n, prof.q)]
        for k in range(5):
            acc = Scalar.zero(prof.table)
            for i, ci in enumerate(coeffs):
                acc = acc + ci * power_sum_param(m + n - i + k, prof)
            assert acc.is_zero(), (m, n, k)


def test_vieta_checks_21():
    prof = sym_profile(2, 1)
    results = vieta_checks(prof)
    assert all(ok for _, ok in results)
    assert len(results) == 3


def test_bare_symbol_profiles_specialize_to_numeric_profiles():
    """Power sums and a-values of bare-symbol profiles, at h = 0 and at a
    symbolic h, equal the values of the numeric profile at random rational
    points; the Vieta identities hold where they apply (h = 0)."""
    rng = random.Random(15)
    for m, n in [(2, 1), (1, 2), (3, 0)]:
        for with_h in (False, True):
            prof = sym_profile(m, n, with_h)
            ps = [power_sum_param(k, prof) for k in range(5)]
            avals = a_values_param(prof, 4)
            for _ in range(3):
                point: dict = {}
                while len(set(point.values())) < len(prof.table.names):
                    point = {name: Fraction(rng.randint(1, 30), rng.randint(1, 30))
                             for name in prof.table.names}
                ref = num_profile([point[f"mu{i}"] for i in range(1, m + 1)],
                                  [point[f"nu{j}"] for j in range(1, n + 1)],
                                  point["q"], point.get("h"))
                assert [p.evaluate(point) for p in ps] == \
                    [power_sum_param(k, ref).as_fraction() for k in range(5)], (m, n, with_h)
                assert [a.evaluate(point) for a in avals] == \
                    [a.as_fraction() for a in a_values_param(ref, 4)], (m, n, with_h)
            if not with_h:
                assert all(ok for _, ok in vieta_checks(prof)), (m, n)


def test_p0_param_equals_quantum_trace_of_identity():
    # the parametrized p_0 = sum d + sum d' is a constant rational function
    # equal to Tr C of any symmetry with the matching bi-rank
    from braidorbit.hecke import build_dj_gl, build_q_super

    prof = sym_profile(2, 0)
    p0 = power_sum_param(0, prof)
    assert p0 == prof.q.inv() + prof.q.inv() ** 3
    hs = build_dj_gl(2, qconst("7/5"))
    assert p0.evaluate({"q": Fraction(7, 5), "mu1": 2, "mu2": 5}) == \
        hs.c_op.trace().as_fraction()

    prof11 = sym_profile(1, 1)
    assert power_sum_param(0, prof11).is_zero()
    hs11 = build_q_super(1, 1, qconst("9/7"))
    assert hs11.c_op.trace().is_zero()


def test_schur_routes_agree_sampled_32():
    # exact agreement of the elementary-value route and the p-basis route on
    # the weight-9 shape at pseudo-random rational points
    rng = random.Random(2024)
    for _ in range(3):
        vals = {name: Fraction(rng.randint(1, 50), rng.randint(1, 50))
                for name in ("q", "mu1", "mu2", "mu3", "nu1", "nu2")}
        if len(set(vals.values())) < 6:
            continue
        t = SymbolTable(())
        try:
            prof = EigenvalueProfile(
                [Scalar.from_fraction(t, vals[f"mu{i}"]) for i in (1, 2, 3)],
                [Scalar.from_fraction(t, vals[f"nu{j}"]) for j in (1, 2)],
                Scalar.from_fraction(t, vals["q"]))
        except DegenerateProfile:
            continue
        lam = Partition.rectangle_plus_column(3, 2, 3)
        assert schur_param(lam, prof, route="a") == schur_param(lam, prof, route="p")


def _termwise_power_sum(k, profile):
    """The oracle: sum d_i mu_i^k + sum d'_j nu_j^k, one Scalar add per term."""
    dims = quantum_dims(profile)
    total = Scalar.zero(profile.table)
    for d, v in zip(dims.d + dims.dprime, profile.mus + profile.nus):
        total = total + d * v ** k
    return total


def _shifted_base_profile():
    # the base profile of orbit.hatted_ch_values: mu - h/(q - q^-1), so the
    # eigenvalues have a common denominator q^2 - 1
    prof = sym_profile(2, 1, with_h=True)
    s = prof.h * (prof.q - prof.q.inv()).inv()
    return EigenvalueProfile([mu - s for mu in prof.mus], [nu - s for nu in prof.nus], prof.q)


@pytest.mark.parametrize("make_profile", [
    lambda: sym_profile(3, 2),
    lambda: sym_profile(2, 1, with_h=True),
    lambda: sym_profile(1, 2, with_h=True),
    _shifted_base_profile,
    lambda: num_profile(["1/2", 3], ["-5/3"], "7/5"),
    # q = +-1: Q = q - q^-1 vanishes, the residue identity reads
    # -h p_k = f_(k+1), and at h = 0 every weight is q^-1 or -q
    lambda: num_profile(["1/2", 3], ["-5/3"], 1, "2/3"),
    lambda: num_profile(["1/2", 3], ["-5/3"], -1, "-5/4"),
    lambda: num_profile(["1/2", 3], ["-5/3"], 1),
    lambda: num_profile(["1/2", 3], ["-5/3"], -1),
], ids=["symbols_32", "shifted_h_21", "shifted_h_12", "hatted_base_21", "numeric_21",
        "numeric_q1_h", "numeric_qm1_h", "numeric_q1", "numeric_qm1"])
def test_power_sum_param_matches_termwise_sum(make_profile):
    prof = make_profile()
    for k in range(prof.m + prof.n + 3):
        assert power_sum_param(k, prof) == _termwise_power_sum(k, prof), k


def test_power_sum_param_never_forms_the_weights(monkeypatch):
    import braidorbit.symfun as symfun

    def refuse(profile):
        raise AssertionError("power_sum_param formed the quantum dimensions")

    prof = sym_profile(3, 2)
    expected = [_termwise_power_sum(k, sym_profile(3, 2)) for k in range(7)]
    monkeypatch.setattr(symfun, "quantum_dims", refuse)
    assert [power_sum_param(k, prof) for k in range(7)] == expected
    assert prof._dims is None


def test_power_sum_param_one_make_per_new_k_none_per_cached_k(monkeypatch):
    prof = sym_profile(3, 2)
    power_sum_param(0, prof)
    power_sum_param(1, prof)  # builds the generating-function state
    calls = []
    make = Scalar.make

    def counting_make(num, den):
        calls.append(1)
        return make(num, den)

    monkeypatch.setattr(Scalar, "make", staticmethod(counting_make))
    for k in range(2, 8):
        power_sum_param(k, prof)
        assert len(calls) == k - 1
    for k in range(8):
        power_sum_param(k, prof)
    assert len(calls) == 6


@pytest.mark.parametrize("make_profile", [
    lambda: sym_profile(3, 2),
    lambda: sym_profile(2, 1),
    lambda: sym_profile(1, 2),
    _shifted_base_profile,
    lambda: num_profile(["1/2", 3], ["-5/3"], "7/5"),
    lambda: num_profile(["1/2", 3], ["-5/3"], -1),
], ids=["symbols_32", "symbols_21", "symbols_12", "hatted_base_21", "numeric_21",
        "numeric_q_minus_1"])
def test_product_a_values_match_newton_on_termwise_sums(make_profile):
    prof = make_profile()
    K = prof.m + prof.n + 2
    oracle = [_termwise_power_sum(k, prof) for k in range(1, K + 1)]
    one = Scalar.one(prof.table)
    assert a_values_param(prof, K) == [one] + newton_a_from_p(oracle, prof.q, one)


def test_power_sums_defined_at_coincident_symbolic_eigenvalues():
    # p_k is a polynomial in the eigenvalues over a power of q: the weights
    # have poles where two eigenvalues meet, p_k takes its limit there
    prof = sym_profile(2, 1)
    mu1 = prof.mus[0]
    merged = EigenvalueProfile([mu1, mu1], prof.nus, prof.q)
    point = {"q": Fraction(7, 5), "mu1": Fraction(2, 3), "nu1": Fraction(-4, 7)}
    for k in range(6):
        assert power_sum_param(k, merged).evaluate(point) == \
            power_sum_param(k, prof).evaluate({**point, "mu2": point["mu1"]}), k
    with pytest.raises(DegenerateProfile):
        quantum_dims(merged)
