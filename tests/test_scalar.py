import contextlib
import io
import math
import random
from fractions import Fraction

import pytest

from braidorbit import cli, hecke, scalar
from braidorbit.errors import (
    DivisionByZero,
    ParseError,
    PoleAtPoint,
    ResourceLimit,
    UnboundSymbol,
)
from braidorbit.linalg import MatrixS, det_bareiss
from braidorbit.scalar import (
    EMPTY_TABLE,
    EXPONENT_CAP,
    Poly,
    Scalar,
    SymbolTable,
    _zmul,
    _zpow,
    parse_scalar,
    poly_div_exact,
    poly_gcd,
    qnumber,
)

Q = SymbolTable(["q"])
QXY = SymbolTable(["q", "x", "y"])


def sc(text, table=Q):
    return parse_scalar(text, table)


def test_symbol_table_validation():
    with pytest.raises(ParseError):
        SymbolTable(["Q"])
    with pytest.raises(ParseError):
        SymbolTable(["q", "q"])
    t = SymbolTable.for_profile(2, 1, with_h=True)
    assert t.names == ("q", "h", "mu1", "mu2", "nu1")


def test_basic_arith_and_normalization():
    q = Scalar.from_symbol(Q, "q")
    one = Scalar.one(Q)
    # q - 1/q  ->  (q^2 - 1)/q
    val = q - one / q
    assert str(val.num) == "q^2 - 1"
    assert str(val.den) == "q"
    # x * 0 == 0
    assert (val * Scalar.zero(Q)).is_zero()
    # gcd normalization: (q^2-1)/(q-1) -> q+1
    r = sc("(q^2-1)/(q-1)")
    assert r == sc("q+1")
    assert r.den.is_constant()


def test_arith_dispatch():
    a, b = sc("q+1"), sc("q-1")
    assert a * b == sc("q^2-1")
    assert a + b == sc("2*q")
    assert a - b == sc("2")
    assert sc("q^2-1") / b == a
    with pytest.raises(DivisionByZero):
        a / Scalar.zero(Q)


def test_qnumber_values():
    q = Scalar.from_symbol(Q, "q")
    assert qnumber(1, q) == Scalar.one(Q)
    # 2_q = q + 1/q, i.e. (q^2+1)/q once cleared into one fraction
    k2 = qnumber(2, q)
    assert k2 == sc("(q^2+1)/q")
    # hand evaluation at q=2: (8 - 1/8)/(2 - 1/2) = 21/4
    k3 = qnumber(3, q)
    assert k3.evaluate({"q": 2}) == Fraction(21, 4)
    # at q=1 the q-integer equals k
    for k in range(1, 6):
        assert qnumber(k, q).evaluate({"q": 1}) == k


def test_evaluate_and_poles():
    x = sc("(q^2-1)/q")
    assert x.evaluate({"q": 3}) == Fraction(8, 3)
    assert sc("q^2-9").evaluate({"q": 3}) == 0
    with pytest.raises(PoleAtPoint):
        sc("1/(q-1)").evaluate({"q": 1})
    with pytest.raises(UnboundSymbol):
        sc("q").evaluate({})


def test_substitute_partial():
    t = SymbolTable(["q", "x"])
    v = parse_scalar("(q-1)*x + q^2", t)
    w = v.substitute({"q": 1})
    assert w == parse_scalar("1", t)


def _random_scalar(rng, table):
    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in table.names)
            terms[exps] = Fraction(rng.randint(-4, 4))
        return Poly(table, terms)

    num = rand_poly()
    den = Poly.zero(table)
    while den.is_zero():
        den = rand_poly()
    return Scalar.make(num, den)


def test_field_axioms_random():
    rng = random.Random(20240811)
    for _ in range(25):
        a = _random_scalar(rng, QXY)
        b = _random_scalar(rng, QXY)
        c = _random_scalar(rng, QXY)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inv() == Scalar.one(QXY)
        assert a + (-a) == Scalar.zero(QXY)


def test_normalization_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        a = _random_scalar(rng, QXY)
        again = Scalar.make(a.num, a.den)
        assert again == a
        # denominator is monic under the canonical order
        if not a.den.is_constant():
            assert a.den.leading()[1] == 1


def test_cross_multiplication_consistency():
    rng = random.Random(99)
    for _ in range(20):
        a = _random_scalar(rng, QXY)
        b = _random_scalar(rng, QXY)
        lhs = a.num * b.den
        rhs = b.num * a.den
        assert (a == b) == (lhs == rhs)


def test_poly_gcd_products():
    t = SymbolTable(["x", "y", "z"])
    x = Poly.symbol(t, "x")
    y = Poly.symbol(t, "y")
    z = Poly.symbol(t, "z")
    one = Poly.const(t, 1)
    f = (x + y) * (x - z) * (x - z)
    g = (x - z) * (y + z)
    gcd = poly_gcd(f, g)
    assert gcd == x - z
    # coprime inputs
    assert poly_gcd(x + y, x - y + one).is_constant()
    # exact division round trip
    assert poly_div_exact(f, x - z) == (x + y) * (x - z)
    assert poly_div_exact(f, y + z) is None


def test_poly_gcd_random_products():
    rng = random.Random(3)
    t = SymbolTable(["x", "y"])

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = (rng.randint(0, 2), rng.randint(0, 2))
            terms[exps] = Fraction(rng.randint(-3, 3))
        p = Poly(t, terms)
        return p

    for _ in range(30):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        g = poly_gcd(a * c, b * c)
        # c divides the gcd
        assert poly_div_exact(g, poly_gcd(g, c)) is not None
        assert poly_div_exact(a * c, g) is not None
        assert poly_div_exact(b * c, g) is not None


def _random_rational_poly(rng, table, nterms):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, 2) for _ in table.names)
        terms[exps] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 5))
    return Poly(table, terms)


def test_poly_div_exact_random_products():
    rng = random.Random(11)
    for width in range(1, 5):
        t = SymbolTable([f"x{i}" for i in range(width)])
        checked = 0
        while checked < 15:
            a = _random_rational_poly(rng, t, rng.randint(1, 4))
            b = _random_rational_poly(rng, t, rng.randint(2, 4))
            # b non-monic and not integer-primitive
            b = b.scale(Fraction(6, 5) / b.leading()[1])
            if b.is_constant() or len(b.terms) < 2 or a.is_zero():
                continue
            f = a * b
            assert poly_div_exact(f, b) == a
            # a multiple of b plus one monomial is a multiple of b only when
            # b divides that monomial, which a b with two terms never does
            e = rng.choice(sorted(f.terms))
            bumped = Poly(t, {**f.terms, e: f.terms[e] + Fraction(1, 7)})
            assert poly_div_exact(bumped, b) is None
            checked += 1


def test_poly_div_exact_gauss_exit():
    t = SymbolTable(["x"])
    x = Poly.symbol(t, "x")
    one = Poly.const(t, 1)
    two_x_plus_1 = x.scale(2) + one
    # lc 1 of x^2 is not divisible by lc 2 of the primitive 2x + 1
    assert poly_div_exact(x * x + x + one, two_x_plus_1) is None
    cofactor = x.scale(Fraction(1, 3)) + Poly.const(t, Fraction(1, 2))
    assert poly_div_exact(two_x_plus_1 * cofactor, two_x_plus_1) == cofactor
    assert poly_div_exact(two_x_plus_1 * cofactor, cofactor) == two_x_plus_1


def test_poly_div_exact_term_cancels_then_reappears():
    # (-2x^4 - 3x^3 - 2x^2 - 3x - 2) / (-2x^2 + x - 2): the first step
    # cancels the x^2 term, the second brings it back as -2x^2, and the third
    # cancels x and 1, whose heap entries must then be skipped (x is not a
    # multiple of the leading x^2)
    t = SymbolTable(["x"])
    a = parse_scalar("x^2 + 2*x + 1", t).num
    b = parse_scalar("-2*x^2 + x - 2", t).num
    assert poly_div_exact(a * b, b) == a
    assert poly_div_exact(a * b + Poly.const(t, 1), b) is None


def test_poly_gcd_primitive_and_cofactors_coprime():
    rng = random.Random(12)
    for width in range(1, 5):
        t = SymbolTable([f"x{i}" for i in range(width)])
        for _ in range(12):
            a, b, c = (_random_rational_poly(rng, t, rng.randint(1, 3)) for _ in range(3))
            if a.is_zero() or b.is_zero() or c.is_zero():
                continue
            f, g = a * c, b * c
            d = poly_gcd(f, g)
            coeffs = list(d.terms.values())
            assert all(v.denominator == 1 for v in coeffs)
            assert math.gcd(*(v.numerator for v in coeffs)) == 1
            assert d.leading()[1] > 0
            assert poly_div_exact(d, poly_gcd(d, c)) is not None
            cf, cg = poly_div_exact(f, d), poly_div_exact(g, d)
            assert cf is not None and cg is not None
            assert poly_gcd(cf, cg) == Poly.const(t, 1)


def _subresultant_gcd(monkeypatch, f, g):
    """``_zgcd`` with the heuristic given no tries: the content/subresultant route."""
    with monkeypatch.context() as m:
        m.setattr(scalar, "_HEU_TRIES", 0)
        return scalar._zgcd(f, g)[0]


def _random_zpoly(rng, width, nterms, height=4, degree=2):
    P = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, degree) for _ in range(width))
        P[e] = P.get(e, 0) + rng.choice([-1, 1]) * rng.randint(1, height)
    return {e: c for e, c in P.items() if c}


def test_heuristic_gcd_matches_subresultant_route(monkeypatch):
    """The heuristic gcd and the subresultant route give the same primitive gcd,
    with a positive grlex-leading coefficient, and the heuristic keeps the
    common integer content."""
    rng = random.Random(1989)
    pairs = [
        # the first xi, 35, is where x^2 - 3 and 4x^2 + x take the values
        # 1222 and 4935, which share 47; its digits give x + 12, which
        # divides neither, so only the division check rejects it
        ({(2,): 1, (0,): -3}, {(2,): 4, (1,): 1}),
        # x^2 - 2x and x - 2: at xi = 4, below 2*2 + 2, the images 8 and 2
        # read back as the constant 2, so the gcd x - 2 is missed
        ({(2,): 1, (1,): -2}, {(1,): 1, (0,): -2}),
    ]
    for width in range(1, 5):
        for kind in ("planted", "coprime", "monomial", "content", "negative"):
            for _ in range(6):
                a, b, c = (_random_zpoly(rng, width, rng.randint(1, 3)) for _ in range(3))
                if not (a and b and c):
                    continue
                if kind == "coprime":
                    c = {(0,) * width: 1}
                f, g = _zmul(a, c), _zmul(b, c)
                if kind == "monomial":
                    shared = tuple(rng.randint(0, 2) for _ in range(width))
                    f = _zmul(f, {tuple(x + rng.randint(0, 1) for x in shared): 1})
                    g = _zmul(g, {shared: 1})
                elif kind == "content":
                    f = {e: 6 * v for e, v in f.items()}
                    g = {e: -15 * v for e, v in g.items()}
                elif kind == "negative":
                    f = {e: -v for e, v in f.items()}
                    if f[max(f, key=scalar._mono_key)] > 0:
                        continue
                if f and g:
                    pairs.append((f, g))
    assert len(pairs) > 100
    for f, g in pairs:
        expected = _subresultant_gcd(monkeypatch, f, g)
        assert math.gcd(*expected.values()) == 1
        assert expected[max(expected, key=scalar._mono_key)] > 0
        found = scalar._heu_gcd(f, g)
        assert found is not None
        h = found[0]
        assert math.gcd(*h.values()) == math.gcd(*f.values(), *g.values())
        assert scalar._zprimitive(h) == expected
        assert scalar._zgcd(f, g)[0] == expected


def test_heuristic_gcd_first_candidate_fails_the_certificate():
    """x^2 - 3 and 4x^2 + x are coprime, but the candidate read back at the
    first xi is x + 12; only the exact division rejects it."""
    f, g = {(2,): 1, (0,): -3}, {(2,): 4, (1,): 1}
    xi = 2 * 3 + 29
    image = math.gcd(scalar._zeval(f, 0, xi)[(0,)], scalar._zeval(g, 0, xi)[(0,)])
    candidate = scalar._zdigits({(0,): image}, 0, xi)
    assert (image, candidate) == (47, {(1,): 1, (0,): 12})
    assert scalar._zdiv(f, candidate) is None
    assert scalar._heu_gcd(f, g)[0] == {(0,): 1}


def test_poly_gcd_unchanged_when_the_heuristic_falls_back(monkeypatch):
    t = SymbolTable(["q", "h", "mu1"])
    texts = ["(q*mu1 - h)^2*(q^2 + 1)", "(q*mu1 - h)*(q^2 + 1)*(mu1 + 2*h)/3",
             "q^3*(mu1 - 1)*(h + 5)", "-2*q^2*(h + 5)*(q - mu1)"]
    polys = [parse_scalar(text, t).num for text in texts]
    heuristic = [poly_gcd(a, b) for a in polys for b in polys]
    with monkeypatch.context() as m:
        m.setattr(scalar, "_HEU_TRIES", 0)
        assert scalar._heu_gcd(polys[0]._P, polys[1]._P) is None
        fallback = [poly_gcd(a, b) for a in polys for b in polys]
    assert fallback == heuristic
    assert heuristic[1] == parse_scalar("(q*mu1 - h)*(q^2 + 1)", t).num


def _cofactor_pairs():
    """Poly pairs with integer content, shared monomials, a negative leading
    coefficient, a trivial gcd, equal primitive parts and a constant."""
    rng = random.Random(2024)
    pairs = []
    for width in range(1, 4):
        t = SymbolTable([f"x{i}" for i in range(width)])
        x0 = Poly.symbol(t, "x0")
        for kind in ("planted", "content", "monomial", "negative", "trivial"):
            for _ in range(4):
                a, b, c = (_random_rational_poly(rng, t, rng.randint(1, 3)) for _ in range(3))
                if a.is_zero() or b.is_zero() or c.is_zero():
                    continue
                if kind == "trivial":
                    c = Poly.const(t, 1)
                    b = b * x0 + Poly.const(t, 1)
                f, g = a * c, b * c
                if kind == "content":
                    f, g = f.scale(6), g.scale(-15)
                elif kind == "monomial":
                    f, g = f * x0 ** 3, g * x0 * x0
                elif kind == "negative":
                    f, g = -f, -(g * x0)
                pairs.append((f, g))
        p = _random_rational_poly(rng, t, 3)
        pairs += [(p.scale(4), p.scale(Fraction(-2, 3))), (p, Poly.const(t, Fraction(5, 2)))]
    return pairs


@pytest.mark.parametrize("tries", [scalar._HEU_TRIES, 0])
def test_gcd_cofactors_multiply_back(monkeypatch, tries):
    """gcd * f' == f and gcd * g' == g, with gcd = poly_gcd(f, g) and coprime
    cofactors, on the heuristic route and (tries = 0) on the subresultant
    fallback; both routes give the same triples.  The lcm built from the
    cofactors is a common multiple with lcm * gcd = f * g up to a constant."""
    pairs = _cofactor_pairs()
    assert len(pairs) > 40
    with monkeypatch.context() as m:
        heuristic = [scalar.poly_gcd_cofactors(f, g) for f, g in pairs]
        m.setattr(scalar, "_HEU_TRIES", tries)
        results = [scalar.poly_gcd_cofactors(f, g) for f, g in pairs]
        for (f, g), (h, cf, cg) in zip(pairs, results):
            assert h * cf == f and h * cg == g
            assert h == poly_gcd(f, g)
            assert poly_gcd(cf, cg).is_constant()
            one = Poly.const(f.table, 1)
            lcm = scalar.clear([Scalar.make(one, f), Scalar.make(one, g)])[0]
            lcm = Poly.const(f.table, lcm) if isinstance(lcm, int) else lcm
            assert poly_div_exact(lcm, f) is not None and poly_div_exact(lcm, g) is not None
            assert Scalar.make(lcm * h, f * g).is_constant()
    assert results == heuristic
    assert any(not h.is_constant() for h, _, _ in results)
    assert any(h.is_constant() for h, _, _ in results)
    with pytest.raises(ValueError):
        scalar.poly_gcd_cofactors(pairs[0][0], Poly.zero(pairs[0][0].table))


def _values_to_clear(rng, t, kind):
    """A list of Scalars to clear: constants, non-constant rational
    functions with shared denominator factors, both, or none."""
    a, b = (Scalar.from_symbol(t, x) for x in ("a", "b"))

    def constant():
        den = rng.choice((1, 2, 3, 4, 6, 9, 10 ** 20 + 7))
        return Scalar.from_fraction(t, Fraction(rng.randint(-30, 30), den))

    def symbolic():
        while True:
            num = a * rng.randint(1, 3) + b ** rng.randint(0, 2) * rng.randint(-4, 4)
            den = ((a + rng.randint(1, 3)) ** rng.randint(0, 2)
                   * (b - rng.randint(1, 2)) ** rng.randint(0, 1) * a ** rng.randint(0, 2))
            v = num / den
            if not v.is_constant():
                return v

    if kind == "empty":
        return []
    makers = {"constant": [constant], "symbolic": [symbolic],
              "mixed": [constant, symbolic]}[kind]
    values = [rng.choice(makers)() for _ in range(rng.randint(1, 6))]
    if kind == "mixed":
        values += [constant(), symbolic()]
        rng.shuffle(values)
    return values


@pytest.mark.parametrize("kind", ["constant", "symbolic", "mixed", "empty"])
def test_clear_and_ratio_round_trip(kind):
    """clear gives ints exactly when every value is constant, and Polys
    otherwise; ratio(v * L, L) is v again; and L is the lcm: no factor of L
    divides every numerator.  clear_rows clears each row in one ring."""
    rng = random.Random(29)
    t = SymbolTable(["a", "b"])
    for _ in range(25):
        values = _values_to_clear(rng, t, kind)
        L, nums = scalar.clear(values)
        ring = int if all(v.is_constant() for v in values) else Poly
        assert type(L) is ring and [type(n) for n in nums] == [ring] * len(values)
        assert [scalar.ratio(n, L, t) for n in nums] == values
        if ring is int:
            assert L == math.lcm(*(v.as_fraction().denominator for v in values))
        else:
            common = L
            for n in nums:
                common = poly_gcd(common, n)
            assert common.is_constant()
    # clear_rows picks one ring for all rows: a constant row meets Polys
    rows = [_values_to_clear(rng, t, "constant"), _values_to_clear(rng, t, "symbolic")]
    for row, (L, nums) in zip(rows, scalar.clear_rows(rows)):
        assert type(L) is Poly and [scalar.ratio(n, L, t) for n in nums] == row
    assert scalar.ratio(3, -6, t) == Scalar.from_fraction(t, Fraction(-1, 2))
    with pytest.raises(DivisionByZero):
        scalar.ratio(1, 0, t)


def test_poly_is_a_ring_element():
    t = SymbolTable(["a", "b"])
    f, g = sc("a^2 - 3*b/2", t).num, sc("a + b", t).num
    assert not Poly.zero(t) and f and Poly.const(t, 1)
    assert (f * g) // g == f and (f * g) // f == g
    assert f // Poly.const(t, Fraction(1, 2)) == f.scale(2)
    with pytest.raises(ArithmeticError):
        f // g


def _schoolbook_mul(a, b):
    """Product of {exponent tuple: coefficient} dicts, term pair by term pair."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _schoolbook_pow(a, n, width):
    out = {(0,) * width: Fraction(1)}
    for _ in range(n):
        out = _schoolbook_mul(out, a)
    return out


def test_poly_mul_pow_match_schoolbook():
    rng = random.Random(2026)
    x1 = SymbolTable(["x"])
    x = Poly.symbol(x1, "x")
    one = Poly.const(x1, 1)
    cases = [
        # the zero polynomial, on both sides
        (Poly.zero(x1), x + one),
        (x + one, Poly.zero(x1)),
        # constants over the empty table
        (Poly.const(EMPTY_TABLE, Fraction(-3, 4)), Poly.const(EMPTY_TABLE, Fraction(2, 9))),
        # exponents 3 and 2: the product's x^5 is B - 1 for B = 3 + 2 + 1
        (x ** 3 + one.scale(Fraction(1, 2)), x * x + x.scale(Fraction(2, 3))),
        # (x - 1/2 y)(x + 1/2 y) = x^2 - 1/4 y^2: the xy terms cancel
        (parse_scalar("x - y/2", SymbolTable(["x", "y"])).num,
         parse_scalar("x + y/2", SymbolTable(["x", "y"])).num),
        # x^3 y^0 z^2 and x^0 y^3 z^1: every digit of some product key reaches B - 1
        (parse_scalar("3/2*x^3*z^2 - y + 5/7", SymbolTable(["x", "y", "z"])).num,
         parse_scalar("x^2*y^3*z - 2/3*x*z^3 + 1", SymbolTable(["x", "y", "z"])).num),
    ]
    for width in range(1, 4):
        t = SymbolTable([f"x{i}" for i in range(width)])
        for _ in range(20):
            cases.append((_random_rational_poly(rng, t, rng.randint(1, 5)),
                          _random_rational_poly(rng, t, rng.randint(1, 5))))
    for a, b in cases:
        width = len(a.table)
        assert (a * b).terms == _schoolbook_mul(a.terms, b.terms)
        assert (a * b).terms == (b * a).terms
        for n in (0, 1, 2, 5):
            assert (a ** n).terms == _schoolbook_pow(a.terms, n, width)
    assert str(Poly.zero(x1) ** 0) == "1"
    # the kernel itself, on integer dicts
    int_cases = [
        ({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}),     # x^2 - y^2
        ({(3, 0): 2, (0, 1): -1}, {(2, 1): 3, (0, 0): 5}),      # carries without the + 1
        ({(2, 2): 4, (1, 0): -6, (0, 0): 1}, {(2, 2): 1, (0, 1): 7, (1, 1): -2}),
        ({(): 6}, {(): -7}),
        ({(0, 0): 3}, {(4, 1): 2, (0, 2): -5}),
    ]
    for a, b in int_cases:
        assert _zmul(a, b) == _schoolbook_mul(a, b)
        for n in (0, 1, 2, 5):
            assert _zpow(a, n) == _schoolbook_pow(a, n, len(next(iter(a))))


def test_cached_int_form_not_mutated():
    """gcd, exact division, sums, products and powers leave each operand's
    stored cleared form (_P, _d) unchanged, and every result's form is the
    one a fresh clearing of its Fraction terms gives."""
    t = SymbolTable(["x", "y"])
    polys = [parse_scalar(text, t).num for text in (
        "2*x + 4*y", "x^2/3 - y/6 + 1/2", "6*x*y - 9", "x + y", "7/4")]

    def fresh(p):
        p = Poly(p.table, p.terms)
        return p._P, p._d

    snapshots = [(dict(p._P), p._d) for p in polys]
    results = []
    for a in polys:
        for b in polys:
            prod = a * b
            results += [prod, a + b, a - b, -a, a.scale(Fraction(-3, 4)), poly_gcd(a, b),
                        poly_div_exact(prod, b), poly_div_exact(a, b), a ** 3]
    for p, snap in zip(polys, snapshots):
        assert (p._P, p._d) == snap
        assert (p._P, p._d) == fresh(p)
    for r in results:
        if r is not None:
            assert (r._P, r._d) == fresh(r)


def _ref_str(terms, names):
    """The printed form of a {exponent tuple: Fraction} polynomial."""
    parts = []
    for e in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        c = terms[e]
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
        coeff = "" if mono and abs(c) == 1 else str(abs(c))
        parts.append(("-" if c < 0 else "+", "*".join(filter(None, (coeff, mono)))))
    if not parts:
        return "0"
    text = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in parts[1:])


def _ref_combine(a, b, sign):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _random_ref_poly(rng, width):
    """{exponent tuple: Fraction}: zero, a constant or up to four terms, with
    negative coefficients and denominators up to and above 2^64."""
    kind = rng.randrange(5)
    if kind == 0:
        return {}
    big = [2 ** 64 + 13, 3 ** 45, (2 ** 61 - 1) * 2 ** 5, 2 ** 70 * 3]
    terms = {}
    for _ in range(1 if kind == 1 else rng.randint(1, 4)):
        e = (0,) * width if kind == 1 else tuple(rng.randint(0, 2) for _ in range(width))
        den = rng.choice([1, 1, 2, 3, 4, 6, rng.randint(1, 30), rng.choice(big)])
        num = rng.choice([rng.randint(-12, 12), rng.choice(big) * rng.choice([-1, 1])])
        if num:
            terms[e] = Fraction(num, den)
    return terms


def test_poly_matches_fraction_dict_reference():
    """Every Poly operation against plain {exponent tuple: Fraction} arithmetic,
    in 1-3 variables, so that the stored cleared form stays canonical."""
    rng = random.Random(2718)
    tables = {w: SymbolTable(["x", "y", "z"][:w]) for w in (1, 2, 3)}

    def check(p, ref):
        assert p.terms == ref
        assert p == Poly(p.table, ref)
        assert hash(p) == hash((p.table, frozenset(ref.items())))
        assert str(p) == _ref_str(ref, p.table.names)
        assert p.is_zero() == (not ref)
        unit = (0,) * len(p.table)
        const = Fraction(0) if not ref else ref[unit] if list(ref) == [unit] else None
        assert p.const_or_none() == const
        if ref:
            assert p.leading() == max(ref.items(), key=lambda t: (sum(t[0]), t[0]))

    for _ in range(250):
        width = rng.randint(1, 3)
        t = tables[width]
        ra, rb = _random_ref_poly(rng, width), _random_ref_poly(rng, width)
        if rng.random() < 0.2:
            rb = dict(ra)
        a, b = Poly(t, ra), Poly(t, rb)
        check(a, ra)
        assert (a == b) == (ra == rb)
        check(a + b, _ref_combine(ra, rb, 1))
        check(a - b, _ref_combine(ra, rb, -1))
        check(-a, {e: -c for e, c in ra.items()})
        check(a * b, _schoolbook_mul(ra, rb))
        n = rng.randint(0, 3)
        check(a ** n, _schoolbook_pow(ra, n, width))
        c = rng.choice([0, 1, -2, Fraction(-3, 4), Fraction(5, 2 ** 66 + 1), Fraction(2 ** 65, 7)])
        check(a.scale(c), {e: v * c for e, v in ra.items() if v * c})
        wide = SymbolTable(["w", *t.names, "v"])
        check(a.lift(wide), {(0, *e, 0): c for e, c in ra.items()})
        i = rng.randrange(width)
        v = rng.choice([Fraction(0), Fraction(-1), Fraction(2, 3), Fraction(1, 2 ** 64 + 7)])
        sub: dict = {}
        for e, c in ra.items():
            key = e[:i] + (0,) + e[i + 1:]
            sub[key] = sub.get(key, 0) + c * v ** e[i]
        check(a.substitute({t.names[i]: v}), {e: c for e, c in sub.items() if c})


def test_parser_round_trip_and_errors():
    text = "(3/2*q^2 - 1)/(q + 2)"
    v = sc(text)
    assert sc(str(v)) == v
    with pytest.raises(ParseError):
        sc("q +")
    with pytest.raises(ParseError):
        sc("unknown_sym")
    with pytest.raises(ParseError):
        sc("q^(-1)")
    # whitespace insignificant
    assert sc(" q +   1 ") == sc("q+1")


def test_exponent_cap():
    assert sc(f"q^{EXPONENT_CAP}") == Scalar.from_symbol(Q, "q") ** EXPONENT_CAP
    for text in (f"q^{EXPONENT_CAP + 1}", "q^100000000", "2^100000000", "(q+1)^100000000"):
        with pytest.raises(ResourceLimit):
            sc(text)


QMU = SymbolTable(["q", "mu1"])


def _constant_forms(value):
    """One rational as a Scalar built directly, from constant Polys, by parsing,
    and by cancellation of a symbolic factor."""
    p = parse_scalar("q*mu1 + 2*q - 1", QMU)
    cancelled = (p * value) / p
    from_polys = Scalar.make(Poly.const(QMU, 3 * value), Poly.const(QMU, 3))
    parsed = parse_scalar(f"{value.numerator}/{value.denominator}", QMU)
    q = Scalar.from_symbol(QMU, "q")
    by_inverse = q * q.inv() * value
    return [Scalar.from_fraction(QMU, value), from_polys, parsed, cancelled, by_inverse]


def _observables(x):
    return (x, hash(x), str(x), bool(x), x.const_or_none(),
            x.is_constant(), x.is_zero(), x.num, x.den)


def test_constant_representation_parity():
    rng = random.Random(4)
    values = [Fraction(0), Fraction(1), Fraction(-1)] + [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)]
    symbolic = [_random_scalar(rng, QMU) for _ in range(4)] + [parse_scalar("q/mu1", QMU)]
    big = SymbolTable(["h", "q", "mu1"])
    for v in values:
        forms = _constant_forms(v)
        ref = forms[0]
        assert ref.as_fraction() == v
        # hash and str are those of the (num, den) Poly pair
        assert hash(ref) == hash((ref.num, ref.den))
        assert str(ref) == str(ref.num)
        for x in forms:
            assert x == v and x.as_fraction() == v
            assert _observables(x) == _observables(ref)
            assert -x == Scalar.from_fraction(QMU, -v)
            assert x.lift(big) == Scalar.from_fraction(big, v)
            assert x.substitute({"q": 2}) == ref
            assert x ** 0 == Scalar.one(QMU)
            assert x ** 3 == Scalar.from_fraction(QMU, v ** 3)
            if v:
                assert x.inv() == Scalar.from_fraction(QMU, 1 / v)
                assert x ** -2 == Scalar.from_fraction(QMU, v ** -2)
            else:
                with pytest.raises(DivisionByZero):
                    x.inv()
            for w in values[:4]:
                for y in _constant_forms(w):
                    assert x + y == Scalar.from_fraction(QMU, v + w)
                    assert x - y == Scalar.from_fraction(QMU, v - w)
                    assert x * y == Scalar.from_fraction(QMU, v * w)
                    if w:
                        assert x / y == Scalar.from_fraction(QMU, v / w)
            # reference: the generic cross-multiplied pair, normalized by make
            pair = Scalar.make
            for s in symbolic:
                assert x + s == s + x == pair(x.num * s.den + s.num * x.den, x.den * s.den)
                assert x - s == pair(x.num * s.den - s.num * x.den, x.den * s.den)
                assert x * s == s * x == pair(x.num * s.num, x.den * s.den)
                if v:
                    assert s / x == pair(s.num * x.den, s.den * x.num)
                if s:
                    assert x / s == pair(x.num * s.den, x.den * s.num)
                assert (x * s).is_constant() == (not v)
    other = SymbolTable(["q"])
    with pytest.raises(ValueError, match="symbol tables differ"):
        Scalar.one(QMU) + Scalar.one(other)
    with pytest.raises(ValueError, match="symbol tables differ"):
        Scalar.one(QMU) * Scalar.from_fraction(other, 2)
    with pytest.raises(ValueError, match="symbol tables differ"):
        Scalar.one(QMU) / Scalar.from_fraction(other, 2)
    with pytest.raises(ValueError, match="symbol tables differ"):
        Scalar.one(QMU) - Scalar.from_fraction(other, 2)
    assert Scalar.one(QMU) != Scalar.one(other)
    with pytest.raises(ValueError, match="not constant"):
        parse_scalar("q/mu1", QMU).as_fraction()


def test_constant_int_pair_arithmetic():
    """Constant arithmetic on the coprime int pair agrees with Fraction."""
    rng = random.Random(21)
    big = 2 ** 64
    values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(7), Fraction(-12),
              Fraction(3, -4), Fraction(-5, -6), Fraction(big + 1, 3),
              Fraction(-(3 * big + 7), big + 1), Fraction(big * big)]
    values += [Fraction(rng.randint(-big * big, big * big), rng.randint(1, big))
               for _ in range(3)]
    values += [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
    unit = Poly.const(QMU, 1)

    def forms(v):
        # negative denominators given to from_fraction and to the parser
        n, d = v.numerator, v.denominator
        out = [Scalar.from_fraction(QMU, Fraction(-n, -d)),
               parse_scalar(f"{-n}/(-{d})", QMU)]
        if d == 1:
            out.append(Scalar.from_fraction(QMU, n))
        return out

    def agrees(s, f):
        assert s.is_constant()
        assert s.as_fraction() == f and type(s.as_fraction()) is Fraction
        assert s.const_or_none() == f and type(s.const_or_none()) is Fraction
        assert s == f and s == Scalar.from_fraction(QMU, f)
        assert (s == f.numerator) == (f.denominator == 1)
        assert s != f + 1 and s != Scalar.from_symbol(QMU, "q")
        assert str(s) == str(f)
        # the hash of the (Poly.const(c), Poly.const(1)) pair
        assert hash(s) == hash((Poly.const(QMU, f), unit))
        assert bool(s) == bool(f) and s.is_zero() == (f == 0)

    for v in values:
        for x in forms(v):
            agrees(x, v)
            agrees(-x, -v)
            for k in (0, 1, 2, 3):
                agrees(x ** k, v ** k)
            if v:
                agrees(x.inv(), 1 / v)
                agrees(x ** -3, v ** -3)
                agrees(1 / x, 1 / v)
            else:
                with pytest.raises(DivisionByZero):
                    x.inv()
            agrees(x + 3, v + 3)
            agrees(Fraction(2, 7) - x, Fraction(2, 7) - v)
            agrees(x * -5, v * -5)
        x = forms(v)[0]
        for w in values:
            y = forms(w)[-1]
            agrees(x + y, v + w)
            agrees(x - y, v - w)
            agrees(x * y, v * w)
            if w:
                agrees(x / y, v / w)
            assert (x == y) == (v == w)


def test_numeric_q_pipeline_builds_no_poly(monkeypatch):
    # every Poly is made by scalar._from_int, Poly(table, terms) included
    built = []
    make = scalar._from_int

    def counting_from_int(table, P, d):
        built.append(1)
        return make(table, P, d)

    monkeypatch.setattr(scalar, "_from_int", counting_from_int)
    q = parse_scalar("7/5", EMPTY_TABLE)
    hs = hecke.build_builtin("dj_gl", N=3, q=q)
    assert all(hecke.validation_report(hs).values())
    assert str(hs.c_op.trace()) == "21255/16807"
    assert len(built) == 0
    # the counter sees the polynomial path
    hecke.build_builtin("dj_gl", N=2, q=Scalar.from_symbol(Q, "q"))
    assert built


def test_constant_det_and_numeric_cotangent_build_no_poly(monkeypatch):
    # every Poly is made by scalar._from_int, Poly(table, terms) included
    built = []
    make = scalar._from_int

    def counting_from_int(table, P, d):
        built.append(1)
        return make(table, P, d)

    monkeypatch.setattr(scalar, "_from_int", counting_from_int)
    m = MatrixS(EMPTY_TABLE, [[Scalar.from_fraction(EMPTY_TABLE, Fraction(a, b)) for a, b in row]
                              for row in [[(1, 2), (3, 1), (-2, 7)], [(5, 3), (1, 1), (4, 9)],
                                          [(2, 1), (-1, 5), (3, 4)]]])
    assert det_bareiss(m) == Fraction(1, 360)
    assert len(built) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["cotangent", "--builtin", "dj_gl", "--N", "2", "--q", "7/5",
                         "--mu", "1,2"])
    assert code == 0 and out.getvalue()
    assert len(built) == 0
    # the counter sees the polynomial path of both
    det_bareiss(MatrixS(Q, [[sc("q"), sc("1")], [sc("1"), sc("q")]]))
    assert built
