import random
from fractions import Fraction

import pytest

from braidorbit.hecke import build_dj_gl, build_flip, build_q_super, build_superflip
from braidorbit.linalg import RowSpace
from braidorbit.rea import (
    NCPoly,
    centrality_check,
    ch_polynomial_entries,
    ch_verify,
    complementarity_check,
    generating_matrix,
    is_zero_mod,
    nc_matmul,
    power_sum_element,
    reflection_matrix,
    relation_space,
    shift_generators,
)
from braidorbit.scalar import EMPTY_TABLE, Scalar, SymbolTable, parse_scalar

HT = SymbolTable(["h"])


def qc(v):
    return Scalar.from_fraction(EMPTY_TABLE, Fraction(v))


def test_nc_matmul_matches_entrywise_sums():
    """The sparse product equals sum_t A[i][t]*B[t][j] formed with NCPoly * and +."""
    rng = random.Random(5)
    table = SymbolTable(["q"])
    N = 2
    L = generating_matrix(N, table)
    words = [NCPoly.one(N, table)] + [L[i][j] for i in range(N) for j in range(N)]
    words.append(L[0][1] * L[1][0])
    coeffs = [parse_scalar(c, table) for c in ("1", "-1", "2/3", "q", "-q + 1/2")]

    def entry():
        out = NCPoly.zero(N, table)
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            out = out + rng.choice(words).scale(rng.choice(coeffs))
        return out

    A = [[entry() for _ in range(4)] for _ in range(3)]
    B = [[entry() for _ in range(2)] for _ in range(4)]
    # one entry whose summands cancel
    A[0][0] = A[0][1] = L[0][1]
    B[0][0], B[1][0] = L[1][1], -L[1][1]
    A[0][2] = A[0][3] = NCPoly.zero(N, table)
    got = nc_matmul(A, B)
    assert got[0][0].is_zero()
    for i in range(3):
        for j in range(2):
            ref = NCPoly.zero(N, table)
            for t in range(4):
                ref = ref + A[i][t] * B[t][j]
            assert got[i][j] == ref and str(got[i][j]) == str(ref)


def test_relation_dims_flip2():
    hs = build_flip(2)
    assert relation_space(hs, "minus").dim == 6   # commutators of gl(2)
    assert relation_space(hs, "plus").dim == 10   # symmetric square
    assert complementarity_check(hs)


def test_relation_dims_dj2():
    hs = build_dj_gl(2, qc("7/5"))
    assert relation_space(hs, "minus").dim == 6
    assert relation_space(hs, "plus").dim == 10
    assert complementarity_check(hs)


def test_relation_dims_superflip11():
    # Sym^2 of gl(1|1) is 8-dimensional (3 even-even + 4 mixed + 1 odd-odd),
    # so the defining relations span a 16 - 8 = 8 dimensional subspace
    hs = build_superflip(1, 1)
    assert relation_space(hs, "minus").dim == 8
    assert relation_space(hs, "plus").dim == 8
    assert complementarity_check(hs)


def test_is_zero_mod_basics():
    hs = build_dj_gl(2, qc("7/5"))
    rs = relation_space(hs, "minus")
    # every defining relation entry is in the ideal
    for e in rs.relations:
        if not e.is_zero():
            ok, res = is_zero_mod(e, rs)
            assert ok and res.is_zero()
    # a bare squared generator is not
    g = NCPoly.generator(2, EMPTY_TABLE, 0, 0)
    ok, res = is_zero_mod(g * g, rs)
    assert not ok and not res.is_zero()
    # ideal closure in degree 3
    rel = next(e for e in rs.relations if not e.is_zero())
    ok, _ = is_zero_mod(rel * g, rs)
    assert ok
    ok, _ = is_zero_mod(g * rel, rs)
    assert ok


def test_is_zero_mod_order_independence():
    hs = build_dj_gl(2, qc("7/5"))
    rng = random.Random(4)
    residuals = []
    g = NCPoly.generator(2, EMPTY_TABLE, 0, 1)
    probe = g * g * NCPoly.generator(2, EMPTY_TABLE, 1, 0)
    for _ in range(3):
        rs = relation_space(hs, "minus")
        shuffled = rs.basis[:]
        rng.shuffle(shuffled)
        rs.basis = shuffled
        ok, res = is_zero_mod(probe, rs)
        residuals.append((ok, sorted((w, str(c)) for w, c in res.terms.items())))
    assert len(set(map(str, residuals))) == 1


def test_power_sum_element_k1_and_flip():
    hs = build_dj_gl(2, qc("7/5"))
    p1 = power_sum_element(1, hs)
    # sum over generators weighted by the trace operator
    expect = NCPoly.zero(2, EMPTY_TABLE)
    for i in range(2):
        for j in range(2):
            cv = hs.c_op.data[j][i]
            if cv:
                expect = expect + NCPoly.generator(2, EMPTY_TABLE, i, j) * cv
    assert p1 == expect

    flip = build_flip(2)
    p2 = power_sum_element(2, flip)
    # classical Tr L^2 = sum_{a,b} l[a][b] l[b][a]
    expect = NCPoly.zero(2, EMPTY_TABLE)
    L = generating_matrix(2, EMPTY_TABLE)
    for a in range(2):
        for b in range(2):
            expect = expect + L[a][b] * L[b][a]
    assert p2 == expect
    # word count stays within the crude bound before collection
    p3 = power_sum_element(3, build_dj_gl(2, qc("7/5")))
    assert len(p3.terms) <= 16


def test_centrality():
    dj = build_dj_gl(2, qc("7/5"))
    rs = relation_space(dj, "minus")
    assert centrality_check(1, dj, rs)
    assert centrality_check(2, dj, rs)
    sf = build_superflip(1, 1)
    rs2 = relation_space(sf, "minus")
    assert centrality_check(1, sf, rs2)
    assert centrality_check(2, sf, rs2)


def test_ch_verify_flip2_classical():
    ok, report = ch_verify(build_flip(2), 2, 0)
    assert ok
    assert report["degree"] == 2


def test_ch_verify_dj2():
    ok, report = ch_verify(build_dj_gl(2, qc("7/5")), 2, 0)
    assert ok and not report["failures"]


def test_ch_verify_qsuper11():
    ok, report = ch_verify(build_q_super(1, 1, qc("9/7")), 1, 1)
    assert ok
    assert report["degree"] == 3


def test_shift_substitution():
    x = NCPoly.generator(2, EMPTY_TABLE, 0, 0) * NCPoly.generator(2, EMPTY_TABLE, 1, 1)
    c = qc(3)
    shifted = shift_generators(x, c)
    # (l00 + 3)(l11 + 3) = l00 l11 + 3 l00 + 3 l11 + 9
    assert shifted.terms[(0, 3)] == Scalar.one(EMPTY_TABLE)
    assert shifted.terms[(0,)] == qc(3)
    assert shifted.terms[(3,)] == qc(3)
    assert shifted.terms[()] == qc(9)


def test_mrea_zero_test_via_shift():
    t = HT
    h = Scalar.from_symbol(t, "h")
    hs = build_q_super(1, 1, Scalar.from_fraction(t, Fraction(9, 7)))
    rs = relation_space(hs, "mrea", h=h)
    # the modified relations themselves vanish in the modified algebra
    checked = 0
    for e in rs.relations:
        if not e.is_zero():
            ok, res = is_zero_mod(e, rs)
            assert ok, res
            checked += 1
    assert checked > 0
    # Tr_R Lhat is central in the modified algebra too
    p1 = power_sum_element(1, hs)
    g = NCPoly.generator(2, t, 0, 1)
    ok, _ = is_zero_mod(p1 * g - g * p1, rs)
    assert ok


def _gl11_mrea(h):
    """relation_space(superflip(1,1), "mrea", h): the h-scaled U(gl(1|1))."""
    return relation_space(build_superflip(1, 1, h.table), "mrea", h=h)


def test_mrea_decided_at_q1():
    # the graded-flip modified algebra at q = 1 is decided by the same engine:
    # a bare square is nonzero and every modified relation entry vanishes
    t = HT
    h = Scalar.from_symbol(t, "h")
    rs = _gl11_mrea(h)
    x = NCPoly.generator(2, t, 0, 0)
    ok, res = is_zero_mod(x * x, rs)
    assert not ok and res == x * x
    checked = 0
    for e in rs.relations:
        if not e.is_zero():
            ok, res = is_zero_mod(e, rs)
            assert ok and res.is_zero()
            checked += 1
    assert checked > 0


def test_pbw_reduce_basics():
    # letters 0..3 are l[1,1], l[1,2], l[2,1], l[2,2]; in code order the
    # normal words of degree 2 are the weakly decreasing pairs, odd squares
    # excluded
    t = HT
    h = Scalar.from_symbol(t, "h")
    one = Scalar.one(t)
    rs = _gl11_mrea(h)
    assert rs.quotient.normal_words(2) == [(0, 0), (1, 0), (2, 0), (2, 1),
                                           (3, 0), (3, 1), (3, 2), (3, 3)]
    # normal words stay put
    x = NCPoly(2, t, {(1, 0): one})
    assert is_zero_mod(x, rs) == (False, x)
    # l[1,1] l[1,2] = l[1,2] l[1,1] + h l[1,2]: the tail of the rewrite
    ok, nf = is_zero_mod(NCPoly(2, t, {(0, 1): one}), rs)
    assert not ok and nf.terms == {(1, 0): one, (1,): h}
    # h = 0 collapses to plain (super)symmetrization with signs
    rs0 = _gl11_mrea(Scalar.zero(t))
    _, nf = is_zero_mod(NCPoly(2, t, {(0, 1): one}), rs0)
    assert nf.terms == {(1, 0): one}
    # odd-odd pair anticommutes at h = 0: l[1,2] l[2,1] -> -l[2,1] l[1,2]
    _, nf = is_zero_mod(NCPoly(2, t, {(1, 2): one}), rs0)
    assert nf.terms == {(2, 1): -one}


def test_pbw_relations_reduce_to_zero():
    t = HT
    h = Scalar.from_symbol(t, "h")
    rs = _gl11_mrea(h)
    entries = reflection_matrix(build_superflip(1, 1, t), "mrea", h)
    for row in entries:
        for e in row:
            if not e.is_zero():
                assert is_zero_mod(e, rs)[0]
    # products of relations with generators also reduce to zero
    g = NCPoly.generator(2, t, 1, 0)
    some = next(e for row in entries for e in row if not e.is_zero())
    assert is_zero_mod(some * g, rs)[0]
    assert is_zero_mod(g * some, rs)[0]


def test_pbw_normal_form_rank_degree2():
    # normal forms of all words of degree <= 2 span one dimension per normal
    # word: 8 in degree 2 (ordered pairs minus the two odd squares), 4 in
    # degree 1, 1 constant = 13; the kernel is the 8-dim relation slice
    t = HT
    h = Scalar.from_symbol(t, "h")
    rs = _gl11_mrea(h)
    words = [()] + [(g,) for g in range(4)] + [(a, b) for a in range(4) for b in range(4)]
    index = {}
    span = RowSpace()
    for w in words:
        _, red = is_zero_mod(NCPoly(2, t, {w: Scalar.one(t)}), rs)
        row = {}
        for nw, c in red.terms.items():
            row[index.setdefault(nw, len(index))] = c
        span.add(row)
    assert span.rank == 13
    # and the normal forms only use normal words
    for w in index:
        assert w in rs.quotient.normal_words(len(w))


SHIFT_ORACLE = {
    "dj_gl(2,7/5)": lambda t: build_dj_gl(2, parse_scalar("7/5", t)),
    "q_super(1,1,9/7)": lambda t: build_q_super(1, 1, parse_scalar("9/7", t)),
    "q_super(2,1,9/7)": lambda t: build_q_super(2, 1, parse_scalar("9/7", t)),
}


@pytest.mark.parametrize("name", sorted(SHIFT_ORACLE))
def test_mrea_engine_matches_shift_oracle(name):
    # at q != 1, l -> l + h/(q - 1/q) maps the modified algebra onto the
    # plain one: the filtered engine must give the verdict of that shift
    # followed by the graded engine, on ideal elements sum u r v and on
    # ideal elements plus random words
    t = HT
    h = Scalar.from_symbol(t, "h")
    hs = SHIFT_ORACLE[name](t)
    mrea = relation_space(hs, "mrea", h=h)
    plain = relation_space(hs, "minus")
    shift = h * (hs.q - hs.q.inv()).inv()
    letters = hs.N * hs.N
    top = 4 if hs.N == 2 else 3
    relations = [e for e in mrea.relations if not e.is_zero()]
    rng = random.Random(name)

    def word(length):
        return NCPoly(hs.N, t, {tuple(rng.randrange(letters) for _ in range(length)):
                                Scalar.one(t)})

    verdicts = []
    for trial in range(20):
        x = NCPoly.zero(hs.N, t)
        for _ in range(2):
            left = rng.randrange(top - 1)
            r = rng.choice(relations).scale(rng.randint(-3, 3))
            x = x + word(left) * r * word(rng.randrange(top - 1 - left))
        if trial % 2:
            for _ in range(2):
                x = x + word(rng.randrange(top + 1)).scale(rng.randint(1, 5))
        ok, _ = is_zero_mod(x, mrea)
        assert ok == is_zero_mod(shift_generators(x, shift), plain)[0]
        verdicts.append(ok)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2)])
def test_mrea_dims_at_q1_match_rea(m, n):
    # the h-scaled enveloping algebra of gl(m|n) is a PBW deformation of the
    # graded-flip REA: the filtered engine raises no obstruction and finds
    # as many normal words in each degree
    h = Scalar.from_symbol(HT, "h")
    hs = build_superflip(m, n, HT)
    assert (relation_space(hs, "mrea", h=h).quotient.dims(4)
            == relation_space(hs, "minus").quotient.dims(4))


def test_complementarity_larger_builtins():
    assert complementarity_check(build_superflip(2, 2))
    assert complementarity_check(build_q_super(2, 1, qc("9/7")))


def test_gl11_shifted_ch_reduces_via_straightening():
    # the degree-3 Cayley-Hamilton identity of the shifted algebra, taken to
    # q = 1 wordwise (every coefficient has a finite limit), reduces to 0
    # in the h-scaled enveloping algebra of gl(1|1)
    t = SymbolTable(["q", "h"])
    q = Scalar.from_symbol(t, "q")
    h = Scalar.from_symbol(t, "h")
    hs = build_q_super(1, 1, q)
    rs = _gl11_mrea(h)
    entries = ch_polynomial_entries(hs, 1, 1)
    xi = q - q.inv()
    shift = -(h * xi.inv())
    reduced_any = False
    for e in entries:
        shifted = shift_generators(e, shift)
        at_q1 = shifted.map_coeffs(lambda c: c.substitute({"q": 1}))
        ok, nf = is_zero_mod(at_q1, rs)
        assert ok, nf
        reduced_any = reduced_any or not e.is_zero()
    assert reduced_any


def test_mrea_shift_and_pbw_agree_on_centrality():
    # the same low-degree statement holds in the modified algebra at generic
    # q and at q = 1
    t = SymbolTable(["h"])
    h = Scalar.from_symbol(t, "h")
    hs_q = build_q_super(1, 1, parse_scalar("9/7", t))
    rs = relation_space(hs_q, "mrea", h=h)
    p1 = power_sum_element(1, hs_q)
    g = NCPoly.generator(2, t, 0, 1)
    ok_q, _ = is_zero_mod(p1 * g - g * p1, rs)
    p1c = power_sum_element(1, build_superflip(1, 1, t))
    ok_1, _ = is_zero_mod(p1c * g - g * p1c, _gl11_mrea(h))
    assert ok_q and ok_1


def test_centrality_trivial_on_commutative_quotient():
    flip = build_flip(2)
    rs = relation_space(flip, "minus")
    assert centrality_check(1, flip, rs)
    assert centrality_check(2, flip, rs)


def test_degree_cap_guard():
    from braidorbit.errors import ResourceLimit

    hs = build_dj_gl(2, qc("7/5"))
    rs = relation_space(hs, "minus")
    g = NCPoly.generator(2, EMPTY_TABLE, 0, 0)
    tall = g ** 10  # 4^10 word space exceeds the cap
    with pytest.raises(ResourceLimit):
        is_zero_mod(tall, rs)
