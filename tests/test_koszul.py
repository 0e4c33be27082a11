import itertools
from fractions import Fraction

import pytest

from braidorbit import koszul
from braidorbit.cli import main
from braidorbit.errors import ProjectorAxiomFailed
from braidorbit.graded import accumulate
from braidorbit.hecke import build_dj_gl, build_flip, build_q_super
from braidorbit.koszul import (
    HattedBasis,
    build_projectors,
    conjecture1_check,
    d_squared_check_r2,
    differential_d1,
    p2_action_identity,
    symmetrizer_certificate,
    trace_vector,
    vec_from_structure,
)
from braidorbit.linalg import RowSpace, SparseMat, embed_at
from braidorbit.orbit import gradient_matrices
from braidorbit.rea import NCPoly, power_sum_element
from braidorbit.scalar import EMPTY_TABLE, Scalar, SymbolTable, qnumber


def qc(v):
    return Scalar.from_fraction(EMPTY_TABLE, Fraction(v))


def test_hatted_basis_matches_index_formula():
    hs = build_dj_gl(2, qc("7/5"))
    basis = HattedBasis.build(hs, 2)
    N = 2
    R = hs.R.mat.to_dense(hs.table).data
    Ri = hs.r_inv.mat.to_dense(hs.table).data
    for i1 in range(N):
        for i2 in range(N):
            for j1 in range(N):
                for j2 in range(N):
                    element = basis.elements[i1 * N + i2][j1 * N + j2]
                    # sum_a1,b1,c1,a2 l[i1][a1] l[b1][c1] R[(a1,i2)][(b1,a2)] Ri[(c1,a2)][(j1,j2)]
                    expect = {}
                    for a1 in range(N):
                        for b1 in range(N):
                            for c1 in range(N):
                                for a2 in range(N):
                                    coeff = R[a1 * N + i2][b1 * N + a2] * \
                                        Ri[c1 * N + a2][j1 * N + j2]
                                    if coeff:
                                        w = (i1 * N + a1, b1 * N + c1)
                                        expect[w] = expect.get(w, qc(0)) + coeff
                    expect = {w: c for w, c in expect.items() if c}
                    assert element.terms == expect, (i1, i2, j1, j2)


def _position_plus_oracle(hs, position):
    """P+ at `position` of arity 3 as a stored N^6 x N^6 operator: the
    Kronecker products of the embedded braidings."""
    r = embed_at(hs.R, position, 3)
    ri = embed_at(hs.r_inv, position, 3)
    return koszul._sym_plus(koszul._conjugation_op(r, ri)
                            + koszul._conjugation_op(ri, r), hs.q)


@pytest.mark.parametrize("builder", [
    lambda: build_flip(2),
    lambda: build_dj_gl(2, qc("7/5")),
    lambda: build_q_super(1, 1, qc("9/7")),
    lambda: build_dj_gl(3, qc("5/3")),
])
def test_projector_axioms(builder):
    # the axioms certified in H_3 (x) H_3, recomputed on the Kronecker
    # oracle of the position symmetrizers: an independent check of the
    # homomorphism argument
    hs = builder()
    ps = build_projectors(hs)
    p1, p2 = _position_plus_oracle(hs, 1), _position_plus_oracle(hs, 2)
    a, b, lead = ps.cubic
    p121 = p1 * p2 * p1
    p212 = p2 * p1 * p2
    p3 = (p121 * p2 * p1 - p121.scale(a) + p1.scale(b)).scale(lead)
    assert p3 == (p212 * p1 * p2 - p212.scale(a) + p2.scale(b)).scale(lead)
    for p in (ps.p2_plus, ps.p2_minus, p1, p2, p3):
        assert p * p == p
    assert p3 * p1 == p3 and p3 * p2 == p3
    ident = SparseMat.identity(ps.p2_plus.nrows, Scalar.one(hs.table))
    assert ps.p2_plus + ps.p2_minus == ident
    assert (ps.p2_plus * ps.p2_minus).is_zero()
    assert (ps.p2_minus * ps.p2_plus).is_zero()
    # the set applies the oracle operators, and every column it built is
    # the oracle's column
    assert ps.trace3_vec == trace_vector(3, hs)
    for v in (ps.trace3_vec, ps.ia_vec, ps.ib_vec):
        assert ps.apply(1, v) == p1.apply(v) and ps.apply(2, v) == p2.apply(v)
        assert ps.apply_p3_plus(v) == p3.apply(v)
    oracle_columns = {1: p1.transpose().rows, 2: p2.transpose().rows}
    assert {pos for pos, _ in ps.columns} == {1, 2}
    for (pos, jl), column in ps.columns.items():
        assert column == oracle_columns[pos].get(jl, {}), (pos, jl)


def test_no_operator_on_arity3_coefficients(monkeypatch):
    # the checks at arity 3 form nothing of size N^6 x N^6: P+ at a position
    # is applied from the columns its vectors need
    hs = build_dj_gl(3, qc("5/3"))
    sizes = []
    init = SparseMat.__init__

    def recording_init(self, nrows, ncols, rows=None):
        sizes.append(max(nrows, ncols))
        init(self, nrows, ncols, rows)

    monkeypatch.setattr(SparseMat, "__init__", recording_init)
    ps = build_projectors(hs)
    assert conjecture1_check(3, hs, ps)[0]
    assert all(ok for _, ok in p2_action_identity(hs, ps))
    assert sizes and max(sizes) < 3 ** 6
    # only the columns the checks' vectors reach are built, not all 2 N^6
    assert 0 < len(ps.columns) < 2 * 3 ** 6


@pytest.mark.parametrize("q", [qc(1), qc("7/5"),
                               Scalar.from_symbol(SymbolTable(["q"]), "q")])
def test_hecke_representation_faithful(q):
    t1, t2 = koszul._hecke_generators(q)
    ident = SparseMat.identity(4, Scalar.one(q.table))
    span = RowSpace()
    for w in (ident, t1, t2, t1 * t2, t2 * t1, t1 * t2 * t1):
        span.add({4 * i + j: v for i, r in w.rows.items()
                  for j, v in r.items()})
    assert span.rank == 6
    rows = symmetrizer_certificate(q)
    assert ("faithful", True) in rows and all(ok for _, ok in rows)


@pytest.mark.parametrize("which", [0, 1, 2])
def test_certificate_fails_on_perturbed_constant(monkeypatch, capsys, which):
    exact = koszul._cubic_constants

    def perturbed(q):
        consts = list(exact(q))
        consts[which] = consts[which] + 1
        return tuple(consts)

    monkeypatch.setattr(koszul, "_cubic_constants", perturbed)
    with pytest.raises(ProjectorAxiomFailed):
        build_projectors(build_dj_gl(2, qc("7/5")))
    code = main(["koszul", "--builtin", "dj_gl", "--N", "2", "--q", "7/5",
                 "--check", "projectors"])
    assert code == 1
    assert "projector-axioms: PASS" not in capsys.readouterr().out


def _t1_twice(t1, t2):
    # satisfies the Hecke and braid relations but spans only {1, T}: rank 2
    return t1, t1


def _t2_far_entry_two(t1, t2):
    rows = {i: dict(r) for i, r in t2.rows.items()}
    rows[3][2] = rows[3][2] * 2
    return t1, SparseMat(4, 4, rows)


def _t1_repeated_eigenvalue(t1, t2):
    rows = {i: dict(r) for i, r in t1.rows.items()}
    rows[3][3] = rows[2][2]
    return SparseMat(4, 4, rows), t2


@pytest.mark.parametrize("mutate, axiom", [
    (_t1_twice, "faithful"),
    (_t2_far_entry_two, "braid-relation"),
    (_t1_repeated_eigenvalue, "hecke-relation"),
])
def test_certificate_fails_on_perturbed_representation(monkeypatch, mutate,
                                                       axiom):
    exact = koszul._hecke_generators
    monkeypatch.setattr(koszul, "_hecke_generators",
                        lambda q: mutate(*exact(q)))
    with pytest.raises(ProjectorAxiomFailed, match=axiom):
        symmetrizer_certificate(qc("7/5"))


def test_flip_projector_halves():
    hs = build_flip(2)
    ps = build_projectors(hs)
    # at q = 1 the conjugation is an involution and P+ = (Id + Q)/2
    q_op = koszul._conjugation_op(hs.R, hs.r_inv)
    ident = SparseMat.identity(16, Scalar.one(EMPTY_TABLE))
    assert (q_op * q_op - ident).is_zero()
    half = Scalar.from_fraction(EMPTY_TABLE, Fraction(1, 2))
    expect = (ident + q_op).scale(half)
    assert (ps.p2_plus - expect).is_zero()


def test_trace_vector_two_routes():
    for hs in (build_flip(2), build_dj_gl(2, qc("7/5")), build_q_super(1, 1, qc("9/7"))):
        b2 = HattedBasis.build(hs, 2)
        assert b2.to_standard(trace_vector(2, hs)) == power_sum_element(2, hs)
        b3 = HattedBasis.build(hs, 3)
        assert b3.to_standard(trace_vector(3, hs)) == power_sum_element(3, hs)


def test_conjecture1_small():
    for hs in (build_flip(2), build_dj_gl(2, qc("7/5")), build_q_super(1, 1, qc("9/7"))):
        ps = build_projectors(hs)
        ok2, rep2 = conjecture1_check(2, hs, ps)
        ok3, rep3 = conjecture1_check(3, hs, ps)
        assert ok2 and rep2["vector_equality"]
        assert ok3 and rep3["quotient_zero"]


def test_hatted_bases_built_only_for_a_failed_vector_equality(monkeypatch):
    built = []
    exact = HattedBasis.build
    monkeypatch.setattr(HattedBasis, "build",
                        staticmethod(lambda hs, arity: built.append(arity) or exact(hs, arity)))
    flip = build_flip(2)
    ps = build_projectors(flip)
    assert conjecture1_check(2, flip, ps)[0] and conjecture1_check(3, flip, ps)[0]
    assert built == []
    hs = build_dj_gl(2, qc("7/5"))
    ps = build_projectors(hs)
    for _ in range(2):
        ok3, rep3 = conjecture1_check(3, hs, ps)
        assert ok3 and not rep3["vector_equality"]
    assert built == [3]


def test_conjecture1_involutive_on_the_nose():
    # for involutive symmetries even the lifts agree as coefficient vectors
    ps = build_projectors(build_flip(2))
    ok3, rep3 = conjecture1_check(3, build_flip(2), ps)
    assert ok3 and rep3["vector_equality"]


def test_conjecture1_deformed_needs_quotient():
    # at q != 1 the position-2 symmetrized lift is not fully symmetric, so
    # vector equality fails while the quotient classes agree exactly
    hs = build_dj_gl(2, qc("7/5"))
    ok3, rep3 = conjecture1_check(3, hs)
    assert ok3
    assert not rep3["vector_equality"]
    assert rep3["quotient_zero"]


def test_im_p_minus_is_relation_subspace():
    # the antisymmetrizer image transported to the word basis is exactly the
    # span of the defining quadratic relations
    from braidorbit.linalg import RowSpace
    from braidorbit.rea import relation_space

    for hs in (build_dj_gl(2, qc("7/5")), build_q_super(1, 1, qc("9/7"))):
        ps = build_projectors(hs)
        rs = relation_space(hs, "minus")
        b2 = HattedBasis.build(hs, 2)
        base = hs.N * hs.N
        both = RowSpace()
        for vec in rs.basis:
            both.add(dict(vec))
        rank_p = RowSpace()
        n4 = base * base
        for col in range(n4):
            vec = {}
            for r, row in ps.p2_minus.rows.items():
                val = row.get(col)
                if val:
                    vec[r] = val
            if not vec:
                continue
            rank_p.add(dict(vec))
            nc = b2.to_standard(vec)
            assert not both.add(dict(nc.terms))
        assert rank_p.rank == rs.dim


def test_conjecture1_dj3():
    hs = build_dj_gl(3, qc("5/3"))
    ps = build_projectors(hs)
    ok2, _ = conjecture1_check(2, hs, ps)
    ok3, rep3 = conjecture1_check(3, hs, ps)
    assert ok2 and ok3
    assert rep3["quotient_zero"]


@pytest.mark.parametrize("builder", [
    lambda: build_dj_gl(4, qc("7/5")),
    lambda: build_q_super(2, 1, qc("9/7")),
], ids=["dj_gl(4)", "q_super(2,1)"])
def test_canonical_form_larger(builder):
    hs = builder()
    ps = build_projectors(hs)
    for k in (2, 3):
        ok, rep = conjecture1_check(k, hs, ps)
        assert ok and rep["quotient_zero"], (k, rep)
    assert all(ok for _, ok in p2_action_identity(hs, ps))


def test_p2_action_rows():
    for hs in (build_flip(2), build_dj_gl(2, qc("7/5")), build_q_super(1, 1, qc("9/7"))):
        rows = p2_action_identity(hs)
        assert all(ok for _, ok in rows)
        names = [name for name, _ in rows]
        assert "p2-action" in names
        assert "table-pos1-r_far" in names


def test_intermediate_composite_actions():
    # the two composite actions on xi IA + 2 IB + xi R2 written in the
    # invariant coordinates (IA, IB, R2)
    hs = build_dj_gl(2, qc("7/5"))
    ps = build_projectors(hs)
    q = hs.q
    t = hs.table
    xi = q - q.inv()
    two_q = qnumber(2, q)
    r2 = embed_at(hs.R, 2, 3)

    def vs(d, c):
        return {k: c * v for k, v in d.items()} if c else {}

    def vadd(*ds):
        out = {}
        for d in ds:
            for k, v in d.items():
                s = out.get(k)
                val = v if s is None else s + v
                if val:
                    out[k] = val
                elif s is not None:
                    del out[k]
        return out

    v_r2 = vec_from_structure(r2, hs)
    start = vadd(vs(ps.ia_vec, xi), vs(ps.ib_vec, Scalar.from_fraction(t, 2)),
                 vs(v_r2, xi))
    once = ps.apply(2, ps.apply(1, start))
    c4 = two_q ** 4
    expect_once = vadd(
        vs(ps.ia_vec, (c4 + 4) / c4 * xi),
        vs(ps.ib_vec, (c4 - xi * xi) / c4 * 2),
        vs(v_r2, (two_q ** 2 - 2) ** 2 / c4 * xi))
    assert not _diff(once, expect_once)

    twice = ps.apply(2, ps.apply(1, once))
    c8 = two_q ** 8
    boost = 2 + two_q ** 2 * (two_q ** 2 - 2)
    expect_twice = vadd(
        vs(ps.ia_vec, (1 + 8 * boost / c8) * xi),
        vs(ps.ib_vec, (1 - 2 * xi * xi * boost / c8) * 2),
        vs(v_r2, (two_q ** 2 - 2) ** 4 / c8 * xi))
    assert not _diff(twice, expect_twice)


def _diff(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k)
        val = -v if s is None else s - v
        if val:
            out[k] = val
        elif s is not None:
            del out[k]
    return out


def path_sum(hs, k, weight):
    """sum of weight(i0, ik) l[i0][i1] ... l[i(k-1)][ik] over the index paths
    (i0, ..., ik): each word is read off its path, no matrix is multiplied."""
    N = hs.N
    terms = {}
    for path in itertools.product(range(N), repeat=k + 1):
        w = weight(path[0], path[-1])
        if w:
            accumulate(terms, tuple(a * N + b for a, b in zip(path, path[1:])), w)
    return NCPoly(N, hs.table, terms)


def path_power_sum(hs, k):
    """Tr_R L^k = sum l[i0][i1] ... l[i(k-1)][ik] C[ik][i0]."""
    c = hs.c_op.data
    return path_sum(hs, k, lambda a, z: c[z][a])


def path_gradient(hs, k, i, j):
    """(L^(k-1) C)[j][i] = sum l[j][i1] ... l[i(k-2)][t] C[t][i]."""
    c = hs.c_op.data
    return path_sum(hs, k - 1, lambda a, z: c[z][i] if a == j else 0)


def path_pairing(hs, k, i, j):
    """(L^(k-1))[i][j]."""
    return path_sum(hs, k - 1, lambda a, z: Scalar.one(hs.table) if (a, z) == (i, j) else 0)


@pytest.mark.parametrize("build", [
    lambda: build_dj_gl(2, qc("7/5")),
    lambda: build_q_super(1, 1, qc("9/7")),
    lambda: build_q_super(2, 1, qc("9/7")),
    lambda: build_dj_gl(2, Scalar.from_symbol(SymbolTable(["q"]), "q")),
], ids=["dj_gl(2,7/5)", "q_super(1,1,9/7)", "q_super(2,1,9/7)", "dj_gl(2,q)"])
def test_power_sums_and_gradients_match_index_paths(build):
    """Tr_R L^k, the gradient columns and pairing rows (gradient_matrices),
    and the first differential, for k = 1..4, against the index-path sums."""
    hs = build()
    N = hs.N
    A, B = gradient_matrices(hs, 4)
    for k in range(1, 5):
        assert power_sum_element(k, hs) == path_power_sum(hs, k)
        d1 = dict(differential_d1(hs, k))
        assert len(d1) == N * N
        for i in range(N):
            for j in range(N):
                grad = path_gradient(hs, k, i, j)
                assert A[j * N + i][k - 1] == grad and d1[(i, j)] == grad
                assert B[k - 1][j * N + i] == path_pairing(hs, k, i, j)


def test_differential_d1_matches_gradient():
    for hs in (build_flip(2), build_dj_gl(2, qc("7/5"))):
        for k in (1, 2, 3):
            for (i, j), cof in differential_d1(hs, k):
                assert cof == path_gradient(hs, k, i, j)
    # classical shape at k = 2: cofactor of d l[i][j] is l[j][i]
    flip = build_flip(2)
    for (i, j), cof in differential_d1(flip, 2):
        assert list(cof.terms) == [(j * 2 + i,)]


def test_d_squared_r2():
    for hs in (build_flip(2), build_dj_gl(2, qc("7/5")), build_q_super(1, 1, qc("9/7"))):
        assert d_squared_check_r2(hs)
