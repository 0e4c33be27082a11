import dataclasses
import json
import random
from fractions import Fraction

import pytest

from braidorbit import linalg, scalar
from braidorbit.errors import (
    BadDeformationParameter,
    NotHecke,
    NotSkewInvertible,
    NotYangBaxter,
    ParseError,
)
from braidorbit.hecke import (
    BiRankReport,
    birank,
    build_dj_gl,
    build_flip,
    build_from_file,
    build_q_super,
    build_superflip,
    hecke_residual,
    multitrace,
    rtrace,
    skew_inverse_residual,
    solve_skew_inverse,
    validate,
    validation_report,
    yang_baxter_residual,
)
from braidorbit.linalg import MatrixS, SparseMat, TensorOp, embed_at, flip_op, partial_trace
from braidorbit.scalar import EMPTY_TABLE, Poly, Scalar, SymbolTable

QT = SymbolTable(["q"])


def q_num(frac):
    return Scalar.from_fraction(EMPTY_TABLE, Fraction(frac))


def q_sym():
    return Scalar.from_symbol(QT, "q")


def test_flip_basics():
    hs = build_flip(2)
    assert hs.psi.mat == flip_op(EMPTY_TABLE, 2).mat
    assert hs.b_op == MatrixS.identity(EMPTY_TABLE, 2)
    assert hs.c_op == MatrixS.identity(EMPTY_TABLE, 2)
    rep = validation_report(hs)
    assert all(rep.values())


def _brute_force_psi(hs):
    """Independent oracle: solve the defining skew-inverse system by dense
    Fraction elimination over all N^4 unknowns."""
    N = hs.N
    R = [[v.as_fraction() for v in row] for row in hs.R.mat.to_dense(hs.table).data]
    size = N ** 4

    def unk(m, o3, t, i3):
        return ((m * N + o3) * N + t) * N + i3

    rows = []
    rhs = []
    for o1 in range(N):
        for o3 in range(N):
            for i1 in range(N):
                for i3 in range(N):
                    row = [Fraction(0)] * size
                    for t in range(N):
                        for m in range(N):
                            c = R[o1 * N + t][i1 * N + m]
                            if c:
                                row[unk(m, o3, t, i3)] += c
                    rows.append(row)
                    rhs.append(Fraction(1 if (o1 == i3 and o3 == i1) else 0))
    # gaussian elimination
    naug = size
    for r, b in zip(rows, rhs):
        r.append(b)
    col = 0
    rank_row = 0
    for col in range(size):
        piv = None
        for i in range(rank_row, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank_row], rows[piv] = rows[piv], rows[rank_row]
        pv = rows[rank_row][col]
        rows[rank_row] = [x / pv for x in rows[rank_row]]
        for i in range(len(rows)):
            if i != rank_row and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank_row])]
        rank_row += 1
    sol = [Fraction(0)] * size
    ptr = 0
    for i in range(rank_row):
        lead = next(j for j in range(size + 1) if rows[i][j])
        assert lead < size, "inconsistent system"
        sol[lead] = rows[i][size]
    psi = [[Fraction(0)] * (N * N) for _ in range(N * N)]
    for m in range(N):
        for o3 in range(N):
            for t in range(N):
                for i3 in range(N):
                    psi[m * N + o3][t * N + i3] = sol[unk(m, o3, t, i3)]
    return psi


def test_superflip_psi_against_bruteforce_and_c():
    hs = build_superflip(1, 1)
    oracle = _brute_force_psi(hs)
    got = [[v.as_fraction() for v in row] for row in hs.psi.mat.to_dense(hs.table).data]
    assert got == oracle
    # C = diag(1, -1): quantum trace of the identity is the superdimension
    assert hs.c_op.data[0][0].as_fraction() == 1
    assert hs.c_op.data[1][1].as_fraction() == -1
    assert rtrace(MatrixS.identity(EMPTY_TABLE, 2), hs).as_fraction() == 0


@pytest.mark.parametrize("build", [
    lambda: build_flip(3),
    lambda: build_superflip(2, 1),
    lambda: build_superflip(1, 2),
    lambda: build_dj_gl(3, q_num("7/5")),
    lambda: build_q_super(2, 1, q_num("9/7")),
    lambda: build_q_super(1, 2, q_num("9/7")),
], ids=["flip3", "superflip21", "superflip12", "dj_gl3", "q_super21", "q_super12"])
def test_psi_against_bruteforce(build):
    hs = build()
    got = [[v.as_fraction() for v in row] for row in hs.psi.mat.to_dense(hs.table).data]
    assert got == _brute_force_psi(hs)


@pytest.mark.parametrize("build", [
    lambda q: build_dj_gl(3, q),
    lambda q: build_q_super(2, 1, q),
], ids=["dj_gl3", "q_super21"])
def test_symbolic_psi_specializes_to_numeric_psi(build):
    symbolic = build(q_sym()).psi.mat.to_dense(QT).data
    numeric = build(q_num("7/5")).psi.mat.to_dense(EMPTY_TABLE).data
    at = {"q": Fraction(7, 5)}
    assert [[v.evaluate(at) for v in row] for row in symbolic] == \
        [[v.as_fraction() for v in row] for row in numeric]


def test_singular_partial_transpose_is_not_skew_invertible():
    # R = qI satisfies the braid and Hecke relations, but its partial
    # transpose q sum_ab |aa><bb| has rank 1
    q = q_num("7/5")
    R = TensorOp.identity(EMPTY_TABLE, 2, 2).scale(q)
    assert yang_baxter_residual(R).is_zero() and hecke_residual(R, q).is_zero()
    with pytest.raises(NotSkewInvertible):
        solve_skew_inverse(R)


def test_skew_inverse_is_one_elimination_of_n2_rows(monkeypatch):
    N = 6
    R = build_dj_gl(N, q_num("7/5")).R
    calls = []
    add = linalg.RowSpace.add

    def counting_add(self, row):
        calls.append(1)
        return add(self, row)

    monkeypatch.setattr(linalg.RowSpace, "add", counting_add)
    solve_skew_inverse(R)
    assert 0 < len(calls) <= N * N


def test_dj_gl2_symbolic_validation_and_c_diagonal():
    hs = build_dj_gl(2, q_sym())
    rep = validation_report(hs)
    assert all(rep.values())
    oracle_c = {}
    # C is diagonal; its trace matches the parametrized rank-(2|0) value 1/q + 1/q^3
    for i in range(2):
        for j in range(2):
            if i != j:
                assert hs.c_op.data[i][j].is_zero()
    total = hs.c_op.trace()
    q = q_sym()
    assert total == q.inv() + q.inv() ** 3


def test_rtrace_flip_is_ordinary_trace():
    hs = build_flip(3)
    rng = random.Random(1)
    m = MatrixS(EMPTY_TABLE, [[Scalar.from_fraction(EMPTY_TABLE, rng.randint(-4, 4))
                               for _ in range(3)] for _ in range(3)])
    assert rtrace(m, hs) == m.trace()


def test_superflip_rtrace_identity_superdimension():
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        hs = build_superflip(m, n)
        val = rtrace(MatrixS.identity(EMPTY_TABLE, m + n), hs)
        assert val.as_fraction() == m - n


def test_multitrace_values_and_cyclicity():
    hs = build_flip(2)
    ident3 = TensorOp.identity(EMPTY_TABLE, 2, 3)
    assert multitrace(ident3, hs).as_fraction() == 8  # (Tr C)^3
    sigma = embed_at(flip_op(EMPTY_TABLE, 2), 1, 2)
    assert multitrace(sigma, hs).as_fraction() == 2  # Tr I_2

    hs = build_dj_gl(2, q_num("7/5"))
    rng = random.Random(42)
    m = MatrixS(EMPTY_TABLE, [[Scalar.from_fraction(EMPTY_TABLE, rng.randint(-3, 3))
                               for _ in range(8)] for _ in range(8)])
    op = TensorOp(2, 3, SparseMat.from_dense(m), EMPTY_TABLE)
    for i in (1, 2):
        ri = embed_at(hs.R, i, 3)
        ri_inv = embed_at(hs.r_inv, i, 3)
        for r in (ri, ri_inv):
            lhs = multitrace(r * op, hs)
            rhs = multitrace(op * r, hs)
            assert lhs == rhs


def test_birank_flip2():
    hs = build_flip(2)
    rep = birank(hs, 5)
    assert rep.minus_series[:4] == [1, 2, 1, 0]
    assert (rep.m, rep.n) == (2, 0)
    assert rep.numerator == [Fraction(1), Fraction(2), Fraction(1)]
    assert rep.denominator == [Fraction(1)]


def test_birank_superflip11():
    hs = build_superflip(1, 1)
    rep = birank(hs, 5)
    assert rep.minus_series == [1, 2, 2, 2, 2, 2]
    assert (rep.m, rep.n) == (1, 1)
    assert rep.numerator == [Fraction(1), Fraction(1)]
    assert rep.denominator == [Fraction(1), Fraction(-1)]


def test_birank_dj3():
    hs = build_dj_gl(3, q_num("5/3"))
    rep = birank(hs, 6)
    assert (rep.m, rep.n) == (3, 0)
    assert rep.minus_series[:5] == [1, 3, 3, 1, 0]


def test_birank_deformation_guard_behaviour():
    # no exact rational is a nontrivial root of unity, so the k_q != 0 guard
    # accepts every rational q (including q = -1, where R = -flip is Hecke
    # with the symmetric/antisymmetric roles swapped) and symbolic q.
    hs = build_dj_gl(2, Scalar.from_fraction(EMPTY_TABLE, -1))
    rep = birank(hs, 4)
    assert (rep.m, rep.n) == (2, 0)
    from braidorbit.scalar import qnumber

    for k in range(1, 6):
        assert not qnumber(k, Scalar.from_fraction(EMPTY_TABLE, Fraction(7, 5))).is_zero()


def test_validation_rejects_wrong_matrices():
    t = EMPTY_TABLE
    bad = SparseMat.identity(4, Scalar.one(t))
    bad.rows[0][1] = Scalar.one(t)
    with pytest.raises(NotYangBaxter):
        validate("bad", 2, t, Scalar.one(t), TensorOp(2, 2, bad, t))
    # flip passes YBE but fails Hecke for q != 1
    with pytest.raises(NotHecke):
        validate("bad-hecke", 2, t, Scalar.from_fraction(t, 2), flip_op(t, 2))


def test_from_file_roundtrip(tmp_path):
    hs = build_dj_gl(2, q_sym())
    entries = []
    dense = hs.R.mat.to_dense(hs.table)
    for out in range(4):
        for inp in range(4):
            v = dense.data[out][inp]
            if v:
                entries.append({
                    "out_pair": [out // 2 + 1, out % 2 + 1],
                    "in_pair": [inp // 2 + 1, inp % 2 + 1],
                    "value": str(v),
                })
    doc = {"dim": 2, "symbols": ["q"], "q": "q", "entries": entries}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    loaded = build_from_file(str(path))
    assert loaded.R.mat == hs.R.mat
    assert loaded.c_op == hs.c_op

    path2 = tmp_path / "bad.json"
    path2.write_text("{not json")
    with pytest.raises(ParseError):
        build_from_file(str(path2))


def test_birank_extremal_cases():
    # the largest instances of the stated ranges: mixed super-dimension 5
    # and the dimension-4 deformed flip
    hs = build_dj_gl(4, q_num("7/5"))
    rep = birank(hs, 7)
    assert (rep.m, rep.n) == (4, 0)
    hs = build_superflip(3, 2)
    rep = birank(hs, 8)
    assert (rep.m, rep.n) == (3, 2)
    assert rep.minus_series == [1, 5, 12, 20, 28, 36, 44, 52, 60]
    assert rep.plus_series == [1, 5, 13, 25, 41, 61, 85, 113, 145]


def test_birank_inconclusive_depth():
    hs = build_superflip(1, 1)
    with pytest.raises(Exception) as err:
        birank(hs, 2)
    from braidorbit.errors import InconclusiveDepth

    assert isinstance(err.value, InconclusiveDepth)


def _with_entry(op, row, col, value):
    """Copy of a tensor operator with one stored entry replaced."""
    rows = {i: dict(r) for i, r in op.mat.rows.items()}
    rows.setdefault(row, {})[col] = value
    return TensorOp(op.N, op.arity, SparseMat(op.mat.nrows, op.mat.ncols, rows), op.table)


def test_validation_report_flips_on_mutated_r():
    hs = build_dj_gl(3, q_num("7/5"))
    assert validation_report(hs) == {"yang_baxter": True, "hecke": True, "skew_inverse": True}
    # one off-diagonal entry of R changed: R(e_0 (x) e_1) gains 2/3 of e_1 (x) e_0
    off = hs.R.mat.rows[1 * 3 + 0][0 * 3 + 1]
    bad = dataclasses.replace(hs, R=_with_entry(hs.R, 1 * 3 + 0, 0 * 3 + 1, off + q_num("2/3")))
    assert validation_report(bad)["yang_baxter"] is False
    # 2R still satisfies the braid relation but not the Hecke condition
    scaled = dataclasses.replace(hs, R=hs.R.scale(q_num(2)))
    rep = validation_report(scaled)
    assert rep["yang_baxter"] is True
    assert rep["hecke"] is False


def test_validation_report_flips_on_mutated_psi():
    hs = build_dj_gl(3, q_num("7/5"))
    row, entries = next(iter(hs.psi.mat.rows.items()))
    col, value = next(iter(entries.items()))
    bad = dataclasses.replace(hs, psi=_with_entry(hs.psi, row, col, value + q_num(1)))
    rep = validation_report(bad)
    assert rep == {"yang_baxter": True, "hecke": True, "skew_inverse": False}


# ---------------------------------------------------------------------------
# residuals on cleared entries
# ---------------------------------------------------------------------------


def _scalar_residuals(R, q, psi):
    """The three residuals formed on Scalars as written, with no clearing:
    the oracle of the cleared route."""
    r12, r23 = embed_at(R, 1, 3), embed_at(R, 2, 3)
    ident = TensorOp.identity(R.table, R.N, 2)
    traced = partial_trace(r12 * embed_at(psi, 2, 3), 2)
    return (r12 * r23 * r12 - r23 * r12 * r23,
            (ident.scale(q) - R) * (ident.scale(q.inv()) + R),
            traced - flip_op(R.table, R.N))


def _entries(op):
    return [v for row in op.mat.rows.values() for v in row.values()]


def _multipliers(R, q, psi):
    """The Scalars by which the cleared residuals multiply the oracle's:
    L^3 for R cleared, q L^3 for q cleared with R, and L^2 for R and Psi
    cleared together."""
    def as_scalar(c):
        return scalar.ratio(c, c ** 0, R.table)

    l_r = as_scalar(linalg.clear_denominators(R)[-1])
    l_qr = as_scalar(scalar.clear([q, *_entries(R)])[0])
    l_rp = as_scalar(linalg.clear_denominators(R, psi)[-1])
    return l_r ** 3, q * l_qr ** 3, l_rp ** 2


def _as_scalars(op, ring):
    """An operator with entries in `ring` (int or Poly), as the same
    operator over Scalars."""
    assert all(type(v) is ring for v in _entries(op))
    rows = {i: {j: scalar.ratio(v, v ** 0, op.table) for j, v in row.items()}
            for i, row in op.mat.rows.items()}
    return TensorOp(op.N, op.arity, SparseMat(op.mat.nrows, op.mat.ncols, rows), op.table)


def _random_op(rng, N, table=EMPTY_TABLE):
    """A random operator; over QT an entry is c q^e or c q^e + 1/(q + k)."""
    rows = {}
    for i in range(N * N):
        for j in range(N * N):
            if rng.random() < 0.4:
                v = Scalar.from_fraction(table, Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
                if table is QT:
                    v = v * q_sym() ** rng.randint(-2, 2)
                    if rng.random() < 0.3:
                        v = v + (q_sym() + rng.randint(1, 3)).inv()
                if v:
                    rows.setdefault(i, {})[j] = v
    return TensorOp(N, 2, SparseMat(N * N, N * N, rows), table)


@pytest.mark.parametrize("seed", range(9))
def test_cleared_residuals_are_the_scalar_residuals_times_d(seed):
    # seeds 6-8 draw R, Psi and q at symbolic q, which clear onto Polys
    rng = random.Random(seed)
    if seed < 6:
        N, table, ring = 2 + seed % 2, EMPTY_TABLE, int
        q = q_num(Fraction(rng.randint(2, 9), rng.randint(1, 9)))
    else:
        N, table, ring, q = 2, QT, Poly, q_sym()
    R, psi = _random_op(rng, N, table), _random_op(rng, N, table)
    yb, hk, sk = _scalar_residuals(R, q, psi)
    assert not yb.is_zero() and not hk.is_zero() and not sk.is_zero()
    m_yb, m_hk, m_sk = _multipliers(R, q, psi)
    assert _as_scalars(yang_baxter_residual(R), ring) == yb.scale(m_yb)
    assert _as_scalars(hecke_residual(R, q), ring) == hk.scale(m_hk)
    assert _as_scalars(skew_inverse_residual(R, psi), ring) == sk.scale(m_sk)


def test_symbolic_residuals_clear_onto_polys():
    # a non-constant entry clears R onto Polys, and each residual is the
    # Scalar formula times the multiplier that clearing returns
    hs = build_dj_gl(2, q_sym())
    bad = _with_entry(hs.R, 0, 0, hs.q + q_num(1).lift(QT))
    psi = _with_entry(hs.psi, 1, 2, hs.q)
    cleared, common = linalg.clear_denominators(bad)
    assert type(common) is Poly and not common.is_constant()
    assert all(type(v) is Poly for v in _entries(cleared))
    yb, hk, sk = _scalar_residuals(bad, hs.q, psi)
    assert not yb.is_zero() and not hk.is_zero() and not sk.is_zero()
    m_yb, m_hk, m_sk = _multipliers(bad, hs.q, psi)
    assert _as_scalars(yang_baxter_residual(bad), Poly) == yb.scale(m_yb)
    assert _as_scalars(hecke_residual(bad, hs.q), Poly) == hk.scale(m_hk)
    assert _as_scalars(skew_inverse_residual(bad, psi), Poly) == sk.scale(m_sk)


def test_yang_baxter_residual_makes_three_products(monkeypatch):
    calls = []
    mul = SparseMat.__mul__
    monkeypatch.setattr(SparseMat, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for R in (build_dj_gl(3, q_num("7/5")).R, build_dj_gl(2, q_sym()).R):
        calls.clear()
        assert yang_baxter_residual(R).is_zero()
        assert len(calls) == 3


@pytest.mark.parametrize("build", [
    lambda: build_dj_gl(3, q_num("7/5")),
    lambda: build_q_super(2, 1, q_num("9/7")),
    lambda: build_superflip(2, 1),
    lambda: build_dj_gl(3, q_sym()),
], ids=["dj_gl3", "q_super21", "superflip21", "dj_gl3_symbolic"])
def test_validation_report_flips_on_every_perturbed_entry(build):
    # each stored entry of R, and one it does not store, perturbed after the
    # build, so that validate never sees it; likewise for Psi
    hs = build()
    assert validation_report(hs) == {"yang_baxter": True, "hecke": True, "skew_inverse": True}
    shift = q_num("2/3").lift(hs.table)
    n2 = hs.N ** 2
    for name, op in (("R", hs.R), ("psi", hs.psi)):
        spots = [(i, j) for i, row in op.mat.rows.items() for j in row]
        spots.append(next((i, j) for i in range(n2) for j in range(n2)
                          if j not in op.mat.rows.get(i, {})))
        for i, j in spots:
            value = op.mat.rows.get(i, {}).get(j, q_num(0).lift(hs.table))
            bad = dataclasses.replace(hs, **{name: _with_entry(op, i, j, value + shift)})
            rep = validation_report(bad)
            if name == "R":
                assert not (rep["yang_baxter"] and rep["hecke"]), (i, j)
            else:
                assert rep == {"yang_baxter": True, "hecke": True,
                               "skew_inverse": False}, (i, j)
