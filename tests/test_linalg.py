import random
from fractions import Fraction

import pytest

from braidorbit.errors import ResourceLimit, SingularMatrix
from braidorbit.linalg import (
    MatrixS,
    RowSpace,
    SparseMat,
    TensorOp,
    det_bareiss,
    embed_at,
    flip_op,
    inverse,
    partial_trace,
    rowreduce,
    set_entry_cap,
)
from braidorbit.scalar import EMPTY_TABLE, Scalar, SymbolTable, parse_scalar


def mat(table, rows):
    return MatrixS(table, [[parse_scalar(str(x), table) if not isinstance(x, Scalar) else x
                            for x in row] for row in rows])


def sparse(table, rows):
    return SparseMat.from_dense(mat(table, rows))


def test_identity_and_kron():
    i2 = SparseMat.identity(2, Scalar.one(EMPTY_TABLE))
    assert i2.kron(i2) == SparseMat.identity(4, Scalar.one(EMPTY_TABLE))
    a = sparse(EMPTY_TABLE, [[1, 2], [3, 4]])
    b = sparse(EMPTY_TABLE, [[0, 1], [1, 0]])
    k = a.kron(b).to_dense(EMPTY_TABLE)
    assert k[(0, 1)] == parse_scalar("1", EMPTY_TABLE)
    assert k[(3, 2)] == parse_scalar("4", EMPTY_TABLE)
    assert k[(0, 0)].is_zero()


def test_embed_at_definitions():
    t = SymbolTable(["q"])
    sigma = flip_op(t, 2)
    assert embed_at(sigma, 1, 2) == sigma
    # I (x) R at position 2 of three factors
    emb = embed_at(sigma, 2, 3)
    i2 = SparseMat.identity(2, Scalar.one(t))
    expected = i2.kron(sigma.mat)
    assert emb.mat == expected
    emb1 = embed_at(sigma, 1, 3)
    assert emb1.mat == sigma.mat.kron(i2)


def test_partial_trace_flip_and_identity():
    t = EMPTY_TABLE
    sigma = flip_op(t, 2)
    # Tr_2 sigma = I for the flip
    assert partial_trace(sigma, 2).mat == SparseMat.identity(2, Scalar.one(t))
    assert partial_trace(sigma, 1).mat == SparseMat.identity(2, Scalar.one(t))
    ii = TensorOp.identity(t, 2, 2)
    tr1 = partial_trace(ii, 1)
    assert tr1.mat == SparseMat.identity(2, parse_scalar("2", t))
    # trace over all spaces equals the full matrix trace
    full = partial_trace(tr1, 1)
    assert full.mat.to_dense(t)[(0, 0)] == \
        sigma.mat.to_dense(t).trace() + parse_scalar("2", t)


def _dj_r_matrix(table, N, q):
    """Standard q-deformed flip on V (x) V, built here independently as an oracle."""
    one = Scalar.one(table)
    xi = q - q.inv()
    m = MatrixS.zeros(table, N * N, N * N)
    for i in range(N):
        for j in range(N):
            col = i * N + j
            if i == j:
                m.data[col][col] = m.data[col][col] + q
            else:
                m.data[j * N + i][col] = m.data[j * N + i][col] + one
                if i < j:
                    m.data[col][col] = m.data[col][col] + xi
    return TensorOp(N, 2, SparseMat.from_dense(m), table)


def test_partial_trace_dj_hand_contraction():
    t = SymbolTable(["q"])
    q = Scalar.from_symbol(t, "q")
    r = _dj_r_matrix(t, 2, q)
    traced = partial_trace(r, 2).mat.to_dense(t)
    rd = r.mat.to_dense(t)
    # hand contraction: entry (i,k) = sum_j R[(i,j),(k,j)]
    zero = Scalar.zero(t)
    for i in range(2):
        for k in range(2):
            acc = zero
            for j in range(2):
                acc = acc + rd[(i * 2 + j, k * 2 + j)]
            assert traced[(i, k)] == acc
    # concrete values: diag = q + xi for row 0 (j=1 adds xi), q for row 1... verified numerically
    assert traced[(0, 0)] == q + (q - q.inv())
    assert traced[(1, 1)] == q


def test_det_examples():
    t = SymbolTable(["a", "b", "c", "d"])
    assert det_bareiss(MatrixS.identity(t, 3)) == Scalar.one(t)
    m = mat(t, ["a b".split(), "c d".split()])
    assert det_bareiss(m) == parse_scalar("a*d - b*c", t)


def test_det_vandermonde_cofactor_oracle():
    t = SymbolTable(["mu1", "mu2", "mu3"])
    mus = [Scalar.from_symbol(t, f"mu{i}") for i in (1, 2, 3)]
    rows = [[mu ** k for k in range(3)] for mu in mus]
    m = MatrixS(t, rows)

    def cofactor_det(mm):
        n = mm.nrows
        if n == 1:
            return mm[(0, 0)]
        total = Scalar.zero(t)
        for j in range(n):
            minor = MatrixS(t, [[mm[(r, c)] for c in range(n) if c != j]
                                for r in range(1, n)])
            term = mm[(0, j)] * cofactor_det(minor)
            total = total + term if j % 2 == 0 else total - term
        return total

    expected = (mus[1] - mus[0]) * (mus[2] - mus[0]) * (mus[2] - mus[1])
    assert cofactor_det(m) == expected
    assert det_bareiss(m) == expected


def test_det_clears_rows_by_cofactors_without_dividing(monkeypatch):
    # every row has denominators sharing factors; _clear_rows builds its
    # multipliers from gcd cofactors, and only the Bareiss steps divide
    import braidorbit.linalg as linalg
    import braidorbit.scalar as scalar

    t = SymbolTable(["a", "b", "c"])
    m = mat(t, [["1/a", "b/(a*c)", "1"],
                ["c/(a + b)", "a", "1/(b*c*(a + b))"],
                ["b/2", "1/(a + b)^2", "a/c"]])
    d = m.data
    expected = (d[0][0] * (d[1][1] * d[2][2] - d[1][2] * d[2][1])
                - d[0][1] * (d[1][0] * d[2][2] - d[1][2] * d[2][0])
                + d[0][2] * (d[1][0] * d[2][1] - d[1][1] * d[2][0]))
    inside, calls = [], []
    clear, div = linalg._clear_rows, scalar.poly_div_exact

    def traced_clear(mm):
        inside.append(True)
        try:
            return clear(mm)
        finally:
            inside.pop()

    def counting_div(f, g):
        calls.append(bool(inside))
        return div(f, g)

    monkeypatch.setattr(linalg, "_clear_rows", traced_clear)
    monkeypatch.setattr(linalg, "poly_div_exact", counting_div)
    monkeypatch.setattr(scalar, "poly_div_exact", counting_div)
    assert det_bareiss(m) == expected
    assert calls and not any(calls)


def test_det_equals_pivot_product_up_to_sign():
    rng = random.Random(5)
    t = EMPTY_TABLE
    for _ in range(10):
        n = rng.randint(2, 4)
        m = MatrixS(t, [[Scalar.from_fraction(t, rng.randint(-3, 3)) for _ in range(n)]
                        for _ in range(n)])
        d = det_bareiss(m)
        _, pivots, sign, pivot_values = rowreduce(m)
        if len(pivots) < n:
            assert d.is_zero()
        else:
            prod = Scalar.from_fraction(t, sign)
            for pv in pivot_values:
                prod = prod * pv
            assert d == prod


def fraction_det(rows):
    """Oracle: Gaussian elimination over Fractions; (determinant, row swaps)."""
    a = [list(row) for row in rows]
    n, det, swaps = len(a), Fraction(1), 0
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return Fraction(0), swaps
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det, swaps = -det, swaps + 1
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det, swaps


def test_constant_det_matches_fraction_elimination():
    # rows are cleared to ints and every Bareiss step is an exact //
    rng = random.Random(24)
    t = EMPTY_TABLE
    seen = {"swap": 0, "singular": 0, "negative": 0, "large": 0}
    for trial in range(80):
        n = rng.randint(1, 6)
        big = rng.randint(10 ** 20, 10 ** 30)
        rows = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, big, big + 1)))
                 for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0 and n > 1:
            rows[0][0] = Fraction(0)          # the first pivot needs a swap
        if trial % 5 == 0 and n > 1:
            c = Fraction(-3, big)
            rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1])]
        if trial % 7 == 0:
            for row in rows:
                row[n - 1] = Fraction(0)      # no pivot in the last column
        expected, swaps = fraction_det(rows)
        got = det_bareiss(MatrixS(t, [[Scalar.from_fraction(t, x) for x in row]
                                      for row in rows]))
        assert got == expected
        seen["swap"] += swaps > 0
        seen["singular"] += expected == 0
        seen["negative"] += expected < 0
        seen["large"] += expected.denominator > 10 ** 20
    assert all(seen.values()), seen


def test_inverse_solve_nullspace():
    t = EMPTY_TABLE
    m = mat(t, [[2, 1], [1, 1]])
    inv = inverse(m)
    assert m * inv == MatrixS.identity(t, 2)
    with pytest.raises(SingularMatrix):
        inverse(mat(t, [[1, 2], [2, 4]]))


def test_sparse_inverse_over_fractions():
    rng = random.Random(11)
    n = 6
    # a unit lower-triangular times an upper-triangular factor with nonzero
    # diagonal is invertible
    lower = SparseMat(n, n, {i: {j: Fraction(rng.randint(1, 3)) if j < i else Fraction(1)
                                 for j in range(i + 1)} for i in range(n)})
    upper = SparseMat(n, n, {i: {j: Fraction(rng.choice([-2, -1, 1, 2]))
                                 for j in range(i, n)} for i in range(n)})
    m = lower * upper
    inv = m.inverse(Fraction(1))
    ident = SparseMat.identity(n, Fraction(1))
    assert m * inv == ident and inv * m == ident
    singular = SparseMat(n, n, {i: dict(m.rows[0 if i == 1 else i]) for i in range(n)})
    with pytest.raises(SingularMatrix):
        singular.inverse(Fraction(1))


def test_rowspace_order_independence():
    rng = random.Random(23)
    vectors = []
    for _ in range(12):
        vectors.append({j: Fraction(rng.randint(-2, 2)) for j in rng.sample(range(10), 3)
                        if rng.randint(0, 1)})
    probe = {j: Fraction(j + 1) for j in range(10)}
    results = []
    for _ in range(4):
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        rs = RowSpace()
        for v in shuffled:
            rs.add(dict(v))
        results.append((rs.rank, tuple(sorted(rs.reduce(probe).items()))))
    assert len(set(results)) == 1


def test_locality_property():
    # B acting on the untraced factor passes through the partial trace:
    # Tr_2(A (B (x) I)) == Tr_2(A) B, plus cyclicity in the traced factor.
    t = SymbolTable(["q"])
    rng = random.Random(2)
    q = Scalar.from_symbol(t, "q")
    a_mat = MatrixS(t, [[Scalar.from_fraction(t, rng.randint(-2, 2)) * q ** rng.randint(0, 1)
                         for _ in range(4)] for _ in range(4)])
    b_mat = MatrixS(t, [[Scalar.from_fraction(t, rng.randint(-2, 2)) for _ in range(2)]
                        for _ in range(2)])
    a = TensorOp(2, 2, SparseMat.from_dense(a_mat), t)
    b = SparseMat.from_dense(b_mat)
    i2 = SparseMat.identity(2, Scalar.one(t))
    b_kron_i = TensorOp(2, 2, b.kron(i2), t)
    lhs = partial_trace(a * b_kron_i, 2)
    rhs = partial_trace(a, 2).mat * b
    assert lhs.mat == rhs
    i_kron_b = TensorOp(2, 2, i2.kron(b), t)
    assert partial_trace(a * i_kron_b, 2).mat == partial_trace(i_kron_b * a, 2).mat


def test_sparse_roundtrip_and_ops():
    t = EMPTY_TABLE
    m = mat(t, [[1, 0, 2], [0, 0, 0], [3, 4, 0]])
    s = SparseMat.from_dense(m)
    assert s.to_dense(t) == m
    assert (s * SparseMat.identity(3, Scalar.one(t))).rows == s.rows
    st = s.transpose()
    assert st.to_dense(t).data == [list(col) for col in zip(*m.data)]
    v = s.apply({0: Scalar.one(t), 2: Scalar.one(t)})
    assert v[0] == parse_scalar("3", t)


def test_sparse_sub_equals_add_of_negated():
    """A - B == A + B.scale(-1), over Fractions and over symbolic Scalars,
    with entries and whole rows that cancel to nothing."""
    rng = random.Random(5)
    t = SymbolTable(["q", "h"])
    symbolic = [parse_scalar(x, t) for x in ("q", "-h", "1/(q - h)", "q^2 + 3/2", "2*h/q")]
    for entry in (lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                  lambda: rng.choice(symbolic) * rng.randint(-2, 2)):
        cancelled = 0
        for _ in range(10):
            a_rows = {i: {j: entry() for j in range(5) if rng.randint(0, 1)} for i in range(4)}
            a = SparseMat(4, 5, {i: {j: v for j, v in r.items() if v}
                                 for i, r in a_rows.items() if any(r.values())})
            # b shares row 0 with a, so a - b cancels it; other rows are fresh
            b_rows = {0: dict(a.rows.get(0, {}))}
            b_rows.update({i: {j: entry() for j in range(5) if rng.randint(0, 1)}
                           for i in range(1, 4)})
            b = SparseMat(4, 5, {i: {j: v for j, v in r.items() if v}
                                 for i, r in b_rows.items() if any(r.values())})
            diff = a - b
            assert diff == a + b.scale(-1)
            assert 0 not in diff.rows
            cancelled += 0 in a.rows
            assert all(r and all(r.values()) for r in diff.rows.values())
            assert (a - a).is_zero() and (b - a) == b + a.scale(-1)
        assert cancelled


def test_entry_cap():
    sigma = flip_op(EMPTY_TABLE, 2)
    set_entry_cap(10)
    try:
        with pytest.raises(ResourceLimit):
            MatrixS.zeros(EMPTY_TABLE, 100, 100)
        # sparse allocations are estimated from the stored entries:
        # 4 entries of the flip times 4 copies, and 4 x 4 for the product
        with pytest.raises(ResourceLimit):
            embed_at(sigma, 1, 4)
        with pytest.raises(ResourceLimit):
            sigma.mat.kron(sigma.mat)
        assert embed_at(sigma, 1, 3).mat.nnz() == 8
    finally:
        set_entry_cap(800_000_000)
