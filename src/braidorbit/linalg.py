"""Exact dense and sparse linear algebra over the scalar fraction field.

Operators on tensor powers V^(tensor k) are sparse: ``TensorOp`` is a
``SparseMat`` (dict of row dicts holding only nonzero entries) plus the
multi-index bookkeeping, and ``embed_at``, ``partial_trace`` and the products
visit stored entries only.  The dense ``MatrixS`` is kept for the small dense
work: N x N matrices such as the skew-inverse traces and Hankel matrices,
with the fraction-free (Bareiss) determinant.  Fraction-free work, that
determinant and the operators of ``clear_denominators``, runs in the ring
that ``scalar.clear`` (``clear_rows`` for the determinant) picks: Z when
every entry is constant, Z[x] otherwise.
Rank and membership problems (relation ideals, Poincare series) and the
sparse Gauss-Jordan inverse run on ``RowSpace``, an incrementally maintained
reduced row echelon form.  The echelon basis of a span is unique, so
residuals of reduction are canonical and independent of the order in which
spanning vectors arrive.

Pivoting is deterministic everywhere: columns are scanned left to right and
the first nonzero candidate wins.  Allocations are estimated before they are
made and refused with ``ResourceLimit`` above the entry cap.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    ResourceLimit,
    SingularMatrix,
)
from .scalar import Scalar, SymbolTable, clear, clear_rows, ratio

_ENTRY_CAP = 800_000_000


def _check_alloc(entries: int) -> None:
    if entries > _ENTRY_CAP:
        raise ResourceLimit(f"allocation of {entries} entries exceeds cap {_ENTRY_CAP}")


class MatrixS:
    """Dense matrix of Scalars (row-major), for small dense work."""

    __slots__ = ("nrows", "ncols", "table", "data")

    def __init__(self, table: SymbolTable, data: Sequence[Sequence[Scalar]]):
        self.table = table
        self.data = [list(row) for row in data]
        self.nrows = len(self.data)
        self.ncols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.ncols:
                raise DimensionMismatch("ragged rows")

    @staticmethod
    def zeros(table: SymbolTable, nrows: int, ncols: int) -> "MatrixS":
        _check_alloc(nrows * ncols)
        z = Scalar.zero(table)
        return MatrixS(table, [[z] * ncols for _ in range(nrows)])

    @staticmethod
    def identity(table: SymbolTable, n: int) -> "MatrixS":
        m = MatrixS.zeros(table, n, n)
        one = Scalar.one(table)
        for i in range(n):
            m.data[i][i] = one
        return m

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self.data[i][j]

    def __mul__(self, other: "MatrixS") -> "MatrixS":
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} != {other.nrows}")
        _check_alloc(self.nrows * other.ncols)
        zero = Scalar.zero(self.table)
        out = [[zero] * other.ncols for _ in range(self.nrows)]
        bdata = other.data
        for i, arow in enumerate(self.data):
            orow = out[i]
            for k, a in enumerate(arow):
                if not a:
                    continue
                brow = bdata[k]
                for j, b in enumerate(brow):
                    if b:
                        orow[j] = orow[j] + a * b
        return MatrixS(self.table, out)

    def trace(self) -> Scalar:
        if self.nrows != self.ncols:
            raise DimensionMismatch("trace of non-square matrix")
        t = Scalar.zero(self.table)
        for i in range(self.nrows):
            t = t + self.data[i][i]
        return t

    def __eq__(self, other) -> bool:
        return (isinstance(other, MatrixS) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.data == other.data)

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(str(a) for a in row) for row in self.data)
        return f"MatrixS[{rows}]"


# ---------------------------------------------------------------------------
# sparse matrices and tensor operators
# ---------------------------------------------------------------------------


class SparseMat:
    """Sparse matrix as dict-of-row-dicts; entries are Scalars, Fractions,
    or the ints or Polys of an operator cleared of its denominators.

    Stored rows are nonempty and hold no zero entries; every operation keeps
    that invariant, so the constructor takes its rows as they are.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Optional[dict] = None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else {}

    @staticmethod
    def identity(n: int, one) -> "SparseMat":
        return SparseMat(n, n, {i: {i: one} for i in range(n)})

    @staticmethod
    def from_dense(m: MatrixS) -> "SparseMat":
        rows = {}
        for i, row in enumerate(m.data):
            r = {j: v for j, v in enumerate(row) if v}
            if r:
                rows[i] = r
        return SparseMat(m.nrows, m.ncols, rows)

    def to_dense(self, table: SymbolTable) -> MatrixS:
        m = MatrixS.zeros(table, self.nrows, self.ncols)
        for i, row in self.rows.items():
            for j, v in row.items():
                m.data[i][j] = v
        return m

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def __mul__(self, other: "SparseMat") -> "SparseMat":
        if self.ncols != other.nrows:
            raise DimensionMismatch("sparse matmul shape mismatch")
        out: dict = {}
        for i, row in self.rows.items():
            acc: dict = {}
            for k, a in row.items():
                brow = other.rows.get(k)
                if not brow:
                    continue
                for j, b in brow.items():
                    prev = acc.get(j)
                    val = a * b if prev is None else prev + a * b
                    if val:
                        acc[j] = val
                    elif prev is not None:
                        del acc[j]
            if acc:
                out[i] = acc
        return SparseMat(self.nrows, other.ncols, out)

    def __add__(self, other: "SparseMat") -> "SparseMat":
        return self._merge(other, False)

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self._merge(other, True)

    def _merge(self, other: "SparseMat", negate: bool) -> "SparseMat":
        """self + other, or self - other with other's entries negated as
        they are merged, so no scaled copy of other is made."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("shape mismatch")
        out = {i: dict(r) for i, r in self.rows.items()}
        for i, row in other.rows.items():
            tgt = out.setdefault(i, {})
            for j, v in row.items():
                s = tgt.get(j)
                if s is None:
                    val = -v if negate else v
                else:
                    val = s - v if negate else s + v
                if val:
                    tgt[j] = val
                elif s is not None:
                    del tgt[j]
            if not tgt:
                del out[i]
        return SparseMat(self.nrows, self.ncols, out)

    def scale(self, c) -> "SparseMat":
        if not c:
            return SparseMat(self.nrows, self.ncols, {})
        return SparseMat(self.nrows, self.ncols,
                         {i: {j: v * c for j, v in r.items()} for i, r in self.rows.items()})

    def transpose(self) -> "SparseMat":
        out: dict = {}
        for i, row in self.rows.items():
            for j, v in row.items():
                out.setdefault(j, {})[i] = v
        return SparseMat(self.ncols, self.nrows, out)

    def kron(self, other: "SparseMat") -> "SparseMat":
        _check_alloc(self.nnz() * other.nnz())
        out: dict = {}
        for i, arow in self.rows.items():
            for k, brow in other.rows.items():
                out[i * other.nrows + k] = {j * other.ncols + l: a * b
                                            for j, a in arow.items()
                                            for l, b in brow.items()}
        return SparseMat(self.nrows * other.nrows, self.ncols * other.ncols, out)

    def inverse(self, one) -> "SparseMat":
        """Inverse of a square matrix by one Gauss-Jordan elimination.

        The rows of [M | -I] span a space whose RREF basis is [I | -M^-1]
        when M is invertible; otherwise a pivot falls in the right block.
        `one` is the unit of the entries' field.
        """
        n = self.nrows
        if n != self.ncols:
            raise DimensionMismatch("inverse of non-square matrix")
        space = RowSpace()
        for i in range(n):
            space.add({**self.rows.get(i, {}), n + i: -one})
        if any(c >= n for c in space.pivots):
            raise SingularMatrix("matrix is singular")
        return SparseMat(n, n, {c: {j - n: -v for j, v in prow.items() if j != c}
                                for c, prow in space.pivots.items()})

    def apply(self, vec: dict) -> dict:
        """Matrix-vector product on a sparse column vector {index: value}."""
        out: dict = {}
        for i, row in self.rows.items():
            acc = None
            for j, a in row.items():
                v = vec.get(j)
                if v is not None and v:
                    term = a * v
                    acc = term if acc is None else acc + term
            if acc is not None and acc:
                out[i] = acc
        return out

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparseMat) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)


class TensorOp:
    """Operator on V^(tensor k), dim V = N: a sparse N^k x N^k Scalar matrix,
    or an int or Poly one once ``clear_denominators`` has scaled it.

    Row/column multi-indices (i1..ik) are encoded big-endian:
    code = i1*N^(k-1) + ... + ik, each i in [0, N).
    """

    __slots__ = ("N", "arity", "mat", "table")

    def __init__(self, N: int, arity: int, mat: SparseMat, table: SymbolTable):
        if mat.nrows != N ** arity or mat.ncols != N ** arity:
            raise DimensionMismatch(f"matrix size {mat.nrows} != {N}^{arity}")
        self.N = N
        self.arity = arity
        self.mat = mat
        self.table = table

    @staticmethod
    def identity(table: SymbolTable, N: int, arity: int) -> "TensorOp":
        return TensorOp(N, arity, SparseMat.identity(N ** arity, Scalar.one(table)), table)

    def _same(self, other: "TensorOp") -> None:
        if self.N != other.N or self.arity != other.arity:
            raise DimensionMismatch("tensor arity mismatch")

    def __mul__(self, other: "TensorOp") -> "TensorOp":
        self._same(other)
        return TensorOp(self.N, self.arity, self.mat * other.mat, self.table)

    def __add__(self, other: "TensorOp") -> "TensorOp":
        self._same(other)
        return TensorOp(self.N, self.arity, self.mat + other.mat, self.table)

    def __sub__(self, other: "TensorOp") -> "TensorOp":
        self._same(other)
        return TensorOp(self.N, self.arity, self.mat - other.mat, self.table)

    def scale(self, c: Scalar) -> "TensorOp":
        return TensorOp(self.N, self.arity, self.mat.scale(c), self.table)

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def __eq__(self, other) -> bool:
        return (isinstance(other, TensorOp) and self.N == other.N
                and self.arity == other.arity and self.mat == other.mat)


def embed_at(op: TensorOp, position: int, arity: int) -> TensorOp:
    """I^(pos-1) (x) op (x) I^(arity-pos-oparity+1): op acting at `position`.

    `position` is 1-based; the embedded operator acts on tensor factors
    position..position+op.arity-1 of V^(tensor arity).
    """
    k = op.arity
    if position < 1 or position + k - 1 > arity:
        raise IndexOutOfRange(f"position {position} with arity {k} in {arity} factors")
    N = op.N
    left = N ** (position - 1)
    mid = N ** k
    right = N ** (arity - position - k + 1)
    _check_alloc(op.mat.nnz() * left * right)
    # each source row's (column offset, value) pairs, built once
    src_rows = [(rm * right, [(cm * right, v) for cm, v in src.items()])
                for rm, src in op.mat.rows.items()]
    rows: dict = {}
    for a in range(left):
        shift = a * mid * right
        for base, cols in src_rows:
            for c in range(right):
                off = shift + c
                rows[off + base] = {off + col: v for col, v in cols}
    size = left * mid * right
    return TensorOp(N, arity, SparseMat(size, size, rows), op.table)


def partial_trace(op: TensorOp, space: int) -> TensorOp:
    """Contract the `space`-th (1-based) tensor factor; arity drops by one."""
    k = op.arity
    if space < 1 or space > k:
        raise IndexOutOfRange(f"space {space} of {k}")
    N = op.N
    right = N ** (k - space)
    out: dict = {}
    for r, row in op.mat.rows.items():
        ra, rt = divmod(r, N * right)
        t, rc = divmod(rt, right)
        acc = out.setdefault(ra * right + rc, {})
        for c, v in row.items():
            ca, ct = divmod(c, N * right)
            if ct // right != t:
                continue
            j = ca * right + ct % right
            s = acc.get(j)
            val = v if s is None else s + v
            if val:
                acc[j] = val
            elif s is not None:
                del acc[j]
    size = N ** (k - 1)
    return TensorOp(N, k - 1, SparseMat(size, size, {i: r for i, r in out.items() if r}),
                    op.table)


def flip_op(table: SymbolTable, N: int) -> TensorOp:
    """The plain flip sigma(e_i (x) e_j) = e_j (x) e_i."""
    one = Scalar.one(table)
    rows = {j * N + i: {i * N + j: one} for i in range(N) for j in range(N)}
    return TensorOp(N, 2, SparseMat(N * N, N * N, rows), table)


# ---------------------------------------------------------------------------
# elimination: Bareiss (fraction-free) and field Gaussian
# ---------------------------------------------------------------------------


def clear_denominators(*ops: TensorOp) -> tuple:
    """(L * op for each op, then L), for L the lcm of the denominators of
    all their entries: the cleared operators hold ints, or Polys when an
    entry is not constant (``scalar.clear``).

    Products and sums of cleared operators run in that ring, and an
    identity between them is a multiple of the identity between the
    operators themselves by a power of L.
    """
    common, nums = clear([v for op in ops for row in op.mat.rows.values()
                          for v in row.values()])
    it = iter(nums)
    cleared = [TensorOp(op.N, op.arity, SparseMat(op.mat.nrows, op.mat.ncols, {
                   i: {j: next(it) for j in row} for i, row in op.mat.rows.items()}),
                        op.table) for op in ops]
    return (*cleared, common)


def det_bareiss(m: MatrixS) -> Scalar:
    """Exact determinant by one-step fraction-free (Bareiss) elimination.

    Each row is cleared of its denominators (``scalar.clear_rows``), over
    Z or Z[x], by the lcm L_i of its own; each step's division by the
    previous pivot is exact, and the determinant is that of the cleared
    rows over the product of the L_i.
    """
    if m.nrows != m.ncols:
        raise DimensionMismatch("determinant of non-square matrix")
    n = m.nrows
    table = m.table
    if n == 0:
        return Scalar.one(table)
    cleared = clear_rows(m.data)
    rows = [nums for _, nums in cleared]
    sign, prev = 1, None
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            return Scalar.zero(table)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pivot = rows[k][k]
        rk = rows[k]
        for i in range(k + 1, n):
            ri = rows[i]
            head = ri[k]
            for j in range(k + 1, n):
                val = ri[j] * pivot - head * rk[j]
                ri[j] = val if prev is None else val // prev
        prev = pivot
    det, factor = rows[n - 1][n - 1], cleared[0][0]
    for common, _ in cleared[1:]:
        factor = factor * common
    return ratio(det if sign > 0 else -det, factor, table)


def inverse(m: MatrixS) -> MatrixS:
    return SparseMat.from_dense(m).inverse(Scalar.one(m.table)).to_dense(m.table)


class RowSpace:
    """Incrementally maintained reduced row echelon basis of a row span.

    Stored rows have pivot value 1 and are mutually fully reduced, so the
    basis is the unique RREF basis of the span: reductions and residuals do
    not depend on insertion order.
    """

    __slots__ = ("pivots", "_col_usage")

    def __init__(self):
        self.pivots: dict = {}
        self._col_usage: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict) -> dict:
        residual = {j: v for j, v in row.items() if v}
        return self._reduce_inplace(residual)

    def _reduce_inplace(self, row: dict) -> dict:
        while True:
            hits = row.keys() & self.pivots.keys()
            if not hits:
                return row
            c = min(hits)
            coef = row.pop(c)
            pivot_row = self.pivots[c]
            for j, v in pivot_row.items():
                if j == c:
                    continue
                s = row.get(j)
                val = -coef * v if s is None else s - coef * v
                if val:
                    row[j] = val
                elif s is not None:
                    del row[j]

    def add(self, row: dict) -> bool:
        """Insert a vector; True when it enlarged the span."""
        residual = self._reduce_inplace({j: v for j, v in row.items() if v})
        if not residual:
            return False
        c = min(residual)
        piv = residual[c]
        if piv != 1:
            inv_piv = 1 / piv if isinstance(piv, Fraction) else piv.inv()
            residual = {j: inv_piv * v for j, v in residual.items()}
        # full back-substitution keeps the basis in RREF
        for pc in list(self._col_usage.get(c, ())):
            prow = self.pivots.get(pc)
            if prow is None or c not in prow:
                continue
            f = prow.pop(c)
            self._col_usage[c].discard(pc)
            for j, v in residual.items():
                if j == c:
                    continue
                s = prow.get(j)
                val = -f * v if s is None else s - f * v
                if val:
                    if s is None:
                        self._col_usage.setdefault(j, set()).add(pc)
                    prow[j] = val
                elif s is not None:
                    del prow[j]
                    self._col_usage.get(j, set()).discard(pc)
        self.pivots[c] = residual
        for j in residual:
            if j != c:
                self._col_usage.setdefault(j, set()).add(c)
        return True
