"""Hecke symmetries: construction, validation, quantum traces, bi-rank.

A Hecke symmetry is an invertible operator R on V (x) V satisfying the braid
form of the Yang-Baxter equation R12 R23 R12 = R23 R12 R23 together with the
quadratic relation (qI - R)(q^-1 I + R) = 0.  Construction always validates:
both residuals must vanish exactly, and the skew inverse Psi (the solution of
Tr_2 R12 Psi23 = sigma13, the reindexed inverse of R's partial transpose) must
exist.  The partial traces B = Tr_1 Psi and C = Tr_2 Psi of the skew inverse
define the quantum trace Tr_R M = Tr(M C).

Matrix convention: R and Psi are sparse ``TensorOp``s whose entries are
stored operator-style, ``mat.rows[out][in]``, and
R(e_i (x) e_j) = sum_kl R[(k,l)][(i,j)] e_k (x) e_l with multi-indices encoded
big-endian.  Only B and C are dense N x N matrices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    BadDeformationParameter,
    DimensionMismatch,
    InconclusiveDepth,
    NotHecke,
    NotSkewInvertible,
    NotYangBaxter,
    ParseError,
    SingularMatrix,
)
from .graded import GradedQuotient
from .linalg import (
    MatrixS,
    RowSpace,
    SparseMat,
    TensorOp,
    _check_alloc,
    embed_at,
    flip_op,
    partial_trace,
)
from .scalar import EMPTY_TABLE, Scalar, SymbolTable, parse_scalar, qnumber


@dataclass
class HeckeSymmetry:
    """A validated Hecke symmetry with its skew-inverse data."""

    name: str
    N: int
    table: SymbolTable
    q: Scalar
    R: TensorOp
    psi: TensorOp
    b_op: MatrixS
    c_op: MatrixS

    @property
    def r_inv(self) -> TensorOp:
        # Hecke relation gives R^-1 = R - (q - 1/q) I
        xi = self.q - self.q.inv()
        return self.R - TensorOp.identity(self.table, self.N, 2).scale(xi)

    def lift(self, table: SymbolTable) -> "HeckeSymmetry":
        """Same symmetry with scalars re-expressed over a larger symbol table."""
        if table == self.table:
            return self

        def lift_op(op: TensorOp) -> TensorOp:
            rows = {i: {j: a.lift(table) for j, a in row.items()}
                    for i, row in op.mat.rows.items()}
            return TensorOp(op.N, op.arity, SparseMat(op.mat.nrows, op.mat.ncols, rows), table)

        def lift_mat(m: MatrixS) -> MatrixS:
            return MatrixS(table, [[a.lift(table) for a in row] for row in m.data])

        return HeckeSymmetry(
            name=self.name,
            N=self.N,
            table=table,
            q=self.q.lift(table),
            R=lift_op(self.R),
            psi=lift_op(self.psi),
            b_op=lift_mat(self.b_op),
            c_op=lift_mat(self.c_op),
        )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def yang_baxter_residual(R: TensorOp) -> TensorOp:
    """R12 R23 R12 - R23 R12 R23."""
    r12 = embed_at(R, 1, 3)
    r23 = embed_at(R, 2, 3)
    return r12 * r23 * r12 - r23 * r12 * r23


def hecke_residual(R: TensorOp, q: Scalar) -> TensorOp:
    """(qI - R)(q^-1 I + R)."""
    ident = TensorOp.identity(R.table, R.N, 2)
    return (ident.scale(q) - R) * (ident.scale(q.inv()) + R)


def skew_inverse_residual(R: TensorOp, psi: TensorOp) -> TensorOp:
    """Tr_2 R12 Psi23 - sigma13, computed through the tensor-op route."""
    traced = partial_trace(embed_at(R, 1, 3) * embed_at(psi, 2, 3), 2)
    return traced - flip_op(R.table, R.N)


def solve_skew_inverse(R: TensorOp) -> TensorOp:
    """Solve Tr_2 R12 Psi23 = sigma13 for Psi: R's partial transpose, inverted.

    The equation of index (o1, o3, i1, i3) reads
    sum_{t,m} R[(o1,t)][(i1,m)] Psi[(m,o3)][(t,i3)] = [o1 = i3][o3 = i1].
    With the partial transpose M[(o1,i1)][(m,t)] = R[(o1,t)][(i1,m)] this is
    M X = I for X[(m,t)][(i3,o3)] = Psi[(m,o3)][(t,i3)], so Psi exists exactly
    when M is invertible, and it is M^-1 reindexed.
    """
    N = R.N
    table = R.table
    m_rows: dict = {}
    for r, row in R.mat.rows.items():
        o1, t = divmod(r, N)
        for c, coef in row.items():
            i1, m = divmod(c, N)
            m_rows.setdefault(o1 * N + i1, {})[m * N + t] = coef
    try:
        inv = SparseMat(N * N, N * N, m_rows).inverse(Scalar.one(table))
    except SingularMatrix:
        raise NotSkewInvertible("partial transpose of R is singular") from None
    rows: dict = {}
    for mt, row in inv.rows.items():
        m, t = divmod(mt, N)
        for i3o3, value in row.items():
            i3, o3 = divmod(i3o3, N)
            rows.setdefault(m * N + o3, {})[t * N + i3] = value
    return TensorOp(N, 2, SparseMat(N * N, N * N, rows), table)


def validate(name: str, N: int, table: SymbolTable, q: Scalar, R: TensorOp) -> HeckeSymmetry:
    # Refuse before any residual is formed.  N^4 (N^2 + 1) entries bounded the
    # former N^4-unknown skew-inverse system; the N^2 x N^2 inverse needs far
    # fewer, but the bound is kept until a measurement replaces it.
    _check_alloc(N ** 4 * (N * N + 1))
    if not yang_baxter_residual(R).is_zero():
        raise NotYangBaxter(f"{name}: Yang-Baxter residual is nonzero")
    if not hecke_residual(R, q).is_zero():
        raise NotHecke(f"{name}: Hecke residual is nonzero")
    psi = solve_skew_inverse(R)
    if not skew_inverse_residual(R, psi).is_zero():
        raise NotSkewInvertible(f"{name}: skew-inverse residual is nonzero")
    b_op = partial_trace(psi, 1).mat.to_dense(table)
    c_op = partial_trace(psi, 2).mat.to_dense(table)
    return HeckeSymmetry(name=name, N=N, table=table, q=q, R=R,
                         psi=psi, b_op=b_op, c_op=c_op)


def validation_report(hs: HeckeSymmetry) -> dict:
    """Exact residual statuses for an already built symmetry, recomputed."""
    return {
        "yang_baxter": yang_baxter_residual(hs.R).is_zero(),
        "hecke": hecke_residual(hs.R, hs.q).is_zero(),
        "skew_inverse": skew_inverse_residual(hs.R, hs.psi).is_zero(),
    }


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_flip(N: int, table: SymbolTable = EMPTY_TABLE) -> HeckeSymmetry:
    """The plain flip; involutive (q = 1)."""
    return validate(f"flip({N})", N, table, Scalar.one(table), flip_op(table, N))


def build_superflip(m: int, n: int, table: SymbolTable = EMPTY_TABLE) -> HeckeSymmetry:
    """Graded flip on a super space with m even and n odd directions (q = 1)."""
    N = m + n
    parities = tuple([0] * m + [1] * n)
    rows = {j * N + i: {i * N + j: Scalar.from_fraction(
                table, -1 if parities[i] and parities[j] else 1)}
            for i in range(N) for j in range(N)}
    return validate(f"superflip({m},{n})", N, table, Scalar.one(table),
                    TensorOp(N, 2, SparseMat(N * N, N * N, rows), table))


def _deformed_flip(q: Scalar, parities: tuple) -> TensorOp:
    """Standard q-deformation of the graded flip with the given parities.

    R(e_i (x) e_i) = q e_i (x) e_i (even i) or -q^-1 e_i (x) e_i (odd i);
    for i != j, R(e_i (x) e_j) = +-e_j (x) e_i, minus when both are odd,
    plus xi e_i (x) e_j when i < j (xi = q - 1/q).
    """
    table = q.table
    N = len(parities)
    xi = q - q.inv()
    rows: dict = {}
    for i in range(N):
        for j in range(N):
            col = i * N + j
            if i == j:
                rows.setdefault(col, {})[col] = q if parities[i] == 0 else -q.inv()
            else:
                sign = -1 if parities[i] and parities[j] else 1
                rows.setdefault(j * N + i, {})[col] = Scalar.from_fraction(table, sign)
                if i < j and xi:
                    rows.setdefault(col, {})[col] = xi
    return TensorOp(N, 2, SparseMat(N * N, N * N, rows), table)


def build_dj_gl(N: int, q: Scalar) -> HeckeSymmetry:
    """Drinfeld-Jimbo GL(N) braiding (flip composed with the quasitriangular matrix).

    R(e_i (x) e_j) = q e_i (x) e_i          if i = j,
                     e_j (x) e_i + xi e_i (x) e_j   if i < j   (xi = q - 1/q),
                     e_j (x) e_i            if i > j.
    """
    table = q.table
    if q.is_zero():
        raise BadDeformationParameter("q must be nonzero")
    return validate(f"dj_gl({N})", N, table, q, _deformed_flip(q, (0,) * N))


def build_q_super(m: int, n: int, q: Scalar) -> HeckeSymmetry:
    """Standard q-deformation of the super-flip of super-dimension (m|n)."""
    table = q.table
    if q.is_zero():
        raise BadDeformationParameter("q must be nonzero")
    parities = tuple([0] * m + [1] * n)
    return validate(f"q_super({m},{n})", m + n, table, q, _deformed_flip(q, parities))


def build_from_file(path: str) -> HeckeSymmetry:
    """Load an R-matrix from a JSON document.

    Fields: ``dim``; optional ``symbols`` (names for the scalar grammar);
    optional ``q`` (scalar string, default "1"); ``entries``, a list of
    ``{"out_pair": [k, l], "in_pair": [i, j], "value": "<scalar>"}`` with
    1-based indices and the convention R(e_i (x) e_j) = sum R^kl_ij e_k (x) e_l.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read R-matrix file {path!r}: {exc}") from exc
    try:
        N = int(doc["dim"])
        symbols = doc.get("symbols", [])
        table = SymbolTable(symbols)
        q = parse_scalar(str(doc.get("q", "1")), table)
        rows: dict = {}
        for entry in doc["entries"]:
            k, l = entry["out_pair"]
            i, j = entry["in_pair"]
            for idx in (k, l, i, j):
                if not 1 <= idx <= N:
                    raise ParseError(f"index {idx} out of range 1..{N}")
            value = parse_scalar(str(entry["value"]), table)
            rows.setdefault((k - 1) * N + (l - 1), {})[(i - 1) * N + (j - 1)] = value
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed R-matrix file {path!r}: {exc}") from exc
    rows = {r: nz for r, row in rows.items() if (nz := {c: v for c, v in row.items() if v})}
    return validate(f"file({path})", N, table, q,
                    TensorOp(N, 2, SparseMat(N * N, N * N, rows), table))


def build_builtin(kind: str, *, N: int = 0, m: int = 0, n: int = 0,
                  q: Optional[Scalar] = None,
                  table: Optional[SymbolTable] = None) -> HeckeSymmetry:
    if kind == "flip":
        return build_flip(N, table or EMPTY_TABLE)
    if kind == "superflip":
        return build_superflip(m, n, table or EMPTY_TABLE)
    if kind == "dj_gl":
        if q is None:
            raise ParseError("dj_gl requires q")
        return build_dj_gl(N, q)
    if kind == "q_super":
        if q is None:
            raise ParseError("q_super requires q")
        return build_q_super(m, n, q)
    raise ParseError(f"unknown builtin {kind!r}")


# ---------------------------------------------------------------------------
# quantum traces
# ---------------------------------------------------------------------------


def rtrace(M, hs: HeckeSymmetry):
    """Tr_R M = Tr(M C); entries may live in any algebra with Scalar action."""
    data = M.data if isinstance(M, MatrixS) else M
    N = hs.N
    if len(data) != N:
        raise DimensionMismatch("matrix size does not match the symmetry")
    c = hs.c_op.data
    total = None
    for i in range(N):
        for j in range(N):
            cv = c[j][i]
            if not cv:
                continue
            term = data[i][j] * cv
            total = term if total is None else total + term
    if total is None:
        total = Scalar.zero(hs.table)
    return total


def c_power(hs: HeckeSymmetry, k: int) -> SparseMat:
    """C^(x k) on V^(tensor k), built from the stored entries of C."""
    c = SparseMat.from_dense(hs.c_op)
    out = c
    for _ in range(k - 1):
        out = out.kron(c)
    return out


def multitrace(op: TensorOp, hs: HeckeSymmetry) -> Scalar:
    """Tr_R(1..k) of an operator on V^(tensor k): Tr(op . C^(x k))."""
    ckron = c_power(hs, op.arity).rows
    total = Scalar.zero(hs.table)
    for a, row in op.mat.rows.items():
        for b, v in row.items():
            cv = ckron.get(b, {}).get(a)
            if cv is not None:
                total = total + v * cv
    return total


# ---------------------------------------------------------------------------
# bi-rank from the Hilbert-Poincare series
# ---------------------------------------------------------------------------
#
# Lambda_R = T(V)/<Im(q^-1 I + R)> and Sym_R = T(V)/<Im(q I - R)> are
# quadratic algebras, and the k-th series coefficient is the number of normal
# words of degree k.  The graded engine echelonizes each algebra up to degree
# 3 only, over the Scalars of R, and there certifies it PBW: its degree-3
# normal words are exactly the words with no degree-2 leading pair (Bergman's
# diamond lemma).  Both algebras of the builtins pass in code order, and the
# counts of all higher degrees then follow from the transfer matrix of
# allowed pairs (Ufnarovski).  An algebra that fails the certificate, as one
# from a file R may, is echelonized in every degree up to the depth instead.
# Nothing is framed or echelonized in the N^k word space.


@dataclass
class BiRankReport:
    minus_series: list       # dim of k-th antisymmetric component, k = 0..depth
    plus_series: list        # dim of k-th symmetric component
    numerator: list          # coefficients of the reconstructed P_-(t) numerator
    denominator: list        # coefficients of its denominator (constant term 1)
    m: int
    n: int
    depth: int
    kq_checked: list = field(default_factory=list)  # q-integers required nonzero


def _column_relations(op: TensorOp) -> list:
    """Columns of `op` as quadratic relations {(a, b): coefficient}."""
    N = op.N
    columns = op.mat.transpose().rows
    return [{divmod(r, N): v for r, v in sorted(columns.get(c, {}).items())}
            for c in range(op.mat.ncols)]


def quadratic_relations(hs: HeckeSymmetry) -> tuple[list, list]:
    """The relations of Lambda_R and of Sym_R: the columns of q^-1 I + R and
    of q I - R, as {(a, b): coefficient} on words of length 2."""
    ident = TensorOp.identity(hs.table, hs.N, 2)
    return (_column_relations(ident.scale(hs.q.inv()) + hs.R),
            _column_relations(ident.scale(hs.q) - hs.R))


def _fit_rational(series: Sequence[int], depth: int):
    """Minimal-total-degree rational function fitting the series coefficients.

    Returns (numerator coeffs, denominator coeffs) or None; the denominator
    has constant term 1.  Scanning total degree then denominator degree
    ascending makes the first hit the coprime minimal representation.
    """
    coeffs = [Fraction(c) for c in series[: depth + 1]]
    for total in range(0, depth):
        for nden in range(0, total + 1):
            nnum = total - nden
            # unknown d_1..d_nden; equations sum_j d_j c_{k-j} = -c_k, k > nnum
            rows = []
            rhs = []
            for k in range(nnum + 1, depth + 1):
                rows.append([coeffs[k - j] if 0 <= k - j <= depth else Fraction(0)
                             for j in range(1, nden + 1)])
                rhs.append(-coeffs[k])
            sol = _solve_fraction_system(rows, rhs, nden)
            if sol is None:
                continue
            den = [Fraction(1)] + sol
            num = []
            for k in range(0, nnum + 1):
                num.append(sum(den[j] * coeffs[k - j] for j in range(min(k, nden) + 1)))
            while num and not num[-1]:
                num.pop()
            if len(num) - 1 < 0:
                num = [Fraction(0)]
            return num, den
    return None


def _solve_fraction_system(rows, rhs, nvars):
    if nvars == 0:
        return [] if all(not b for b in rhs) else None
    space = RowSpace()
    aug = nvars
    for row, b in zip(rows, rhs):
        vec = {j: v for j, v in enumerate(row) if v}
        if b:
            vec[aug] = -b
        space.add(vec)
    if aug in space.pivots:
        return None
    # free variables (if any) are set to zero
    sol = [Fraction(0)] * nvars
    for c, prow in space.pivots.items():
        sol[c] = -prow.get(aug, Fraction(0))
    return sol


def birank(hs: HeckeSymmetry, depth: int) -> BiRankReport:
    """Bi-rank (m|n) read off the rational form of the Poincare series P_-."""
    if depth < 2:
        raise InconclusiveDepth("depth must be at least 2")
    kq_checked = []
    qv = hs.q.const_or_none()
    if qv is not None:
        for k in range(1, depth + 1):
            if qnumber(k, hs.q).is_zero():
                raise BadDeformationParameter(f"{k}_q vanishes at q = {qv}")
            kq_checked.append(k)
    minus, plus = (GradedQuotient(hs.N, relations).dims(depth)
                   for relations in quadratic_relations(hs))
    fit = _fit_rational(minus, depth)
    fit_prev = _fit_rational(minus, depth - 1)
    if fit is None or fit_prev is None or fit != fit_prev:
        raise InconclusiveDepth(
            f"series reconstruction not stable at depth {depth}: {minus}")
    num, den = fit
    return BiRankReport(minus_series=minus, plus_series=plus,
                        numerator=num, denominator=den,
                        m=len(num) - 1, n=len(den) - 1, depth=depth,
                        kq_checked=kq_checked)
