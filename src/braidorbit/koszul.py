"""Braided differential calculus: hatted bases, projectors, first differential.

Degree-k slices of the generator space carry two distinguished bases: the
plain word basis and the "hatted" one formed by the entries of the product
L1 L2bar (L3bar), where each successive factor is the braid conjugate
Lkbar = R_{k-1 k} L(k-1)bar R_{k-1 k}^(-1).  The conjugation operator Q acts
on hatted coefficients by sandwiching with the braiding, so the braided
symmetrizers are its quadratic combinations:

    P+ = ((q^2 + q^-2) Id + Q + Q^-1) / (2_q)^2
    P- = (2 Id - Q - Q^-1) / (2_q)^2

and the cubic symmetrizer on three factors is assembled out of the two
position embeddings of P+ with the documented constants.  Every operator here
is sparse: the braidings are ``TensorOp``s.  At arity 2, Q is the Kronecker
product of their stored entries.  At arity 3, Q_i = R_i^T (x) R_i^-1 is never
stored: column jl of P+ at position i is the outer product of row j of R_i
with column l of R_i^-1 (plus the swapped pair and the identity), built when
a vector first needs it (``ProjectorSet.apply``).

The projector axioms are identities in the Hecke algebra: T_i -> R_i^T and
T_i -> R_i are homomorphisms from H_3(q) once ``hecke.validate`` has certified
the braid and Hecke relations of R, and Q_i = R_i^T (x) R_i^-1 is the image
of T_i (x) T_i^-1.  So the axioms are certified exactly, at the symmetry's
q, in a 16-dimensional faithful representation of H_3(q) (x) H_3(q) built
from the irreducible representations of H_3(q) (``symmetrizer_certificate``).
No operator on arity-3 coefficient vectors (N^6 x N^6) is formed for a
symmetry: P+(3) is applied to vectors as a chain of column sums.

Quantum-trace elements have closed hatted coefficient vectors: the trace
vector of Tr_R L^k is the transpose of (trailing matrix) . C^(x k), with the
trailing matrix R1 for k = 2 and R2 R1 for k = 3.  The first differential
sends Tr_R L^k to the pairing of generator differentials with gradient
column k of `orbit.gradient_matrices`; power sums and gradient columns
come off one ladder of L powers, `rea.l_powers`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .errors import (
    BadDeformationParameter,
    IdentityFailed,
    ProjectorAxiomFailed,
)
from .graded import accumulate
from .hecke import HeckeSymmetry, c_power
from .linalg import RowSpace, SparseMat, TensorOp, embed_at
from .orbit import gradient_matrices
from .rea import (
    NCPoly,
    is_zero_mod,
    l_at_first,
    nc_matmul,
    relation_space,
    scalar_matrix_to_nc,
)
from .scalar import Scalar, qnumber


# ---------------------------------------------------------------------------
# coefficient-space operators
# ---------------------------------------------------------------------------


def _conjugation_op(r: TensorOp, rinv: TensorOp) -> SparseMat:
    """Operator V -> R^T V (R^T)^(-1) on row-major flattened coefficients."""
    return r.mat.transpose().kron(rinv.mat)


@dataclass
class HattedBasis:
    """Change of basis between hatted elements and plain words at one arity."""

    hs: HeckeSymmetry
    arity: int
    elements: list          # elements[a][b]: NCPoly expansion of the (a,b) element

    @staticmethod
    def build(hs: HeckeSymmetry, arity: int) -> "HattedBasis":
        if arity not in (2, 3):
            raise ValueError("hatted bases are built for arity 2 and 3")
        l1 = l_at_first(hs, arity)
        r12 = scalar_matrix_to_nc(embed_at(hs.R, 1, arity))
        r12i = scalar_matrix_to_nc(embed_at(hs.r_inv, 1, arity))
        l2bar = nc_matmul(nc_matmul(r12, l1), r12i)
        mat = nc_matmul(l1, l2bar)
        if arity == 3:
            r23 = scalar_matrix_to_nc(embed_at(hs.R, 2, arity))
            r23i = scalar_matrix_to_nc(embed_at(hs.r_inv, 2, arity))
            l3bar = nc_matmul(nc_matmul(r23, l2bar), r23i)
            mat = nc_matmul(mat, l3bar)
        basis = HattedBasis(hs=hs, arity=arity, elements=mat)
        if not basis.invertible():
            raise ProjectorAxiomFailed(
                f"hatted elements at arity {arity} are not a basis")
        return basis

    def invertible(self) -> bool:
        space = RowSpace()
        for row in self.elements:
            for e in row:
                space.add(e.terms)
        return space.rank == (self.hs.N ** self.arity) ** 2

    def to_standard(self, coeffs: dict) -> NCPoly:
        """Expand a hatted coefficient vector into the word basis."""
        N = self.hs.N
        dim = N ** self.arity
        total = NCPoly.zero(N, self.hs.table)
        for code, c in coeffs.items():
            a, b = divmod(code, dim)
            total = total + self.elements[a][b] * c
        return total


def _hatted(xc: SparseMat) -> dict:
    """Hatted coefficients {a * dim + b: (X C^(x k))[b][a]} from X C^(x k)."""
    dim = xc.nrows
    return {a * dim + b: v for b, row in xc.rows.items() for a, v in row.items()}


def vec_from_structure(x: TensorOp, hs: HeckeSymmetry) -> dict:
    """Hatted coefficients of Tr_R(1..k)(L1 L2bar ... . X) for numeric X.

    The coefficient of the (a, b) hatted element is (X C^(x k))[b][a].
    """
    return _hatted(x.mat * c_power(hs, x.arity))


def trace_vector(k: int, hs: HeckeSymmetry) -> dict:
    """Hatted coefficients of Tr_R L^k for k = 2, 3."""
    if k == 2:
        return vec_from_structure(hs.R, hs)
    if k == 3:
        return vec_from_structure(embed_at(hs.R, 2, 3) * embed_at(hs.R, 1, 3), hs)
    raise ValueError("trace vectors are provided for k = 2, 3")


# ---------------------------------------------------------------------------
# projectors
# ---------------------------------------------------------------------------


def _cubic_constants(q: Scalar) -> tuple:
    """(a, b, lead) of P+(3) = lead (P1 P2 P1 P2 P1 - a P1 P2 P1 + b P1)."""
    two_q = qnumber(2, q)
    a = (q ** 4 + q ** 2 + 4 + q.inv() ** 2 + q.inv() ** 4) / two_q ** 4
    b = qnumber(4, q) ** 2 / two_q ** 8
    lead = two_q ** 6 / (qnumber(3, q) ** 2 * 4)
    return a, b, lead


def _plus_constants(q: Scalar) -> tuple:
    """(c1, c2) = (q^2 + q^-2, (2_q)^-2) of P+ = c2 (c1 Id + Q + Q^-1)."""
    return q ** 2 + q.inv() ** 2, (qnumber(2, q) ** 2).inv()


def _sym_plus(s: SparseMat, q: Scalar) -> SparseMat:
    """P+ = ((q^2 + q^-2) Id + Q + Q^-1) / (2_q)^2, from s = Q + Q^-1."""
    c1, c2 = _plus_constants(q)
    return (s + SparseMat.identity(s.nrows, c1)).scale(c2)


def _sym_minus(s: SparseMat, q: Scalar) -> SparseMat:
    """P- = (2 Id - Q - Q^-1) / (2_q)^2, from s = Q + Q^-1."""
    two = SparseMat.identity(s.nrows, Scalar.from_fraction(q.table, 2))
    return (two - s).scale((qnumber(2, q) ** 2).inv())


def _hecke_generators(q: Scalar) -> tuple:
    """T1, T2 of H_3(q) on trivial + sign + reflection, block diagonal."""
    one = Scalar.one(q.table)
    m = -q.inv()
    t1 = SparseMat(4, 4, {0: {0: q}, 1: {1: m}, 2: {2: q, 3: one}, 3: {3: m}})
    t2 = SparseMat(4, 4, {0: {0: q}, 1: {1: m}, 2: {2: m}, 3: {2: one, 3: q}})
    return t1, t2


def symmetrizer_certificate(q: Scalar) -> list:
    """Certify the symmetrizer axioms at q, in H_3(q) (x) H_3(q).

    rho = trivial + sign + reflection is a 4-dimensional representation of
    H_3(q) = <T1, T2 | (T - q)(T + q^-1) = 0, T1 T2 T1 = T2 T1 T2>.  Its
    relations are checked on the matrices, and it is faithful exactly when
    the images of the six basis elements T_w (w in S_3) have rank 6, which
    holds whenever 2_q and 3_q are nonzero (H_3(q) is then semisimple).  A
    tensor product of injective maps is injective, so rho (x) rho (16 x 16)
    is faithful on H_3 (x) H_3, where Q_i is T_i (x) T_i^-1.  P+1, P+2 and
    P+(3) are built there with the constants used for every symmetry, and
    each axiom is an exact matrix identity:

    - the two cubic expressions for P+(3) agree;
    - P+1, P+2 and P+(3) are idempotent;
    - absorption: P+(3) P+i = P+(3);
    - at position 1, P+ + P- = Id and P+ P- = 0.  H_2 (x) H_2 embeds in
      H_3 (x) H_3 through position 1, so these are the arity-2 axioms.

    Returns the (axiom, True) rows; raises ProjectorAxiomFailed naming the
    first axiom that fails.
    """
    rows = []

    def check(name: str, ok: bool):
        rows.append((name, ok))
        if not ok:
            raise ProjectorAxiomFailed(
                f"symmetrizer certificate fails at {name!r} (q = {q})")

    one = Scalar.one(q.table)
    xi = q - q.inv()
    t1, t2 = _hecke_generators(q)
    ident4 = SparseMat.identity(4, one)
    t1i = t1 - ident4.scale(xi)
    t2i = t2 - ident4.scale(xi)
    check("hecke-relation", t1 * t1i == ident4 and t2 * t2i == ident4)
    check("braid-relation", t1 * t2 * t1 == t2 * t1 * t2)
    span = RowSpace()
    for w in (ident4, t1, t2, t1 * t2, t2 * t1, t1 * t2 * t1):
        span.add({4 * i + j: v for i, r in w.rows.items()
                  for j, v in r.items()})
    check("faithful", span.rank == 6)

    s1 = t1.kron(t1i) + t1i.kron(t1)
    p1 = _sym_plus(s1, q)
    p2 = _sym_plus(t2.kron(t2i) + t2i.kron(t2), q)
    a, b, lead = _cubic_constants(q)
    p121 = p1 * p2 * p1
    p212 = p2 * p1 * p2
    line1 = (p121 * p2 * p1 - p121.scale(a) + p1.scale(b)).scale(lead)
    line2 = (p212 * p1 * p2 - p212.scale(a) + p2.scale(b)).scale(lead)
    check("cubic-expressions-agree", line1 == line2)
    p3 = line1
    for name, p in (("P+1", p1), ("P+2", p2), ("P+(3)", p3)):
        check(f"idempotent-{name}", p * p == p)
    for name, p in (("P+1", p1), ("P+2", p2)):
        check(f"absorption-{name}", p3 * p == p3)
    m1 = _sym_minus(s1, q)
    check("complement-pos1", p1 + m1 == SparseMat.identity(16, one))
    check("orthogonal-pos1", (p1 * m1).is_zero())
    return rows


@dataclass
class ProjectorSet:
    """The symmetrizers of one symmetry, in the form the checks apply them.

    At arity 2, P+ and P- are stored operators.  At arity 3 no operator on
    coefficient vectors (N^6 x N^6) is formed.  P+ at position i is applied
    to v as the sum of v's entries v_jl times column jl of
    P+_i = c2 (c1 Id + Q_i + Q_i^-1), with c1 = q^2 + q^-2, c2 = (2_q)^-2
    and Q_i = R_i^T (x) R_i^-1.  Column jl is built on first use, from row j
    of R_i and column l of R_i^-1 (and the swapped pair for Q_i^-1), and
    kept, so every check on this set shares it.  P+(3) is applied as a chain
    of five such products (``apply_p3_plus``).  The hatted bases are built
    on first read: only ``conjecture1_check`` reads one, when a vector
    equality fails.
    """

    hs: HeckeSymmetry
    p2_plus: SparseMat
    p2_minus: SparseMat
    r1: TensorOp               # R and R^-1 embedded at positions 1, 2 of arity 3
    r1i: TensorOp
    r2: TensorOp
    r2i: TensorOp
    c3: SparseMat              # C^(x 3)
    cubic: tuple               # (a, b, lead) of P+(3)
    axioms: list               # rows of symmetrizer_certificate
    ia_vec: dict               # hatted vector of R1 R2 R1 + R1 + R2
    ib_vec: dict               # hatted vector of R1 R2 + R2 R1 - xi (R1 + R2)
    columns: dict = field(default_factory=dict, repr=False)   # (i, jl) -> column jl of P+_i

    @cached_property
    def basis2(self) -> HattedBasis:
        return HattedBasis.build(self.hs, 2)

    @cached_property
    def basis3(self) -> HattedBasis:
        return HattedBasis.build(self.hs, 3)

    @cached_property
    def trace3_vec(self) -> dict:
        """Hatted vector of Tr_R L^3, as ``trace_vector(3, hs)``."""
        return self.vec(self.r2 * self.r1)

    def vec(self, x: TensorOp) -> dict:
        """``vec_from_structure`` at arity 3, on the stored C^(x 3)."""
        return _hatted(x.mat * self.c3)

    @cached_property
    def _factors(self) -> dict:
        """position -> the (rows, columns) pairs whose outer products are
        the columns of Q_i and of Q_i^-1."""
        factors = {}
        for pos, r, ri in ((1, self.r1, self.r1i), (2, self.r2, self.r2i)):
            factors[pos] = ((r.mat.rows, ri.mat.transpose().rows),
                            (ri.mat.rows, r.mat.transpose().rows))
        return factors

    @cached_property
    def _plus(self) -> tuple:
        return _plus_constants(self.hs.q)

    def _column(self, position: int, jl: int) -> dict:
        """Column jl of P+ at `position`.  Q = R^T (x) R^-1 on row-major
        coefficients, so Q e_jl = sum_ab R[j][a] R^-1[b][l] e_ab."""
        c1, c2 = self._plus
        dim = self.r1.mat.nrows
        j, l = divmod(jl, dim)
        col: dict = {}
        accumulate(col, jl, c1)
        for rows, cols in self._factors[position]:
            right = cols.get(l)
            if not right:
                continue
            for a, x in rows.get(j, {}).items():
                for b, y in right.items():
                    accumulate(col, a * dim + b, x * y)
        return {key: c2 * v for key, v in col.items()}

    def apply(self, position: int, v: dict) -> dict:
        """P+ at `position` (1 or 2) of arity 3 applied to the vector v."""
        out: dict = {}
        for jl, x in v.items():
            col = self.columns.get((position, jl))
            if col is None:
                col = self.columns[(position, jl)] = self._column(position, jl)
            for key, y in col.items():     # accumulate(out, key, y * x), inlined
                s = out.get(key)
                val = y * x if s is None else s + y * x
                if val:
                    out[key] = val
                elif s is not None:
                    del out[key]
        return out

    def apply_p3_plus(self, v: dict) -> dict:
        """lead (P1 P2 P1 P2 P1 - a P1 P2 P1 + b P1) v, by five applications."""
        a, b, lead = self.cubic
        u1 = self.apply(1, v)
        u3 = self.apply(1, self.apply(2, u1))
        u5 = self.apply(1, self.apply(2, u3))
        return _lincomb((u5, lead), (u3, -a * lead), (u1, b * lead))


def build_projectors(hs: HeckeSymmetry) -> ProjectorSet:
    """Assemble the braided symmetrizers at arity 2, and what those at
    arity 3 are applied from.

    Their axioms are not re-proved on these operators: they are certified by
    ``symmetrizer_certificate`` at the symmetry's q.  That transfers because
    ``hecke.validate`` has certified the braid and Hecke relations of R, so
    T_i -> R_i and T_i -> R_i^T (the relations are symmetric under reversing
    words) are algebra homomorphisms from H_3(q), and the Kronecker product
    is one from their tensor product.  The conjugation operator
    Q_i = R_i^T (x) R_i^-1 is the image of T_i (x) T_i^-1, so every
    symmetrizer here is the image of the element certified in
    H_3(q) (x) H_3(q), and an identity there holds in every image.
    """
    q = hs.q
    for k in (2, 3):
        if qnumber(k, q).is_zero():
            raise BadDeformationParameter(f"{k}_q = 0; projectors undefined")
    axioms = symmetrizer_certificate(q)
    r_inv = hs.r_inv
    s2 = _conjugation_op(hs.R, r_inv) + _conjugation_op(r_inv, hs.R)
    r1 = embed_at(hs.R, 1, 3)
    r2 = embed_at(hs.R, 2, 3)
    c3 = c_power(hs, 3)
    xi = q - q.inv()
    r12 = r1 * r2
    ia = r12 * r1 + r1 + r2
    ib = r12 + r2 * r1 - (r1 + r2).scale(xi)
    return ProjectorSet(
        hs=hs, p2_plus=_sym_plus(s2, q), p2_minus=_sym_minus(s2, q),
        r1=r1, r1i=embed_at(r_inv, 1, 3), r2=r2, r2i=embed_at(r_inv, 2, 3),
        c3=c3, cubic=_cubic_constants(q), axioms=axioms,
        ia_vec=_hatted(ia.mat * c3), ib_vec=_hatted(ib.mat * c3),
    )


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _lincomb(*pairs) -> dict:
    """The sum of c * vec over the (vec, c) pairs, with no zero kept."""
    out: dict = {}
    for vec, c in pairs:
        for key, v in vec.items():
            accumulate(out, key, c * v)
    return out


def conjecture1_check(k: int, hs: HeckeSymmetry,
                      projectors: Optional[ProjectorSet] = None) -> tuple:
    """Canonical-form stability of the quantum power sums in degree k.

    k = 2: the trace vector is fixed by the arity-2 symmetrizer (on the nose).
    k = 3: the cubic symmetrizer and the position-2 symmetrizer present the
    same element of the degree-3 component of the quotient algebra, where the
    power sum lives.  Their lifts agree as coefficient vectors exactly when
    the symmetry is involutive; in general the difference lies in the
    relation ideal, and the check reduces it there, reporting both the
    on-the-nose vector equality and the exact quotient residual.
    """
    if k not in (2, 3):
        raise ValueError("supported degrees are k = 2 and k = 3")
    ps = projectors or build_projectors(hs)
    if k == 2:
        v = trace_vector(2, hs)
        residual = _lincomb((ps.p2_plus.apply(v), 1), (v, -1))
    else:
        v = ps.trace3_vec
        residual = _lincomb((ps.apply_p3_plus(v), 1), (ps.apply(2, v), -1))
    vector_equal = not residual
    if vector_equal:
        quotient_zero = True
    else:
        rs = relation_space(hs, "minus")
        basis = ps.basis2 if k == 2 else ps.basis3
        quotient_zero, _ = is_zero_mod(basis.to_standard(residual), rs)
    report = {"k": k, "vector_equality": vector_equal,
              "residual_support": len(residual), "quotient_zero": quotient_zero}
    return quotient_zero, report


def p2_action_identity(hs: HeckeSymmetry,
                       projectors: Optional[ProjectorSet] = None) -> list:
    """Verify the position-2 symmetrizer action on the cubic trace vector,
    the invariance of the two invariant structures, and the transformation
    table of both position symmetrizers.  Raises IdentityFailed naming the
    first failing row; returns the row report otherwise."""
    ps = projectors or build_projectors(hs)
    q = hs.q
    table = hs.table
    xi = q - q.inv()
    two_q2_inv = (qnumber(2, q) ** 2).inv()
    r1, r2, vec = ps.r1, ps.r2, ps.vec

    rows = []

    def check(name: str, lhs: dict, rhs: dict):
        ok = lhs == rhs     # no zero is stored and Scalars are canonical
        rows.append((name, ok))
        if not ok:
            raise IdentityFailed(f"identity row {name!r} fails for {hs.name}")

    # action on the cubic trace vector
    structure = (r1 * r2 + r2 * r1).scale(Scalar.from_fraction(table, 2)) \
        - r1.scale(xi) + (r1 * r2 * r1).scale(xi)
    check("p2-action", ps.apply(2, ps.trace3_vec),
          _lincomb((vec(structure), two_q2_inv)))

    # invariance of the two invariant combinations
    for name, target in (("ia", ps.ia_vec), ("ib", ps.ib_vec)):
        for pos in (1, 2):
            check(f"invariant-{name}-pos{pos}", ps.apply(pos, target), target)

    # transformation table under the position-1 symmetrizer; position 2 is
    # the same table with the two braiding embeddings exchanged
    for pos, ra, rb in ((1, r1, r2), (2, r2, r1)):
        va = vec(ra)
        vb = vec(rb)
        vaba = vec(ra * rb * ra)
        vab_ba = vec(ra * rb + rb * ra)
        ia, ib, t = ps.ia_vec, ps.ib_vec, two_q2_inv
        check(f"table-pos{pos}-r_near", ps.apply(pos, va), va)
        check(f"table-pos{pos}-r_far", ps.apply(pos, vb),
              _lincomb((ia, 2 * t), (ib, -xi * t), (va, -(xi * xi + 2) * t)))
        check(f"table-pos{pos}-rba", ps.apply(pos, vaba),
              _lincomb((ia, (xi * xi + 2) * t), (ib, xi * t), (va, -2 * t)))
        check(f"table-pos{pos}-rab_plus_rba", ps.apply(pos, vab_ba),
              _lincomb((ia, xi * 2 * t), (ib, 4 * t), (va, xi * 2 * t)))
    return rows


def differential_d1(hs: HeckeSymmetry, k: int) -> list:
    """First differential of Tr_R L^k: [(generator (i, j), cofactor)].

    The cofactor of d l[i][j] is the gradient entry (L^(k-1) C)[j][i], read
    off column k of `orbit.gradient_matrices`; the overall degree factor of
    the full differential is applied by callers.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    A, _ = gradient_matrices(hs, k)
    N = hs.N
    return [((i, j), A[j * N + i][k - 1]) for i in range(N) for j in range(N)]


def d_squared_check_r2(hs: HeckeSymmetry,
                       projectors: Optional[ProjectorSet] = None) -> bool:
    """d^2 = 0 on the width-2 complex.

    A degree-2 element is put in canonical form by the symmetrizer; applying
    the differential twice lands in the antisymmetrizer image of that
    canonical form, so the composite is the operator P- P+, checked to be
    exactly zero on every basis vector.
    """
    ps = projectors or build_projectors(hs)
    composite = ps.p2_minus * ps.p2_plus
    if not composite.is_zero():
        raise IdentityFailed("d^2 != 0 on the width-2 complex")
    return True
