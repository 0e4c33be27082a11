"""Reflection equation algebra engine: relation ideals and exact zero-tests.

Elements are noncommutative polynomials in the entries of the generating
matrix.  The plain relations are homogeneous and quadratic, so the plain
quotient is graded; the modified ones add a tail linear in the generators,
and that quotient is filtered, a PBW deformation of the plain one.
`graded.GradedQuotient` builds either degree by degree on the normal words
of the plain algebra: the words that lead no element of the ideal, which
form a basis of each component, or of each step of the filtration.  An
element is zero in the quotient exactly when its normal form vanishes, and a
nonzero normal form is the canonical residual.  The same engine serves every
q, q = 1 included; no noncommutative Groebner machinery and no
N^(2d)-dimensional word space is needed.

`shift_generators` substitutes l -> l + c I.  With c = h/(q - 1/q) it maps
the modified algebra onto the plain one whenever q != 1, the isomorphism
that the modified engine is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ChFailed, ResourceLimit
from .graded import GradedQuotient
from .hecke import HeckeSymmetry, birank, rtrace
from .linalg import RowSpace, TensorOp
from .scalar import Scalar, SymbolTable
from .symfun import NewtonConverter, ch_coefficients

WORD_SPACE_CAP = 1_000_000


class NCPoly:
    """Scalar-linear combination of words in the generators l[i][j].

    A generator is encoded as g = i*N + j (0-based); a word is a tuple of
    generator codes, so words of length d span a space of dimension N^(2d).
    """

    __slots__ = ("N", "table", "terms")

    def __init__(self, N: int, table: SymbolTable, terms: dict):
        self.N = N
        self.table = table
        self.terms = {w: c for w, c in terms.items() if c}

    @staticmethod
    def zero(N: int, table: SymbolTable) -> "NCPoly":
        return NCPoly(N, table, {})

    @staticmethod
    def one(N: int, table: SymbolTable) -> "NCPoly":
        return NCPoly(N, table, {(): Scalar.one(table)})

    @staticmethod
    def const(N: int, table: SymbolTable, c: Scalar) -> "NCPoly":
        return NCPoly(N, table, {(): c})

    @staticmethod
    def generator(N: int, table: SymbolTable, i: int, j: int) -> "NCPoly":
        return NCPoly(N, table, {(i * N + j,): Scalar.one(table)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            val = c if s is None else s + c
            if val:
                out[w] = val
            elif s is not None:
                del out[w]
        return NCPoly(self.N, self.table, out)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __neg__(self) -> "NCPoly":
        return NCPoly(self.N, self.table, {w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "NCPoly":
        if isinstance(c, (int, Fraction)):
            c = Scalar.from_fraction(self.table, c)
        if not c:
            return NCPoly.zero(self.N, self.table)
        return NCPoly(self.N, self.table, {w: c * v for w, v in self.terms.items()})

    def __mul__(self, other) -> "NCPoly":
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        return NCPoly(self.N, self.table, _add_product({}, self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "NCPoly":
        result = NCPoly.one(self.N, self.table)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPoly) and self.N == other.N and self.terms == other.terms

    def degrees(self) -> set:
        return {len(w) for w in self.terms}

    def max_degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def map_coeffs(self, fn) -> "NCPoly":
        return NCPoly(self.N, self.table, {w: fn(c) for w, c in self.terms.items()})

    def lift(self, table: SymbolTable) -> "NCPoly":
        return NCPoly(self.N, table, {w: c.lift(table) for w, c in self.terms.items()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        def wkey(w):
            return (len(w), w)
        parts = []
        for w in sorted(self.terms, key=wkey):
            c = self.terms[w]
            name = "*".join(f"l[{g // self.N + 1},{g % self.N + 1}]" for g in w) or "1"
            parts.append(f"({c})*{name}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"NCPoly({self})"


# ---------------------------------------------------------------------------
# generating matrix and relation spaces
# ---------------------------------------------------------------------------


def generating_matrix(N: int, table: SymbolTable) -> list:
    return [[NCPoly.generator(N, table, i, j) for j in range(N)] for i in range(N)]


def _add_product(out: dict, a: dict, b: dict) -> dict:
    """Add the product of the word combinations a and b into out; no zero is kept."""
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            c = ca * cb
            s = out.get(w)
            val = c if s is None else s + c
            if val:
                out[w] = val
            elif s is not None:
                del out[w]
    return out


def nc_matmul(A: Sequence, B: Sequence) -> list:
    """A*B for NCPoly matrices, visiting only nonzero entries of A and B and
    accumulating each output entry in one dict."""
    N, table = B[0][0].N, B[0][0].table
    brows = [[(j, b.terms) for j, b in enumerate(row) if b] for row in B]
    out = []
    for arow in A:
        acc: dict = {}
        for a, brow in zip(arow, brows):
            if not a:
                continue
            for j, bterms in brow:
                _add_product(acc.setdefault(j, {}), a.terms, bterms)
        out.append([NCPoly(N, table, acc.get(j, {})) for j in range(len(B[0]))])
    return out


def scalar_matrix_to_nc(op: TensorOp) -> list:
    """Dense matrix of constant NCPolys with the entries of a tensor operator."""
    N, size = op.N, op.mat.nrows
    zero = NCPoly.zero(N, op.table)
    out = [[zero] * size for _ in range(size)]
    for i, row in op.mat.rows.items():
        for j, v in row.items():
            out[i][j] = NCPoly.const(N, op.table, v)
    return out


def l_at_first(hs: HeckeSymmetry, arity: int) -> list:
    """L (x) I on V^(x arity) with generator entries."""
    N = hs.N
    rest = N ** (arity - 1)
    zero = NCPoly.zero(N, hs.table)
    out = [[zero] * (N * rest) for _ in range(N * rest)]
    for i, row in enumerate(generating_matrix(N, hs.table)):
        for j, l in enumerate(row):
            for t in range(rest):
                out[i * rest + t][j * rest + t] = l
    return out


def l_powers(hs: HeckeSymmetry, top: int) -> list:
    """[L^0 = I, L, ..., L^top], one product per step."""
    N = hs.N
    one, zero = NCPoly.one(N, hs.table), NCPoly.zero(N, hs.table)
    identity = [[one if a == b else zero for b in range(N)] for a in range(N)]
    L = generating_matrix(N, hs.table)
    ladder = [identity, L][:top + 1]
    while len(ladder) <= top:
        ladder.append(nc_matmul(ladder[-1], L))
    return ladder


def reflection_matrix(hs: HeckeSymmetry, which: str = "minus",
                      h: Optional[Scalar] = None) -> list:
    """The N^2 x N^2 matrix of relation elements.

    minus: R L1 R L1 - L1 R L1 R           (the algebra's defining relations)
    plus:  R L1 R L1 + L1 R L1 R^-1        (the complementary subspace)
    mrea:  minus - h (R L1 - L1 R)         (linear right-hand side)
    """
    N = hs.N
    Rnc = scalar_matrix_to_nc(hs.R)
    L1 = l_at_first(hs, 2)
    rl = nc_matmul(Rnc, L1)
    rlrl = nc_matmul(nc_matmul(rl, Rnc), L1)
    lr = nc_matmul(L1, Rnc)
    if which == "minus" or which == "mrea":
        lrlr = nc_matmul(nc_matmul(lr, L1), Rnc)
        ent = [[rlrl[i][j] - lrlr[i][j] for j in range(N * N)] for i in range(N * N)]
        if which == "mrea":
            if h is None:
                raise ValueError("mrea needs the shift parameter h")
            lin = [[rl[i][j] - lr[i][j] for j in range(N * N)] for i in range(N * N)]
            ent = [[ent[i][j] - lin[i][j] * h for j in range(N * N)]
                   for i in range(N * N)]
        return ent
    if which == "plus":
        rinv = scalar_matrix_to_nc(hs.r_inv)
        lrlri = nc_matmul(nc_matmul(lr, L1), rinv)
        return [[rlrl[i][j] + lrlri[i][j] for j in range(N * N)] for i in range(N * N)]
    raise ValueError(f"unknown relation kind {which!r}")


@dataclass
class RelationSpace:
    """Span of the quadratic relation entries and the quotient they define."""

    hs: HeckeSymmetry
    relations: list                # NCPoly entries (N^4 of them)
    basis: list                    # independent coefficient vectors {word: c}
    dim: int
    quotient: GradedQuotient

    def membership_reducer(self, degree: int) -> GradedQuotient:
        """The quotient, built through `degree`; the normal form it gives is
        the residual of a zero test."""
        base = self.hs.N * self.hs.N
        if base ** degree > WORD_SPACE_CAP:
            raise ResourceLimit(f"degree-{degree} slice has dimension {base ** degree}")
        self.quotient.grow(degree)
        return self.quotient


def relation_space(hs: HeckeSymmetry, which: str = "minus",
                   h: Optional[Scalar] = None) -> RelationSpace:
    entries = reflection_matrix(hs, which, h)
    relations = [e for rowent in entries for e in rowent]
    quotient = GradedQuotient(hs.N * hs.N, [e.terms for e in relations if not e.is_zero()])
    return RelationSpace(hs=hs, relations=relations, basis=quotient.relations,
                         dim=len(quotient.relations), quotient=quotient)


def complementarity_check(hs: HeckeSymmetry) -> bool:
    """dim I- + dim I+ = N^4 with trivial intersection."""
    minus = relation_space(hs, "minus")
    plus = relation_space(hs, "plus")
    n4 = (hs.N * hs.N) ** 2
    if minus.dim + plus.dim != n4:
        return False
    union = RowSpace()
    for vec in minus.basis:
        union.add(dict(vec))
    for vec in plus.basis:
        union.add(dict(vec))
    return union.rank == n4


# ---------------------------------------------------------------------------
# zero testing
# ---------------------------------------------------------------------------


def shift_generators(x: NCPoly, c: Scalar) -> NCPoly:
    """Substitute every generator l[i][j] by l[i][j] + c delta_ij."""
    N = x.N
    out = NCPoly.zero(N, x.table)
    for w, coeff in x.terms.items():
        expansions = [NCPoly.const(N, x.table, coeff)]
        for g in w:
            i, j = divmod(g, N)
            letter = NCPoly.generator(N, x.table, i, j)
            if i == j:
                letter = letter + NCPoly.const(N, x.table, c)
            expansions = [e * letter for e in expansions]
        out = out + expansions[0]
    return out


def is_zero_mod(x: NCPoly, rs: RelationSpace) -> tuple:
    """Decide x = 0 in the quotient algebra; returns (verdict, normal form).

    x may mix degrees.  Its normal form is taken in `rs.quotient`, graded in
    the plain mode and filtered in the modified one, at every q.
    """
    if x.is_zero():
        return True, x
    for d in sorted(x.degrees()):   # the lowest degree over the cap is the one refused
        quotient = rs.membership_reducer(d)
    nf = quotient.normal_form(x.terms)
    return not nf, NCPoly(x.N, x.table, nf)


# ---------------------------------------------------------------------------
# power sums, centrality, Cayley-Hamilton
# ---------------------------------------------------------------------------


def power_sum_element(k: int, hs: HeckeSymmetry) -> NCPoly:
    """Tr_R L^k as a degree-k word sum (contraction against the trace operator)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return rtrace(l_powers(hs, k)[k], hs)


def centrality_check(k: int, hs: HeckeSymmetry, rs: RelationSpace) -> bool:
    """Does Tr_R L^k commute with every generator modulo the relations?"""
    p = power_sum_element(k, hs)
    for i in range(hs.N):
        for j in range(hs.N):
            g = NCPoly.generator(hs.N, hs.table, i, j)
            ok, _ = is_zero_mod(p * g - g * p, rs)
            if not ok:
                return False
    return True


def ch_polynomial_entries(hs: HeckeSymmetry, m: int, n: int) -> list:
    """Entries of sum_i c_i(L) L^(m+n-i), all homogeneous of degree mn+m+n.

    Every power sum the coefficients name and every power of L come off one
    ladder of L powers."""
    N = hs.N
    table = hs.table
    size = m + n
    conv = NewtonConverter(hs.q)
    pexprs = [conv.to_p_basis(expr) for expr in ch_coefficients(m, n, hs.q)]
    named = {k for pexpr in pexprs for mono in pexpr.terms for k, _ in mono}
    ladder = l_powers(hs, max(named | {size}))
    psums = {k: rtrace(ladder[k], hs) for k in named}
    total = [[NCPoly.zero(N, table)] * N for _ in range(N)]
    for i, pexpr in enumerate(pexprs):
        ci = NCPoly.zero(N, table)
        for mono, coeff in pexpr.terms.items():
            term = NCPoly.const(N, table, coeff)
            for k, e in sorted(mono, reverse=True):
                for _ in range(e):
                    term = term * psums[k]
            ci = ci + term
        for a, row in enumerate(total):
            if i == size:   # c_s(L) L^0: added on the diagonal, never through I
                row[a] = row[a] + ci
            else:
                lp = ladder[size - i][a]
                row[:] = [x + ci * y for x, y in zip(row, lp)]
    return [x for row in total for x in row]


def ch_verify(hs: HeckeSymmetry, m: int, n: int, *, check_birank: bool = True,
              raise_on_fail: bool = False) -> tuple:
    """Verify the Cayley-Hamilton identity entrywise modulo the relations."""
    if check_birank:
        rep = birank(hs, m + n + 2)
        if (rep.m, rep.n) != (m, n):
            raise ValueError(f"bi-rank of {hs.name} is ({rep.m}|{rep.n}), not ({m}|{n})")
    rs = relation_space(hs, "minus")
    entries = ch_polynomial_entries(hs, m, n)
    degree = m * n + m + n
    report = {"entries": len(entries), "degree": degree, "failures": []}
    for idx, e in enumerate(entries):
        ok, residual = is_zero_mod(e, rs)
        if not ok:
            report["failures"].append((idx, residual))
            if raise_on_fail:
                raise ChFailed(f"entry {idx} has residual {residual}")
    return not report["failures"], report
