"""Commutative symmetric-function calculus and eigenvalue parametrizations.

The abstract side works in a free commutative algebra whose generators are
the single-column Schur functions a_1, a_2, ... (a_0 = 1).  Schur functions
of general shape are produced through the dual Jacobi-Trudi determinant over
that basis; the single-row family s_k and the power sums p_k are reached
through the quantum Newton relations

    (-1)^k k_q a_k + sum_{r<k} (-q)^r a_r p_{k-r} = 0
    k_q s_k - sum_{r<k} q^(-r) s_r p_{k-r}        = 0
    sum_{r<=k} (-1)^r a_r s_{k-r}                 = 0

(the last one is q-independent).  The Cayley-Hamilton coefficient assembly
and its even/odd factorization follow the hook-content bookkeeping of the
(n^m)-rectangle shapes.

The numeric side binds power sums to an eigenvalue profile (mu | nu) with
parameters q and h.  The power sum p_k = sum_i d_i mu_i^k + sum_j d'_j nu_j^k
weights each eigenvalue by its quantum dimension (``quantum_dims``), but the
power sums never form the weights.  With Q = q - q^-1 the function

    F(z) = prod_i (z - q^-2 mu_i - q^-1 h)/(z - mu_i)
           * prod_j (z - q^2 nu_j + q h)/(z - nu_j)

has residue (Q v - h) d_v at every eigenvalue v.  Summing the residues of
z^k F against its expansion F = sum_r f_r z^-r at infinity (f_0 = 1) gives

    Q p_{k+1} - h p_k = f_{k+1}   (k >= 0),      p_0 = q^(n-m) [m-n]_q,

the second because F(h/Q) = q^(2(n-m)).  In w = 1/z, F is
prod(1 - a_v w) / prod(1 - v w), with a_mu = q^-2 mu + q^-1 h and
a_nu = q^2 nu - q h, so the f_r obey one linear recurrence whose
coefficients are signed elementary symmetric functions of the eigenvalues.
At q = +-1 (Q = 0) the identity reads -h p_k = f_{k+1}, and with h = 0 as
well every weight is q^-1 or -q.  At h = 0 the elementary values have the
second generating function

    sum_k a_k t^k = A(t) = prod_i (1 + q^-1 mu_i t) / prod_j (1 + q nu_j t),

and F(w) = A(-w/q) / A(-q w) is the quantum Newton identity itself; at
h != 0 there is no product form, and the a-values come from the Newton
recursion on the power sums.  Both series run on one common denominator,
in the ring that ``scalar.clear`` picks: ints for constant values and
polynomials otherwise (Macdonald,
Symmetric Functions and Hall Polynomials, ch. I; the quantum Newton form is
that of Gurevich, Pyatov and Saponov, Lett. Math. Phys. 41, 1997).

Schur values are computed through the elementary-generator route (the
a-values, then the Jacobi-Trudi determinant on values).  That route computes
the same evaluation homomorphism as expanding into the p-basis and
substituting, but keeps intermediates small; both routes are exposed and
their agreement is part of the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import BadDeformationParameter, DegenerateProfile
from .scalar import Scalar, SymbolTable, clear, qnumber, ratio


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


class Partition:
    """Weakly decreasing tuple of positive parts (trailing zeros stripped)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int]):
        cleaned = [int(p) for p in parts if int(p) != 0]
        if any(p < 0 for p in cleaned):
            raise ValueError("negative part")
        if any(cleaned[i] < cleaned[i + 1] for i in range(len(cleaned) - 1)):
            raise ValueError(f"not weakly decreasing: {parts}")
        self.parts = tuple(cleaned)

    # the four rectangle-based shapes used by the Cayley-Hamilton machinery
    @staticmethod
    def rectangle(m: int, n: int) -> "Partition":
        """(n^m): the m x n rectangle."""
        return Partition([n] * m)

    @staticmethod
    def rectangle_with_row(m: int, n: int, r: int) -> "Partition":
        """(n^m, r): rectangle with one extra row of length r <= n."""
        if not 0 <= r <= n:
            raise ValueError(f"row length {r} must lie in 0..{n}")
        return Partition([n] * m + [r])

    @staticmethod
    def rectangle_plus_column(m: int, n: int, k: int) -> "Partition":
        """((n+1)^k, n^(m-k)): rectangle with k cells added in column n+1."""
        if not 0 <= k <= m:
            raise ValueError(f"column height {k} must lie in 0..{m}")
        return Partition([n + 1] * k + [n] * (m - k))

    @staticmethod
    def rectangle_plus_column_row(m: int, n: int, k: int, r: int) -> "Partition":
        """((n+1)^k, n^(m-k), r)."""
        if not 0 <= r <= n:
            raise ValueError(f"row length {r} must lie in 0..{n}")
        if not 0 <= k <= m:
            raise ValueError(f"column height {k} must lie in 0..{m}")
        return Partition([n + 1] * k + [n] * (m - k) + [r])

    def conjugate(self) -> "Partition":
        if not self.parts:
            return self
        width = self.parts[0]
        return Partition([sum(1 for p in self.parts if p > j) for j in range(width)])

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"


# ---------------------------------------------------------------------------
# free commutative polynomials in indexed generators
# ---------------------------------------------------------------------------


class GenPoly:
    """Commutative polynomial in abstract generators x_1, x_2, ... over Scalar.

    Monomials are sorted tuples of (generator index, exponent).
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: SymbolTable, terms: dict):
        self.table = table
        self.terms = {m: c for m, c in terms.items() if c}

    @staticmethod
    def zero(table: SymbolTable) -> "GenPoly":
        return GenPoly(table, {})

    @staticmethod
    def one(table: SymbolTable) -> "GenPoly":
        return GenPoly(table, {(): Scalar.one(table)})

    @staticmethod
    def const(table: SymbolTable, c: Scalar) -> "GenPoly":
        return GenPoly(table, {(): c})

    @staticmethod
    def gen(table: SymbolTable, k: int) -> "GenPoly":
        if k == 0:
            return GenPoly.one(table)
        return GenPoly(table, {((k, 1),): Scalar.one(table)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GenPoly") -> "GenPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            val = c if s is None else s + c
            if val:
                out[m] = val
            else:
                del out[m]
        return GenPoly(self.table, out)

    def __sub__(self, other: "GenPoly") -> "GenPoly":
        return self + other.scale(Scalar.from_fraction(self.table, -1))

    def __neg__(self) -> "GenPoly":
        return self.scale(Scalar.from_fraction(self.table, -1))

    def scale(self, c: Scalar) -> "GenPoly":
        if not c:
            return GenPoly.zero(self.table)
        return GenPoly(self.table, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other) -> "GenPoly":
        if isinstance(other, Scalar):
            return self.scale(other)
        if isinstance(other, (int, Fraction)):
            return self.scale(Scalar.from_fraction(self.table, other))
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_merge(ma, mb)
                c = ca * cb
                s = out.get(m)
                val = c if s is None else s + c
                if val:
                    out[m] = val
                elif s is not None:
                    del out[m]
        return GenPoly(self.table, out)

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        if isinstance(other, (int, Fraction)):
            return self.scale(Scalar.from_fraction(self.table, other))
        return NotImplemented

    def __eq__(self, other) -> bool:
        return isinstance(other, GenPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def substitute_gens(self, values: dict) -> "GenPoly":
        """Replace generator k by the GenPoly values[k]; expand."""
        result = GenPoly.zero(self.table)
        for mono, coeff in self.terms.items():
            term = GenPoly.const(self.table, coeff)
            for k, e in mono:
                for _ in range(e):
                    term = term * values[k]
            result = result + term
        return result

    def to_str(self, prefix: str) -> str:
        if not self.terms:
            return "0"
        def mono_key(m):
            return (sum(k * e for k, e in m), m)
        parts = []
        for mono in sorted(self.terms, key=mono_key, reverse=True):
            c = self.terms[mono]
            body = "*".join(f"{prefix}{k}" + (f"^{e}" if e > 1 else "")
                            for k, e in mono) or "1"
            parts.append(f"({c})*{body}")
        return " + ".join(parts)


def _mono_merge(a: tuple, b: tuple) -> tuple:
    out = dict(a)
    for k, e in b:
        out[k] = out.get(k, 0) + e
    return tuple(sorted(out.items()))


# ---------------------------------------------------------------------------
# Newton / Wronski recursions (generic over the coefficient algebra)
# ---------------------------------------------------------------------------


def _check_kq(k: int, q: Scalar) -> Scalar:
    kq = qnumber(k, q)
    if kq.is_zero():
        raise BadDeformationParameter(f"{k}_q = 0 for this q")
    return kq


def newton_a_from_p(ps: Sequence, q: Scalar, one):
    """[a_1..a_K] from [p_1..p_K] via the quantum Newton recursion."""
    avals = [one]
    for k in range(1, len(ps) + 1):
        kq = _check_kq(k, q)
        acc = None
        for r in range(k):
            term = avals[r] * ((-q) ** r) * ps[k - r - 1]
            acc = term if acc is None else acc + term
        sign = Fraction(1) if k % 2 == 1 else Fraction(-1)
        a_k = acc * (kq.inv() * sign)
        avals.append(a_k)
    return avals[1:]


def newton_p_from_a(avals: Sequence, q: Scalar, one):
    """[p_1..p_K] from [a_1..a_K]: the inverse quantum Newton recursion."""
    full_a = [one] + list(avals)
    ps: list = []
    for k in range(1, len(avals) + 1):
        kq = qnumber(k, q)
        sign = Fraction(-1) if k % 2 == 1 else Fraction(1)
        acc = full_a[k] * (kq * sign) * Fraction(-1)
        for r in range(1, k):
            acc = acc - full_a[r] * ((-q) ** r) * ps[k - r - 1]
        ps.append(acc)
    return ps


def newton_s_from_p(ps: Sequence, q: Scalar, one):
    """[s_1..s_K] from [p_1..p_K] via the single-row quantum Newton recursion."""
    svals = [one]
    for k in range(1, len(ps) + 1):
        kq = _check_kq(k, q)
        acc = None
        for r in range(k):
            term = svals[r] * (q.inv() ** r) * ps[k - r - 1]
            acc = term if acc is None else acc + term
        svals.append(acc * kq.inv())
    return svals[1:]


def wronski_s_from_a(avals: Sequence, one):
    """[s_1..s_K] from [a_1..a_K] via the q-independent Wronski relation.

    sum_{r=0}^k (-1)^r a_r s_{k-r} = 0 gives s_k = -sum_{r>=1} (-1)^r a_r s_{k-r}.
    """
    full_a = [one] + list(avals)
    svals = [one]
    for k in range(1, len(avals) + 1):
        acc = None
        for r in range(1, k + 1):
            sign = Fraction(1) if r % 2 == 1 else Fraction(-1)
            term = (full_a[r] * svals[k - r]) * sign
            acc = term if acc is None else acc + term
        svals.append(acc)
    return svals[1:]


# ---------------------------------------------------------------------------
# Jacobi-Trudi and Cayley-Hamilton coefficients (abstract level)
# ---------------------------------------------------------------------------


def jacobi_trudi(lam: Partition, table: SymbolTable) -> GenPoly:
    """s_lambda = det(a_{lambda'_i - i + j}) over the elementary generators."""
    conj = lam.conjugate().parts
    size = len(conj)
    if size == 0:
        return GenPoly.one(table)

    def entry(i: int, j: int) -> GenPoly:
        k = conj[i] - (i + 1) + (j + 1)
        if k < 0:
            return GenPoly.zero(table)
        return GenPoly.gen(table, k)

    rows = [[entry(i, j) for j in range(size)] for i in range(size)]
    return _det_genpoly(rows, table)


def _det_genpoly(rows, table) -> GenPoly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = GenPoly.zero(table)
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [[rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
        term = rows[0][j] * _det_genpoly(minor, table)
        total = total + term if j % 2 == 0 else total - term
    return total


def ch_coefficients(m: int, n: int, q: Scalar) -> list:
    """Cayley-Hamilton coefficients, highest power first (length m+n+1).

    Entry i multiplies L^(m+n-i) and equals
    sum_k (-1)^k q^(2k-i) s over the rectangle shape with k extra column
    cells and i-k extra row cells.
    """
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError("need m, n >= 0 with m + n >= 1")
    table = q.table
    coeffs = []
    for i in range(m + n + 1):
        acc = GenPoly.zero(table)
        for k in range(max(0, i - n), min(i, m) + 1):
            lam = Partition.rectangle_plus_column_row(m, n, k, i - k)
            sgn = Fraction(-1) if k % 2 == 1 else Fraction(1)
            coeff = (q ** (2 * k - i)) * sgn
            acc = acc + jacobi_trudi(lam, table).scale(coeff)
        coeffs.append(acc)
    return coeffs


def ch_factorized(m: int, n: int, q: Scalar) -> tuple:
    """Even/odd factor coefficient lists of the factorized Cayley-Hamilton form.

    even[k] multiplies L^(m-k) and equals (-q)^k s over the k-extra-column
    shape; odd[r] multiplies L^(n-r) and equals q^(-r) s over the
    r-extra-row shape.
    """
    table = q.table
    even = [jacobi_trudi(Partition.rectangle_plus_column(m, n, k), table).scale((-q) ** k)
            for k in range(m + 1)]
    odd = [jacobi_trudi(Partition.rectangle_with_row(m, n, r), table).scale(q.inv() ** r)
           for r in range(n + 1)]
    return even, odd


# ---------------------------------------------------------------------------
# a_k <-> p_k basis conversion caches
# ---------------------------------------------------------------------------


class NewtonConverter:
    """Caches expansions of the elementary generators in the p-basis."""

    def __init__(self, q: Scalar):
        self.q = q
        self.table = q.table
        self._a_in_p: list = [GenPoly.one(self.table)]

    def a_in_p(self, k: int) -> GenPoly:
        while len(self._a_in_p) <= k:
            kk = len(self._a_in_p)
            ps = [GenPoly.gen(self.table, j) for j in range(1, kk + 1)]
            self._a_in_p = [GenPoly.one(self.table)] + newton_a_from_p(
                ps, self.q, GenPoly.one(self.table))
        return self._a_in_p[k]

    def to_p_basis(self, expr: GenPoly) -> GenPoly:
        """Reinterpret an elementary-basis polynomial in the p-generators."""
        top = 0
        for mono in expr.terms:
            for k, _ in mono:
                top = max(top, k)
        self.a_in_p(top)
        return expr.substitute_gens({k: self._a_in_p[k] for k in range(1, top + 1)})


def symexpr_to_s_basis(expr: GenPoly) -> dict:
    """Expand an elementary-basis polynomial in the Schur basis.

    Inverts the unitriangular Jacobi-Trudi system weight by weight; returns
    a map Partition -> Scalar.
    """
    table = expr.table
    out: dict = {}
    by_weight: dict = {}
    for mono, coeff in expr.terms.items():
        w = sum(k * e for k, e in mono)
        by_weight.setdefault(w, {})[mono] = coeff
    for w, chunk in by_weight.items():
        if w == 0:
            out[Partition(())] = out.get(Partition(()), Scalar.zero(table)) + chunk[()]
            continue
        parts = _partitions_of(w)
        # expansions of s_lambda in a-monomials for all lambda of weight w
        expansions = {lam: jacobi_trudi(lam, table) for lam in parts}
        remaining = dict(chunk)
        # eliminate via the a_(lambda conjugate) leading monomials, largest first
        order = sorted(parts, key=lambda l: tuple(l.conjugate().parts))
        for lam in order:
            lead = tuple(sorted(
                ((k, e) for k, e in _counts(lam.conjugate().parts).items()), ))
            c = remaining.get(lead)
            if c is None or not c:
                continue
            for mono, v in expansions[lam].terms.items():
                s = remaining.get(mono, Scalar.zero(table)) - c * v
                if s:
                    remaining[mono] = s
                else:
                    remaining.pop(mono, None)
            out[lam] = out.get(lam, Scalar.zero(table)) + c
        if remaining:
            raise ArithmeticError("Schur-basis conversion did not terminate")
    return {lam: c for lam, c in out.items() if c}


def _counts(parts) -> dict:
    out: dict = {}
    for p in parts:
        out[p] = out.get(p, 0) + 1
    return out


@lru_cache(maxsize=None)
def _partitions_of(w: int) -> tuple:
    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail
    return tuple(Partition(p) for p in gen(w, w))


# ---------------------------------------------------------------------------
# eigenvalue profiles, quantum dimensions and their generating functions
# ---------------------------------------------------------------------------


@dataclass
class QuantumDims:
    d: list       # weights of the even eigenvalues
    dprime: list  # weights of the odd eigenvalues


class EigenvalueProfile:
    """Eigenvalue data (mu, nu) with deformation parameters q and h.

    h = 0 selects the plain quotient conventions; nonzero h switches every
    formula to the shifted (hatted) variants.  Numeric profiles are checked
    for coincident eigenvalues, which are poles of the quantum dimensions.
    """

    def __init__(self, mus: Sequence[Scalar], nus: Sequence[Scalar], q: Scalar,
                 h: Optional[Scalar] = None):
        self.mus = list(mus)
        self.nus = list(nus)
        self.q = q
        self.table = q.table
        self.h = h if h is not None else Scalar.zero(self.table)
        for x in [*self.mus, *self.nus, self.h]:
            if x.table != self.table:
                raise ValueError("profile scalars live in different symbol tables")
        self.m = len(self.mus)
        self.n = len(self.nus)
        self._dims: Optional[QuantumDims] = None
        self._psum: Optional[_PowerSums] = None
        self._aseries: Optional[_RatioSeries] = None
        self._pvals: dict = {}
        self._avals: list = []
        allv = self.mus + self.nus
        if all(v.is_constant() for v in allv):
            for i in range(len(allv)):
                for j in range(i + 1, len(allv)):
                    if allv[i] == allv[j]:
                        raise DegenerateProfile(
                            f"coincident eigenvalues: value {allv[i]} repeated")

    @property
    def is_mrea(self) -> bool:
        return not self.h.is_zero()

    def __repr__(self) -> str:
        return (f"EigenvalueProfile(mu={[str(x) for x in self.mus]}, "
                f"nu={[str(x) for x in self.nus]}, q={self.q}, h={self.h})")


def _dim_factor_pairs(profile: EigenvalueProfile):
    """(numerator, denominator) Scalar factor lists for every quantum dimension.

    The h = 0 numerators are mu_i - q^-2 mu_p and mu_i - q^2 nu_j (and the
    odd counterparts); with h nonzero each numerator gains the central shift
    term (-q^-1 h on the q^-2 side, +q h on the q^2 side).
    """
    q, h = profile.q, profile.h
    qi2 = q.inv() ** 2
    q2 = q ** 2
    sh_minus = q.inv() * h      # subtracted on the q^-2 side
    sh_plus = q * h             # added on the q^2 side
    dims = []
    for i, mu in enumerate(profile.mus):
        nums, dens = [], []
        for p, mup in enumerate(profile.mus):
            if p == i:
                continue
            nums.append(mu - qi2 * mup - sh_minus)
            dens.append(mu - mup)
        for nu in profile.nus:
            nums.append(mu - q2 * nu + sh_plus)
            dens.append(mu - nu)
        dims.append(("even", nums, dens))
    for j, nu in enumerate(profile.nus):
        nums, dens = [], []
        for mu in profile.mus:
            nums.append(nu - qi2 * mu - sh_minus)
            dens.append(nu - mu)
        for p, nup in enumerate(profile.nus):
            if p == j:
                continue
            nums.append(nu - q2 * nup + sh_plus)
            dens.append(nu - nup)
        dims.append(("odd", nums, dens))
    return dims


def quantum_dims(profile: EigenvalueProfile) -> QuantumDims:
    """Eigenvalue weights of the power-sum parametrization."""
    if profile._dims is not None:
        return profile._dims
    q = profile.q
    d, dprime = [], []
    for kind, nums, dens in _dim_factor_pairs(profile):
        acc = q.inv() if kind == "even" else -q
        for f in nums:
            acc = acc * f
        for f in dens:
            if f.is_zero():
                raise DegenerateProfile("coincident eigenvalues make a dimension singular")
            acc = acc / f
        (d if kind == "even" else dprime).append(acc)
    profile._dims = QuantumDims(d, dprime)
    return profile._dims


def _expand(roots: list, one) -> list:
    """Coefficients of prod(1 - x w) over the roots, lowest degree first."""
    coeffs = [one]
    for x in roots:
        coeffs.append(-(x * coeffs[-1]))
        for r in range(len(coeffs) - 2, 0, -1):
            coeffs[r] = coeffs[r] - x * coeffs[r - 1]
    return coeffs


class _RatioSeries:
    """g_r = C^r [w^r] prod(1 - a w) / prod(1 - b w), from the numerators
    C a and C b that ``scalar.clear`` returns with C.

    N(w) = prod(1 - C a w) and D(w) = prod(1 - C b w) have coefficients in
    the ring of C, and D g = N gives g_r = N_r - sum_{1 <= i <= min(r, #b)}
    D_i g_{r-i}: ring arithmetic with no gcd and no division.
    ``series[r]`` extends the recurrence to r.
    """

    def __init__(self, C, tops: list, bottoms: list):
        self.C = C
        one = C ** 0  # the 1 of C's ring
        self._zero = one - one
        self._N = _expand(tops, one)
        self._D = _expand(bottoms, one)
        self._g = [one]

    def __getitem__(self, r: int):
        g, N, D = self._g, self._N, self._D
        while len(g) <= r:
            t = len(g)
            acc = N[t] if t < len(N) else self._zero
            for i in range(1, min(t, len(D) - 1) + 1):
                acc = acc - D[i] * g[t - i]
            g.append(acc)
        return g[r]


class _PowerSums:
    """p_k, k >= 1, of a profile from the expansion of F at infinity.

    With Q = q - q^-1 and f_r = [z^-r] F, Q p_k - h p_{k-1} = f_k (module
    docstring).  Unrolled, u_k = Q^(k+1) p_k satisfies u_k = Q^k f_k +
    h u_{k-1} from u_0 = Q p_0 = 1 - q^(2(n-m)).  Q, h and q^(2(n-m)) are
    cleared with the series' values, to Qc/C, hc/C and tc/C, and the f_r
    come cleared from ``_RatioSeries`` (f_r = g_r / C^r).  Then
    W_k = C^(2k+1) u_k obeys W_k = C (Qc^k g_k + hc W_{k-1}) from
    W_0 = C - tc, and p_k = W_k / (C^k Qc^(k+1)): each new p_k is one
    normalisation.  At h = 0, p_k = f_k / Q; at Q = 0 (q = +-1) the identity
    reads -h p_{k-1} = f_k, and at Q = 0 with h = 0 every weight is q^-1 or
    -q.
    """

    def __init__(self, profile: EigenvalueProfile):
        q, h = profile.q, profile.h
        self.q, self.mus, self.nus, self.table = q, profile.mus, profile.nus, profile.table
        qi = q.inv()
        Q = q - qi
        tops = ([qi * (qi * mu + h) for mu in profile.mus]
                + [q * (q * nu - h) for nu in profile.nus])
        values = tops + profile.mus + profile.nus + [Q, h]
        if Q and h:
            values.append(q ** (2 * (profile.n - profile.m)))
        C, nums = clear(values)
        size = len(tops)
        self.series = _RatioSeries(C, nums[:size], nums[size:2 * size])
        self.Qc, self.hc, *tc = nums[2 * size:]
        if tc:
            self.W = [C - tc[0]]

    def __getitem__(self, k: int) -> Scalar:
        g, C, table = self.series, self.series.C, self.table
        Qc, hc = self.Qc, self.hc
        if not Qc:
            if not hc:
                zero, q = Scalar.zero(table), self.q
                return (q.inv() * sum((mu ** k for mu in self.mus), zero)
                        - q * sum((nu ** k for nu in self.nus), zero))
            return ratio(-g[k + 1], C ** k * hc, table)
        if not hc:
            return ratio(g[k], C ** (k - 1) * Qc, table)
        W = self.W
        while len(W) <= k:
            t = len(W)
            W.append(C * (Qc ** t * g[t] + hc * W[t - 1]))
        return ratio(W[k], C ** k * Qc ** (k + 1), table)


def power_sum_param(k: int, profile: EigenvalueProfile) -> Scalar:
    """p_k = sum_i d_i mu_i^k + sum_j d'_j nu_j^k, from the generating function.

    Res_{z=v} F = (Qv - h) d_v, so summing the residues of z^k F gives
    Q p_{k+1} - h p_k = f_{k+1} with f_r = [z^-r] F, and F(h/Q) =
    q^(2(n-m)) gives p_0 = q^(n-m) [m-n]_q (module docstring).  The weights
    are never formed: ``_PowerSums`` runs the recurrence of F's expansion
    and normalises each new p_k once.  p_k is a polynomial in the
    eigenvalues over a power of q, so it is defined at coincident symbolic
    eigenvalues too.
    """
    if k not in profile._pvals:
        if k == 0:
            q, d = profile.q, profile.m - profile.n
            if d == 0:
                value = Scalar.zero(profile.table)
            elif d > 0:
                value = q ** (-d) * qnumber(d, q)
            else:
                value = -(q ** (-d) * qnumber(-d, q))
        else:
            if profile._psum is None:
                profile._psum = _PowerSums(profile)
            value = profile._psum[k]
        profile._pvals[k] = value
    return profile._pvals[k]


def a_values_param(profile: EigenvalueProfile, K: int) -> list:
    """[a_0(param)..a_K(param)] as Scalars.

    At h = 0 they are the coefficients of the product
    sum_k a_k t^k = prod_i (1 + q^-1 mu_i t) / prod_j (1 + q nu_j t), whose
    ratio A(-w/q)/A(-qw) is F: that is the quantum Newton identity.  At
    h != 0 there is no product form, and the Newton recursion runs on the
    power sums.
    """
    avals, table = profile._avals, profile.table
    if len(avals) <= K:
        if profile.is_mrea:
            one = Scalar.one(table)
            ps = [power_sum_param(k, profile) for k in range(1, K + 1)]
            avals[:] = [one] + newton_a_from_p(ps, profile.q, one)
        else:
            if profile._aseries is None:
                q, m = profile.q, profile.m
                C, nums = clear([-(q.inv() * mu) for mu in profile.mus]
                                + [-(q * nu) for nu in profile.nus])
                profile._aseries = _RatioSeries(C, nums[:m], nums[m:])
            series = profile._aseries
            for r in range(len(avals), K + 1):
                avals.append(ratio(series[r], series.C ** r, table))
    return avals[: K + 1]


def eval_symexpr(expr: GenPoly, profile: EigenvalueProfile) -> Scalar:
    """Evaluate an elementary-basis expression on a profile (a-value route)."""
    top = 0
    for mono in expr.terms:
        for k, _ in mono:
            top = max(top, k)
    avals = a_values_param(profile, top)
    total = Scalar.zero(profile.table)
    for mono, coeff in expr.terms.items():
        val = coeff
        for k, e in mono:
            val = val * avals[k] ** e
        total = total + val
    return total


def schur_param(lam: Partition, profile: EigenvalueProfile, route: str = "a") -> Scalar:
    """Value of s_lambda under the eigenvalue parametrization.

    The (n^m) rectangle has the closed product form
    prod_ij (q^-1 mu_i - q nu_j); any other shape goes through the abstract
    expansion.  route="a" substitutes elementary values from the Newton
    recursion; route="p" expands into the p-basis and substitutes power sums
    (same homomorphism, kept as an independent cross-check).
    """
    if profile.is_mrea:
        raise ValueError("Schur parametrization applies to the h = 0 mode")
    q = profile.q
    if lam == Partition.rectangle(profile.m, profile.n):
        acc = Scalar.one(profile.table)
        for mu in profile.mus:
            for nu in profile.nus:
                acc = acc * (q.inv() * mu - q * nu)
        return acc
    expr = jacobi_trudi(lam, profile.table)
    if route == "a":
        return eval_symexpr(expr, profile)
    if route == "p":
        conv = NewtonConverter(profile.q)
        pexpr = conv.to_p_basis(expr)
        total = Scalar.zero(profile.table)
        for mono, coeff in pexpr.terms.items():
            val = coeff
            for k, e in mono:
                val = val * power_sum_param(k, profile) ** e
            total = total + val
        return total
    raise ValueError(f"unknown route {route!r}")


def elementary_symmetric(vals: Sequence[Scalar], k: int, table: SymbolTable) -> Scalar:
    """Plain elementary symmetric polynomial e_k of explicit values."""
    if k == 0:
        return Scalar.one(table)
    if k > len(vals):
        return Scalar.zero(table)
    acc: dict = {0: Scalar.one(table)}
    for v in vals:
        nxt = dict(acc)
        for deg in sorted(acc, reverse=True):
            if deg + 1 <= k:
                add = acc[deg] * v
                nxt[deg + 1] = nxt.get(deg + 1, Scalar.zero(table)) + add
        acc = nxt
    return acc.get(k, Scalar.zero(table))


def vieta_checks(profile: EigenvalueProfile) -> list:
    """Root/coefficient consistency of the factorized Cayley-Hamilton form.

    even k: q^k s_{col k} / s_rect   = e_k(mu)
    odd  r: q^-r s_{row r} / s_rect  = (-1)^r e_r(nu)
    Verified as exact cross-multiplied identities on the general-route values.
    Returns [(name, bool)].
    """
    q = profile.q
    table = profile.table
    m, n = profile.m, profile.n
    rect = schur_param(Partition.rectangle(m, n), profile)
    results = []
    for k in range(1, m + 1):
        lhs = (q ** k) * eval_symexpr(
            jacobi_trudi(Partition.rectangle_plus_column(m, n, k), table), profile)
        rhs = elementary_symmetric(profile.mus, k, table) * rect
        results.append((f"even_{k}", lhs == rhs))
    for r in range(1, n + 1):
        lhs = (q.inv() ** r) * eval_symexpr(
            jacobi_trudi(Partition.rectangle_with_row(m, n, r), table), profile)
        sign = Fraction(-1) if r % 2 == 1 else Fraction(1)
        rhs = elementary_symmetric(profile.nus, r, table) * rect * sign
        results.append((f"odd_{r}", lhs == rhs))
    return results
