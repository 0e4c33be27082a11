"""Braided orbits: regularity, Hankel data, and cotangent idempotents.

An orbit is the quotient of the reflection equation algebra fixing the first
s = m+n quantum power sums at their parametrized values.  The gradient matrix
A of those power sums and its pairing row matrix B multiply to the Hankel
matrix (p_{k+l-2}) of power-sum elements; when the Hankel matrix H of their
values is invertible (the regularity condition on the eigenvalues) the
element ebar = A H^-1 B is an idempotent over the quotient and its
complement realizes the 1-form module.

Idempotency is certified through the Hankel lemma: H has scalar entries,
so ebar^2 - ebar = A H^-1 (BA - H) H^-1 B, which lies in the orbit ideal once
BA = (p_{k+l-2}) holds word by word in the free algebra, p_0 = Tr_R(I), and
p_j is its value modulo the orbit ideal for j <= 2s - 2.  For j <= s that is
a generator; above s it is a reduction on normal words of the algebra: the
orbit generators p_k - c_k are central, certified so, and the orbit ideal
modulo the relations is spanned by the normal forms of u g, with u a normal
word; an element vanishes on the orbit when its normal form lies in that
span.  The normal form is the one of `RelationSpace.quotient`: graded for
the plain algebra, filtered for the modified algebra, at every q.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    DegenerateProfile,
    ExceptionalProfile,
    IdentityFailed,
    PoleAtPoint,
    RecurrenceMismatch,
    ResourceLimit,
    ShiftUnavailable,
)
from .graded import by_degree, ideal_span
from .hecke import HeckeSymmetry, rtrace
from .linalg import MatrixS, det_bareiss, inverse
from .rea import (
    WORD_SPACE_CAP,
    NCPoly,
    RelationSpace,
    l_powers,
    nc_matmul,
    relation_space,
)
from .scalar import Scalar, SymbolTable, clear, ratio
from .symfun import (
    EigenvalueProfile,
    ch_coefficients,
    eval_symexpr,
    power_sum_param,
    quantum_dims,
)


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------


@dataclass
class RegularityVerdict:
    regular: bool
    violated: list                      # (kind, i, j) with 1-based indices
    det_hankel: Optional[Scalar] = None

    def __bool__(self) -> bool:
        return self.regular


def regularity(profile: EigenvalueProfile, with_det: bool = False) -> RegularityVerdict:
    """Exceptional-set membership test on the eigenvalue profile.

    Plain mode checks mu_i != q^2 mu_j, nu_i != q^2 nu_j, mu_i != q^2 nu_j
    over the relevant index pairs; the shifted mode adds the central term
    (-q^-1 h on the q^-2 side, +q h on the q^2 side).  Pairwise-distinct
    eigenvalues are additionally required because the quantum dimensions
    have poles at coincident values.
    """
    q, h = profile.q, profile.h
    mus, nus = profile.mus, profile.nus
    violated = []

    def check(kind, i, j, expr):
        if expr.is_zero():
            violated.append((kind, i + 1, j + 1))

    if not profile.is_mrea:
        q2 = q ** 2
        for i, a in enumerate(mus):
            for j, b in enumerate(mus):
                if i != j:
                    check("even-even", i, j, a - q2 * b)
        for i, a in enumerate(nus):
            for j, b in enumerate(nus):
                if i != j:
                    check("odd-odd", i, j, a - q2 * b)
        for i, a in enumerate(mus):
            for j, b in enumerate(nus):
                check("even-odd", i, j, a - q2 * b)
    else:
        qi2 = q.inv() ** 2
        q2 = q ** 2
        sm = q.inv() * h
        sp = q * h
        for i, a in enumerate(mus):
            for j, b in enumerate(mus):
                if i != j:
                    check("even-even", i, j, a - qi2 * b - sm)
        for i, a in enumerate(nus):
            for j, b in enumerate(nus):
                if i != j:
                    check("odd-odd", i, j, a - q2 * b + sp)
        for i, a in enumerate(mus):
            for j, b in enumerate(nus):
                check("even-odd", i, j, a - q2 * b + sp)
    # coincident eigenvalues are poles of the quantum dimensions, hence
    # excluded on top of the determinant condition
    for i in range(len(mus)):
        for j in range(i + 1, len(mus)):
            check("even-coincident", i, j, mus[i] - mus[j])
    for i in range(len(nus)):
        for j in range(i + 1, len(nus)):
            check("odd-coincident", i, j, nus[i] - nus[j])
    for i, a in enumerate(mus):
        for j, b in enumerate(nus):
            check("mixed-coincident", i, j, a - b)
    det = None
    if with_det and not violated:
        det = det_bareiss(hankel(profile))
    return RegularityVerdict(regular=not violated, violated=violated, det_hankel=det)


# ---------------------------------------------------------------------------
# Hankel matrix of parametrized power sums
# ---------------------------------------------------------------------------


def hankel(profile: EigenvalueProfile) -> MatrixS:
    """(m+n) x (m+n) matrix with entry (k,l) = p_{k+l-2}; top-left is p_0."""
    size = profile.m + profile.n
    rows = [[power_sum_param(k + l, profile) for l in range(size)] for k in range(size)]
    return MatrixS(profile.table, rows)


def hankel_det_target(profile: EigenvalueProfile) -> Scalar:
    """prod d_i prod d'_j (prod_{i<j}(mu_i-mu_j) prod(mu_i-nu_j) prod_{i<j}(nu_i-nu_j))^2."""
    dims = quantum_dims(profile)
    table = profile.table
    acc = Scalar.one(table)
    for d in dims.d + dims.dprime:
        acc = acc * d
    van = Scalar.one(table)
    mus, nus = profile.mus, profile.nus
    for i in range(len(mus)):
        for j in range(i + 1, len(mus)):
            van = van * (mus[i] - mus[j])
    for a in mus:
        for b in nus:
            van = van * (a - b)
    for i in range(len(nus)):
        for j in range(i + 1, len(nus)):
            van = van * (nus[i] - nus[j])
    return acc * van * van


def hankel_det_check(m: int, n: int, strategy: str = "symbolic",
                     seed: int = 0, trials: int = 7) -> bool:
    """Verify det(Hankel) equals its factorized closed form for bi-rank (m|n).

    symbolic: exact identity over the fully symbolic profile.
    sampled: exact evaluation at `trials` pseudo-random rational points drawn
    from the same deterministic generator as the scalar identity tester.
    """
    if strategy == "symbolic":
        prof = _symbolic_profile(m, n)
        det = det_bareiss(hankel(prof))
        target = hankel_det_target(prof)
        if det != target:
            raise IdentityFailed(f"Hankel determinant mismatch for ({m}|{n})")
        return True
    if strategy == "sampled":
        rng = random.Random(seed)
        span = 2 ** 31
        done = 0
        attempts = 0
        while done < trials:
            attempts += 1
            if attempts > 10 * trials + 20:
                raise ResourceLimit("too many degenerate redraws in sampled check")
            binding = {"q": Fraction(rng.randint(1, span), rng.randint(1, span))}
            for i in range(1, m + 1):
                binding[f"mu{i}"] = Fraction(rng.randint(1, span), rng.randint(1, span))
            for j in range(1, n + 1):
                binding[f"nu{j}"] = Fraction(rng.randint(1, span), rng.randint(1, span))
            table = SymbolTable(())
            try:
                prof = EigenvalueProfile(
                    [Scalar.from_fraction(table, binding[f"mu{i}"]) for i in range(1, m + 1)],
                    [Scalar.from_fraction(table, binding[f"nu{j}"]) for j in range(1, n + 1)],
                    Scalar.from_fraction(table, binding["q"]))
                det = det_bareiss(hankel(prof))
                target = hankel_det_target(prof)
            except (DegenerateProfile, PoleAtPoint):
                continue
            if det != target:
                raise IdentityFailed(f"Hankel determinant fails at {binding}")
            done += 1
        return True
    raise ValueError(f"unknown strategy {strategy!r}")


def _symbolic_profile(m: int, n: int) -> EigenvalueProfile:
    table = SymbolTable.for_profile(m, n)
    q = Scalar.from_symbol(table, "q")
    mus = [Scalar.from_symbol(table, f"mu{i}") for i in range(1, m + 1)]
    nus = [Scalar.from_symbol(table, f"nu{j}") for j in range(1, n + 1)]
    return EigenvalueProfile(mus, nus, q)


# ---------------------------------------------------------------------------
# gradient matrices
# ---------------------------------------------------------------------------


def gradient_matrices(hs: HeckeSymmetry, size: int) -> tuple:
    """(A, B): gradient columns of the power sums and their pairing rows.

    Position (i, j) of the flattened matrix index is j*N + i; column k of A
    holds (L^(k-1) C)[j][i], row k of B holds (L^(k-1))[i][j], so that
    (B A)_{kl} = Tr_R L^(k+l-2) holds word by word in the free algebra.
    Both come off one ladder of L powers.
    """
    N = hs.N
    cmat = [[NCPoly.const(N, hs.table, v) for v in row] for row in hs.c_op.data]
    A = [[None] * size for _ in range(N * N)]
    B = [[None] * (N * N) for _ in range(size)]
    for k, lk in enumerate(l_powers(hs, size - 1)):
        lc = nc_matmul(lk, cmat)
        for i in range(N):
            for j in range(N):
                A[j * N + i][k] = lc[j][i]
                B[k][j * N + i] = lk[i][j]
    return A, B


def free_hankel_identity(hs: HeckeSymmetry, A: list, B: list) -> bool:
    """(B A)_{kl} = Tr_R L^{k+l-2} as words in the free algebra, for the
    gradient matrices (A, B) of `gradient_matrices`."""
    size = len(B)
    ba = nc_matmul(B, A)
    expect = [rtrace(lk, hs) for lk in l_powers(hs, 2 * size - 2)]
    return all(ba[k][l] == expect[k + l] for k in range(size) for l in range(size))


# ---------------------------------------------------------------------------
# higher power sums via the Cayley-Hamilton recurrence
# ---------------------------------------------------------------------------


def ch_values(profile: EigenvalueProfile) -> list:
    """Cayley-Hamilton coefficient values on an h = 0 profile (descending powers)."""
    return [eval_symexpr(c, profile)
            for c in ch_coefficients(profile.m, profile.n, profile.q)]


def hatted_ch_values(profile: EigenvalueProfile) -> list:
    """Shift-expanded coefficient values for the modified algebra.

    Unhat the eigenvalues (mu = muhat - h/xi), evaluate the plain
    coefficients there, then redistribute binomially so that the identity is
    grouped in powers of the shifted generating matrix.  Needs q != 1; the
    q = 1 limit is taken by the caller through a symbolic-q detour.
    """
    q, h = profile.q, profile.h
    xi = q - q.inv()
    if xi.is_zero():
        raise ShiftUnavailable("the shift expansion needs q != 1")
    s = h * xi.inv()
    base = EigenvalueProfile([mu - s for mu in profile.mus],
                             [nu - s for nu in profile.nus], q)
    plain = ch_values(base)
    size = profile.m + profile.n
    hatted = []
    for j in range(size + 1):
        acc = Scalar.zero(profile.table)
        for i in range(j + 1):
            acc = acc + plain[i] * math.comb(size - i, size - j) * ((-s) ** (j - i))
        hatted.append(acc)
    return hatted


def _hatted_ch_values_q1(profile: EigenvalueProfile) -> list:
    """q -> 1 limit of the shifted coefficients through a symbolic-q detour.

    The individual shift terms have poles in q - 1/q; the collected
    coefficients do not, so substituting q = 1 after normalization is exact.
    The detour runs over the profile's table plus a fresh symbol for q.
    """
    table = profile.table
    name = "q"
    while name in table:
        name += "_"
    wide = SymbolTable(table.names + (name,))
    sym_profile = EigenvalueProfile([mu.lift(wide) for mu in profile.mus],
                                    [nu.lift(wide) for nu in profile.nus],
                                    Scalar.from_symbol(wide, name), profile.h.lift(wide))
    return [c.substitute({name: 1}).lift(table) for c in hatted_ch_values(sym_profile)]


def orbit_coefficients(profile: EigenvalueProfile) -> tuple:
    """(Cayley-Hamilton coefficient values, orbit mode) of a profile.

    braided: h = 0, the plain values; nc: the shift-expanded values at
    q != 1; nc-classical: their q -> 1 limit.
    """
    if not profile.is_mrea:
        return ch_values(profile), "braided"
    if (profile.q - profile.q.inv()).is_zero():
        return _hatted_ch_values_q1(profile), "nc-classical"
    return hatted_ch_values(profile), "nc"


def higher_power_reduction(profile: EigenvalueProfile, top: int,
                           coeff_values: Optional[list] = None) -> list:
    """p_k for k = m+n+1..top via the recurrence; checked against the
    parametrized values.  Returns the recurrence values."""
    size = profile.m + profile.n
    if coeff_values is None:
        coeff_values, _ = orbit_coefficients(profile)
    lead = coeff_values[0]
    if lead.is_zero():
        raise ExceptionalProfile("leading Cayley-Hamilton coefficient vanishes")
    known = {k: power_sum_param(k, profile) for k in range(size + 1)}
    out = []
    for t in range(size + 1, top + 1):
        acc = Scalar.zero(profile.table)
        for i in range(1, size + 1):
            acc = acc + coeff_values[i] * known[t - i]
        val = -(acc / lead)
        expected = power_sum_param(t, profile)
        if val != expected:
            raise RecurrenceMismatch(
                f"recurrence p_{t} = {val} but parametrization gives {expected}")
        known[t] = val
        out.append(val)
    return out


# ---------------------------------------------------------------------------
# orbit ideal reduction
# ---------------------------------------------------------------------------


class OrbitIdealReducer:
    """Membership in the degree-truncated orbit ideal.

    The orbit ideal is the relation ideal of `rs` plus the two-sided ideal of
    the inhomogeneous orbit generators, certified central.  Its image modulo
    the relations is spanned by NF(u g) over normal words u
    (`graded.ideal_span`), echelonized once with top-degree columns first,
    so generators pivot on their power-sum parts; reducing against that
    unique echelon basis gives canonical residuals.  The normal forms are
    those of `rs.quotient`, plain or modified alike.  An element with a
    coefficient that is not constant is scaled by the lcm L of their
    denominators first (``scalar.clear``) and its residual by 1/L, so the
    reduction runs on polynomial entries.
    """

    def __init__(self, rs: RelationSpace, extra_generators: Sequence[NCPoly],
                 max_degree: int):
        N = rs.hs.N
        size = sum((N * N) ** d for d in range(max_degree + 1))
        if size > WORD_SPACE_CAP:
            raise ResourceLimit(
                f"word space of dimension {size} exceeds cap {WORD_SPACE_CAP}")
        self.N = N
        self.table = rs.hs.table
        self.max_degree = max_degree
        self.quotient = rs.membership_reducer(max_degree)
        self.space = ideal_span(self.quotient, [g.terms for g in extra_generators],
                                max_degree)

    def reduce(self, x: NCPoly) -> NCPoly:
        if x.max_degree() > self.max_degree:
            raise ResourceLimit(
                f"element degree {x.max_degree()} above reducer degree {self.max_degree}")
        terms, table = x.terms, self.table
        scaled = not all(c.is_constant() for c in terms.values())
        if scaled:
            common, nums = clear(list(terms.values()))
            one = common ** 0  # the 1 of common's ring
            terms = {w: ratio(n, one, table) for w, n in zip(terms, nums)}
        res = self.space.reduce(by_degree(self.quotient.normal_form(terms)))
        out = NCPoly(self.N, table, {w: c for (_, w), c in res.items()})
        return out.scale(ratio(one, common, table)) if scaled else out


# ---------------------------------------------------------------------------
# cotangent pipeline
# ---------------------------------------------------------------------------


@dataclass
class OrbitQuotient:
    targets: list            # parametrized p_1..p_{m+n}
    mode: str                # "braided" | "nc" | "nc-classical"


@dataclass
class CotangentData:
    """The certified idempotent ebar = A H^-1 B of a regular orbit."""

    H: MatrixS               # Hankel matrix of parametrized power sums
    ebar: list               # N^2 x N^2 idempotent (NCPoly entries)
    certificates: dict       # verdicts by name, and the truncation the lemma reduced at
    not_closed: Optional[str] = None   # the p_j the lemma left unreduced, and where


def hankel_lemma(hs: HeckeSymmetry, profile: EigenvalueProfile, H: MatrixS,
                 targets: Sequence[Scalar]) -> tuple:
    """Reduce ebar^2 - ebar into the orbit ideal I of `targets` (p_1..p_s).

    H has scalar entries, so ebar^2 - ebar = A H^-1 (BA - H) H^-1 B, and
    with the free Hankel identity the entries of BA - H are p_j - c_j, c_j
    the Hankel value at index j.  They lie in I when H is a Hankel matrix,
    c_0 = Tr_R(I), c_j is the orbit target for j <= s, and p_j - c_j reduces
    to zero in I for s < j <= 2s - 2; a failed scalar condition raises
    `IdentityFailed`.  The reductions run at truncation 2s - 2, then at
    2s - 2 + mn, the degree at which the leading coefficient of the (m|n)
    Cayley-Hamilton identity times p_j first appears.  For s <= 2 no reducer
    is built.  Returns (the last truncation reduced at, the first j whose
    p_j did not reduce there); (None, None) when nothing was to reduce.
    """
    s = len(targets)
    values = {}
    for k, row in enumerate(H.data):
        for l, v in enumerate(row):
            if values.setdefault(k + l, v) != v:
                raise IdentityFailed(f"H is not a Hankel matrix at ({k + 1}, {l + 1})")
    if values[0] != hs.c_op.trace():
        raise IdentityFailed(f"p_0 = {values[0]} is not Tr_R(I) = {hs.c_op.trace()}")
    for j in range(1, min(s, 2 * s - 2) + 1):
        if values[j] != targets[j - 1]:
            raise IdentityFailed(
                f"Hankel value p_{j} = {values[j]} is not the orbit target {targets[j - 1]}")
    open_js = list(range(s + 1, 2 * s - 1))
    if not open_js:
        return None, None

    def const(c):
        return NCPoly.const(hs.N, hs.table, c)

    psums = [rtrace(lk, hs) for lk in l_powers(hs, 2 * s - 2)]
    gens = [psums[k] - const(t) for k, t in enumerate(targets, 1)]
    rest = {j: psums[j] - const(values[j]) for j in open_js}
    rs = (relation_space(hs, "mrea", profile.h) if profile.is_mrea
          else relation_space(hs, "minus"))
    for truncation in sorted({2 * s - 2, 2 * s - 2 + profile.m * profile.n}):
        reducer = OrbitIdealReducer(rs, gens, truncation)
        open_js = [j for j in open_js if not reducer.reduce(rest[j]).is_zero()]
        if not open_js:
            return truncation, None
    return truncation, open_js[0]


def nc_orbit(hs: HeckeSymmetry, profile: EigenvalueProfile,
             coefficients: Optional[tuple] = None) -> tuple:
    """Orbit quotient and certified idempotent of a regular profile.

    The profile picks the algebra: the plain one for h = 0, the modified
    one otherwise, at every q and for every symmetry whose modified
    relations are a PBW deformation of the plain ones.  Idempotency is
    certified through `hankel_lemma`; `entrywise` holds when it closes.
    `coefficients` is the profile's `orbit_coefficients`, when the caller
    has them already.
    """
    verdict = regularity(profile)
    if not verdict.regular:
        raise ExceptionalProfile(f"profile is exceptional: {verdict.violated}")
    size = profile.m + profile.n
    H = hankel(profile)
    if det_bareiss(H).is_zero():
        raise ExceptionalProfile("Hankel matrix is singular on this profile")
    coeffs, mode = coefficients or orbit_coefficients(profile)
    higher_power_reduction(profile, max(2 * size - 2, size + 1), coeff_values=coeffs)
    targets = [power_sum_param(k, profile) for k in range(1, size + 1)]
    A, B = gradient_matrices(hs, size)
    free = free_hankel_identity(hs, A, B)
    certificates = {"regular": True, "free_hankel": free, "power_recurrence": True,
                    "entrywise": free}
    not_closed = None
    if free:
        truncation, j = hankel_lemma(hs, profile, H, targets)
        if truncation is not None:
            certificates["reduction_degree"] = truncation
        if j is not None:
            certificates["entrywise"] = False
            not_closed = f"p_{j} at truncation {truncation}"
    hinv = [[NCPoly.const(hs.N, hs.table, v) for v in row] for row in inverse(H).data]
    ebar = nc_matmul(nc_matmul(A, hinv), B)
    data = CotangentData(H=H, ebar=ebar, certificates=certificates, not_closed=not_closed)
    return OrbitQuotient(targets=targets, mode=mode), data


def cotangent(hs: HeckeSymmetry, profile: EigenvalueProfile) -> CotangentData:
    """Build and certify the cotangent idempotent over a regular orbit."""
    _, data = nc_orbit(hs, profile)
    # derived, not checked: (1 - ebar)^2 - (1 - ebar) = ebar^2 - ebar in any ring
    data.certificates["complement_idempotent"] = data.certificates["entrywise"]
    return data
