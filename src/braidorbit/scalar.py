"""Exact scalar arithmetic: rationals, multivariate polynomials, rational functions.

Every coefficient in the engine lives in the field of fractions of
Q[x1,...,xn] for a declared, ordered set of symbols.  Canonical forms are
pinned down once and used everywhere:

* monomials are compared by total degree, ties broken lexicographically in
  the symbol-table order (grlex);
* a ``Scalar`` has two representations.  A constant carries its value as
  two coprime ints, numerator and positive denominator, and no polynomials,
  so numeric-q pipelines never enter the polynomial code; its arithmetic is
  the cross-gcd integer arithmetic of CPython's ``fractions``, without a
  ``Fraction`` object, and a ``Fraction`` is built only when one is read
  (``const_or_none``, ``as_fraction``) or meets a ``Poly``.  Any other
  value stores a coprime numerator/denominator ``Poly`` pair, the
  denominator normalized to leading coefficient 1 under that order.  The
  invariant is: a ``Scalar`` is constant exactly when it carries the ints.

A ``Poly`` is stored cleared: an integral polynomial, {exponent tuple:
int}, over one positive int denominator coprime to its content, so equal
polynomials store equal pairs.  Sums, products, powers, exact division and
the gcd all run on those ints, in an integer kernel, and ``Fraction``
coefficients are built only when ``terms`` is read (printing, evaluation,
substitution).  Products and powers pack each monomial into one int in a
base above every exponent of the result, so a product monomial is a sum of
two keys and no term pair builds a tuple.
Exact division is one grlex pass over a max-heap of packed monomials, so
the remainder is never rescanned; by Gauss's lemma a primitive divisor
divides exactly when the quotient is integral, so the first leading
coefficient that does not divide ends the pass with no quotient.  The
multivariate gcd is a heuristic gcd with a division certificate: it
evaluates at large integers, reads a candidate back from the digits of an
integer gcd and accepts it only when it divides both inputs exactly.  The
quotients of those divisions are the cofactors, so the gcd returns them
with it and a fraction is reduced without dividing by its gcd again.  Its
fallback is recursive content/primitive-part decomposition with Brown's
subresultant pseudo-remainder sequence.  All of it runs in Z[x], so no
factorization is ever required.

Fraction-free work elsewhere (Bareiss, the validation residuals, the
power-sum series, the orbit reducer) multiplies its values by the lcm of
their denominators and runs in Z or in Z[x].  ``clear_rows`` (and
``clear``, its one-row case) alone picks that ring, ints when every value is
constant and Polys otherwise, and ``ratio`` turns a result back into a
Scalar; a ``Poly`` is a ring element there, with ``bool`` and an exact
``//`` as on ints.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd as int_gcd
from math import lcm as int_lcm
from operator import add, mul, sub
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    DivisionByZero,
    ParseError,
    PoleAtPoint,
    ResourceLimit,
    UnboundSymbol,
)

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

_ZERO = Fraction(0)


class SymbolTable:
    """Ordered, immutable list of symbol names.

    The order fixes the canonical monomial order for every polynomial built
    over the table.  Names like ``q``, ``h``, ``mu1``, ``nu1`` carry the
    conventional roles (deformation parameter, central shift, even/odd
    eigenvalues) but any name matching ``[a-z][a-z0-9_]*`` is accepted.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str] = ()):
        names = tuple(names)
        for name in names:
            if not _NAME_RE.match(name):
                raise ParseError(f"invalid symbol name {name!r}")
        if len(set(names)) != len(names):
            raise ParseError("symbol names must be unique")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"SymbolTable({list(self.names)!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnboundSymbol(f"symbol {name!r} not in table {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    @staticmethod
    def for_profile(m: int, n: int, *, with_h: bool = False) -> "SymbolTable":
        """Table with the conventional names for an (m|n) eigenvalue profile."""
        names = ["q"] + (["h"] if with_h else [])
        names += [f"mu{i}" for i in range(1, m + 1)]
        names += [f"nu{j}" for j in range(1, n + 1)]
        return SymbolTable(names)


EMPTY_TABLE = SymbolTable(())


def _mono_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


class Poly:
    """Multivariate polynomial with exact rational coefficients.

    Immutable, and stored cleared: p = _P/_d, where ``_P`` maps exponent
    tuples (one entry per table symbol) to nonzero ints and the int
    ``_d > 0`` is coprime to the content of ``_P``.  That pair is unique, so
    equality is syntactic, and all arithmetic runs on it.  ``terms``, the
    {exponent tuple: Fraction} view, is built only when it is read.
    """

    __slots__ = ("table", "_P", "_d", "_terms", "_hash")

    def __new__(cls, table: SymbolTable, terms: Mapping[tuple, Fraction]):
        """The polynomial with these coefficients, cleared over their lcm."""
        d = 1
        for c in terms.values():
            cd = c.denominator
            if cd != 1:
                d = d * cd // int_gcd(d, cd)
        return _from_int(table, {e: c.numerator * (d // c.denominator)
                                 for e, c in terms.items() if c}, d)

    @property
    def terms(self) -> dict:
        """{exponent tuple: nonzero Fraction}, built on first read."""
        if self._terms is None:
            d = self._d
            self._terms = {e: Fraction(c, d) for e, c in self._P.items()}
        return self._terms

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(table: SymbolTable) -> "Poly":
        return _from_int(table, {}, 1)

    @staticmethod
    def const(table: SymbolTable, value) -> "Poly":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return _from_int(table, {(0,) * len(table): value.numerator} if value else {},
                         value.denominator)

    @staticmethod
    def symbol(table: SymbolTable, name: str) -> "Poly":
        i = table.index(name)
        return _from_int(table, {tuple(1 if j == i else 0 for j in range(len(table))): 1}, 1)

    def lift(self, table: SymbolTable) -> "Poly":
        """Re-express over another table containing all used symbols."""
        if table == self.table:
            return self
        mapping = [(i, table.index(self.table.names[i])) for i in sorted(self.variables())]
        width = len(table)
        P = {}
        for e, c in self._P.items():
            ne = [0] * width
            for i, pos in mapping:
                ne[pos] = e[i]
            P[tuple(ne)] = c
        return _from_int(table, P, self._d)

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._P

    def __bool__(self) -> bool:
        return bool(self._P)

    def is_constant(self) -> bool:
        P = self._P
        return not P or (len(P) == 1 and not any(next(iter(P))))

    def const_or_none(self) -> Optional[Fraction]:
        P = self._P
        if not P:
            return _ZERO
        if len(P) == 1:
            ((e, c),) = P.items()
            if not any(e):
                return Fraction(c, self._d)
        return None

    def variables(self) -> set:
        used = set()
        for e in self._P:
            for i, x in enumerate(e):
                if x:
                    used.add(i)
        return used

    def leading(self) -> tuple:
        """(exponent tuple, coefficient) of the grlex-leading monomial."""
        if not self._P:
            raise ValueError("zero polynomial has no leading term")
        e = max(self._P, key=_mono_key)
        return e, Fraction(self._P[e], self._d)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.table is not other.table and self.table != other.table:
            raise ValueError("symbol tables differ")

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        """self + sign*other over the lcm of the two denominators."""
        self._check(other)
        d, e = self._d, other._d
        g = int_gcd(d, e)
        u, v = e // g, sign * (d // g)
        out = dict(self._P) if u == 1 else {k: c * u for k, c in self._P.items()}
        get = out.get
        for k, c in other._P.items():
            c = get(k, 0) + c * v
            if c:
                out[k] = c
            else:
                del out[k]
        return _from_int(self.table, out, d * u)

    def __add__(self, other: "Poly") -> "Poly":
        return self._plus(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._plus(other, -1)

    def __neg__(self) -> "Poly":
        return _from_int(self.table, {e: -c for e, c in self._P.items()}, self._d)

    def __mul__(self, other: "Poly") -> "Poly":
        """(P/d)(Q/e) = PQ/(de), with the product PQ taken in the integer kernel."""
        self._check(other)
        if not self._P or not other._P:
            return _from_int(self.table, {}, 1)
        return _from_int(self.table, _zmul(self._P, other._P), self._d * other._d)

    def scale(self, c) -> "Poly":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if not c:
            return _from_int(self.table, {}, 1)
        n = c.numerator
        P = self._P if n == 1 else {e: k * n for e, k in self._P.items()}
        return _from_int(self.table, P, self._d * c.denominator)

    def __floordiv__(self, other: "Poly") -> "Poly":
        """The exact quotient, as ``//`` is on ints that divide."""
        q = poly_div_exact(self, other)
        if q is None:
            raise ArithmeticError("inexact polynomial division")
        return q

    def __pow__(self, n: int) -> "Poly":
        """(P/d)^n = P^n/d^n, with the power taken in the integer kernel."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if not self._P:
            return Poly.const(self.table, 1) if n == 0 else self
        return _from_int(self.table, _zpow(self._P, n), self._d ** n)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.table == other.table
                and self._d == other._d and self._P == other._P)

    def __hash__(self) -> int:
        """hash((table, frozenset(terms.items()))); an int coefficient hashes
        as the Fraction it equals, so over denominator 1 no Fraction is built."""
        if self._hash is None:
            items = self._P.items() if self._d == 1 else self.terms.items()
            self._hash = hash((self.table, frozenset(items)))
        return self._hash

    # -- evaluation -------------------------------------------------------

    def evaluate(self, bindings: Mapping[str, Fraction]) -> Fraction:
        used = self.variables()
        point = {}
        for i in used:
            name = self.table.names[i]
            if name not in bindings:
                raise UnboundSymbol(f"symbol {name!r} unbound")
            point[i] = Fraction(bindings[name])
        total = _ZERO
        for e, c in self.terms.items():
            v = c
            for i, exp in enumerate(e):
                if exp:
                    v *= point[i] ** exp
            total += v
        return total

    def substitute(self, bindings: Mapping[str, Fraction]) -> "Poly":
        """Partially bind symbols to exact rationals; the table is unchanged."""
        idx = {self.table.index(n): Fraction(v) for n, v in bindings.items()}
        out: dict = {}
        for e, c in self.terms.items():
            v = c
            ne = list(e)
            for i, x in idx.items():
                if ne[i]:
                    v *= x ** ne[i]
                    ne[i] = 0
            if not v:
                continue
            key = tuple(ne)
            s = out.get(key, _ZERO) + v
            if s:
                out[key] = s
            else:
                del out[key]
        return Poly(self.table, out)

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._P:
            return "0"
        items = sorted(self.terms.items(), key=lambda t: _mono_key(t[0]), reverse=True)
        parts = []
        for e, c in items:
            factors = []
            for name, exp in zip(self.table.names, e):
                if exp == 1:
                    factors.append(name)
                elif exp > 1:
                    factors.append(f"{name}^{exp}")
            mono = "*".join(factors)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            parts.append(("-" if c < 0 else "+", body))
        sign0, body0 = parts[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# the integer kernel: products, powers, exact division and the gcd
# ---------------------------------------------------------------------------
#
# The kernel works on integer polynomials, dicts {exponent tuple: int}: the
# _P of a Poly is one, read as it is stored, and every result becomes a Poly
# through _from_int.  No kernel function mutates a dict it receives: the
# stored forms are shared.

_new_object = object.__new__


def _from_int(table: SymbolTable, P: dict, d: int) -> Poly:
    """The Poly P/d (P integral without zero terms, d > 0); every Poly is made here.

    Dividing P and d by g = gcd(d, content of P) leaves d the lcm of the
    denominators of p's coefficients, so the stored pair is canonical.
    """
    if d != 1:
        g = int_gcd(d, *P.values())
        if g != 1:
            P = {e: c // g for e, c in P.items()}
            d //= g
    p = _new_object(Poly)
    p.table = table
    p._P = P
    p._d = d
    p._terms = p._hash = None
    return p


def _zcontent(P: dict) -> int:
    """Integer content of P, signed like its grlex-leading coefficient."""
    g = int_gcd(*P.values())
    return -g if P[max(P, key=_mono_key)] < 0 else g


def _zprimitive(P: dict) -> dict:
    """P over its signed content: primitive, positive grlex-leading coefficient."""
    g = _zcontent(P)
    return P if g == 1 else {e: c // g for e, c in P.items()}


def _zone(P: dict) -> dict:
    """The constant 1 over the exponent width of P."""
    return {(0,) * len(next(iter(P))): 1}


def _zis_const(P: dict) -> bool:
    return len(P) == 1 and not any(next(iter(P)))


def _pack(P: dict, base: int) -> dict:
    """P with each exponent tuple e packed into sum(e_i * base^(width-1-i))."""
    width = len(next(iter(P)))
    w = [base ** i for i in range(width - 1, -1, -1)]
    return {sum(map(mul, e, w)): c for e, c in P.items()}


def _unpack(K: dict, base: int, width: int) -> dict:
    """K with each packed key unpacked into its exponent tuple."""
    out = {}
    digits = range(width - 1, -1, -1)
    for k, c in K.items():
        e = [0] * width
        for i in digits:
            k, e[i] = divmod(k, base)
        out[tuple(e)] = c
    return out


def _kmul(a: dict, b: dict) -> dict:
    """Product of packed polynomials, without the terms that cancel."""
    out: dict = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _zmul(a: dict, b: dict) -> dict:
    """a*b on packed monomials.

    With base B = (max exponent of a) + (max exponent of b) + 1 no exponent
    of a product monomial reaches B, so packing has no carries and the
    product of two monomials is the sum of their keys; only the terms that
    do not cancel are unpacked.  A monomial factor just shifts the other
    operand's exponents.
    """
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((ea, ca),) = a.items()
        if not any(ea):
            return {e: ca * c for e, c in b.items()}
        return {tuple(map(add, ea, e)): ca * c for e, c in b.items()}
    base = max(chain.from_iterable(a)) + max(chain.from_iterable(b)) + 1
    return _unpack(_kmul(_pack(a, base), _pack(b, base)), base, len(next(iter(a))))


def _zsub(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) - c
        if v:
            out[e] = v
        else:
            del out[e]
    return out


def _zneg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def _zscale(P: dict, c: int) -> dict:
    return P if c == 1 else {e: v * c for e, v in P.items()}


def _zpow(a: dict, n: int) -> dict:
    """a^n by repeated squaring on packed monomials, packed and unpacked once.

    With base B = n * (max exponent of a) + 1 no exponent of any partial
    product reaches B.  A monomial's exponents are just scaled.
    """
    if n == 0:
        return _zone(a)
    if len(a) == 1:
        ((e, c),) = a.items()
        return {tuple(x * n for x in e): c ** n}
    base = n * max(chain.from_iterable(a)) + 1
    x = _pack(a, base)
    result = None
    while True:
        if n & 1:
            result = x if result is None else _kmul(result, x)
        n >>= 1
        if not n:
            return _unpack(result, base, len(next(iter(a))))
        x = _kmul(x, x)


def _zdiv(F: dict, G: dict) -> Optional[dict]:
    """F/G when it lies in Z[x], else None (F, G nonzero and integral).

    One grlex division that never rescans the remainder.  Every exponent
    met is at most the total degree t of F, so a monomial e packs into the
    int sum(e_i * w_i) with w_i = B^n + B^(n-1-i) and B = t + 1: int order
    is grlex order, and a product of monomials is a sum of keys.  Each
    remainder monomial is pushed on a max-heap once, when it enters the
    remainder.  A term that cancels keeps its key with coefficient 0 until
    its entry is popped and skipped; if it reappears first, the same entry
    serves it.  A leading coefficient that lc(G) does not divide ends the
    division with None.
    """
    ge = max(G, key=_mono_key)
    lc = G[ge]
    if not any(ge):
        out = {}
        for e, c in F.items():
            qc, r = divmod(c, lc)
            if r:
                return None
            out[e] = qc
        return out
    top = max(map(sum, F))
    if sum(ge) > top:
        return None
    n = len(ge)
    base = top + 1
    span = base ** n
    weights = [span + base ** (n - 1 - i) for i in range(n)]
    rem = {sum(map(mul, e, weights)): c for e, c in F.items()}
    heap = [-k for k in rem]
    heapify(heap)
    gkey = sum(map(mul, ge, weights))
    tail = [(sum(map(mul, e, weights)), -c) for e, c in G.items() if e != ge]
    quot = {}
    while heap:
        k = -heappop(heap)
        c = rem.pop(k)
        if not c:
            continue
        # unpack the exponents of k and divide the monomial by lm(G)
        lex = k % span
        qe = [0] * n
        for i in range(n - 1, -1, -1):
            lex, x = divmod(lex, base)
            x -= ge[i]
            if x < 0:
                return None
            qe[i] = x
        qc, r = divmod(c, lc)
        if r:
            return None
        quot[tuple(qe)] = qc
        qk = k - gkey
        for tk, tc in tail:
            key = qk + tk
            v = rem.get(key)
            if v is None:
                rem[key] = qc * tc
                heappush(heap, -key)
            else:
                rem[key] = v + qc * tc
    return quot


def _zquo(F: dict, G: dict) -> dict:
    q = _zdiv(F, G)
    if q is None:
        raise ArithmeticError("inexact division in the subresultant chain")
    return q


def poly_div_exact(f: Poly, g: Poly) -> Optional[Poly]:
    """Exact quotient f/g, or None when g does not divide f.

    With f = F/d and g = c*G, F integral and G primitive, Gauss's lemma says
    that G divides F in Q[x] exactly when F/G lies in Z[x].  So the division
    runs over Z (``_zdiv``) and returns None at the first step whose leading
    coefficient lc(G) does not divide; the quotient is (F/G)/(d*c).
    """
    if g.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if f.is_zero():
        return f
    gc = g.const_or_none()
    if gc is not None:
        return f.scale(1 / gc)
    F, d = f._P, f._d
    G, dg = g._P, g._d
    cg = int_gcd(*G.values())
    if cg != 1:
        G = {e: c // cg for e, c in G.items()}
    quot = _zdiv(F, G)
    if quot is None:
        return None
    # f/g = (F/G) * dg / (d * cg)
    if dg != 1:
        quot = {e: c * dg for e, c in quot.items()}
    return _from_int(f.table, quot, d * cg)


def _int_content_normalized(p: Poly) -> tuple[Poly, Fraction]:
    """Split p = content * primitive with an integer-primitive, grlex-monic-sign part."""
    if p.is_zero():
        return p, _ZERO
    g = _zcontent(p._P)
    return _from_int(p.table, {e: c // g for e, c in p._P.items()}, 1), Fraction(g, p._d)


def _to_univariate(P: dict, var: int) -> dict:
    """View P as univariate in `var`: degree -> coefficient (var exponent 0)."""
    out: dict = {}
    for e, c in P.items():
        ne = list(e)
        ne[var] = 0
        out.setdefault(e[var], {})[tuple(ne)] = c
    return out


def _from_univariate(var: int, u: Mapping[int, dict]) -> dict:
    out = {}
    for d, coeff in u.items():
        for e, c in coeff.items():
            ne = list(e)
            ne[var] = d
            out[tuple(ne)] = c
    return out


def _uni_prem(f: dict, g: dict) -> dict:
    """Pseudo-remainder prem(f, g) of univariate polys with integral coefficients."""
    dg = max(g)
    lead_g = g[dg]
    r = dict(f)
    n = max(r) - dg
    while r and max(r) >= dg:
        dr = max(r)
        lead_r = r[dr]
        new = {d: _zmul(c, lead_g) for d, c in r.items() if d != dr}
        for d, c in g.items():
            if d == dg:
                continue
            key = d + dr - dg
            val = _zsub(new.get(key, {}), _zmul(lead_r, c))
            if val:
                new[key] = val
            else:
                new.pop(key, None)
        r = new
        n -= 1
    # prem multiplies f by lc(g)^(deg f - deg g + 1); the loop applied one
    # factor per reduction step, so pad to the standard normalization.
    if n >= 0 and r:
        pad = _zpow(lead_g, n + 1)
        r = {d: _zmul(c, pad) for d, c in r.items()}
    return r


def _uni_quo_ground(u: dict, p: dict) -> dict:
    return {d: _zquo(c, p) for d, c in u.items()}


def _poly_list_gcd(polys: Sequence[dict]) -> dict:
    acc = None
    for p in polys:
        acc = p if acc is None else _zgcd(acc, p)[0]
        if _zis_const(acc):
            return _zone(acc)
    return acc


def _uni_content(u: dict) -> dict:
    return _poly_list_gcd(list(u.values()))


def _subresultant_last(f: dict, g: dict) -> dict:
    """Last nonzero element of the subresultant PRS of f, g (deg f >= deg g)."""
    n, m = max(f), max(g)
    d = n - m
    h = _uni_prem(f, g)
    if d % 2 == 0:
        h = {k: _zneg(c) for k, c in h.items()}
    lc = g[m]
    c = _zneg(_zpow(lc, d))
    last = g
    while h:
        k = max(h)
        last = h
        f, g, m, d = g, h, k, m - k
        b = _zneg(_zmul(lc, _zpow(c, d)))
        h = _uni_quo_ground(_uni_prem(f, g), b)
        lc = g[k]
        if d > 1:
            c = _zquo(_zpow(_zneg(lc), d), _zpow(c, d - 1))
        else:
            c = _zneg(lc)
    return last


def _zeval(P: dict, var: int, xi: int) -> dict:
    """P with the variable `var` set to the integer xi, without zero terms."""
    out: dict = {}
    get = out.get
    powers = {}
    for e, c in P.items():
        k = e[var]
        if k:
            p = powers.get(k)
            if p is None:
                p = powers[k] = xi ** k
            c *= p
            e = e[:var] + (0,) + e[var + 1:]
        out[e] = get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _zdigits(P: dict, var: int, xi: int) -> dict:
    """The polynomial whose coefficients in `var` are the symmetric xi-adic
    digits of P's coefficients (P free of `var`): digit i of c, taken in
    (-xi/2, xi/2], becomes the coefficient of var^i."""
    half = xi // 2
    out = {}
    for e, c in P.items():
        i = 0
        while c:
            c, d = divmod(c, xi)
            if d > half:
                d -= xi
                c += 1
            if d:
                out[e[:var] + (i,) + e[var + 1:]] = d
            i += 1
    return out


_HEU_TRIES = 6


def _heu_gcd(f: dict, g: dict) -> Optional[tuple]:
    """(h, f/h, g/h) for nonzero integral f, g, or None; h is their gcd with
    the common integer content included.

    The heuristic gcd of Char, Geddes and Gonnet (J. Symbolic Comput. 7,
    1989).  With the common integer content c taken out, one occurring
    variable is set to an integer xi >= 2*min(|f|_inf, |g|_inf) + 2, the
    gcd of the two images is computed by recursion on the other variables
    (down to an integer gcd), and a candidate is read back from its
    symmetric xi-adic digits.  Under that bound on xi, the primitive part P
    of the candidate G is gcd(f/c, g/c) as soon as it divides both: the gcd
    is P*k, and k(xi) divides the content of G, which is at most xi/2, while
    a k of positive degree would have |k(xi)| > xi/2 by Cauchy's root bound.
    The exact divisions ``_zdiv`` are the certificate, so an accepted result
    is exact, and their quotients are the cofactors.  A candidate that fails
    it makes xi grow, and None after _HEU_TRIES values of xi (or a failed
    inner level) leaves the gcd to the caller.
    """
    c = int_gcd(int_gcd(*f.values()), int_gcd(*g.values()))
    if c != 1:
        f = {e: v // c for e, v in f.items()}
        g = {e: v // c for e, v in g.items()}
    if _zis_const(f) or _zis_const(g):
        return {(0,) * len(next(iter(f))): c}, f, g
    var = min(i for e in chain(f, g) for i, x in enumerate(e) if x)
    # 27 above the bound: a small xi is often unlucky (the cofactors' images
    # share a factor), and every retry costs an inner gcd
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(_HEU_TRIES):
        fx = _zeval(f, var, xi)
        gx = _zeval(g, var, xi)
        if fx and gx:
            hx = _heu_gcd(fx, gx)
            if hx is None:
                return None
            h = _zprimitive(_zdigits(hx[0], var, xi))
            # a constant candidate is 1, which divides everything
            if _zis_const(h):
                cf, cg = f, g
            else:
                cf = _zdiv(f, h)
                cg = None if cf is None else _zdiv(g, h)
            if cg is not None:
                return _zscale(h, c), cf, cg
        # a ratio that is not an integer, so that xi does not keep the
        # residues that made the last one unlucky
        xi = xi * 11 // 4 + 1
    return None


def _zgcd(f: dict, g: dict) -> tuple:
    """(h, f/h, g/h) for nonzero integral f, g: h is their primitive gcd,
    with positive leading coefficient, and the cofactors are integral.

    After the cheap exits, the heuristic ``_heu_gcd`` runs first and hands
    back the quotients of its certificate; the content/subresultant
    recursion below is its fallback, and divides once for the cofactors.
    """
    if _zis_const(f) or _zis_const(g):
        return _zone(f), f, g
    # shared monomial content comes out directly (q-power denominators are
    # the common case in the deformation pipelines)
    shared = tuple(map(min, *f, *g))
    if any(shared):
        strip_f = {tuple(map(sub, e, shared)): c for e, c in f.items()}
        strip_g = {tuple(map(sub, e, shared)): c for e, c in g.items()}
        h, cf, cg = _zgcd(strip_f, strip_g)
        return {tuple(map(add, e, shared)): c for e, c in h.items()}, cf, cg
    if len(f) == 1 or len(g) == 1:
        # a monomial shares nothing beyond the stripped content
        return _zone(f), f, g
    common = {i for e in f for i, x in enumerate(e) if x} & \
        {i for e in g for i, x in enumerate(e) if x}
    if not common:
        return _zone(f), f, g
    fc, gc = _zcontent(f), _zcontent(g)
    f = f if fc == 1 else {e: c // fc for e, c in f.items()}
    g = g if gc == 1 else {e: c // gc for e, c in g.items()}
    if f == g:
        unit = (0,) * len(next(iter(f)))
        return f, {unit: fc}, {unit: gc}
    found = _heu_gcd(f, g)
    if found is not None:
        h, cf, cg = found
    else:
        h = _subresultant_gcd(f, g, common)
        cf, cg = _zquo(f, h), _zquo(g, h)
    return h, _zscale(cf, fc), _zscale(cg, gc)


def _subresultant_gcd(f: dict, g: dict, common: set) -> dict:
    """Primitive gcd of primitive f, g by the content/subresultant recursion
    in the shared variable of least total degree."""
    var = min(common, key=lambda v: max(e[v] for e in f) + max(e[v] for e in g))
    fu = _to_univariate(f, var)
    gu = _to_univariate(g, var)
    f_cont = _uni_content(fu)
    g_cont = _uni_content(gu)
    cont = _zgcd(f_cont, g_cont)[0]
    fp = _uni_quo_ground(fu, f_cont)
    gp = _uni_quo_ground(gu, g_cont)
    if max(fp) < max(gp):
        fp, gp = gp, fp
    last = _subresultant_last(fp, gp)
    if max(last) == 0:
        return cont
    prim = _from_univariate(var, _uni_quo_ground(last, _uni_content(last)))
    return _zprimitive(_zmul(cont, prim))


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Primitive gcd over Q[x...]: integer coefficients, gcd 1, positive leading.

    Over Q the gcd is fixed up to a constant, so both inputs are cleared to
    integral polynomials and the gcd runs in Z[x] on ints.  It is first the
    heuristic gcd of Char, Geddes and Gonnet (``_heu_gcd``): one variable is
    set to an integer xi >= 2*min(|f|_inf, |g|_inf) + 2, the images' gcd is
    found by recursion down to an integer gcd, and its symmetric xi-adic
    digits give a candidate.  By their theorem (Geddes, Czapor and Labahn,
    Algorithms for Computer Algebra, 1992, sec. 7.7), under that bound the
    primitive part of a candidate that divides both inputs is their gcd;
    the exact division is checked, so the result is exact.  When no
    candidate passes, the content/subresultant recursion (Brown's chain),
    whose divisions are all exact in Z[x], gives the gcd.  Fractions are
    built once, for the result.  The kernel also returns the cofactors;
    ``poly_gcd_cofactors`` hands them back, and the ``Scalar`` arithmetic
    uses it instead of dividing by the gcd again.
    """
    table = f.table
    if f.is_zero() and g.is_zero():
        return Poly.zero(table)
    if f.is_zero():
        return _int_content_normalized(g)[0]
    if g.is_zero():
        return _int_content_normalized(f)[0]
    return poly_gcd_cofactors(f, g)[0]


def poly_gcd_cofactors(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(h, f/h, g/h) for nonzero f, g, with h = poly_gcd(f, g).

    The cofactors come from the kernel gcd itself: the heuristic gcd's
    certificate divisions, or one division after the subresultant fallback.
    A trivial gcd returns f and g themselves.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("the cofactors of a gcd need nonzero polynomials")
    table = f.table
    if f.is_constant() or g.is_constant():
        return Poly.const(table, 1), f, g
    h, F, G = _zgcd(f._P, g._P)
    if _zis_const(h):
        return _from_int(table, h, 1), f, g
    # f = (F h)/d, so f/h = F/d
    return _from_int(table, h, 1), _from_int(table, F, f._d), _from_int(table, G, g._d)


# ---------------------------------------------------------------------------
# Scalar: the fraction field
# ---------------------------------------------------------------------------


class Scalar:
    """Element of the fraction field of Q[symbols], kept in canonical form.

    A constant carries its value as two coprime ints, ``_n`` and ``_d > 0``,
    and no polynomials; its ``num``/``den`` are built only when read.  Any
    other value carries a coprime ``Poly`` pair whose denominator is monic
    under the grlex order, and ``_n`` and ``_d`` are None.  Every constructor
    returns this form, so a value is constant exactly when ``_d`` is set, and
    equality is syntactic and agrees with cross-multiplication.
    """

    __slots__ = ("table", "_n", "_d", "_num", "_den")

    def __init__(self, *args, **kwargs):
        raise ValueError("use Scalar.make / Scalar.from_*")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def make(num: Poly, den: Poly) -> "Scalar":
        """num/den in canonical form: both divided by their gcd, whose
        cofactors the kernel gcd returns, and den made grlex-monic."""
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if not num.is_zero() and not den.is_constant():
            _, num, den = poly_gcd_cofactors(num, den)
        return Scalar._from_coprime(num, den)

    @staticmethod
    def _from_coprime(num: Poly, den: Poly) -> "Scalar":
        """Normalize a pair already known to be coprime."""
        table = num.table
        dc = den.const_or_none()
        if dc is not None:
            if not dc:
                raise DivisionByZero("zero denominator")
            nc = num.const_or_none()
            if nc is not None:
                v = nc / dc
                return _const(table, v.numerator, v.denominator)
            if dc != 1:
                num = num.scale(1 / dc)
                den = Poly.const(table, 1)
            return _ratio(num, den)
        if num.is_zero():
            return _const(table, 0, 1)
        lead = den.leading()[1]
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        return _ratio(num, den)

    @staticmethod
    def from_fraction(table: SymbolTable, value) -> "Scalar":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return _const(table, value.numerator, value.denominator)

    @staticmethod
    def from_symbol(table: SymbolTable, name: str) -> "Scalar":
        return _ratio(Poly.symbol(table, name), Poly.const(table, 1))

    @staticmethod
    def zero(table: SymbolTable) -> "Scalar":
        return _const(table, 0, 1)

    @staticmethod
    def one(table: SymbolTable) -> "Scalar":
        return _const(table, 1, 1)

    def lift(self, table: SymbolTable) -> "Scalar":
        """Re-express over another table containing all used symbols."""
        if table == self.table:
            return self
        if self._d is not None:
            return _const(table, self._n, self._d)
        return _ratio(self._num.lift(table), self._den.lift(table))

    # -- properties -----------------------------------------------------

    @property
    def num(self) -> Poly:
        try:
            return self._num
        except AttributeError:
            self._num = Poly.const(self.table, Fraction(self._n, self._d))
            return self._num

    @property
    def den(self) -> Poly:
        try:
            return self._den
        except AttributeError:
            self._den = Poly.const(self.table, 1)
            return self._den

    def is_zero(self) -> bool:
        return self._n == 0

    def __bool__(self) -> bool:
        return self._n != 0

    def is_constant(self) -> bool:
        return self._d is not None

    def as_fraction(self) -> Fraction:
        if self._d is None:
            raise ValueError("polynomial is not constant")
        return Fraction(self._n, self._d)

    def const_or_none(self) -> Optional[Fraction]:
        return None if self._d is None else Fraction(self._n, self._d)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "Scalar":
        if other.__class__ is Scalar and other.table is self.table:
            b = other
        else:
            b = self._coerce(other)
            if b is NotImplemented:
                return NotImplemented
        da, db = self._d, b._d
        if da is not None:
            if db is not None:
                return _const_sum(self.table, self._n, da, b._n, db)
            if not self._n:
                return b
            # n/d + c = (n + c d)/d stays coprime with the same monic d
            return _ratio(b._num + b._den.scale(Fraction(self._n, da)), b._den)
        if db is not None:
            if not b._n:
                return self
            return _ratio(self._num + self._den.scale(Fraction(b._n, db)), self._den)
        an, ad, bn, bd = self._num, self._den, b._num, b._den
        if ad == bd:
            return Scalar.make(an + bn, ad)
        g, da, db = poly_gcd_cofactors(ad, bd)
        if g.is_constant():
            # coprime denominators: result already reduced
            return Scalar._from_coprime(an * bd + bn * ad, ad * bd)
        return Scalar.make(an * db + bn * da, ad * db)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "Scalar":
        if self._d is not None:
            return _const(self.table, -self._n, self._d)
        return _ratio(-self._num, self._den)

    def __sub__(self, other) -> "Scalar":
        if other.__class__ is Scalar and other.table is self.table:
            b = other
        else:
            b = self._coerce(other)
            if b is NotImplemented:
                return NotImplemented
        if self._d is not None and b._d is not None:
            return _const_sum(self.table, self._n, self._d, -b._n, b._d)
        return self + (-b)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "Scalar":
        if other.__class__ is Scalar and other.table is self.table:
            b = other
        else:
            b = self._coerce(other)
            if b is NotImplemented:
                return NotImplemented
        da, db = self._d, b._d
        if da is not None:
            if db is not None:
                return _const_product(self.table, self._n, da, b._n, db)
            if not self._n:
                return self
            return _ratio(b._num.scale(Fraction(self._n, da)), b._den)
        if db is not None:
            if not b._n:
                return b
            return _ratio(self._num.scale(Fraction(b._n, db)), self._den)
        an, ad, bn, bd = self._num, self._den, b._num, b._den
        _, an, bd = poly_gcd_cofactors(an, bd)
        _, bn, ad = poly_gcd_cofactors(bn, ad)
        return Scalar._from_coprime(an * bn, ad * bd)

    def __rmul__(self, other):
        return self.__mul__(other)

    def inv(self) -> "Scalar":
        d = self._d
        if d is not None:
            n = self._n
            if not n:
                raise DivisionByZero("inverse of zero")
            return _const(self.table, d, n) if n > 0 else _const(self.table, -d, -n)
        return Scalar._from_coprime(self._den, self._num)

    def __truediv__(self, other) -> "Scalar":
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        if b.is_zero():
            raise DivisionByZero("division by zero Scalar")
        if self._d is not None and b._d is not None:
            nb, db = b._n, b._d
            if nb < 0:
                nb, db = -nb, -db
            return _const_product(self.table, self._n, self._d, db, nb)
        return self * b.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "Scalar":
        if n == 0:
            return Scalar.one(self.table)
        if n < 0:
            return self.inv() ** (-n)
        if self._d is not None:
            return _const(self.table, self._n ** n, self._d ** n)
        return _ratio(self._num ** n, self._den ** n)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.table is not self.table and other.table != self.table:
                raise ValueError("symbol tables differ")
            return other
        if isinstance(other, (int, Fraction)):
            return _const(self.table, other.numerator, other.denominator)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            if self.table != other.table:
                return False
            if self._d is None and other._d is None:
                return self._num == other._num and self._den == other._den
            return self._n == other._n and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return self._n == other.numerator and self._d == other.denominator
        return False

    def __hash__(self) -> int:
        d = self._d
        if d is None:
            return hash((self._num, self._den))
        # the hash of the (Poly.const(c), Poly.const(1)) pair, without the
        # Polys or c: an int h with hash(h) == hash(c) stands in for c
        n = self._n
        h = n if d == 1 else _rational_hash(n, d)
        table = self.table
        unit = (0,) * len(table)
        num_terms = frozenset({(unit, h)} if n else ())
        return hash(((table, num_terms), (table, frozenset({(unit, 1)}))))

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, bindings: Mapping[str, Fraction]) -> Fraction:
        if self._d is not None:
            return Fraction(self._n, self._d)
        dv = self._den.evaluate(bindings)
        if not dv:
            raise PoleAtPoint(f"denominator vanishes at {dict(bindings)!r}")
        return self._num.evaluate(bindings) / dv

    def substitute(self, bindings: Mapping[str, Fraction]) -> "Scalar":
        if self._d is not None:
            for name in bindings:
                self.table.index(name)  # UnboundSymbol, as for a polynomial
            return self
        den = self._den.substitute(bindings)
        if den.is_zero():
            raise PoleAtPoint(f"denominator vanishes under {dict(bindings)!r}")
        return Scalar.make(self._num.substitute(bindings), den)

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        if self._d is not None:
            return str(self._n) if self._d == 1 else f"{self._n}/{self._d}"
        if self._den.is_constant():
            return str(self._num)
        ns = str(self._num)
        if len(self._num._P) > 1:
            ns = f"({ns})"
        return f"{ns}/({self._den})"

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _const(table: SymbolTable, n: int, d: int) -> Scalar:
    """The constant form n/d, from coprime ints with d > 0: no polynomials."""
    s = _new_object(Scalar)
    s.table = table
    s._n = n
    s._d = d
    return s


def _ratio(num: Poly, den: Poly) -> Scalar:
    """The polynomial form of a non-constant value, from a canonical pair."""
    s = _new_object(Scalar)
    s.table = num.table
    s._n = s._d = None
    s._num = num
    s._den = den
    return s


# The constant kernel: CPython's fractions._add/_mul on coprime int pairs.
# The cross gcds leave the result reduced, so no further gcd is taken.

def _const_sum(table: SymbolTable, na: int, da: int, nb: int, db: int) -> Scalar:
    g = int_gcd(da, db)
    if g == 1:
        return _const(table, na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = int_gcd(t, g)
    if g2 == 1:
        return _const(table, t, s * db)
    return _const(table, t // g2, s * (db // g2))


def _const_product(table: SymbolTable, na: int, da: int, nb: int, db: int) -> Scalar:
    g1 = int_gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = int_gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _const(table, na * nb, da * db)


def _rational_hash(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for coprime n and d > 1: Python's numeric hash."""
    P = sys.hash_info.modulus
    h = hash(hash(abs(n)) * pow(d, -1, P)) if d % P else sys.hash_info.inf
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


# ---------------------------------------------------------------------------
# fraction-free work: clearing denominators
# ---------------------------------------------------------------------------


def clear_rows(rows: Sequence[Sequence[Scalar]]) -> list:
    """[(L, [v * L for v in row]) for row in rows], L the lcm of the
    denominators of the row.

    This is the one place that picks the ring of fraction-free work: ints
    when every value of every row is constant, Polys otherwise.  All rows
    share that ring, so cleared rows can meet.  ``ratio`` reads a result
    back.
    """
    if all(v._d is not None for row in rows for v in row):
        return [_clear_ints(row) for row in rows]
    return [_clear_polys(row) for row in rows]


def clear(values: Sequence[Scalar]) -> tuple:
    """(L, [v * L for v in values]): ``clear_rows`` of the one row."""
    return clear_rows((values,))[0]


def _clear_ints(values) -> tuple:
    """``clear`` over Z, from the coprime pairs and with no ``Fraction``."""
    L = int_lcm(*(v._d for v in values))
    return L, [v._n * (L // v._d) for v in values]


def _clear_polys(values) -> tuple:
    """``clear`` over Z[x].  Each distinct denominator d shares g with the
    running L: with L = g*u and d = g*v the lcm becomes L*v, the earlier
    multipliers gain the factor v and the new one is u, so no division is
    made."""
    one = Poly.const(values[0].table, 1)
    L, mults = one, {}
    for v in values:
        d = v.den
        if d in mults:
            continue
        _, u, w = poly_gcd_cofactors(L, d)
        if w != one:
            mults = {k: m * w for k, m in mults.items()}
            L = L * w
        mults[d] = u
    nums = []
    for v in values:
        m = mults[v.den]
        nums.append(v.num if m == one else v.num * m)
    return L, nums


def ratio(num, den, table: SymbolTable) -> Scalar:
    """num/den for an int pair or a Poly pair, such as ``clear`` returns."""
    if isinstance(num, int):
        if not den:
            raise DivisionByZero("zero denominator")
        g = int_gcd(num, den)
        if den < 0:
            g = -g
        return _const(table, num // g, den // g)
    return Scalar.make(num, den)


# ---------------------------------------------------------------------------
# qnumber entry points
# ---------------------------------------------------------------------------

def qnumber(k: int, q: Scalar) -> Scalar:
    """The symmetric q-integer (q^k - q^-k)/(q - q^-1), cleared of q-inverses.

    Equals (1 + q^2 + ... + q^(2k-2)) / q^(k-1); at q = 1 this is k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    table = q.table
    num = Scalar.zero(table)
    for i in range(k):
        num = num + q ** (2 * i)
    return num / q ** (k - 1)


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

# Largest exponent the text grammar accepts; q^k with larger k is refused
# before the power is computed.
EXPONENT_CAP = 1000

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([a-z][a-z0-9_]*)|(\*\*)|([-+*/^()]))")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected input at {rest[:10]!r}")
        if m.group(1):
            tokens.append(("int", int(m.group(1))))
        elif m.group(2):
            tokens.append(("sym", m.group(2)))
        elif m.group(3):
            tokens.append(("op", "^"))
        else:
            tokens.append(("op", m.group(4)))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens, table: SymbolTable):
        self.tokens = tokens
        self.pos = 0
        self.table = table

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Scalar:
        value = self.expr()
        if self.peek()[0] != "end":
            raise ParseError(f"trailing input near token {self.peek()!r}")
        return value

    def expr(self) -> Scalar:
        kind, val = self.peek()
        negate = False
        if (kind, val) == ("op", "-"):
            self.next()
            negate = True
        elif (kind, val) == ("op", "+"):
            self.next()
        value = self.term()
        if negate:
            value = -value
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.next()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Scalar:
        value = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.next()
            rhs = self.factor()
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ParseError("division by zero in scalar expression")
                value = value / rhs
        return value

    def factor(self) -> Scalar:
        kind, val = self.peek()
        if (kind, val) == ("op", "-"):
            self.next()
            return -self.factor()
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.next()
            kind, val = self.next()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer")
            if val > EXPONENT_CAP:
                raise ResourceLimit(f"exponent {val} exceeds cap {EXPONENT_CAP}")
            return base ** val
        return base

    def atom(self) -> Scalar:
        kind, val = self.next()
        if kind == "int":
            return Scalar.from_fraction(self.table, val)
        if kind == "sym":
            if val not in self.table:
                raise ParseError(f"unknown symbol {val!r}; table has {self.table.names}")
            return Scalar.from_symbol(self.table, val)
        if (kind, val) == ("op", "("):
            inner = self.expr()
            if self.next() != ("op", ")"):
                raise ParseError("missing closing parenthesis")
            return inner
        raise ParseError(f"unexpected token {val!r}")


def parse_scalar(text: str, table: SymbolTable) -> Scalar:
    """Parse the scalar text grammar: ints, rationals p/q, symbols, + - * / ^ ( )."""
    return _Parser(_tokenize(text), table).parse()

