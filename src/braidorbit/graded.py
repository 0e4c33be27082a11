"""Quadratic algebras and their PBW deformations, degree by degree on normal words.

A quadratic algebra A = T(V)/<R> is graded, and its degree-k component is

    A_k = (A_{k-1} (x) V) / span{ sum_ab c_ab NF_{k-1}(u x_a) (x) x_b },

with u running over a basis of A_{k-2} and r = sum_ab c_ab x_a x_b over the
relations.  Words are ordered by their code (lexicographically, first letter
most significant) and an echelon form pivots on the smallest word, so the
leading words of the ideal are the pivots and the *normal words* B_k, those
that lead no element of the ideal, are the non-pivot columns (Polishchuk and
Positselski, *Quadratic Algebras*, 2005).  B_k is a basis of A_k, and the
echelon rows say how each pivot word b x (b in B_{k-1}) rewrites into normal
words.  Every computation happens inside span(B_{k-1}) (x) V, whose dimension
grows with dim A_k, never inside the N^k-dimensional word space.

Relations may carry lower-degree tails, r = r_2 + r_1 + r_0: the quotient is
then filtered, not graded.  A row's top-degree words keep their bare keys;
its tail is normal-formed in the degrees already built and each word w of it
is keyed (letters,) + w, after every top-degree word.  The echelon form then
pivots on top-degree words, each rewrite may shorten a word, and the normal
words are those of the quadratic algebra of the top parts r_2.  A row whose
top part cancels and whose tail does not says that normal words of lower
degree are dependent: the relations are not a PBW deformation of their top
parts, and `IdentityFailed` names the degree and the word.  By the diamond
lemma this obstruction lives in degree 3 for a Koszul top part (Braverman and
Gaitsgory, *J. Algebra* 181, 1996; Polishchuk and Positselski, ch. 5), where
it is the Jacobi identity of a Lie bracket; it is checked in every degree.

Homogeneous relations are certified PBW at degree 3 (`pbw_certificate`).
The pivot words of degree 2 are the *leading pairs*, and every word that
contains one is a leading word of the ideal.  When dim A_3 equals the number
of length-3 words with no leading pair, every overlap ambiguity resolves, and
by Bergman's diamond lemma (*Adv. Math.* 29, 1978) B_k is the set of
pair-free words in every degree.  `dims` then counts them by last letter,
stepping through the allowed pairs, the transfer matrix of the graph of
normal words (Ufnarovski, *Math. Notes* 31, 1982), instead of echelonizing
the higher degrees.  `normal_words` and `normal_form` still build a degree
when asked for it.

`ideal_span` adds central inhomogeneous generators, certified so, on top of
the relations: their ideal modulo the relations is spanned by the normal
forms of u g with u a normal word, echelonized among normal words only,
top-degree words first.

Coefficients are anything `RowSpace` reduces over: `Fraction` or `Scalar`.
Words are tuples of letters 0..letters-1, the same tuples `NCPoly` uses.
"""

from __future__ import annotations

from typing import Iterable

from .errors import IdentityFailed
from .linalg import RowSpace


def accumulate(target: dict, key, value) -> None:
    """target[key] += value, dropping the key when the sum vanishes."""
    s = target.get(key)
    val = value if s is None else s + value
    if val:
        target[key] = val
    elif s is not None:
        del target[key]


class GradedQuotient:
    """T(V)/<relations> for quadratic relations with lower-degree tails,
    grown on demand.

    `relations` are dicts {word: coefficient} on words of length at most 2.
    The ones that enlarge the span are kept in `relations`, in the order
    given; the others are implied.
    """

    def __init__(self, letters: int, relations: Iterable[dict]):
        self.letters = letters
        # normal[k]: B_k in word-code order; rewrites[k]: pivot word of
        # degree k -> its normal form {normal word: coefficient}
        self.normal = [[()], [(a,) for a in range(letters)]]
        self.rewrites = [{}, {}]
        self._certificate = None
        relations = list(relations)
        self._filtered = any(len(w) < 2 for r in relations for w in r)
        space = RowSpace()
        self.relations = [r for r in relations if space.add(self._keyed(r, 2))]
        # each relation as (its tail, its quadratic terms as (x_a, x_b, c))
        self._split = [({w: c for w, c in r.items() if len(w) < 2},
                        [(w[:1], w[1:], c) for w, c in r.items() if len(w) == 2])
                       for r in self.relations]
        self._close(space)

    def _keyed(self, row: dict, k: int) -> dict:
        """Row of degree-k words plus a tail: the tail normal-formed and its
        words keyed (letters,) + w, so they sort after every degree-k word."""
        if not self._filtered:
            return row
        out = {w: c for w, c in row.items() if len(w) == k}
        tail = self.normal_form({w: c for w, c in row.items() if len(w) < k})
        for w, c in tail.items():
            out[(self.letters,) + w] = c
        return out

    def _close(self, space: RowSpace) -> None:
        """Record degree k from its echelon form over B_{k-1} (x) V."""
        k, top = len(self.normal), self.letters
        pivots = space.pivots
        for w in pivots:
            if w[0] == top:
                raise IdentityFailed(
                    f"not a PBW deformation: degree-{k} relations make the "
                    f"degree-{len(w) - 1} normal word {w[1:]} dependent")
        self.normal.append([b + (a,) for b in self.normal[-1] for a in range(top)
                            if b + (a,) not in pivots])
        self.rewrites.append({w: {(c if c[0] < top else c[1:]): -v
                                  for c, v in row.items() if c != w}
                              for w, row in pivots.items()})

    def grow(self, degree: int) -> None:
        """Build the components up to `degree`."""
        while len(self.normal) <= degree:
            k = len(self.normal)
            below = self.rewrites[k - 1]
            space = RowSpace()
            for u in self.normal[k - 2]:
                for tail, quadratic in self._split:
                    row = {u + w: c for w, c in tail.items()}
                    for a, b, c in quadratic:
                        ua = u + a
                        nf = below.get(ua)
                        if nf is None:
                            accumulate(row, ua + b, c)
                        else:
                            for v, cv in nf.items():
                                accumulate(row, v + b, c * cv)
                    space.add(self._keyed(row, k))
            self._close(space)

    def pbw_certificate(self) -> tuple:
        """(leading pairs, verdict) from degree 3.

        The leading pairs are the pivot words of degree 2, the keys of
        `rewrites[2]`.  Every word containing one leads an element of the
        ideal, so B_3 lies among the length-3 words with no leading pair;
        the verdict says it is all of them, dim A_3 equal to their count.
        For quadratic rules every overlap ambiguity has length 3, so then
        all of them resolve and B_k is the set of pair-free words in every
        degree (Bergman's diamond lemma, *Adv. Math.* 29, 1978).
        """
        if self._certificate is None:
            self.grow(3)
            pairs = frozenset(self.rewrites[2])
            counts = self._pair_free_step(pairs, self._last_letter_counts(2))
            self._certificate = (pairs, sum(counts) == len(self.normal[3]))
        return self._certificate

    def _last_letter_counts(self, k: int) -> list:
        counts = [0] * self.letters
        for w in self.normal[k]:
            counts[w[-1]] += 1
        return counts

    def _pair_free_step(self, pairs: frozenset, counts: list) -> list:
        """Counts by last letter of the pair-free words one letter longer."""
        top = self.letters
        return [sum(counts[a] for a in range(top) if (a, b) not in pairs)
                for b in range(top)]

    def dims(self, depth: int) -> list:
        """dim A_k for k = 0..depth: the number of normal words of length k.

        When homogeneous relations pass `pbw_certificate`, nothing is built
        above degree 3: B_k is then the set of pair-free words (Bergman),
        and their counts by last letter are stepped through the allowed
        pairs, the transfer matrix of Ufnarovski (*Math. Notes* 31, 1982).
        Otherwise, and always with tails, whose obstruction is checked in
        every degree, each degree is echelonized.
        """
        if depth <= 3 or self._filtered or not self.pbw_certificate()[1]:
            self.grow(depth)
            return [len(self.normal[k]) for k in range(depth + 1)]
        pairs = self._certificate[0]
        built = min(len(self.normal) - 1, depth)
        out = [len(self.normal[k]) for k in range(built + 1)]
        counts = self._last_letter_counts(built)
        for _ in range(built, depth):
            counts = self._pair_free_step(pairs, counts)
            out.append(sum(counts))
        return out

    def normal_words(self, degree: int) -> list:
        """B_degree, the basis of A_degree (of F_degree / F_degree-1 with
        tails), in word-code order."""
        self.grow(degree)
        return self.normal[degree]

    def normal_form(self, terms: dict) -> dict:
        """NF of a combination {word: coefficient} of words of any lengths.

        Each word folds left to right: a normal prefix b followed by the
        next letter x is replaced by NF(b x), read off the rewrite tables.
        Words sharing a prefix state are folded once.
        """
        if terms:
            self.grow(max(map(len, terms)))
        out: dict = {}
        level = {((), w): c for w, c in terms.items()}
        while level:
            nxt: dict = {}
            for (b, rest), c in level.items():
                if not rest:
                    accumulate(out, b, c)
                    continue
                w = b + rest[:1]
                tail = rest[1:]
                nf = self.rewrites[len(w)].get(w)
                if nf is None:
                    accumulate(nxt, (w, tail), c)
                else:
                    for v, cv in nf.items():
                        accumulate(nxt, (v, tail), c * cv)
            level = nxt
        return out


def by_degree(terms: dict) -> dict:
    """Coordinates keyed by (-degree, word): higher degrees are smaller
    columns, so an echelon form pivots on top-degree words."""
    return {(-len(w), w): c for w, c in terms.items()}


def ideal_span(algebra, generators: Iterable[dict], max_degree: int) -> RowSpace:
    """Echelon form of the two-sided ideal of central inhomogeneous
    `generators` modulo the relations of `algebra`, truncated at `max_degree`.

    `algebra` is a `GradedQuotient`.  Each generator g is certified central
    first, NF(x g) = NF(g x) for every letter x, or `IdentityFailed` names g
    and x.  Then u g v = u v g, so the rows NF(u g) over normal words u span
    the same truncated ideal as NF(u g v) over u, v: the echelon basis is
    the same unique one.  Rows are in `by_degree` coordinates; a u inside
    the relation ideal contributes NF = 0, so the span is the ideal's image.
    """
    nf = algebra.normal_form
    letters = algebra.normal_words(1)
    space = RowSpace()
    for i, g in enumerate(generators):
        for x in letters:
            if nf({x + w: c for w, c in g.items()}) != nf({w + x: c for w, c in g.items()}):
                raise IdentityFailed(f"generator {i} does not commute with letter {x[0]}")
        gdeg = max(map(len, g), default=0)
        for pad in range(max_degree - gdeg + 1):
            for u in algebra.normal_words(pad):
                space.add(by_degree(nf({u + w: c for w, c in g.items()})))
    return space
