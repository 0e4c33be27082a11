"""Parity of the graded-quotient engine with a full-word-space reference.

The reference frames every relation by every word on both sides and
echelonizes the products among all words of the degree, with the columns
in word-code order; its dimensions and residuals are what the engine's
normal words and normal forms must reproduce exactly.  Relations with
lower-degree tails must either give a PBW deformation or name the word
that their obstruction makes dependent.  Above degree 3, the dims of an
algebra certified PBW are counted without building the degree, and must
equal the lengths of the normal words that the echelon builds.
"""

import itertools
import random
from fractions import Fraction

import pytest

from braidorbit.errors import IdentityFailed
from braidorbit.graded import GradedQuotient
from braidorbit.hecke import (
    birank,
    build_dj_gl,
    build_flip,
    build_q_super,
    build_superflip,
    quadratic_relations,
)
from braidorbit.linalg import RowSpace, TensorOp
from braidorbit.rea import NCPoly, is_zero_mod, relation_space
from braidorbit.scalar import EMPTY_TABLE, Scalar, SymbolTable

SYMMETRIES = {
    "flip(3)": lambda: build_flip(3),
    "superflip(2,1)": lambda: build_superflip(2, 1),
    "dj_gl(2,7/5)": lambda: build_dj_gl(2, Scalar.from_fraction(EMPTY_TABLE, Fraction(7, 5))),
    "dj_gl(2,q)": lambda: build_dj_gl(2, Scalar.from_symbol(SymbolTable(["q"]), "q")),
    "q_super(1,1,9/7)": lambda: build_q_super(1, 1, Scalar.from_fraction(EMPTY_TABLE,
                                                                         Fraction(9, 7))),
}


def reference_slice(letters, relations, degree):
    """Echelon form of the degree-`degree` ideal slice in the full word space."""
    space = RowSpace()
    for pos in range(degree - 1):
        for left in itertools.product(range(letters), repeat=pos):
            for right in itertools.product(range(letters), repeat=degree - 2 - pos):
                for rel in relations:
                    space.add({left + w + right: c for w, c in rel.items()})
    return space


def random_element(rng, hs, relations, degree):
    """A random ideal element of the degree, plus random words half the time."""
    N2 = hs.N * hs.N
    table = hs.table
    terms = {}

    def add(word, c):
        terms[word] = terms.get(word, Scalar.zero(table)) + c

    for _ in range(3):
        pos = rng.randrange(degree - 1)
        left = tuple(rng.randrange(N2) for _ in range(pos))
        right = tuple(rng.randrange(N2) for _ in range(degree - 2 - pos))
        scale = Scalar.from_fraction(table, rng.randint(-3, 3))
        for w, c in rng.choice(relations).items():
            add(left + w + right, scale * c)
    if rng.random() < 0.5:
        for _ in range(2):
            add(tuple(rng.randrange(N2) for _ in range(degree)),
                Scalar.from_fraction(table, rng.randint(1, 5)))
    return NCPoly(hs.N, table, terms)


@pytest.mark.parametrize("name", sorted(SYMMETRIES))
def test_engine_matches_word_space_reference(name):
    hs = SYMMETRIES[name]()
    rs = relation_space(hs, "minus")
    letters = hs.N * hs.N
    rng = random.Random(name)
    dims = rs.quotient.dims(4)
    zero_seen = nonzero_seen = 0
    for degree in (2, 3, 4):
        ref = reference_slice(letters, rs.basis, degree)
        assert dims[degree] == letters ** degree - ref.rank
        for _ in range(6):
            x = random_element(rng, hs, rs.basis, degree)
            ok, residual = is_zero_mod(x, rs)
            expected = ref.reduce(x.terms)
            assert residual.terms == expected
            assert ok == (not expected)
            zero_seen += ok
            nonzero_seen += not ok
    assert zero_seen and nonzero_seen


@pytest.mark.parametrize("name", sorted(SYMMETRIES))
def test_birank_series_match_word_space_reference(name):
    hs = SYMMETRIES[name]()
    N = hs.N
    depth = 5
    rep = birank(hs, depth)
    ident = TensorOp.identity(hs.table, N, 2)
    for series, op in ((rep.minus_series, ident.scale(hs.q.inv()) + hs.R),
                       (rep.plus_series, ident.scale(hs.q) - hs.R)):
        proj = op.mat.to_dense(hs.table)
        relations = [{divmod(r, N): row[c] for r, row in enumerate(proj.data) if row[c]}
                     for c in range(proj.ncols)]
        expected = [1, N] + [N ** k - reference_slice(N, relations, k).rank
                             for k in range(2, depth + 1)]
        assert series == expected


CERTIFIED = {
    "flip(3)": lambda: build_flip(3),
    "superflip(2,1)": lambda: build_superflip(2, 1),
    "superflip(3,2)": lambda: build_superflip(3, 2),
    "dj_gl(3,7/5)": lambda: build_dj_gl(3, Scalar.from_fraction(EMPTY_TABLE, Fraction(7, 5))),
    "dj_gl(3,q)": lambda: build_dj_gl(3, Scalar.from_symbol(SymbolTable(["q"]), "q")),
    "q_super(2,1,9/7)": lambda: build_q_super(2, 1, Scalar.from_fraction(EMPTY_TABLE,
                                                                         Fraction(9, 7))),
    "q_super(1,2,9/7)": lambda: build_q_super(1, 2, Scalar.from_fraction(EMPTY_TABLE,
                                                                         Fraction(9, 7))),
}


def echelon_dims(letters, relations, depth):
    algebra = GradedQuotient(letters, relations)
    return [len(algebra.normal_words(k)) for k in range(depth + 1)]


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_pbw_certified_dims_match_echelon_dims(name):
    # Lambda_R and Sym_R pass the degree-3 certificate in code order, and
    # dims counts pair-free words above degree 3 without building them
    hs = CERTIFIED[name]()
    for relations in quadratic_relations(hs):
        algebra = GradedQuotient(hs.N, relations)
        dims = algebra.dims(8)
        assert algebra.pbw_certificate()[1]
        assert len(algebra.normal) == 4
        assert dims == echelon_dims(hs.N, relations, 8)


def test_failed_certificate_falls_back_to_echelon():
    # the reflection equation algebra of dj_gl(2) is not PBW in code order
    hs = SYMMETRIES["dj_gl(2,7/5)"]()
    quotient = relation_space(hs, "minus").quotient
    assert not quotient.pbw_certificate()[1]
    dims = quotient.dims(5)
    assert len(quotient.normal) == 6
    assert dims == echelon_dims(quotient.letters, quotient.relations, 5)


def test_mutated_leading_pair_flips_the_verdict():
    # the exterior algebra on three letters leads on the pairs (a, b), a <= b
    relations = quadratic_relations(build_flip(3))[0]
    algebra = GradedQuotient(3, relations)
    pairs, verdict = algebra.pbw_certificate()
    assert verdict and pairs == {(a, b) for a in range(3) for b in range(a, 3)}
    mutant = GradedQuotient(3, relations)
    mutant.grow(3)
    mutant.rewrites[2][(1, 0)] = mutant.rewrites[2].pop((0, 0))
    assert not mutant.pbw_certificate()[1]


def lie_quotient(brackets, letters=3):
    """T(V)/<x_a x_b - x_b x_a - [x_a, x_b]> for brackets {(a, b): {c: coefficient}}."""
    relations = []
    for (a, b), bracket in brackets.items():
        rel = {(a, b): Fraction(1), (b, a): Fraction(-1)}
        rel.update({(c,): -Fraction(v) for c, v in bracket.items()})
        relations.append(rel)
    return GradedQuotient(letters, relations)


def test_tail_contradicting_top_part_raises_at_degree_2():
    # xy - yx and xy - yx - x differ by x alone
    one = Fraction(1)
    with pytest.raises(IdentityFailed, match=r"degree-2 relations .* word \(0,\) dependent"):
        GradedQuotient(2, [{(0, 1): one, (1, 0): -one},
                           {(0, 1): one, (1, 0): -one, (0,): -one}])


def test_jacobi_failure_raises_at_degree_3():
    # [x,y] = y, [x,z] = z, [y,z] = x: the Jacobi sum is -2x, so the
    # overlap z y x does not resolve and x vanishes in the quotient
    algebra = lie_quotient({(0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {0: 1}})
    assert algebra.dims(2) == [1, 3, 6]
    with pytest.raises(IdentityFailed, match=r"degree-3 relations .* word \(0,\) dependent"):
        algebra.grow(3)


def test_enveloping_algebra_of_sl2_is_pbw():
    # [h,e] = 2e, [h,f] = -2f, [e,f] = h with letters h, e, f
    algebra = lie_quotient({(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    assert algebra.dims(4) == [1, 3, 6, 10, 15]
    # the Casimir h^2 + 2ef + 2fe commutes with e
    casimir = {(0, 0): Fraction(1), (1, 2): Fraction(2), (2, 1): Fraction(2)}
    left = algebra.normal_form({(1,) + w: c for w, c in casimir.items()})
    right = algebra.normal_form({w + (1,): c for w, c in casimir.items()})
    assert left == right
