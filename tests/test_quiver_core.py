"""Core quiver machinery: composition, bases, verdicts, Cartan data, isomorphism."""
import gc
import os
import random
import weakref

import pytest
from fractions import Fraction
from itertools import permutations
from hypothesis import example, given, settings, strategies as st

from skewbrauer.basis import (DEFAULT_LENGTH_CAP, _contains, _RewriteSystem,
                              enumerate_basis, maximal_paths)
from skewbrauer import formats, iso
from skewbrauer.brauer import skew_brauer_algebra
from skewbrauer.cartan import IntPoly, cartan, det_fraction_free
from skewbrauer.errors import InfiniteDimensional, NotAdmissible, Undecided
from skewbrauer.iso import (IsoResult, _generators, _relations_carry, _same_generators,
                           _terms, are_isomorphic)
from skewbrauer.quiver import (BoundQuiver, Path, Quiver, Relation,
                               dedupe_relations, is_gentle, is_locally_gentle,
                               stationary)
from skewbrauer.skewgentle import admissible_presentation, make_presentation
from skewbrauer.trivext import (enumerate_good_cuts, quotient_by_cut,
                                trivial_extension)

from helpers import (BQ_FIXTURES, FIXTURES, NonComposable, P, compose_paths, diff,
                     fixture_path, load, mono, record_builds, shuffled_copy)
from oracle import oracle_reduce
from test_oracle import _round_trips


def leibniz_det(m, one):
    """Sum over permutations of signed products; ``one`` fixes the ring."""
    n = len(m)
    total = one - one
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -one if inversions % 2 else one
        for row, col in enumerate(perm):
            term = term * m[row][col]
        total = total + term
    return total


@st.composite
def sparse_poly_matrices(draw):
    """Square IntPoly matrices of size up to 5, most entries zero.

    Some have a zero top-left entry, which forces a row swap at the first
    pivot, and some repeat their first row, which makes them singular.
    """
    n = draw(st.integers(1, 5))
    poly = st.lists(st.integers(-3, 3), max_size=3).map(IntPoly)
    entry = st.one_of(st.just(IntPoly()), st.just(IntPoly()), st.just(IntPoly()), poly)
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        m[0][0] = IntPoly()
    if n > 1 and draw(st.booleans()):
        m[-1] = list(m[0])
    return m


def _consts(rows, q_power=0):
    """An IntPoly matrix of the integer matrix ``rows`` times q^q_power."""
    return [[IntPoly.q_power(q_power, x) for x in row] for row in rows]


def a2():
    return BoundQuiver(Quiver.build(["1", "2"], [("a", "1", "2")]))


def square():
    """Two paths a*b and c*d from vertex 1 to vertex 4."""
    return Quiver.build(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "4"),
                                              ("c", "1", "3"), ("d", "3", "4")])


def toy_aux():
    q = Quiver.build(["1", "2", "3", "4", "5"],
                     [("a", "1", "2"), ("b", "2", "3"), ("g", "3", "4"),
                      ("d", "4", "5"), ("l", "5", "3")])
    return BoundQuiver(q, (mono(q, "g", "d"), mono(q, "l", "g")))


class TestCompose:
    def test_identity(self):
        bq = a2()
        q = bq.quiver
        p = P(q, "a")
        e1 = stationary(q.vertex_by_label("1").id)
        assert compose_paths(q, e1, p) == p
        assert compose_paths(q, p, stationary(q.vertex_by_label("2").id)) == p

    def test_concatenation(self):
        q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        p = compose_paths(q, P(q, "a"), P(q, "b"))
        assert len(p) == 2
        assert p.source(q) == q.vertex_by_label("1").id
        assert p.target(q) == q.vertex_by_label("3").id

    def test_mismatch(self):
        q = Quiver.build(["1", "2", "3", "4"], [("a", "1", "2"), ("g", "3", "4")])
        with pytest.raises(NonComposable):
            compose_paths(q, P(q, "a"), P(q, "g"))


def test_dedupe_relations_up_to_scalar():
    # 2ab - 2cd, -cd + ab and 3cd - 3ab are a - b up to a scalar and the
    # term order; ab - 2cd and ab + cd are not; 2ab is ab
    q = square()
    ab, cd = P(q, "a", "b"), P(q, "c", "d")

    def rel(*terms):
        return Relation(tuple((Fraction(c), p) for c, p in terms))

    first = rel((2, ab), (-2, cd))
    other_scalar = rel((1, ab), (-2, cd))
    other_sign = rel((1, ab), (1, cd))
    square_mono = rel((2, ab))
    rels = [first, rel((1, ab), (-1, cd)), other_scalar, rel((-1, cd), (1, ab)),
            other_sign, rel((3, cd), (-3, ab)), square_mono, rel((1, ab)),
            rel((-2, cd), (-2, ab))]
    assert dedupe_relations(rels) == [first, other_scalar, other_sign, square_mono]
    assert first.canonical() == rel((1, cd), (-1, ab))
    assert other_scalar.canonical() == rel((1, cd), (Fraction(-1, 2), ab))
    assert rel((-2, cd), (-2, ab)).canonical() == other_sign.canonical()


class TestEnumerateBasis:
    def test_hereditary_a2(self):
        basis = enumerate_basis(a2())
        assert basis.dimension == 3
        assert basis.nilpotency_bound == 2

    def test_toy_admissible_dimension(self):
        # frozen from the exhaustive oracle (tests/test_oracle.py recomputes it)
        pres = make_presentation(load("toy.bq"))
        adm = admissible_presentation(pres)
        assert enumerate_basis(adm).dimension == 23

    def test_free_loop_is_infinite(self):
        bq = load("loop.bq")
        with pytest.raises(InfiniteDimensional) as info:
            enumerate_basis(bq)
        witness = info.value.witness
        q = bq.quiver
        assert witness == P(q, "f")
        assert str(info.value) == (
            "infinite dimensional: every power of the cycle f is nonzero")

    @pytest.mark.parametrize("arrows, relations, cycle", [
        # a free 3-cycle, and two free loops at one vertex
        ([("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")], [], "a*b*c"),
        ([("x", "v", "v"), ("y", "v", "v")], [], "x"),
        # a*b kills every cycle through it, but not c*b
        ([("a", "1", "2"), ("b", "2", "1"), ("c", "1", "2")], [("a", "b")], "c*b"),
    ])
    def test_infinite_witness_is_a_cycle_with_nonzero_powers(self, arrows, relations,
                                                             cycle):
        labels = sorted({v for _, s, t in arrows for v in (s, t)})
        q = Quiver.build(labels, arrows)
        bq = BoundQuiver(q, tuple(mono(q, *r) for r in relations))
        with pytest.raises(InfiniteDimensional) as info:
            enumerate_basis(bq)
        u = info.value.witness
        assert u.label(q) == cycle and u.source(q) == u.target(q)
        assert str(info.value) == (
            f"infinite dimensional: every power of the cycle {cycle} is nonzero")
        # the powers of the witness are their own normal forms
        engine = _RewriteSystem()
        engine.complete(bq.relations, DEFAULT_LENGTH_CAP)
        for j in range(1, 6):
            power = u.arrows * j
            assert engine.normal_form(power) == (1, power)

    def test_long_linear_quiver_is_finite(self):
        # A_70 without relations: 70 + 69 * 70 / 2 paths, the longest of
        # length 69: the default cap 64 guards only the completion
        labels = [str(i) for i in range(1, 71)]
        q = Quiver.build(labels, [(f"a{i}", labels[i], labels[i + 1]) for i in range(69)])
        basis = enumerate_basis(BoundQuiver(q))
        assert (basis.dimension, basis.nilpotency_bound) == (2485, 70)

    def test_non_nilpotent_arrow_ideal_is_not_admissible(self):
        # x^2 = x^3: the quotient has the basis e, x, x^2, but every power
        # of x is nonzero, so no power of the arrow ideal lies in the ideal
        q = Quiver.build(["v"], [("x", "v", "v")])
        bq = BoundQuiver(q, (diff(q, ("x", "x"), ("x", "x", "x")),))
        with pytest.raises(NotAdmissible) as info:
            enumerate_basis(bq)
        assert str(info.value) == (
            "the ideal contains no power of the arrow ideal: paths of every "
            "length are nonzero, e.g. x*x*x")

    def test_relabelled_recomputes_admissible(self):
        # x*x*x is admissible, x*x - x is not: the relabelled copy equals
        # the one built fresh, and the basis refuses it up front
        q = Quiver.build(["v"], [("x", "v", "v")])
        a = BoundQuiver(q, (mono(q, "x", "x", "x"),))
        relations = (diff(q, ("x", "x"), ("x",)),)
        b = a.relabelled(relations=relations)
        assert a.admissible and not b.admissible
        assert b == BoundQuiver(a.quiver, relations, a.special_vertices)
        with pytest.raises(NotAdmissible) as info:
            enumerate_basis(b)
        assert str(info.value) == "normalise the presentation before computing a basis"

    def test_presentation_with_sg_tuple_hashes(self):
        # the sg-tuple is left out of the hash, not out of equality
        a = admissible_presentation(make_presentation(load("toy.bq")))
        b = admissible_presentation(make_presentation(load("toy.bq")))
        assert a.sg_tuple is not None and a is not b
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        bare = a.relabelled(sg_tuple=None)
        assert bare != a and hash(bare) == hash(a)

    def test_endless_completion_is_undecided(self):
        # the braid relation y*x*y = x*y*x has no finite rewriting system
        # under the (length, arrows) order: the completion guard stops it
        q = Quiver.build(["v"], [("x", "v", "v"), ("y", "v", "v")])
        bq = BoundQuiver(q, (diff(q, ("y", "x", "y"), ("x", "y", "x")),))
        with pytest.raises(Undecided) as info:
            enumerate_basis(bq, length_cap=8)
        assert not isinstance(info.value, InfiniteDimensional)
        assert str(info.value) == ("undecided: the rewriting completion passed degree "
                                   "16 (twice the length cap 8) without closing")
        assert "_basis" not in bq.__dict__

    @pytest.mark.parametrize("mult", [1, 3, 5, 31, 32, 40])
    def test_cap_covers_the_longest_relation(self, mult):
        # u - v - w: the relations at v have terms of length 2 * mult + 1,
        # past the default cap from mult 32 on; the dimension is
        # 2|E| + sum over vertices of val * (mult * val - 1)
        text = (f"vertex u\nvertex v mult={mult}\nvertex w\nedge e u v\n"
                "edge f v w\norder u: e\norder v: e, f\norder w: f\n")
        alg = skew_brauer_algebra(formats.parse_sbg(text, "line.sbg"))
        basis = enumerate_basis(alg.algebra)
        assert basis.dimension == 2 * 2 + 2 * (2 * mult - 1)
        assert basis.nilpotency_bound == 2 * mult + 1

    def test_basis_built_once_per_algebra(self):
        bq = admissible_presentation(make_presentation(load("toy.bq")))
        first, again = enumerate_basis(bq), enumerate_basis(bq)
        assert first == again and first._engine is again._engine
        # the completed system does not depend on the cap, which only
        # guards the completion
        assert enumerate_basis(bq, length_cap=3)._engine is first._engine
        # a failed build is not kept: a larger guard builds afresh
        q = Quiver.build(["v"], [("x", "v", "v"), ("y", "v", "v")])
        braid = BoundQuiver(q, (diff(q, ("y", "x", "y"), ("x", "y", "x")),))
        for _ in range(2):
            with pytest.raises(Undecided):
                enumerate_basis(braid, length_cap=4)
            assert "_basis" not in braid.__dict__

    def test_basis_cache_makes_no_cycle(self):
        # the stash on the algebra must not point back to it, or the
        # algebra would outlive its last reference until a collection
        q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        bq = BoundQuiver(q, (mono(q, "a", "b"),))
        ref = weakref.ref(bq)
        gc.disable()
        try:
            basis = enumerate_basis(bq)
            basis.depth(basis.basis_paths[-1])
            enumerate_basis(bq, length_cap=8)
            del bq, basis
            assert ref() is None
        finally:
            gc.enable()

    def test_non_unit_tip_coefficient(self):
        # a*b - 2*c*d rewrites its tip c*d to a*b / 2, exactly
        q = square()
        rel = Relation(((Fraction(1), P(q, "a", "b")), (Fraction(-2), P(q, "c", "d"))))
        basis = enumerate_basis(BoundQuiver(q, (rel,)))
        assert basis.dimension == 9
        nf = basis.reduce(P(q, "c", "d"))
        assert nf == {P(q, "a", "b"): Fraction(1, 2)}
        assert type(nf[P(q, "a", "b")]) is Fraction

    @pytest.mark.parametrize("first, second, want", [
        # c*d -> a*b / 2, then e*f -> c*d / 3 -> a*b / 6
        ((1, -2), (1, -3), Fraction(1, 6)),
        # c*d -> 2*a*b, then e*f -> 3*c*d -> 6*a*b, with int coefficients
        ((-2, 1), (-3, 1), 6),
    ])
    def test_chained_scaled_binomials_multiply_their_scalars(self, first, second, want):
        # three parallel paths a*b < c*d < e*f; each relation is
        # x*(smaller) + y*(larger), so the largest path rewrites twice
        q = Quiver.build(["1", "2", "3", "4", "5"],
                         [("a", "1", "2"), ("b", "2", "5"), ("c", "1", "3"),
                          ("d", "3", "5"), ("e", "1", "4"), ("f", "4", "5")])
        ab, cd, ef = P(q, "a", "b"), P(q, "c", "d"), P(q, "e", "f")
        rels = tuple(Relation(((Fraction(x), small), (Fraction(y), large)))
                     for (x, y), small, large in ((first, ab, cd), (second, cd, ef)))
        basis = enumerate_basis(BoundQuiver(q, rels))
        nf = basis.normal_form(ef.arrows)
        assert nf == (want, ab.arrows) and type(nf[0]) is type(want)
        assert basis.reduce(ef) == {ab: Fraction(want)}
        assert basis.relation_holds(Relation(((Fraction(1), ef), (-Fraction(want), ab))))

    def test_normal_form_on_words(self):
        q = square()
        ab, cd = P(q, "a", "b").arrows, P(q, "c", "d").arrows
        basis = enumerate_basis(BoundQuiver(q, (diff(q, ("a", "b"), ("c", "d")),)))
        nf = basis.normal_form(cd)
        assert nf == (1, ab) and type(nf[0]) is int
        assert basis.normal_form(ab) == (1, ab)
        assert basis.normal_form(()) == (1, ())
        line = Quiver.build(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "3"),
                                                   ("c", "3", "4")])
        cut = enumerate_basis(BoundQuiver(line, (mono(line, "a", "b", "c"),)))
        assert cut.nilpotency_bound == 3
        assert cut.normal_form(P(line, "a", "b", "c").arrows) is None
        half = Relation(((Fraction(1), P(q, "a", "b")), (Fraction(-2), P(q, "c", "d"))))
        nf = enumerate_basis(BoundQuiver(q, (half,))).normal_form(cd)
        assert nf == (Fraction(1, 2), ab) and type(nf[0]) is Fraction
        assert basis.reduce(P(q, "c", "d")) == {P(q, "a", "b"): Fraction(1)}
        assert basis.relation_holds(diff(q, ("c", "d"), ("a", "b")))
        assert not basis.relation_holds(Relation.monomial(P(q, "a", "b")))

    def test_zero_coefficient_terms_are_dropped(self):
        # a term 0 * p adds nothing to the ideal: 1*a*b + 0*c*d is the
        # monomial a*b, and 0*a*b is no relation at all
        q = square()
        ab, cd = P(q, "a", "b"), P(q, "c", "d")
        with_zero = Relation(((Fraction(1), ab), (Fraction(0), cd)))
        only_zero = Relation(((Fraction(0), ab),))
        got = enumerate_basis(BoundQuiver(q, (with_zero,)))
        want = enumerate_basis(BoundQuiver(q, (mono(q, "a", "b"),)))
        assert (got.basis_paths, got.nilpotency_bound) == (
            want.basis_paths, want.nilpotency_bound)
        free = enumerate_basis(BoundQuiver(q, (only_zero,)))
        assert (free.basis_paths, free.nilpotency_bound) == (
            enumerate_basis(BoundQuiver(q)).basis_paths, 3)
        assert free.dimension == 10
        assert got.relation_holds(with_zero) and got.relation_holds(only_zero)
        assert free.relation_holds(only_zero)
        assert not free.relation_holds(with_zero)
        # a zero coefficient ahead of a nonzero term adds nothing
        assert not free.relation_holds(Relation(((Fraction(0), ab), (Fraction(1), cd))))
        assert free.normal_form(cd.arrows) == (1, cd.arrows)

    @pytest.mark.parametrize("name, rules", [("toy.bq", 20), ("fig1.sbg", 20),
                                             ("torus.sbg", 21)])
    def test_completed_rule_count(self, name, rules):
        # the reduced rewriting system is unique for the (length, arrows)
        # order; toy.bq is taken through T(A) of its admissible presentation
        if name.endswith(".bq"):
            adm = admissible_presentation(make_presentation(load(name)))
            bq = trivial_extension(adm).algebra
        else:
            bq = skew_brauer_algebra(load(name)).algebra
        stats = enumerate_basis(bq).stats
        assert stats["rules"] == rules
        assert 0 < stats["memo_hits"] < stats["nf_calls"]

    @pytest.mark.parametrize("name", ["toy_aux", "xyx"])
    def test_monomial_overlaps_are_never_resolved(self, name):
        # every overlap of two monomial rules rewrites to zero, so none is
        # queued; the tips overlap (l*g*d, x*x*x, x*y*x*y*x, ...), and
        # the basis is still the oracle's
        if name == "toy_aux":
            bq = toy_aux()
        else:
            q = Quiver.build(["v"], [("x", "v", "v"), ("y", "v", "v")])
            bq = BoundQuiver(q, (mono(q, "x", "x"), mono(q, "y", "y"),
                                 mono(q, "x", "y", "x")))
        basis = enumerate_basis(bq)
        assert basis.stats["ambiguities"] == 0
        dim, bound, paths, _ = oracle_reduce(bq, cap=basis.nilpotency_bound + 3)
        assert (basis.dimension, basis.nilpotency_bound) == (dim, bound)
        assert set(basis.basis_paths) == set(paths)

    @pytest.mark.parametrize("word, sub, found", [
        ((1, 1, 2), (1, 2), True),            # after a false start
        ((1, 3, 1, 1, 2), (1, 2), True),      # at the very end
        ((1, 2, 3), (1, 2, 3), True),         # the whole word
        ((2, 1, 3, 2, 1), (1, 2), False),     # never
        ((1, 2), (1, 2, 3), False),           # longer than the word
    ])
    def test_contains(self, word, sub, found):
        assert _contains(word, sub) is found

    def test_non_admissible_rejected(self):
        with pytest.raises(NotAdmissible):
            enumerate_basis(load("toy.bq"))

    def test_reduction_idempotent(self):
        pres = make_presentation(load("toy.bq"))
        basis = enumerate_basis(admissible_presentation(pres))
        for p in basis.basis_paths:
            assert basis.reduce(p) == {p: Fraction(1)}
            assert all(type(c) is Fraction for c in basis.reduce(p).values())

    def test_dimension_by_blocks(self):
        basis = enumerate_basis(toy_aux())
        q = basis.algebra.quiver
        blocks = basis.blocks()
        by_source = sum(len(ps) for v in q.vertices
                        for (s, _), ps in blocks.items() if s == v.id)
        by_target = sum(len(ps) for v in q.vertices
                        for (_, t), ps in blocks.items() if t == v.id)
        assert by_source == basis.dimension == by_target


INDEXED = ["toy.bq", "T(toy.bq)", "torus.sbg", "excut.sbg", "gamma1_m2.sbg",
           "bloop.sbg", "toy_aux", "kronecker.bq"]


def _indexed_algebra(name: str) -> BoundQuiver:
    if name == "toy_aux":
        return toy_aux()
    if name == "kronecker.bq":
        return load(name)
    if name.endswith(".sbg"):
        return skew_brauer_algebra(load(name)).algebra
    adm = admissible_presentation(make_presentation(load("toy.bq")))
    return adm if name == "toy.bq" else trivial_extension(adm).algebra


class TestBlockIndex:
    @pytest.mark.parametrize("name", INDEXED)
    def test_blocks_partition_the_basis_in_order(self, name):
        bq = _indexed_algebra(name)
        basis = enumerate_basis(bq)
        q = bq.quiver
        paths = basis.basis_paths
        blocks = basis.blocks()
        # every basis path lies in exactly one block
        grouped = [p for block in blocks.values() for p in block]
        assert sorted(grouped, key=Path.sort_key) == list(paths)
        for (s, t), block in blocks.items():
            assert block
            assert all((p.source(q), p.target(q)) == (s, t) for p in block)
        ids = [v.id for v in q.vertices]
        for s in ids:
            for t in ids:
                want = tuple(p for p in paths if (p.source(q), p.target(q)) == (s, t))
                assert blocks.get((s, t), ()) == want
        assert basis.blocks() is blocks

    @pytest.mark.parametrize("name", INDEXED)
    def test_normal_forms_have_one_term_and_depth_is_the_longest_path(self, name):
        bq = _indexed_algebra(name)
        basis = enumerate_basis(bq)
        q = bq.quiver
        # breadth first from the stationary paths, one arrow at a time,
        # over every nonzero path
        walk = [stationary(v.id) for v in q.vertices]
        longest = {}
        for p in walk:
            for a in q.arrows_from(p.target(q)):
                ext = Path(p.base if p.arrows else a.source, p.arrows + (a.id,))
                nf = basis.normal_form(ext.arrows)
                if nf is not None:
                    c, w = nf
                    assert c and isinstance(w, tuple), ext.label(q)
                    walk.append(ext)
                    longest[w] = len(ext)
        assert sorted(longest) == sorted(p.arrows for p in basis.basis_paths if p.arrows)
        for p in basis.basis_paths:
            assert basis.depth(p) == longest.get(p.arrows, 0), p.label(q)


class TestMaximalPaths:
    def test_toy_auxiliary(self):
        bq = toy_aux()
        basis = enumerate_basis(bq)
        labels = sorted(p.label(bq.quiver) for p in maximal_paths(bq, basis))
        assert labels == ["a*b*g", "d*l"]

    def test_a2(self):
        bq = a2()
        basis = enumerate_basis(bq)
        assert [p.label(bq.quiver) for p in maximal_paths(bq, basis)] == ["a"]

    def test_isolated_vertex(self):
        bq = load("semisimple2.bq")
        basis = enumerate_basis(bq)
        assert sorted(p.label(bq.quiver) for p in maximal_paths(bq, basis)) \
            == ["e_x", "e_y"]


class TestGentleVerdicts:
    def test_toy_auxiliary_is_gentle(self):
        assert is_locally_gentle(toy_aux())
        assert is_gentle(toy_aux())

    def test_three_arrows_in(self):
        q = Quiver.build(["1", "2", "3", "4"],
                         [("a", "1", "4"), ("b", "2", "4"), ("c", "3", "4")])
        verdict = is_locally_gentle(BoundQuiver(q))
        assert not verdict
        assert verdict.condition == "at-most-two-arrows"

    @pytest.mark.parametrize("arrows, relations, verdict", [
        ([("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4")], [("a", "b"), ("a", "c")],
         ("unique-killed-successor", "arrow a has two killed successors", ("b", "c"))),
        ([("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4")], [],
         ("unique-alive-successor", "arrow a has two surviving successors", ("b", "c"))),
        ([("a", "1", "3"), ("b", "2", "3"), ("c", "3", "4")], [("a", "c"), ("b", "c")],
         ("unique-killed-predecessor", "arrow c has two killed predecessors", ("a", "b"))),
        ([("a", "1", "3"), ("b", "2", "3"), ("c", "3", "4")], [],
         ("unique-alive-predecessor", "arrow c has two surviving predecessors",
          ("a", "b"))),
    ])
    def test_unique_neighbour_verdicts(self, arrows, relations, verdict):
        q = Quiver.build(["1", "2", "3", "4"], arrows)
        got = is_locally_gentle(BoundQuiver(q, tuple(mono(q, *r) for r in relations)))
        assert got == (False, *verdict)

    def test_kronecker_locally_gentle(self):
        assert is_locally_gentle(load("kronecker.bq"))

    def test_single_loop_fails_admissibility(self):
        verdict = is_gentle(load("loop.bq"))
        assert not verdict
        assert verdict.condition == "admissible"

    def test_cycle_gentleness_tracks_surviving_powers(self):
        # on the bare cycle of the auxiliary algebra, the verdict flips
        # exactly when a relation kills the cycle powers
        q = Quiver.build(["3", "4", "5"],
                         [("g", "3", "4"), ("d", "4", "5"), ("l", "5", "3")])
        free = BoundQuiver(q, ())
        verdict = is_gentle(free)
        assert not verdict and verdict.condition == "admissible"
        cut = BoundQuiver(q, (mono(q, "g", "d"),))
        assert is_gentle(cut)


class TestCartan:
    def test_sec73_A(self):
        pres = make_presentation(load("sec73_A.bq"))
        adm = admissible_presentation(pres)
        data = cartan(adm, enumerate_basis(adm))
        assert str(data.det_q) == "1"
        assert data.det_ordinary == 1

    def test_sec73_B(self):
        pres = make_presentation(load("sec73_B.bq"))
        adm = admissible_presentation(pres)
        data = cartan(adm, enumerate_basis(adm))
        assert str(data.det_q) == "1 - q^2"
        assert data.det_ordinary == 0

    def test_semisimple_identity(self):
        bq = load("semisimple2.bq")
        data = cartan(bq, enumerate_basis(bq))
        assert data.ordinary == ((1, 0), (0, 1))
        assert data.det_ordinary == 1
        assert str(data.det_q) == "1"

    @pytest.mark.parametrize("name", BQ_FIXTURES)
    def test_q_at_one_equals_ordinary(self, name):
        bq = load(name)
        if not bq.admissible:
            bq = admissible_presentation(make_presentation(bq))
        data = cartan(bq, enumerate_basis(bq))
        for row_q, row_o in zip(data.q_graded, data.ordinary):
            assert [x.eval_at(1) for x in row_q] == list(row_o)
        assert data.det_q.eval_at(1) == data.det_ordinary

    @pytest.mark.parametrize("name", ["sec73_B.bq", "torus.sbg", "gamma1_m2.sbg"])
    def test_det_ordinary_against_leibniz(self, name):
        if name.endswith(".sbg"):
            bq = skew_brauer_algebra(load(name)).algebra
        else:
            bq = admissible_presentation(make_presentation(load(name)))
        data = cartan(bq, enumerate_basis(bq))
        assert data.det_ordinary == leibniz_det(data.ordinary, 1)

    def test_det_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        pres = make_presentation(load("toy.bq"))
        adm = admissible_presentation(pres)
        data = cartan(adm, enumerate_basis(adm))
        qsym = sympy.Symbol("q")
        m = sympy.Matrix([[sympy.Poly(list(reversed(x.coeffs or (0,))), qsym).as_expr()
                           for x in row] for row in data.q_graded])
        expected = sympy.expand(m.det())
        got = sympy.expand(sympy.Poly(list(reversed(data.det_q.coeffs or (0,))),
                                      qsym).as_expr())
        assert sympy.simplify(expected - got) == 0


class TestIntPoly:
    def test_str(self):
        assert str(IntPoly((1, 0, -1))) == "1 - q^2"
        assert str(IntPoly((1, 1))) == "1 + q"
        assert str(IntPoly(())) == "0"
        assert str(IntPoly((0, 2))) == "2*q"

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_integer_det_matches_permanent_expansion(self, rows):
        m = [[IntPoly.const(x) for x in row] for row in rows]
        det = det_fraction_free(m).eval_at(0) if det_fraction_free(m) else 0
        a = rows
        brute = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                 - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                 + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
        assert det == brute


    @given(sparse_poly_matrices())
    @settings(max_examples=150, deadline=None, derandomize=True)
    @example([[IntPoly(), IntPoly((0, 1))], [IntPoly((2,)), IntPoly()]])
    @example([[IntPoly((1, 1)), IntPoly(), IntPoly((3,))],
              [IntPoly(), IntPoly(), IntPoly((0, -1))],
              [IntPoly((1, 1)), IntPoly(), IntPoly((3,))]])
    # a coefficient of det at +-beta exactly: the Kronecker bound is tight
    @example([[IntPoly((-3,))]])
    @example([[IntPoly((-2,)), IntPoly()], [IntPoly(), IntPoly((-3,))]])
    @example([[IntPoly((0, 0, -2))]])
    # an all-zero row gives beta = 0
    @example([[IntPoly((1, 2)), IntPoly((0, 1))], [IntPoly(), IntPoly()]])
    # mixed signs in a row: a bound from signed sums would be too small
    @example([[IntPoly((1, -1)), IntPoly((0, 1))], [IntPoly((0, 1)), IntPoly((1, -1))]])
    # Hadamard matrices: a coefficient at +-beta exactly, where the bound
    # is the Goldstein-Graham one, below the product of the row sums
    @example(_consts([[1, 1], [1, -1]], q_power=1))
    @example(_consts([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]))
    # tridiagonal, eliminated in the identity order: the last row misses
    # the pivot columns 0 and 1, then catches up by d_1 at column 2
    @example([[IntPoly((2,)), IntPoly((1,)), IntPoly(), IntPoly()],
              [IntPoly((1,)), IntPoly((3,)), IntPoly((0, 1)), IntPoly()],
              [IntPoly(), IntPoly((1,)), IntPoly((2, 1)), IntPoly((1,))],
              [IntPoly(), IntPoly(), IntPoly((-1,)), IntPoly((5,))]])
    # two blocks: both rows of the second wait two steps, then one is
    # scaled up to be the pivot row and the other catches up as it is hit
    @example([[IntPoly((2,)), IntPoly((1,)), IntPoly(), IntPoly()],
              [IntPoly((1,)), IntPoly((3,)), IntPoly(), IntPoly()],
              [IntPoly(), IntPoly(), IntPoly((2, 1)), IntPoly((1,))],
              [IntPoly(), IntPoly(), IntPoly((-1,)), IntPoly((0, 3))]])
    # minimum degree puts vertex 1 first, whose diagonal is zero: a swap
    @example(_consts([[1, 1, 1], [1, 0, 0], [1, 0, 1]]))
    # the second pivot cancels to zero: a swap in mid-elimination
    @example(_consts([[1, 1, 0], [1, 1, 1], [0, 1, 1]]))
    # an all-zero column
    @example([[IntPoly((1,)), IntPoly()], [IntPoly((0, 1)), IntPoly()]])
    def test_bareiss_matches_leibniz_on_sparse_matrices(self, m):
        assert det_fraction_free(m) == leibniz_det(m, IntPoly.const(1))

    @given(sparse_poly_matrices(), st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_det_is_invariant_under_symmetric_permutation(self, m, data):
        # det(P C P^T) = det C, whatever order minimum degree then picks
        perm = data.draw(st.permutations(range(len(m))))
        permuted = [[m[i][j] for j in perm] for i in perm]
        assert det_fraction_free(permuted) == det_fraction_free(m)


class TestIsomorphism:
    def test_reflexive_identity(self):
        bq = toy_aux()
        result = are_isomorphic(bq, bq)
        assert result and result.is_identity

    def test_reversed_a2_is_isomorphic_by_swap(self):
        # reversing the single arrow is undone by swapping the two vertices
        assert are_isomorphic(load("a2.bq"), load("a2rev.bq"))

    def test_reversed_fork_is_not_isomorphic(self):
        fork = BoundQuiver(Quiver.build(
            ["1", "2", "3"], [("a", "1", "2"), ("b", "1", "3")]))
        rev = BoundQuiver(Quiver.build(
            ["1", "2", "3"], [("a", "2", "1"), ("b", "3", "1")]))
        result = are_isomorphic(fork, rev)
        assert result.status == "not_isomorphic"

    @pytest.mark.parametrize("name", ["toy.bq", "sec73_A.bq", "repetitive.bq"])
    def test_symmetric_on_presentations(self, name):
        adm = admissible_presentation(make_presentation(load(name)))
        other = admissible_presentation(make_presentation(load(name)))
        assert are_isomorphic(adm, other)
        assert are_isomorphic(other, adm)

    def test_non_unit_binomial_scalar_is_isomorphic(self):
        # a*b - c*d against a*b - c*d/3: rescaling c by 3 carries one onto
        # the other, so only the scalar branch of the relation check can
        # accept the identity map
        q = square()
        plain = BoundQuiver(q, (diff(q, ("a", "b"), ("c", "d")),))
        third = BoundQuiver(q, (Relation(((Fraction(1), P(q, "a", "b")),
                                          (Fraction(-1, 3), P(q, "c", "d")))),))
        for x, y in ((plain, third), (third, plain)):
            result = are_isomorphic(x, y)
            assert result.status == "isomorphic"
            assert result.is_identity

    def test_binomial_supports_differ_is_not_isomorphic(self):
        # 1 => 2 => 3 with a1*b - a2*c against a1*b - a2*b: same dimension
        # and vertex profiles, but every image of the first relation has two
        # terms with different normal-form supports in the second algebra
        q = Quiver.build(["1", "2", "3"], [("a1", "1", "2"), ("a2", "1", "2"),
                                           ("b", "2", "3"), ("c", "2", "3")])
        x = BoundQuiver(q, (diff(q, ("a1", "b"), ("a2", "c")),))
        y = BoundQuiver(q, (diff(q, ("a1", "b"), ("a2", "b")),))
        assert enumerate_basis(x).dimension == enumerate_basis(y).dimension == 10
        assert are_isomorphic(x, y).status == "not_isomorphic"
        assert are_isomorphic(y, x).status == "not_isomorphic"

    def test_monomial_that_survives_is_not_isomorphic(self):
        # 1 => 2 => 3 with a1*b, a2*c against a1*b, a1*c: same dimension and
        # profiles, but in the second algebra one arrow kills both arrows
        # after it, and no arrow map sends both monomials to zero
        q = Quiver.build(["1", "2", "3"], [("a1", "1", "2"), ("a2", "1", "2"),
                                           ("b", "2", "3"), ("c", "2", "3")])
        x = BoundQuiver(q, (mono(q, "a1", "b"), mono(q, "a2", "c")))
        y = BoundQuiver(q, (mono(q, "a1", "b"), mono(q, "a1", "c")))
        assert enumerate_basis(x).dimension == enumerate_basis(y).dimension == 9
        assert are_isomorphic(x, y).status == "not_isomorphic"

    def test_budget_exhaustion_is_reported(self):
        adm = admissible_presentation(make_presentation(load("toy.bq")))
        result = are_isomorphic(adm, adm, budget=1)
        assert result.status == "budget_exhausted"
        assert result.nodes > 1

    def test_relabelled_copy_is_certified_by_its_generators(self, monkeypatch):
        # vertex and arrow ids reversed, every arrow renamed: the first
        # candidate map sends the relations of the copy onto those of the
        # original, so the copy needs no basis
        adm = admissible_presentation(make_presentation(load("toy.bq")))
        q = adm.quiver
        label = {v.id: v.label for v in q.vertices}
        cq = Quiver.build([label[v.id] for v in reversed(q.vertices)],
                          [("r" + a.label, label[a.source], label[a.target])
                           for a in reversed(q.arrows)])
        vid = {v.id: cq.vertex_by_label(v.label).id for v in q.vertices}
        aid = {a.id: cq.arrow_by_label("r" + a.label).id for a in q.arrows}
        assert vid != {v: v for v in vid} and aid != {a: a for a in aid}
        copy = BoundQuiver(cq, tuple(
            Relation(tuple((c, Path(vid[p.base], tuple(aid[x] for x in p.arrows)))
                           for c, p in r.terms)) for r in adm.relations),
            frozenset(vid[v] for v in adm.special_vertices))
        built = record_builds(monkeypatch)
        result = are_isomorphic(copy, adm)
        assert result.status == "isomorphic"
        assert result.vertex_map == {lab: lab for lab in label.values()}
        assert result.arrow_map == {"r" + a.label: a.label for a in q.arrows}
        assert not any(x is copy for x in built)

    def test_generators_of_b_are_computed_once(self, monkeypatch):
        # the same b in two calls: its relation terms, read only for its
        # generator set, and its tuple fault are read once; a's terms are
        # not read when the tuple certificate accepts, and once per call
        # on a pair that carries no tuple
        t = trivial_extension(admissible_presentation(make_presentation(load("toy.bq"))))
        cut = next(iter(enumerate_good_cuts(t)))
        back = trivial_extension(quotient_by_cut(t, cut)).algebra
        read, asked = [], []
        real, real_fault = iso._terms, iso._tuple_fault
        monkeypatch.setattr(iso, "_terms", lambda bq: read.append(bq) or real(bq))
        monkeypatch.setattr(iso, "_tuple_fault", lambda bq: asked.append(bq) or real_fault(bq))
        assert are_isomorphic(back, t.algebra) and are_isomorphic(back, t.algebra)
        assert sum(x is t.algebra for x in read) == 1
        assert sum(x is back for x in read) == 0
        assert sum(x is t.algebra for x in asked) == 1
        assert sum(x is back for x in asked) == 2
        q = square()
        plain_a, plain_b = (BoundQuiver(q, (diff(q, ("a", "b"), ("c", "d")),)) for _ in "ab")
        assert are_isomorphic(plain_a, plain_b) and are_isomorphic(plain_a, plain_b)
        assert sum(x is plain_a for x in read) == 2

    def test_round_trip_builds_no_basis_of_the_quotient_extension(self, monkeypatch):
        trips = list(_round_trips())
        assert len(trips) == 40
        for name, t, back in trips:
            built = record_builds(monkeypatch)
            assert are_isomorphic(back.algebra, t.algebra), name
            assert not any(x is back.algebra for x in built), name

    def test_generator_check_rejects_a_changed_sign(self, monkeypatch):
        # a*b - c*d against a*b + c*d: not the same generators, so the
        # basis of the first argument is built for the normal-form search
        q = square()
        minus = BoundQuiver(q, (diff(q, ("a", "b"), ("c", "d")),))
        plus = BoundQuiver(q, (Relation(((Fraction(1), P(q, "a", "b")),
                                         (Fraction(1), P(q, "c", "d")))),))
        same_v = {v.id: v.id for v in q.vertices}
        same_a = {a.id: a.id for a in q.arrows}
        gens = {bq: _generators(_terms(bq)) for bq in (minus, plus)}
        assert _same_generators(_terms(minus), gens[minus], same_v, same_a)
        assert not _same_generators(_terms(minus), gens[plus], same_v, same_a)
        built = record_builds(monkeypatch)
        are_isomorphic(minus, plus)
        assert any(x is minus for x in built)

    def test_zero_terms_drop_from_the_normal_form_check(self):
        # 0*a*b + c*d is the monomial c*d: not carried into the commutative
        # square, where c*d is nonzero, but carried where c*d is zero; and
        # 0*a*b is no relation at all
        q = square()
        ab, cd = P(q, "a", "b"), P(q, "c", "d")
        same_a = {a.id: a.id for a in q.arrows}
        commutative = enumerate_basis(BoundQuiver(q, (diff(q, ("a", "b"), ("c", "d")),)))
        zero = enumerate_basis(BoundQuiver(q, (mono(q, "a", "b"), mono(q, "c", "d"))))
        terms = _terms(BoundQuiver(q, (Relation(((Fraction(0), ab), (Fraction(1), cd))),)))
        assert not _relations_carry(terms, commutative, same_a)
        assert _relations_carry(terms, zero, same_a)
        nothing = _terms(BoundQuiver(q, (Relation(((Fraction(0), ab),)),)))
        assert _relations_carry(nothing, commutative, same_a)

    def test_zero_coefficient_fails_the_generator_check(self):
        # a*b + 0*c*d leads with its zero term once sorted, so it has no
        # canonical form; the normal-form search still decides
        q = square()
        rel = Relation(((Fraction(1), P(q, "a", "b")), (Fraction(0), P(q, "c", "d"))))
        x, y = BoundQuiver(q, (rel,)), BoundQuiver(q, (rel,))
        same_v = {v.id: v.id for v in q.vertices}
        same_a = {a.id: a.id for a in q.arrows}
        assert _generators(_terms(y)) is None
        assert not _same_generators(_terms(x), None, same_v, same_a)
        # nor does the image of x match a*b, its relation without the zero term
        ab = BoundQuiver(q, (mono(q, "a", "b"),))
        assert not _same_generators(_terms(x), _generators(_terms(ab)), same_v, same_a)
        result = are_isomorphic(x, y)
        assert result.status == "isomorphic" and result.is_identity

    def test_unequal_dimensions_end_the_search_with_no_nodes(self):
        # x_i: 0 -> i, y_i: i -> 4; two binomials leave one of the three
        # paths x_i*y_i (dimension 12), three monomials none (dimension
        # 11): the first candidate fails the generator check, and the basis
        # it builds ends the search
        q = Quiver.build([str(i) for i in range(5)],
                         [(f"{x}{i}", *ends) for i in (1, 2, 3)
                          for x, ends in (("x", ("0", str(i))), ("y", (str(i), "4")))])
        binomials = BoundQuiver(q, (diff(q, ("x1", "y1"), ("x2", "y2")),
                                    diff(q, ("x2", "y2"), ("x3", "y3"))))
        monomials = BoundQuiver(q, tuple(mono(q, f"x{i}", f"y{i}") for i in (1, 2, 3)))
        assert enumerate_basis(binomials).dimension == 12
        assert enumerate_basis(monomials).dimension == 11
        for x, y in ((binomials, monomials), (monomials, binomials)):
            assert are_isomorphic(x, y) == IsoResult("not_isomorphic")

    def test_renamed_infinite_loop_raises_for_the_first_argument(self):
        # both bases fail; the error names the cycle of the first argument
        loop = load("loop.bq")
        with open(fixture_path("loop.bq"), encoding="utf-8") as fh:
            renamed = formats.parse_bq(fh.read().replace("arrow f:", "arrow g:"))
        with pytest.raises(InfiniteDimensional, match="cycle f is"):
            are_isomorphic(loop, renamed)
        with pytest.raises(InfiniteDimensional, match="cycle g is"):
            are_isomorphic(renamed, loop)

    @pytest.mark.parametrize("name", sorted(
        n for n in os.listdir(FIXTURES) if n.endswith(".bq") and n != "loop.bq"))
    def test_shuffled_copies_are_isomorphic_by_maps_that_carry_the_relations(self, name):
        # loop.bq is infinite-dimensional; every other .bq fixture builds.
        # The admissible presentation and T(A), each against 15 copies with
        # ids, labels and relation order permuted: the copy is found
        # isomorphic, and the maps send each of its relations into the ideal
        adm = load(name)
        if not adm.admissible:
            adm = admissible_presentation(make_presentation(adm))
        for bq in (adm, trivial_extension(adm).algebra):
            q, target = bq.quiver, enumerate_basis(bq)
            for seed in range(15):
                copy = shuffled_copy(bq, random.Random(seed))
                result = are_isomorphic(copy, bq)
                assert result.status == "isomorphic", (name, seed)
                cq = copy.quiver
                vmap = {v.id: q.vertex_by_label(result.vertex_map[v.label]).id
                        for v in cq.vertices}
                amap = {a.id: q.arrow_by_label(result.arrow_map[a.label]).id
                        for a in cq.arrows}
                for r in copy.relations:
                    image = tuple((c, Path(vmap[p.base], tuple(amap[x] for x in p.arrows)))
                                  for c, p in r.terms)
                    assert target.relation_holds(Relation(image)), (name, seed, r.label(cq))
