"""Oracle equivalence: the rewriting engine against one-shot exhaustive
reduction, and the reads off the sg-tuple against the readings they replaced."""
import dataclasses
import os
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from skewbrauer.basis import enumerate_basis, maximal_paths
from skewbrauer import brauer, formats, iso, trivext
from skewbrauer.brauer import (projective_layers, skew_brauer_algebra,
                               symmetric_form_check)
from skewbrauer.cartan import IntPoly, cartan
from skewbrauer.dissection import skew_gentle_from_dissection
from skewbrauer.errors import InfiniteDimensional, SkewBrauerError, Undecided
from skewbrauer.quiver import BoundQuiver, Path, Quiver, Relation, _gentle_maximal_paths
from skewbrauer.iso import are_isomorphic
from skewbrauer.skewgentle import (SgTuple, admissible_presentation, auxiliary_gentle,
                                   gentle_base, make_presentation)
from skewbrauer.trivext import enumerate_good_cuts, quotient_by_cut, trivial_extension

from helpers import BQ_FIXTURES, FIXTURES, SBG_FIXTURES, family_graphs, load, record_builds
from oracle import (all_paths, dense_projective_layers, dense_rank,
                    dense_symmetric_form_check, gentle_base_by_basis, laplace_det,
                    oracle_reduce)
from test_properties import linear_skew_gentle


def _admissible(name: str) -> BoundQuiver:
    bq = load(name)
    if bq.admissible:
        return bq
    return admissible_presentation(make_presentation(bq))


# every fixture algebra with at most eight arrows, as admissible presentations
SMALL = [
    "a2.bq",            # 1 arrow
    "kronecker.bq",     # 2
    "semisimple2.bq",   # 0
    "repetitive.bq",    # admissible form: 4 arrows
    "sec73_A.bq",       # 4
    "sec73_B.bq",       # 4
    "sec74.bq",         # 9 in the admissible form -> skipped by the filter
    "toy.bq",           # 9 -> skipped
]


@pytest.mark.parametrize("name", SMALL)
def test_engine_matches_oracle(name):
    bq = _admissible(name)
    if len(bq.quiver.arrows) > 8:
        pytest.skip("more than eight arrows")
    basis = enumerate_basis(bq)
    max_gen = max((r.max_term_length() for r in bq.relations), default=2)
    dim, bound, paths, _ = oracle_reduce(bq, cap=basis.nilpotency_bound + max_gen)
    assert dim == basis.dimension
    assert bound == basis.nilpotency_bound
    assert set(paths) == set(basis.basis_paths)


def test_toy_admissible_against_oracle():
    # nine arrows, kept anyway: this is the running example the spec keys on
    bq = _admissible("toy.bq")
    basis = enumerate_basis(bq)
    dim, bound, paths, _ = oracle_reduce(bq, cap=basis.nilpotency_bound + 2)
    assert (dim, bound) == (23, 4)
    assert basis.dimension == 23
    assert set(paths) == set(basis.basis_paths)


def test_excut_algebra_against_oracle():
    # the eight-arrow admissible presentation of the cut example's algebra
    alg = skew_brauer_algebra(load("excut.sbg"))
    assert len(alg.algebra.quiver.arrows) == 8
    basis = enumerate_basis(alg.algebra)
    max_gen = max(r.max_term_length() for r in alg.algebra.relations)
    dim, bound, paths, _ = oracle_reduce(alg.algebra,
                                         cap=basis.nilpotency_bound + max_gen)
    assert dim == basis.dimension
    assert set(paths) == set(basis.basis_paths)


def test_trivial_extension_against_oracle():
    # twelve arrows and inhomogeneous cycle differences: the hardest shape
    # the engine meets; the one-shot oracle agrees path for path
    from skewbrauer.trivext import trivial_extension
    adm = admissible_presentation(make_presentation(load("toy.bq")))
    t = trivial_extension(adm)
    basis = enumerate_basis(t.algebra)
    dim, bound, paths, _ = oracle_reduce(t.algebra, cap=basis.nilpotency_bound + 2)
    assert (dim, bound) == (basis.dimension, basis.nilpotency_bound) == (46, 5)
    assert set(paths) == set(basis.basis_paths)


# every path of this length is a generator, so the quotient is finite
TRUNCATE = 4


@st.composite
def inhomogeneous_algebras(draw):
    """Small bound quivers, loops allowed, with monomial relations and
    two-term relations whose terms differ in length."""
    nv = draw(st.integers(1, 3))
    specs = [(f"a{i}", str(draw(st.integers(0, nv - 1))),
              str(draw(st.integers(0, nv - 1))))
             for i in range(draw(st.integers(1, 3)))]
    q = Quiver.build([str(v) for v in range(nv)], specs)
    paths = [p for p in all_paths(q, TRUNCATE, set()) if len(p) >= 2]
    short = [p for p in paths if len(p) < TRUNCATE]
    relations = [Relation.monomial(p) for p in paths if len(p) == TRUNCATE]
    assume(len(relations) <= 32)  # keeps the one-shot oracle cheap
    if not short:
        return BoundQuiver(q, tuple(relations))
    for p in draw(st.lists(st.sampled_from(short), max_size=2)):
        relations.append(Relation.monomial(p))
    for _ in range(draw(st.integers(1, 3))):
        p = draw(st.sampled_from(short))
        partners = [r for r in paths if len(r) != len(p)
                    and (r.source(q), r.target(q)) == (p.source(q), p.target(q))]
        if partners:
            c = Fraction(draw(st.sampled_from([-2, -1, 1, 3])))
            relations.append(Relation(((Fraction(1), p),
                                       (c, draw(st.sampled_from(partners))))))
    return BoundQuiver(q, tuple(relations))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(inhomogeneous_algebras())
def test_inhomogeneous_relations_match_oracle(bq):
    basis = enumerate_basis(bq)
    max_gen = max((r.max_term_length() for r in bq.relations), default=2)
    # past TRUNCATE + max_gen every product is a sum of dead paths,
    # so the truncated oracle is exact
    dim, bound, paths, oracle_form = oracle_reduce(bq, cap=TRUNCATE + max_gen)
    assert (basis.dimension, basis.nilpotency_bound) == (dim, bound)
    assert basis.basis_paths == tuple(paths)
    monomials = {r.paths()[0].arrows for r in bq.relations if r.is_monomial}
    survivors = set(all_paths(bq.quiver, bound, monomials))
    for p in all_paths(bq.quiver, bound, set()):
        want = oracle_form(p) if p in survivors else {}
        assert basis.reduce(p) == want, p.label(bq.quiver)


@st.composite
def homogeneous_algebras(draw):
    """Small bound quivers, loops allowed, with monomial relations and
    two-term relations whose terms have equal length.  Nothing truncates
    them, so many are infinite dimensional."""
    nv = draw(st.integers(1, 3))
    specs = [(f"a{i}", str(draw(st.integers(0, nv - 1))),
              str(draw(st.integers(0, nv - 1))))
             for i in range(draw(st.integers(1, 3)))]
    q = Quiver.build([str(v) for v in range(nv)], specs)
    paths = [p for p in all_paths(q, 3, set()) if len(p) >= 2]
    if not paths:
        return BoundQuiver(q)
    relations = [Relation.monomial(p)
                 for p in draw(st.lists(st.sampled_from(paths), max_size=2))]
    for _ in range(draw(st.integers(0, 3))):
        p = draw(st.sampled_from(paths))
        partners = [r for r in paths if len(r) == len(p) and r != p
                    and (r.source(q), r.target(q)) == (p.source(q), p.target(q))]
        if partners:
            c = Fraction(draw(st.sampled_from([-2, -1, 1, 3])))
            relations.append(Relation(((Fraction(1), p),
                                       (c, draw(st.sampled_from(partners))))))
    return BoundQuiver(q, tuple(relations))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(homogeneous_algebras())
def test_finite_dimension_matches_oracle(bq):
    # homogeneous relations make the truncated oracle exact in every
    # degree up to its cap: it finds the basis of a finite algebra, and
    # paths alive at its cap in an infinite one
    try:
        basis = enumerate_basis(bq, length_cap=8)
    except Undecided:
        assume(False)
    except InfiniteDimensional as exc:
        u = exc.witness
        assert u.arrows and u.source(bq.quiver) == u.target(bq.quiver)
        with pytest.raises(ValueError, match="paths still alive at the cap"):
            oracle_reduce(bq, cap=6)
        return
    longest = max((r.max_term_length() for r in bq.relations), default=0)
    dim, bound, paths, _ = oracle_reduce(bq, cap=basis.nilpotency_bound + longest)
    assert (basis.dimension, basis.nilpotency_bound) == (dim, bound)
    assert basis.basis_paths == tuple(paths)


@pytest.mark.parametrize("name", SBG_FIXTURES + [f"T({n})" for n in BQ_FIXTURES])
def test_det_q_matches_laplace_expansion(name):
    # sizes up to 11: out of reach of Leibniz, cheap for memoised minors
    if name.endswith(".sbg"):
        bq = skew_brauer_algebra(load(name)).algebra
    else:
        bq = trivial_extension(_admissible(name[2:-1])).algebra
    data = cartan(bq, enumerate_basis(bq))
    assert data.det_q == laplace_det(data.q_graded, IntPoly.const(1))


def _symform_cases():
    for name in SBG_FIXTURES:
        yield name, skew_brauer_algebra(load(name))
    for name, text in family_graphs(1):
        yield f"family:{name}", skew_brauer_algebra(formats.parse_sbg(text, name))
    for name in SBG_FIXTURES:
        # phi supported on all cycles but one is no longer symmetric
        alg = skew_brauer_algebra(load(name))
        tup = alg.sg_tuple
        for i in range(len(tup.cycles)):
            fewer = dataclasses.replace(
                tup, cycles=tup.cycles[:i] + tup.cycles[i + 1:],
                multiplicities=tup.multiplicities[:i] + tup.multiplicities[i + 1:])
            yield f"{name}-cycle{i}", dataclasses.replace(alg, sg_tuple=fewer)
    alg = skew_brauer_algebra(load("excut.sbg"))
    for i, victim in enumerate(alg.algebra.relations):
        if victim.is_monomial:
            continue
        kept = tuple(r for r in alg.algebra.relations if r is not victim)
        yield f"excut.sbg-{i}", dataclasses.replace(
            alg, algebra=alg.algebra.relabelled(relations=kept))


def test_symmetric_form_matches_dense_gram_matrix():
    # fixtures that pass, the family graphs with the known failures, phi
    # without one of its cycles, and relation deletions that leave the
    # pairing one short of full rank
    conditions = set()
    for label, alg in _symform_cases():
        basis = enumerate_basis(alg.algebra)
        got = symmetric_form_check(alg, basis)
        want = dense_symmetric_form_check(alg, basis)
        assert (got.ok, got.condition, got.detail) == (
            want.ok, want.condition, want.detail), label
        conditions.add(want.condition)
    assert conditions == {"", "symmetry", "nondegenerate"}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.dictionaries(st.sampled_from([(), (0,), (1,), (0, 1), (1, 0), (2, 0, 1)]),
                                st.sampled_from([-3, -1, 1, 2, Fraction(1, 2),
                                                 Fraction(-2, 3)]),
                                max_size=4),
                max_size=8))
# a row whose lead is hit twice in a row, reduced through Fraction rows
@example([{(0,): 2, (1,): 1}, {(1,): 3, (0, 1): -1}, {(0,): 1, (0, 1): Fraction(1, 2)}])
# a multiple of an earlier row, and a row that two earlier rows cancel
@example([{(): 1, (0,): -1}, {(): -3, (0,): 3}, {(0,): 1, (1,): 1}, {(): 1, (1,): 1}])
def test_echelon_rank_matches_dense_elimination(vectors):
    # rows with several nonzeros, and Fraction entries, against dense
    # elimination
    words = sorted({w for vec in vectors for w in vec})
    assert brauer._rank(vectors) == dense_rank(
        [[Fraction(vec.get(w, 0)) for w in words] for vec in vectors])


def _excut_rescaled():
    """excut.sbg's algebra with its last binomial p - q written as p - 3q,
    so that normal forms carry the coefficient 1/3."""
    alg = skew_brauer_algebra(load("excut.sbg"))
    rels = list(alg.algebra.relations)
    i = max(i for i, r in enumerate(rels) if not r.is_monomial)
    (c, p), (d, r) = rels[i].terms
    rels[i] = Relation(((c, p), (3 * d, r)))
    return dataclasses.replace(alg, algebra=alg.algebra.relabelled(relations=tuple(rels)))


def _projective_cases():
    for name in SBG_FIXTURES:
        alg = skew_brauer_algebra(load(name))
        if len(alg.quiver.arrows) <= 12:
            yield name, alg
    for name, text in family_graphs(1):
        yield f"family:{name}", skew_brauer_algebra(formats.parse_sbg(text, name))
    alg = skew_brauer_algebra(load("excut.sbg"))
    for i, victim in enumerate(alg.algebra.relations):
        kept = tuple(r for r in alg.algebra.relations if r is not victim)
        yield f"excut.sbg-{i}", dataclasses.replace(
            alg, algebra=alg.algebra.relabelled(relations=kept))
    yield "excut.sbg-rescaled", _excut_rescaled()


def test_projective_layers_match_dense_ranks():
    # basis paths counted by depth against dense elimination on the
    # oracle's normal forms, at every vertex; the rescaled case has
    # normal forms with coefficient 1/3
    for label, alg in _projective_cases():
        basis = enumerate_basis(alg.algebra)
        for v in alg.quiver.vertices:
            got = projective_layers(alg, v.id, basis)
            want = dense_projective_layers(alg, v.id)
            assert (got.top, got.layers, got.socle) == (
                want.top, want.layers, want.socle), (label, v.label)


def _presentations():
    """The admissible presentation of every .bq and .dis fixture that has a
    loop presentation and a finite basis, with the trivial extension of
    each."""
    for name in sorted(f for f in os.listdir(FIXTURES) if f.endswith((".bq", ".dis"))):
        try:
            pres = (skew_gentle_from_dissection(load(name)) if name.endswith(".dis")
                    else make_presentation(load(name)))
            adm = admissible_presentation(pres)
            enumerate_basis(adm)
        except SkewBrauerError:
            continue
        yield name, adm, trivial_extension(adm)


def _base_shape(base, special):
    """A gentle base and its special vertices by labels: the numbering is
    the tuple's own, and the oracle's is in label order."""
    q = base.quiver
    return (sorted(v.label for v in q.vertices),
            sorted((a.label, q.vertex(a.source).label, q.vertex(a.target).label)
                   for a in q.arrows),
            sorted(r.label(q) for r in base.relations),
            sorted(q.vertex(x).label for x in special))


def test_gentle_base_matches_the_basis_reading():
    # the tuple read against the transits that vanish in the basis, on
    # every admissible presentation and every good-cut quotient
    count = 0
    for name, adm, t in _presentations():
        for bq in (adm, *(quotient_by_cut(t, cut) for cut in enumerate_good_cuts(t))):
            base, special = gentle_base(bq)
            assert base.quiver is bq.sg_tuple.quiver and special == bq.sg_tuple.special
            assert _base_shape(base, special) == _base_shape(*gentle_base_by_basis(bq)), name
            count += 1
    assert count == 18 + 112


def _quotient_shape(bq):
    q = bq.quiver
    return ([(a.label, q.vertex(a.source).label, q.vertex(a.target).label) for a in q.arrows],
            [r.label(q) for r in bq.relations])


def _sbg_base_cuts(multiplicity_one):
    """The signed copies of every base cut of the .sbg fixtures whose
    cycles all have multiplicity one, or of those that have one above."""
    for name in SBG_FIXTURES:
        alg = skew_brauer_algebra(load(name))
        tup = alg.sg_tuple
        if (set(tup.multiplicities) == {1}) != multiplicity_one:
            continue
        for base_cut in trivext._cuts(tup.quiver, tup.cycles):
            yield name, alg, trivext._signed_copies(alg, base_cut)


def test_cut_tuple_matches_the_pushdown():
    # the sg-bound quiver of the cut tuple has the arrows and the relation
    # tuple, in order, that pushing the relations down gives
    bq_cuts = [(name, t, cut) for name, _, t in _presentations() if name.endswith(".bq")
               for cut in enumerate_good_cuts(t)]
    count = 0
    for name, t, cut in bq_cuts + list(_sbg_base_cuts(True)):
        quotient = quotient_by_cut(t, cut)
        assert quotient.sg_tuple is not None
        assert _quotient_shape(quotient) == _quotient_shape(
            trivext._pushdown(t.algebra, set(cut.arrows))), name
        count += 1
    assert count == 53 + 220


def test_cut_of_a_higher_multiplicity_is_pushed_down():
    # a tuple with a cycle of multiplicity above one is no trivial
    # extension of a skew-gentle algebra: its cuts carry no tuple
    cuts = list(_sbg_base_cuts(False))
    assert len(cuts) == 8
    for name, alg, cut in cuts:
        assert quotient_by_cut(alg, cut) == trivext._pushdown(alg.algebra, set(cut.arrows)), name


# ---------------------------------------------------------------------------
# maximal paths of a gentle base read off its arrow chains
# ---------------------------------------------------------------------------

def _by_basis(bq):
    return set(maximal_paths(bq, enumerate_basis(bq)))


def test_arrow_chains_match_the_basis_reading():
    # the gentle base of every admissible presentation and good-cut
    # quotient, and the auxiliary gentle algebra of every skew-gentle
    # fixture
    count = 0
    for name, adm, t in _presentations():
        for bq in (adm, *(quotient_by_cut(t, cut) for cut in enumerate_good_cuts(t))):
            base, _ = gentle_base(bq)
            assert set(_gentle_maximal_paths(base)) == _by_basis(base), name
            count += 1
    for name in sorted(f for f in os.listdir(FIXTURES) if f.endswith((".bq", ".dis"))):
        try:
            pres = (skew_gentle_from_dissection(load(name)) if name.endswith(".dis")
                    else make_presentation(load(name)))
            aux = auxiliary_gentle(pres)
            want = _by_basis(aux)
        except SkewBrauerError:
            continue
        assert set(_gentle_maximal_paths(aux)) == want, name
        count += 1
    assert count == 18 + 112 + 18


@given(linear_skew_gentle())
@settings(max_examples=40, deadline=None)
def test_arrow_chains_match_the_basis_on_random_draws(bq):
    aux = auxiliary_gentle(make_presentation(bq))
    assert set(_gentle_maximal_paths(aux)) == _by_basis(aux)


def _cycle_without_monomial():
    """A skew-gentle presentation whose auxiliary algebra has the cycle
    a*b with no monomial: a: 1 -> 2, b: 2 -> 1, c: 1 -> 3 with b*c = 0,
    and a special loop at 3."""
    q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "1"),
                                        ("c", "1", "3"), ("f", "3", "3")])
    b, c, f = (q.arrow_by_label(x).id for x in "bcf")
    rels = (Relation.monomial(Path(1, (b, c))),
            Relation(((Fraction(1), Path(2, (f, f))), (Fraction(-1), Path(2, (f,))))))
    return make_presentation(BoundQuiver(q, rels, frozenset({2})))


def test_cycle_without_monomial_raises_the_basis_error():
    pres = _cycle_without_monomial()
    with pytest.raises(InfiniteDimensional) as want:
        enumerate_basis(auxiliary_gentle(pres))
    for build in (lambda: trivial_extension(admissible_presentation(pres)),
                  lambda: trivext.reflect(pres, "3", "plus"),
                  lambda: brauer.graph_from_skew_gentle(pres)):
        with pytest.raises(InfiniteDimensional) as got:
            build()
        assert str(got.value) == str(want.value)


def _round_trips():
    """(name, T(A), T(quotient)) for every good cut of the five
    skew-gentle fixtures of the benchmark's round trip, 40 in all."""
    for name in ("toy.bq", "repetitive.bq", "sec73_A.bq", "sec73_B.bq", "sec74.bq"):
        t = trivial_extension(_admissible(name))
        for cut in enumerate_good_cuts(t):
            yield name, t, trivial_extension(quotient_by_cut(t, cut))


def test_round_trip_extensions_build_no_basis(monkeypatch):
    built = record_builds(monkeypatch)
    assert sum(1 for _ in _round_trips()) == 40
    assert built == []


# ---------------------------------------------------------------------------
# the tuple certificate of an isomorphism
# ---------------------------------------------------------------------------

def _lift(tup, swap=frozenset(), arrows=None):
    """The map of the duplicated quiver of ``tup`` that lifts the base
    arrow map ``arrows`` (default the identity) and swaps the signs at
    the special vertices ``swap``."""
    sgq, arrows = tup.sgq, arrows or {}
    flip = lambda v, s: {"+": "-", "-": "+"}[s] if v in swap else s  # noqa: E731
    q = tup.quiver
    vmap = {w: sgq.vertex_lookup[v, flip(v, s)] for (v, s), w in sgq.vertex_lookup.items()}
    amap = {}
    for x, (a, ss, ts) in sgq.arrow_origins.items():
        arrow = q.arrow(a)
        amap[x] = sgq.arrow_lookup[arrows.get(a, a), flip(arrow.source, ss),
                                   flip(arrow.target, ts)]
    return vmap, amap


def test_certificate_accepts_a_sign_swap():
    tup = trivial_extension(_admissible("toy.bq")).sg_tuple
    assert tup.special
    for x in tup.special:
        assert iso._tuple_certificate(tup, tup, *_lift(tup, frozenset({x})))


def _two_loops(monomials, multiplicities):
    q = Quiver.build(["1"], [("x", "1", "1"), ("y", "1", "1")])
    x, y = (a.id for a in q.arrows)
    cycles = (Path(0, (x,)), Path(0, (y,))) if multiplicities else ()
    return (SgTuple(q, tuple(Path(0, w) for w in monomials(x, y)), frozenset(),
                    cycles, multiplicities), {x: y, y: x})


def test_certificate_rejects_a_moved_monomial_or_multiplicity():
    for tup, swap in (_two_loops(lambda x, y: [(x, x)], ()),
                      _two_loops(lambda x, y: [], (1, 2))):
        assert iso._tuple_certificate(tup, tup, *_lift(tup))
        assert not iso._tuple_certificate(tup, tup, *_lift(tup, arrows=swap))


def test_edited_extension_skips_the_certificate(monkeypatch):
    t = trivial_extension(_admissible("sec73_A.bq"))
    back = trivial_extension(quotient_by_cut(t, next(enumerate_good_cuts(t)))).algebra
    victim = [r for r in t.algebra.relations if not r.is_monomial][-1]
    edited = dataclasses.replace(t.algebra, relations=tuple(
        r for r in t.algebra.relations if r is not victim))
    called = []
    real = iso._tuple_certificate
    monkeypatch.setattr(iso, "_tuple_certificate", lambda *a: called.append(a) or real(*a))
    assert are_isomorphic(back, edited).status == "not_isomorphic"
    assert called == []
    assert are_isomorphic(back, t.algebra) and called


def test_round_trips_read_the_terms_of_a_only_on_three_cuts(monkeypatch):
    trips = list(_round_trips())
    read = []
    real = iso._terms
    monkeypatch.setattr(iso, "_terms", lambda bq: read.append(bq) or real(bq))
    names = [name for name, t, back in trips
             if are_isomorphic(back.algebra, t.algebra) and any(x is back.algebra for x in read)]
    assert names == ["sec73_A.bq"] * 3
