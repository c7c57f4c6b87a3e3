"""Property tests over randomly generated linear skew-gentle algebras.

Linear quivers with arbitrary edge orientations are always gentle, with
any subset of transits killed; leaves and killed one-in-one-out middles
may carry a special loop.  This gives a cheap searchable family that
exercises duplication, trivial extensions, cuts and the graph
correspondence away from the hand-built paper fixtures.
"""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from skewbrauer.basis import enumerate_basis
from skewbrauer.brauer import graph_from_skew_gentle, skew_brauer_algebra, \
    symmetric_form_check, validate_graph
from skewbrauer.cartan import cartan
from skewbrauer.iso import are_isomorphic
from skewbrauer.quiver import BoundQuiver, Path, Quiver, Relation
from skewbrauer.skewgentle import (admissible_presentation, auxiliary_gentle,
                                   is_skew_gentle, make_presentation)
from skewbrauer.trivext import (enumerate_good_cuts, quotient_by_cut,
                                trivial_extension)

from helpers import sp_maximal_paths


@st.composite
def linear_skew_gentle(draw, max_vertices=4):
    n = draw(st.integers(2, max_vertices))
    rightward = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    kills = draw(st.lists(st.booleans(), min_size=max(n - 2, 0),
                          max_size=max(n - 2, 0)))
    vlabels = [str(i + 1) for i in range(n)]
    arrow_specs = []
    for i, right in enumerate(rightward):
        if right:
            arrow_specs.append((f"a{i}", vlabels[i], vlabels[i + 1]))
        else:
            arrow_specs.append((f"a{i}", vlabels[i + 1], vlabels[i]))
    q0 = Quiver.build(vlabels, arrow_specs)
    relations = []
    killed_middles = set()
    for j in range(1, n - 1):
        into = [a for a in q0.arrows if a.target == j]
        outof = [a for a in q0.arrows if a.source == j]
        if len(into) == 1 and len(outof) == 1 and kills[j - 1]:
            relations.append((into[0].label, outof[0].label))
            killed_middles.add(j)
    special_candidates = []
    for v in q0.vertices:
        deg_in = len(q0.arrows_into(v.id))
        deg_out = len(q0.arrows_from(v.id))
        if deg_in + deg_out == 1:
            special_candidates.append(v.id)
        elif deg_in == 1 and deg_out == 1 and v.id in killed_middles:
            special_candidates.append(v.id)
    special = [v for v in special_candidates if draw(st.booleans())]
    full_specs = arrow_specs + [(f"f{v}", vlabels[v], vlabels[v]) for v in special]
    q = Quiver.build(vlabels, full_specs)
    rels = []
    for (x, y) in relations:
        a, b = q.arrow_by_label(x), q.arrow_by_label(y)
        rels.append(Relation.monomial(Path(a.source, (a.id, b.id))))
    for v in special:
        f = q.arrow_by_label(f"f{v}")
        rels.append(Relation.difference(Path(f.source, (f.id, f.id)),
                                        Path(f.source, (f.id,))))
    return BoundQuiver(q, tuple(rels), frozenset(special))


@given(linear_skew_gentle())
@settings(max_examples=30, deadline=None)
def test_random_presentations_are_recognised(bq):
    assert is_skew_gentle(bq)


@given(linear_skew_gentle())
@settings(max_examples=20, deadline=None)
def test_duplication_counts(bq):
    pres = make_presentation(bq)
    adm = admissible_presentation(pres)
    aux = auxiliary_gentle(pres)
    assert len(adm.quiver.vertices) == len(aux.quiver.vertices) + len(pres.special)
    basis = enumerate_basis(adm)
    assert basis.dimension == sum(len(ps) for ps in basis.blocks().values())
    for p in basis.basis_paths:
        assert basis.reduce(p) == {p: Fraction(1)}


@given(linear_skew_gentle())
@settings(max_examples=15, deadline=None)
def test_sp_maximal_matches_auxiliary(bq):
    pres = make_presentation(bq)
    aux = auxiliary_gentle(pres)
    from skewbrauer.basis import maximal_paths
    amax = maximal_paths(aux, enumerate_basis(aux))
    assert len(sp_maximal_paths(pres)) == len(amax)


@given(linear_skew_gentle(max_vertices=3))
@settings(max_examples=12, deadline=None)
def test_good_cut_round_trip_random(bq):
    pres = make_presentation(bq)
    adm = admissible_presentation(pres)
    t = trivial_extension(adm)
    cut = next(iter(enumerate_good_cuts(t)))
    quotient = quotient_by_cut(t, cut)
    t2 = trivial_extension(quotient)
    assert are_isomorphic(t2.algebra, t.algebra)


@given(linear_skew_gentle(max_vertices=3))
@settings(max_examples=10, deadline=None)
def test_equiv1_round_trip_random(bq):
    pres = make_presentation(bq)
    graph = graph_from_skew_gentle(pres)
    assert validate_graph(graph)
    alg = skew_brauer_algebra(graph)
    t = trivial_extension(admissible_presentation(pres))
    assert are_isomorphic(alg.algebra, t.algebra)
    assert symmetric_form_check(alg)


@given(linear_skew_gentle())
@settings(max_examples=15, deadline=None)
def test_cartan_specialisation(bq):
    adm = admissible_presentation(make_presentation(bq))
    data = cartan(adm, enumerate_basis(adm))
    for row_q, row_o in zip(data.q_graded, data.ordinary):
        assert [x.eval_at(1) for x in row_q] == list(row_o)
    assert data.det_q.eval_at(1) == data.det_ordinary
