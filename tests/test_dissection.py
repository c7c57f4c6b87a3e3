"""Orbifold dissections: extraction, moves, reflections, the determinant formula."""
import dataclasses
import importlib.util
import os
import pytest

from skewbrauer import formats
from skewbrauer.basis import enumerate_basis
from skewbrauer.brauer import ProjectiveLayers
from skewbrauer.cartan import IntPoly, cartan
from skewbrauer.dissection import (BOUNDARY, Arc, OrbifoldDissection,
                                   contraction_addition, geometric_reflection,
                                   q_cartan_det_formula, quiver_from_dissection,
                                   skew_gentle_from_dissection,
                                   trivext_tuple_from_dissection,
                                   validate_dissection)
from skewbrauer.errors import (InvalidPosition, NotReflectable, SkewBrauerError,
                               TrivialPolygon)
from skewbrauer.iso import IsoResult, are_isomorphic
from skewbrauer.quiver import Path, Verdict, dedupe_relations
from skewbrauer.skewgentle import admissible_presentation, sg_bound_quiver
from skewbrauer.trivext import (enumerate_good_cuts, quotient_by_cut, reflect,
                                trivial_extension)

from helpers import DIS_FIXTURES, load
from oracle import cycle_decorations


class TestValidate:
    @pytest.mark.parametrize("name", DIS_FIXTURES)
    def test_fixtures_valid(self, name):
        assert validate_dissection(load(name))

    def test_exfacil_three_polygons(self):
        d = load("exfacil.dis")
        assert len(d.polygons) == 3
        assert validate_dissection(d)

    def test_two_boundaries_fail(self):
        d = OrbifoldDissection((Arc(0, "a"),),
                               ((0, BOUNDARY, BOUNDARY), (0, BOUNDARY)))
        verdict = validate_dissection(d)
        assert not verdict and verdict.condition == "one-boundary"

    def test_polygon_without_boundary_is_a_domain_error(self):
        d = formats.parse_dis("arc 1\npolygon: 1, 1\n")
        with pytest.raises(SkewBrauerError) as err:
            formats.serialize_dis(d)
        assert str(err.value) == "polygon 0 has no boundary side"

    def test_polygon_with_two_boundaries_is_a_domain_error(self):
        d = formats.parse_dis("arc 1\npolygon: 1, BOUNDARY, 1, BOUNDARY\n")
        with pytest.raises(SkewBrauerError) as err:
            formats.serialize_dis(d)
        assert str(err.value) == "polygon 0 has 2 boundary sides"

    def test_triple_occurrence_fails(self):
        d = OrbifoldDissection((Arc(0, "a"),),
                               ((0, 0, BOUNDARY), (0, BOUNDARY)))
        verdict = validate_dissection(d)
        assert not verdict and verdict.condition == "occurrences"


class TestQuiverExtraction:
    def test_torus_tuple(self):
        d = load("torus.dis")
        dq = quiver_from_dissection(d)
        q = dq.quiver
        assert len(q.vertices) == 5
        assert len(q.arrows) == 7
        assert sorted(q.vertex(v).label for v in dq.special) == ["4"]
        # the printed ideal: beta gamma, gamma beta, alpha delta, epsilon lambda
        by_ends = {}
        for a in q.arrows:
            by_ends.setdefault((q.vertex(a.source).label,
                                q.vertex(a.target).label), []).append(a.label)
        assert by_ends[("1", "2")] and by_ends[("2", "1")]
        rels = {tuple(q.arrow(x).label for x in r.paths()[0].arrows)
                for r in dq.relations}
        assert len(rels) == 4
        gamma = by_ends[("1", "2")][0]
        beta = by_ends[("2", "1")][0]
        assert (gamma, beta) in rels and (beta, gamma) in rels

    def test_triangle_disk(self):
        d = load("disk3.dis")
        dq = quiver_from_dissection(d)
        assert len(dq.quiver.arrows) == 2
        assert dq.relations == ()
        basis = enumerate_basis(
            admissible_presentation(skew_gentle_from_dissection(d)))
        # path algebra of the A3 line: dimension 6
        assert basis.dimension == 6

    def test_trivial_only_dissection(self):
        d = OrbifoldDissection((Arc(0, "a"),), ((0, BOUNDARY), (0, BOUNDARY)))
        dq = quiver_from_dissection(d)
        assert len(dq.quiver.arrows) == 0

    @pytest.mark.parametrize("name", DIS_FIXTURES)
    def test_extraction_is_skew_gentle(self, name):
        pres = skew_gentle_from_dissection(load(name))
        assert pres.bound.quiver.vertices

    @pytest.mark.parametrize("name", DIS_FIXTURES)
    def test_no_relation_repeats(self, name):
        # each ordered angle pair and each pendant loop gives one relation
        rels = quiver_from_dissection(load(name)).relations
        assert dedupe_relations(rels) == list(rels)

    @pytest.mark.parametrize("name", DIS_FIXTURES)
    def test_arc_meets_at_most_two_polygons(self, name):
        d = load(name)
        for a in d.arcs:
            count = sum(s == a.id for sides in d.polygons for s in sides)
            assert count <= 2


class TestTupleExtraction:
    def test_torus_relations(self):
        d = load("torus.dis")
        tup = trivext_tuple_from_dissection(d)
        q = tup.quiver
        assert len(tup.cycles) == 2
        assert sorted(len(c) for c in tup.cycles) == [2, 7]
        long_cycle = max(tup.cycles, key=len)
        short_cycle = min(tup.cycles, key=len)

        def rot_at(c, vid):
            for i in range(len(c.arrows)):
                rot = c.arrows[i:] + c.arrows[:i]
                if q.arrow(rot[0]).source == vid:
                    yield rot

        # printed items a)-d): the cycle rotations at the shared arcs 3 and
        # 5, and the long cycle's two visits of arcs 1 and 2, are identified
        # in the algebra; every signed copy is nonzero, and all share one
        # normal form
        t = tup.as_sg_tuple()
        sgq = t.sgq
        basis = enumerate_basis(sg_bound_quiver(t))

        def normal_forms(*rots):
            out = set()
            for rot in rots:
                for signed in cycle_decorations(sgq, q, t.special,
                                                Path(q.arrow(rot[0]).source, rot)):
                    nf = basis.reduce(signed)
                    assert nf, signed.label(sgq.quiver)
                    out.add(tuple(sorted(nf.items(), key=lambda kv: kv[0].sort_key())))
            return out

        for label in ("3", "5"):
            vid = q.vertex_by_label(label).id
            assert len(normal_forms(next(rot_at(long_cycle, vid)),
                                    next(rot_at(short_cycle, vid)))) == 1
        for label in ("1", "2"):
            vid = q.vertex_by_label(label).id
            r1, r2 = rot_at(long_cycle, vid)
            assert len(normal_forms(r1, r2)) == 1

    def test_tuple_algebra_is_trivial_extension(self):
        for name in ["torus.dis", "annulus.dis", "sec73_X.dis", "exfacil.dis",
                     "pend.dis"]:
            d = load(name)
            tup = trivext_tuple_from_dissection(d)
            algebra = sg_bound_quiver(tup.as_sg_tuple())
            pres = skew_gentle_from_dissection(d)
            t = trivial_extension(admissible_presentation(pres))
            assert are_isomorphic(algebra, t.algebra), name

    def test_all_trivial_gives_empty_cycles(self):
        d = OrbifoldDissection((Arc(0, "a"),), ((0, BOUNDARY), (0, BOUNDARY)))
        tup = trivext_tuple_from_dissection(d)
        assert tup.cycles == ()


class TestMoves:
    def test_annulus_move_preserves_tuple(self):
        d = load("annulus.dis")
        moved = contraction_addition(d, 0, angle=0)
        fixture = load("annulus_tau.dis")
        assert [moved.run(i) for i in range(3)] == \
            [fixture.run(i) for i in range(3)]
        t1 = trivext_tuple_from_dissection(d)
        t2 = trivext_tuple_from_dissection(moved)
        # the distinguished-cycle multiset survives the move up to rotation
        assert sorted(len(c) for c in t1.cycles) == sorted(len(c) for c in t2.cycles)
        a1 = sg_bound_quiver(t1.as_sg_tuple())
        a2 = sg_bound_quiver(t2.as_sg_tuple())
        assert are_isomorphic(a1, a2)

    def test_identity_move(self):
        d = load("annulus.dis")
        run = d.run(0)
        # the gap after the last side is the boundary's current seat
        moved = contraction_addition(d, 0, angle=len(run) - 1)
        assert moved.run(0) == d.run(0)

    def test_trivial_polygon_rejected(self):
        d = load("annulus.dis")
        with pytest.raises(TrivialPolygon):
            contraction_addition(d, 2, angle=0)

    def test_invalid_position(self):
        d = load("annulus.dis")
        with pytest.raises(InvalidPosition):
            contraction_addition(d, 0, angle=99)
        with pytest.raises(InvalidPosition):
            contraction_addition(d, 0)

    def test_pendant_move(self):
        d = load("pend.dis")
        moved = contraction_addition(d, 1, pendant="p")
        assert validate_dissection(moved)
        assert moved.arc("p").kind == "regular"
        # the pendant arc now occurs twice and the loop is gone
        dq = quiver_from_dissection(moved)
        assert all(not a.is_loop for a in dq.quiver.arrows)

    def test_every_good_cut_is_a_move_sequence(self):
        # Theorem: each good cut of the running example's trivial extension
        # is realised by boundary moves on the annulus dissection
        d = load("annulus.dis")
        pres = skew_gentle_from_dissection(d)
        adm = admissible_presentation(pres)
        t = trivial_extension(adm)
        dq = quiver_from_dissection(d)
        angle = {dq.quiver.arrow(k).label: a for k, a in dq.angle_of_arrow.items()}
        tq, origins = t.sg_tuple.quiver, t.sg_tuple.sgq.arrow_origins
        # a new arrow closes the maximal path of the polygon that holds the
        # path's first angle; T's base keeps the ids of adm's tuple
        closes = {aid: angle[tq.arrow(adm.sg_tuple.sgq.arrow_origins[p.arrows[0]][0]).label]
                  .polygon for aid, p in t.new_arrows.items()}
        count = 0
        for cut in enumerate_good_cuts(t):
            moved = d
            seen = set()
            for base in sorted({tq.arrow(origins[a][0]).label for a in cut.arrows}):
                if base in angle:
                    ang = angle[base]
                    seen.add(ang.polygon)
                    moved = contraction_addition(moved, ang.polygon, angle=ang.index)
                else:                              # boundary stays put
                    seen.update(closes[a] for a in cut.arrows
                                if tq.arrow(origins[a][0]).label == base)
            # one cut arrow per polygon with angles
            assert sorted(seen) == [0, 1]
            moved_pres = skew_gentle_from_dissection(moved)
            assert are_isomorphic(admissible_presentation(moved_pres),
                                  quotient_by_cut(t, cut))
            count += 1
        assert count == 12


class TestGeometricReflection:
    def test_sec74_example(self):
        d = load("annulus.dis")
        moved = geometric_reflection(d, "1", "minus")
        pres = skew_gentle_from_dissection(moved)
        q = pres.quiver
        assert len(q.vertices) == 5
        assert len(q.arrows) == 7
        quads = sorted(tuple(q.arrow(a).label for a in r.paths()[0].arrows)
                       for r in pres.bound.relations if r.is_monomial)
        assert len(quads) == 2
        # matches the presentation-level reflection
        source = skew_gentle_from_dissection(d)
        assert are_isomorphic(admissible_presentation(pres),
                              admissible_presentation(reflect(source, "1", "minus")))

    def test_plus_after_minus_restores(self):
        d = load("annulus.dis")
        minus = geometric_reflection(d, "1", "minus")
        back = geometric_reflection(minus, "1", "plus")
        a0 = admissible_presentation(skew_gentle_from_dissection(d))
        a1 = admissible_presentation(skew_gentle_from_dissection(back))
        assert are_isomorphic(a0, a1)

    def test_not_reflectable(self):
        d = load("annulus.dis")
        with pytest.raises(NotReflectable):
            geometric_reflection(d, "3", "minus")

    @pytest.mark.parametrize("arc", ["nope", 99])
    def test_unknown_arc(self, arc):
        with pytest.raises(InvalidPosition, match=f"no arc {arc}"):
            geometric_reflection(load("annulus.dis"), arc, "minus")

    @pytest.mark.parametrize("name,arc,direction", [
        ("annulus.dis", "1", "minus"),
        ("sec73_X.dis", "1", "minus"),
        ("sec73_X.dis", "3", "plus"),
    ])
    def test_commutes_with_presentation_reflect(self, name, arc, direction):
        d = load(name)
        try:
            moved = geometric_reflection(d, arc, direction)
        except NotReflectable:
            pytest.skip("arc is not a source or sink in this fixture")
        a_geo = admissible_presentation(skew_gentle_from_dissection(moved))
        pres = skew_gentle_from_dissection(d)
        a_alg = admissible_presentation(reflect(pres, arc, direction))
        assert are_isomorphic(a_geo, a_alg)


class TestDetFormula:
    def test_section_73_values(self):
        assert str(q_cartan_det_formula(load("sec73_X.dis"))) == "1"
        assert str(q_cartan_det_formula(load("sec73_tauX.dis"))) == "1 - q^2"

    def test_single_incidence(self):
        d = OrbifoldDissection(
            (Arc(0, "a"), Arc(1, "p", "pendant")),
            ((0, BOUNDARY), (0, 1, BOUNDARY)))
        assert str(q_cartan_det_formula(d)) == "1 + q"

    @pytest.mark.parametrize("name", DIS_FIXTURES)
    def test_formula_matches_basis_determinant(self, name):
        d = load(name)
        pres = skew_gentle_from_dissection(d)
        adm = admissible_presentation(pres)
        data = cartan(adm, enumerate_basis(adm))
        assert str(data.det_q) == str(q_cartan_det_formula(d)), name


def _load_script(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dissection_tour_exit_code(monkeypatch, capsys):
    # the tour's exit code is what `make examples` checks
    tour = _load_script("run_dissection_tour")
    assert tour.main() == 0
    monkeypatch.setattr(tour, "q_cartan_det_formula", lambda d: IntPoly((7,)))
    assert tour.main() == 1
    assert "[MISMATCH]" in capsys.readouterr().out


def test_paper_examples_exit_code(monkeypatch, capsys):
    # `make examples` fails when the round trip or the symmetrising form does
    examples = _load_script("run_paper_examples")
    assert examples.main() == 0
    monkeypatch.setattr(examples, "are_isomorphic",
                        lambda a, b: IsoResult("not_isomorphic"))
    assert examples.main() == 1
    assert "T(quotient) ~ T is not_isomorphic" in capsys.readouterr().out
    monkeypatch.undo()
    monkeypatch.setattr(examples, "symmetric_form_check",
                        lambda alg: Verdict(False, "symmetry"))
    assert examples.main() == 1
    assert "symmetric form: fail" in capsys.readouterr().out
    monkeypatch.undo()
    # and when the projective layers break either identity the tour checks
    layers = examples.projective_layers
    monkeypatch.setattr(examples, "projective_layers",
                        lambda alg, v, basis: ProjectiveLayers(v, ((v,),), v))
    assert examples.main() == 1
    assert "the projectives have dimension 7, the algebra 46" in capsys.readouterr().out
    monkeypatch.setattr(examples, "projective_layers",
                        lambda alg, v, basis: dataclasses.replace(
                            layers(alg, v, basis), socle="4"))
    assert examples.main() == 1
    out = capsys.readouterr().out
    assert "[MISMATCH] top 3 and socle 4, expected 3" in out
    assert "the projectives have dimension" not in out
