"""Skew-Brauer graphs, their algebras, symmetry, projectives, classification."""
import os
import random
from types import SimpleNamespace

import pytest

from skewbrauer.basis import enumerate_basis
from skewbrauer.brauer import (SkewBrauerGraph, brauer_quivers_with_cycles,
                               classify_rep_type,
                               graph_from_skew_gentle, is_skew_brauer_tree,
                               projective_layers, skew_brauer_algebra,
                               symmetric_form_check, validate_graph)
from skewbrauer import brauer as brauer_module, formats, skewgentle, trivext
from skewbrauer.cartan import cartan
from skewbrauer.errors import SkewBrauerError, UnknownVertex
from skewbrauer.iso import are_isomorphic
from skewbrauer.quiver import BoundQuiver, Path, Quiver, Relation, canonical_rotation
from skewbrauer.skewgentle import admissible_presentation, make_presentation, sg_quiver
from skewbrauer.trivext import trivial_extension

from helpers import (FIXTURES, SBG_FIXTURES, SKEW_GENTLE_FIXTURES, P, diff,
                     family_graphs, fixture_path, load, mono, signed_cycles)
from oracle import cycle_decorations, oracle_reduce


class TestValidate:
    @pytest.mark.parametrize("name", SBG_FIXTURES)
    def test_fixtures_valid(self, name):
        assert validate_graph(load(name))

    def test_distinguished_with_multiplicity_fails(self):
        import skewbrauer.brauer as B
        v = (B.BrauerVertex(0, "x", 2), B.BrauerVertex(1, "v", 1))
        e = (B.BrauerEdge(0, "1", (0, 1)),)
        g = SkewBrauerGraph(B.BrauerGraph(v, e, {0: ((0, 1),), 1: ((0, 1),)}),
                            frozenset({0}))
        verdict = validate_graph(g)
        assert not verdict and verdict.condition == "distinguished"

    def test_adjacent_distinguished_fails(self):
        import skewbrauer.brauer as B
        v = (B.BrauerVertex(0, "x", 1), B.BrauerVertex(1, "y", 1))
        e = (B.BrauerEdge(0, "1", (0, 1)),)
        g = SkewBrauerGraph(B.BrauerGraph(v, e, {0: ((0, 1),), 1: ((0, 1),)}),
                            frozenset({0, 1}))
        verdict = validate_graph(g)
        assert not verdict and verdict.condition == "distinguished"

    def test_bad_order_list(self):
        import skewbrauer.brauer as B
        v = (B.BrauerVertex(0, "x", 1), B.BrauerVertex(1, "y", 1))
        e = (B.BrauerEdge(0, "1", (0, 1)),)
        g = SkewBrauerGraph(B.BrauerGraph(v, e, {0: ((0, 1), (0, 1)), 1: ((0, 1),)}),
                            frozenset())
        assert not validate_graph(g)


class TestBrauerQuiver:
    def test_fig1_counts(self):
        q = brauer_quivers_with_cycles(load("fig1.sbg").graph)[0]
        assert len(q.vertices) == 5
        assert len(q.arrows) == 7

    def test_truncated_edge(self):
        q = brauer_quivers_with_cycles(load("btree_path4.sbg").graph)[0]
        # path with 3 edges: arrows only around the two inner vertices
        assert len(q.vertices) == 3
        assert len(q.arrows) == 4

    def test_loop_gives_two_quiver_loops(self):
        q = brauer_quivers_with_cycles(load("bloop.sbg").graph)[0]
        assert len(q.vertices) == 1
        assert len(q.arrows) == 2
        assert all(a.is_loop for a in q.arrows)

    @pytest.mark.parametrize("name", SBG_FIXTURES)
    def test_arrow_count_is_total_valency(self, name):
        g = load(name)
        q = brauer_quivers_with_cycles(g.graph)[0]
        expected = 0
        for v in g.graph.vertices:
            if v.id in g.distinguished:
                continue
            val = g.graph.valency(v.id)
            if v.multiplicity * val >= 2:
                expected += val
        assert len(q.arrows) == expected


class TestSkewBrauerAlgebra:
    def test_two_to_r_cycles(self):
        alg = skew_brauer_algebra(load("fig1.sbg"))
        _, cycles = brauer_quivers_with_cycles(alg.graph.graph)
        assert tuple(c for c, _, _ in cycles) == alg.sg_tuple.cycles
        per_vertex = {}
        for (_, vid, _), copies in zip(cycles, alg.sg_tuple.signed_cycles):
            per_vertex[vid] = per_vertex.get(vid, 0) + len(copies)
        labels = {alg.graph.graph.vertex(k).label: v for k, v in per_vertex.items()}
        assert labels == {"v2": 4, "v3": 1}

    @pytest.mark.parametrize("name", ["gamma1_m2.sbg", "bstar_m2.sbg", "btree_m3.sbg"])
    def test_cycles_are_the_signed_copies_of_each_cycle(self, name):
        # the tuple reads its signed cycles off the signed powers c^m; with
        # m > 1 they must still be the signed copies of c itself
        alg = skew_brauer_algebra(load(name))
        tup = alg.sg_tuple
        assert max(tup.multiplicities) > 1
        sgq = sg_quiver(tup.quiver, tup.special)
        _, cycles = brauer_quivers_with_cycles(alg.graph.graph)
        want = sorted(((canonical_rotation(sgq.quiver, dec.arrows), vid)
                       for base, vid, _ in cycles
                       for dec in cycle_decorations(sgq, tup.quiver, tup.special, base)),
                      key=lambda pair: pair[0].sort_key())
        got = sorted(((p, vid) for (_, vid, _), copies in zip(cycles, tup.signed_cycles)
                      for p in copies), key=lambda pair: pair[0].sort_key())
        assert got == want

    def test_brauer_graph_dimension_formula(self):
        # without distinguished vertices: dim = 2|E| + sum_v val(v)(m(v) val(v) - 1)
        graphs = [SkewBrauerGraph(formats.parse_sbg(text, name).graph, frozenset())
                  for seed in (1, 2, 3) for name, text in family_graphs(seed)]
        graphs += [g for g in map(load, SBG_FIXTURES) if not g.distinguished]
        assert len(graphs) == 75
        for g in graphs:
            gr = g.graph
            want = 2 * len(gr.edges) + sum(
                gr.valency(v.id) * (v.multiplicity * gr.valency(v.id) - 1)
                for v in gr.vertices)
            assert enumerate_basis(skew_brauer_algebra(g).algebra).dimension == want

    def test_fig1_is_trivial_extension_of_toy(self):
        alg = skew_brauer_algebra(load("fig1.sbg"))
        pres = make_presentation(load("toy.bq"))
        t = trivial_extension(admissible_presentation(pres))
        assert are_isomorphic(alg.algebra, t.algebra)

    def test_excut_relation_families(self):
        alg = skew_brauer_algebra(load("excut.sbg"))
        q = alg.quiver
        basis = enumerate_basis(alg.algebra)
        labels = {a.label: a for a in q.arrows}
        # sg-special cycles as printed
        cycles = {p.label(q) for p in signed_cycles(alg)}
        def rot_class(labels_):
            p = [labels[x].id for x in labels_]
            return min(tuple(q.arrow(a).label for a in (tuple(p[i:]) + tuple(p[:i])))
                       for i in range(len(p)))
        assert len(signed_cycles(alg)) == 4
        # printed examples lie in the ideal
        def dead(*labs):
            ids = tuple(labels[x].id for x in labs)
            return basis.is_zero(Path(q.arrow(ids[0]).source, ids))
        gp = next(a for a in q.arrows if a.label.startswith("v2") and
                  q.vertex(a.source).label == "2" and q.vertex(a.target).label == "1+")
        # the printed generators, translated to generated labels, are exercised
        # through the acceptance suite; here we check the families' shape
        assert any(not r.is_monomial for r in alg.algebra.relations)
        assert all(len(p_) >= 2 for r in alg.algebra.relations for p_ in r.paths())

    def test_gamma1_m2_printed_ideal(self):
        alg = skew_brauer_algebra(load("gamma1_m2.sbg"))
        q = alg.quiver
        basis = enumerate_basis(alg.algebra)
        # name the arrows by shape: beta: 1eps -> 2, alpha: 2 -> 1eps, gamma loop
        beta = {}
        alpha = {}
        gamma = None
        for a in q.arrows:
            if a.is_loop:
                gamma = a
            elif q.vertex(a.target).label == "2":
                beta[q.vertex(a.source).label] = a
            else:
                alpha[q.vertex(a.target).label] = a
        m = 2

        def z(arrows):
            return basis.is_zero(Path(arrows[0].source, tuple(x.id for x in arrows)))

        # commutation (alpha+)(+beta) - (alpha-)(-beta)
        assert basis.relation_holds(Relation.difference(
            Path(alpha["1+"].source, (alpha["1+"].id, beta["1+"].id)),
            Path(alpha["1-"].source, (alpha["1-"].id, beta["1-"].id))))
        # gamma^{m+1}
        assert z([gamma] * (m + 1))
        # gamma^m - (alpha eps)(eps beta)
        for eps in ("1+", "1-"):
            assert basis.relation_holds(Relation.difference(
                Path(gamma.source, (gamma.id,) * m),
                Path(alpha[eps].source, (alpha[eps].id, beta[eps].id))))
        # (eps beta) gamma, (eps beta)(alpha mismatched), gamma (alpha eps)
        assert z([beta["1+"], gamma]) and z([beta["1-"], gamma])
        assert z([beta["1+"], alpha["1-"]]) and z([beta["1-"], alpha["1+"]])
        assert z([gamma, alpha["1+"]]) and z([gamma, alpha["1-"]])
        # gamma^m is nonzero (the socle), gamma^{m-1} alive
        assert not basis.is_zero(Path(gamma.source, (gamma.id,) * m))

    @pytest.mark.parametrize("name", SBG_FIXTURES)
    def test_cartan_symmetric(self, name):
        g = load(name)
        alg = skew_brauer_algebra(g)
        data = cartan(alg.algebra, enumerate_basis(alg.algebra))
        assert data.ordinary == tuple(tuple(row) for row in
                                      zip(*data.ordinary))


class TestSymmetricForm:
    @pytest.mark.parametrize("name", SBG_FIXTURES)
    def test_fixtures_symmetric(self, name):
        alg = skew_brauer_algebra(load(name))
        assert symmetric_form_check(alg)

    def test_sg_quiver_built_once_per_tuple(self, monkeypatch):
        # the ideal, the carrier and the symmetrising form share the
        # tuple's duplicated quiver
        calls = []
        real = sg_quiver

        def counted(q, special):
            calls.append(q)
            return real(q, special)

        adm = admissible_presentation(make_presentation(load("toy.bq")))
        for module in (skewgentle, brauer_module, trivext):
            if hasattr(module, "sg_quiver"):
                monkeypatch.setattr(module, "sg_quiver", counted)
        assert symmetric_form_check(skew_brauer_algebra(load("fig1.sbg")))
        assert len(calls) == 1
        assert symmetric_form_check(trivial_extension(adm))
        assert len(calls) == 2

    def test_fat_valency_two_next_to_distinguished_leaf(self):
        # the sign-mismatched path around the fat vertex v dies only after
        # the first power of its cycle, so the algebra stays symmetric
        g = formats.parse_sbg("vertex x distinguished\nvertex v mult=2\nvertex w\n"
                              "edge 1 x v\nedge 2 v w\n"
                              "order x: 1\norder v: 1, 2\norder w: 2\n")
        alg = skew_brauer_algebra(g)
        basis = enumerate_basis(alg.algebra)
        assert symmetric_form_check(alg, basis)
        data = cartan(alg.algebra, basis)
        assert data.ordinary == tuple(tuple(row) for row in zip(*data.ordinary))
        projectives = sum(projective_layers(alg, v.id, basis).dimension
                          for v in alg.quiver.vertices)
        assert basis.dimension == sum(map(sum, data.ordinary)) == projectives
        max_gen = max(r.max_term_length() for r in alg.algebra.relations)
        dim, bound, paths, _ = oracle_reduce(
            alg.algebra, cap=basis.nilpotency_bound + max_gen)
        assert (dim, bound) == (basis.dimension, basis.nilpotency_bound)
        assert set(paths) == set(basis.basis_paths)

    @pytest.mark.parametrize("support, want", [
        # phi = x* + (xy)*: the rows of y and xy are reduced by the rows
        # of e and x, each of which has a second nonzero left to subtract
        ((("x",), ("x", "y")), (True, "", "")),
        # phi = x* + y* + (xy)*: a reduction leaves the lead -2, so the
        # echelon turns to Fraction
        ((("x",), ("y",), ("x", "y")), (True, "", "")),
        # phi = x* + y*: xy pairs to zero with every path
        ((("x",), ("y",)), (False, "nondegenerate", "pairing has rank 2 < dimension 4")),
    ])
    def test_gram_rows_with_several_nonzeros(self, support, want):
        # k[x, y]/(x^2, y^2, xy - yx), basis e, x, y, xy in one block: the
        # Gram row of e has a nonzero for each path phi is 1 on
        q = Quiver.build(["v"], [("x", "v", "v"), ("y", "v", "v")])
        bq = BoundQuiver(q, (mono(q, "x", "x"), mono(q, "y", "y"),
                             diff(q, ("y", "x"), ("x", "y"))))
        powers = ((None, tuple(P(q, *w) for w in support), None),)
        carrier = SimpleNamespace(algebra=bq, sg_tuple=SimpleNamespace(powers=powers))
        verdict = symmetric_form_check(carrier)
        assert (verdict.ok, verdict.condition, verdict.detail) == want

    def test_fails_without_type_one_relation(self):
        alg = skew_brauer_algebra(load("excut.sbg"))
        kept = tuple(r for r in alg.algebra.relations
                     if r.is_monomial or {len(p) for p in r.paths()} != {2})
        dropped = len(alg.algebra.relations) - len(kept)
        assert dropped >= 1
        import dataclasses
        weakened = dataclasses.replace(
            alg, algebra=alg.algebra.relabelled(relations=kept))
        verdict = symmetric_form_check(weakened)
        assert not verdict

    def test_single_type_one_deletion_fails(self):
        alg = skew_brauer_algebra(load("excut.sbg"))
        binomials = [r for r in alg.algebra.relations if not r.is_monomial
                     and {len(p) for p in r.paths()} == {2}]
        victim = binomials[0]
        kept = tuple(r for r in alg.algebra.relations if r is not victim)
        import dataclasses
        weakened = dataclasses.replace(
            alg, algebra=alg.algebra.relabelled(relations=kept))
        verdict = symmetric_form_check(weakened)
        assert (bool(verdict), verdict.condition, verdict.detail) == (
            False, "nondegenerate", "pairing has rank 18 < dimension 19")


class TestGraphFromSkewGentle:
    def test_toy_reproduces_fig1(self):
        pres = make_presentation(load("toy.bq"))
        g = graph_from_skew_gentle(pres)
        assert len(g.vertices) == 5
        assert len(g.edges) == 5
        assert len(g.distinguished) == 2
        orders = {g.graph.vertex(v.id).label:
                  tuple(g.graph.edge(e).label for e, _ in g.graph.order[v.id])
                  for v in g.vertices}
        assert orders["p2"] == ("1", "2", "3", "4")
        # cyclic order (3, 4, 5) appears rotated as the visit sequence (4, 5, 3)
        assert orders["p1"] in (("3", "4", "5"), ("4", "5", "3"), ("5", "3", "4"))
        fig1 = load("fig1.sbg")
        assert are_isomorphic(skew_brauer_algebra(g).algebra,
                              skew_brauer_algebra(fig1).algebra)

    def test_torus_structure(self):
        pres = make_presentation(load("toy.bq"))
        # torus graph comes from the torus dissection; compare fixture to code
        from skewbrauer.dissection import skew_gentle_from_dissection
        d = load("torus.dis")
        tor_pres = skew_gentle_from_dissection(d)
        g = graph_from_skew_gentle(tor_pres)
        loops = [e for e in g.edges if e.is_loop]
        assert len(loops) == 2
        assert len(g.distinguished) == 1
        fixture = load("torus.sbg")
        assert are_isomorphic(skew_brauer_algebra(g).algebra,
                              skew_brauer_algebra(fixture).algebra)

    def test_gentle_input_has_no_distinguished(self):
        pres = make_presentation(load("a2.bq"))
        g = graph_from_skew_gentle(pres)
        assert g.distinguished == frozenset()

    @pytest.mark.parametrize("name", sorted(f for f in os.listdir(FIXTURES) if f.endswith(".bq")))
    def test_graph_does_not_depend_on_line_order(self, name):
        # the maximal paths are numbered p<i> by labels, and a vertex with
        # no arrows is named by label, so the same .bq file with its lines
        # in another order gives the same .sbg text, or the same refusal
        def graph_text(text):
            try:
                pres = make_presentation(formats.parse_bq(text, name))
                return formats.serialize_sbg(graph_from_skew_gentle(pres))
            except SkewBrauerError as exc:
                return f"{type(exc).__name__}: {exc}"
        with open(fixture_path(name), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        body = [line for line in lines if line.strip() and not line.lstrip().startswith("#")]
        want = graph_text("\n".join(body) + "\n")
        rng = random.Random(name)
        for _ in range(8):
            text = "\n".join(rng.sample(body, len(body))) + "\n"
            assert graph_text(text) == want, text

    @pytest.mark.parametrize("name", SKEW_GENTLE_FIXTURES)
    def test_equiv1_round_trip(self, name):
        pres = make_presentation(load(name))
        t = trivial_extension(admissible_presentation(pres))
        alg = skew_brauer_algebra(graph_from_skew_gentle(pres))
        assert are_isomorphic(alg.algebra, t.algebra)


class TestSkewBrauerTree:
    def test_line_passes(self):
        assert is_skew_brauer_tree(load("gamma1_m1.sbg"))
        assert is_skew_brauer_tree(load("sbtree_line4.sbg"))

    def test_fig1_fails(self):
        verdict = is_skew_brauer_tree(load("fig1.sbg"))
        assert not verdict

    def test_multiplicity_fails(self):
        assert not is_skew_brauer_tree(load("gamma1_m2.sbg"))

    def test_cycle_fails(self):
        # one distinguished leaf on a triangle, every multiplicity one
        g = formats.parse_sbg(
            "vertex x distinguished\nvertex u\nvertex v\nvertex w\n"
            "edge 1 x u\nedge 2 u v\nedge 3 v w\nedge 4 w u\n"
            "order x: 1\norder u: 1, 2, 4\norder v: 2, 3\norder w: 3, 4\n", "triangle")
        assert is_skew_brauer_tree(g) == (
            False, "tree", "the underlying graph is not a tree", ())
        c = classify_rep_type(g)
        assert (c.rep_type, c.reason_code, c.detail) == (
            "Infinite", "not-skew-brauer-tree",
            "not a skew-Brauer tree: the underlying graph is not a tree")


class TestClassification:
    def test_fig1_infinite_multiple_distinguished(self):
        c = classify_rep_type(load("fig1.sbg"))
        assert c.rep_type == "Infinite"
        assert c.reason_code == "multiple-distinguished"
        assert "≥" in c.detail

    def test_trees_finite(self):
        for name in ["gamma1_m1.sbg", "sbtree_line4.sbg", "sbtree_star.sbg",
                     "sbtree_cat10.sbg"]:
            c = classify_rep_type(load(name))
            assert c.finite, name

    def test_gamma1_m2_band_witness(self):
        c = classify_rep_type(load("gamma1_m2.sbg"))
        assert c.rep_type == "Infinite"
        assert c.reason_code == "band-module"
        assert c.band_witness and "^-1" in c.band_witness

    def test_gamma2_infinite(self):
        c = classify_rep_type(load("gamma2.sbg"))
        assert c.rep_type == "Infinite"
        assert c.reason_code == "two-distinguished-two-edges"

    def test_classical_branch(self):
        expect = {"btree_path4.sbg": True, "btree_m3.sbg": True,
                  "btree_twofat.sbg": False, "bcycle.sbg": False,
                  "bloop.sbg": False, "bstar_m2.sbg": True}
        for name, finite in expect.items():
            c = classify_rep_type(load(name))
            assert c.finite == finite, name

    def test_excut_infinite(self):
        c = classify_rep_type(load("excut.sbg"))
        assert c.rep_type == "Infinite"
        assert c.reason_code == "multiple-distinguished"

    def test_exceptional_isomorphisms(self):
        # gamma1 with trivial multiplicity is a Brauer tree algebra: the
        # algebra of the three-edge path with m = 1
        alg = skew_brauer_algebra(load("gamma1_m1.sbg"))
        other = skew_brauer_algebra(load("btree_path4.sbg"))
        assert are_isomorphic(alg.algebra, other.algebra)

    def test_gamma2_is_four_cycle_algebra(self):
        import skewbrauer.brauer as B
        alg = skew_brauer_algebra(load("gamma2.sbg"))
        v = tuple(B.BrauerVertex(i, f"w{i}", 1) for i in range(4))
        e = tuple(B.BrauerEdge(i, f"x{i}", (i, (i + 1) % 4)) for i in range(4))
        order = {i: (((i - 1) % 4, 1), (i, 1)) for i in range(4)}
        cyc = SkewBrauerGraph(B.BrauerGraph(v, e, order), frozenset())
        other = skew_brauer_algebra(cyc)
        assert are_isomorphic(alg.algebra, other.algebra)


class TestProjectives:
    def test_p2_plus_and_minus(self):
        alg = skew_brauer_algebra(load("fig1.sbg"))
        basis = enumerate_basis(alg.algebra)
        for sign in "+-":
            pl = projective_layers(alg, f"2{sign}", basis)
            assert pl.top == f"2{sign}" and pl.socle == f"2{sign}"
            assert pl.dimension == 6
            assert [sorted(layer) for layer in pl.layers] == [
                [f"2{sign}"], ["1+", "1-"], ["4"], ["3"], [f"2{sign}"]]

    def test_p3_hat_from_oracle(self):
        # dimension and layers frozen from the exhaustive path oracle
        alg = skew_brauer_algebra(load("fig1.sbg"))
        basis = enumerate_basis(alg.algebra)
        pl = projective_layers(alg, "3", basis)
        assert pl.top == "3" and pl.socle == "3"
        assert pl.dimension == 9
        assert [sorted(layer) for layer in pl.layers] == [
            ["3"], ["2+", "2-", "5"], ["1+", "1-", "4"], ["4"], ["3"]]

    def test_p3_dimension_matches_paths_from_vertex(self):
        alg = skew_brauer_algebra(load("fig1.sbg"))
        basis = enumerate_basis(alg.algebra)
        q = alg.quiver
        vid = q.vertex_by_label("3").id
        blocks = basis.blocks()
        assert sum(len(ps) for (s, _), ps in blocks.items() if s == vid) == 9
        assert sum(len(ps) for (_, t), ps in blocks.items() if t == vid) == 9

    def test_truncated_vertex_single_layer(self):
        import skewbrauer.brauer as B
        v = (B.BrauerVertex(0, "u", 1), B.BrauerVertex(1, "w", 1))
        e = (B.BrauerEdge(0, "x", (0, 1)),)
        g = SkewBrauerGraph(B.BrauerGraph(v, e, {0: ((0, 1),), 1: ((0, 1),)}),
                            frozenset())
        alg = skew_brauer_algebra(g)
        pl = projective_layers(alg, "x")
        assert pl.layers == (("x",),)
        assert pl.dimension == 1

    def test_unknown_vertex(self):
        alg = skew_brauer_algebra(load("fig1.sbg"))
        with pytest.raises(UnknownVertex, match="^no vertex nope$"):
            projective_layers(alg, "nope")
        with pytest.raises(UnknownVertex, match="^no vertex 99$"):
            projective_layers(alg, 99)

    @staticmethod
    def fat(m):
        """Edges x-c and c-y, x distinguished, c of multiplicity m."""
        return skew_brauer_algebra(formats.parse_sbg(
            f"vertex x distinguished\nvertex c mult={m}\nvertex y\n"
            "edge 1 x c\nedge 2 c y\norder x: 1\norder c: 1, 2\norder y: 2\n", "fat"))

    @pytest.mark.parametrize("m", [4, 8, 12])
    def test_fat_vertex_walk_grows_linearly(self, m):
        # one frontier entry per normal form: a walk over every nonzero
        # path would make 645, 10,065 and 159,885 normal-form calls
        assert enumerate_basis(self.fat(m).algebra).stats["nf_calls"] <= 60 * m

    def test_fat_vertex_layers_sum_to_dimension(self):
        alg = self.fat(16)
        basis = enumerate_basis(alg.algebra)
        assert basis.dimension == 145
        assert sum(projective_layers(alg, v.id, basis).dimension
                   for v in alg.quiver.vertices) == 145

    @pytest.mark.parametrize("name", ["fig1.sbg", "excut.sbg", "torus.sbg",
                                      "gamma1_m2.sbg", "btree_m3.sbg"])
    def test_simple_top_and_socle_everywhere(self, name):
        alg = skew_brauer_algebra(load(name))
        basis = enumerate_basis(alg.algebra)
        for v in alg.quiver.vertices:
            pl = projective_layers(alg, v.label, basis)
            assert pl.layers[0] == (v.label,)
            assert pl.layers[-1] == (v.label,)
