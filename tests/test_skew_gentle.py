"""Skew-gentle recognition, duplication, admissible presentations."""
import dataclasses
import pickle
import re

import pytest

from skewbrauer import formats, skewgentle, trivext
from skewbrauer.basis import enumerate_basis, maximal_paths
from skewbrauer.brauer import skew_brauer_algebra
from skewbrauer.dissection import (skew_gentle_from_dissection,
                                   trivext_tuple_from_dissection)
from skewbrauer.errors import LoopAtDistinguished, NotSkewGentle
from skewbrauer.quiver import (BoundQuiver, Quiver, Relation, dedupe_relations,
                               stationary)
from skewbrauer.skewgentle import (SgTuple, _decorate, admissible_presentation,
                                   auxiliary_gentle, gentle_base,
                                   is_skew_gentle, loop_presentation,
                                   make_presentation, sg_bound_quiver, sg_ideal,
                                   sg_quiver)
from skewbrauer.trivext import trivial_extension

from helpers import (BQ_FIXTURES, DIS_FIXTURES, P, SBG_FIXTURES,
                     SKEW_GENTLE_FIXTURES, family_graphs, load, mono,
                     sp_maximal_paths)


def toy():
    return make_presentation(load("toy.bq"))


class TestRecognition:
    def test_toy_passes(self):
        check = is_skew_gentle(load("toy.bq"))
        assert check
        assert check.special_vertices == ("1", "2")
        assert check.special_loops == ("f1", "f2")

    def test_extra_loop_fails_condition_4(self):
        q = Quiver.build(["1", "2", "3", "4", "5"],
                         [("a", "1", "2"), ("b", "2", "3"), ("g", "3", "4"),
                          ("d", "4", "5"), ("l", "5", "3"),
                          ("f1", "1", "1"), ("f2", "2", "2"), ("h", "1", "1")])
        rels = (Relation.difference(P(q, "f1", "f1"), P(q, "f1")),
                Relation.difference(P(q, "f2", "f2"), P(q, "f2")),
                mono(q, "a", "b"), mono(q, "g", "d"), mono(q, "l", "g"))
        check = is_skew_gentle(BoundQuiver(q, rels))
        assert not check and check.condition == "condition-4"

    def test_missing_transit_relation_fails(self):
        q = Quiver.build(["1", "2", "3"],
                         [("a", "1", "2"), ("b", "2", "3"), ("f", "2", "2")])
        rels = (Relation.difference(P(q, "f", "f"), P(q, "f")),)
        check = is_skew_gentle(BoundQuiver(q, rels))
        assert not check and check.condition == "condition-4"

    def test_gentle_input_passes_with_empty_sp(self):
        bq = load("a2.bq")
        check = is_skew_gentle(bq)
        assert check and check.special_vertices == ()


class TestAuxiliary:
    def test_toy_auxiliary_ideal(self):
        aux = auxiliary_gentle(toy())
        labels = sorted(r.label(aux.quiver) for r in aux.relations)
        assert labels == ["g*d", "l*g"]
        assert len(aux.quiver.arrows) == 5

    def test_gentle_input_is_fixed(self):
        pres = make_presentation(load("a2.bq"))
        aux = auxiliary_gentle(pres)
        assert len(aux.quiver.arrows) == 1
        assert aux.relations == ()

    def test_three_vertex_line_keeps_plain_transit(self):
        # special vertices at the ends: the middle transit relation stays
        pres = make_presentation(load("repetitive.bq"))
        aux = auxiliary_gentle(pres)
        assert sorted(r.label(aux.quiver) for r in aux.relations) == ["a*b"]


class TestSgQuiver:
    def test_toy_counts(self):
        aux = auxiliary_gentle(toy())
        sp = frozenset(aux.quiver.vertex_by_label(x).id for x in ("1", "2"))
        sgq = sg_quiver(aux.quiver, sp)
        assert len(sgq.quiver.vertices) == 7
        assert len(sgq.quiver.arrows) == 9
        copies = {}
        for aid, (base, _, _) in sgq.arrow_origins.items():
            label = aux.quiver.arrow(base).label
            copies[label] = copies.get(label, 0) + 1
        assert copies == {"a": 4, "b": 2, "g": 1, "d": 1, "l": 1}

    def test_empty_sp_is_identity(self):
        q = Quiver.build(["1", "2"], [("a", "1", "2")])
        sgq = sg_quiver(q, frozenset())
        assert len(sgq.quiver.vertices) == 2
        assert len(sgq.quiver.arrows) == 1

    def test_both_ends_special(self):
        q = Quiver.build(["x", "y"], [("a", "x", "y")])
        sgq = sg_quiver(q, frozenset({0, 1}))
        assert len(sgq.quiver.vertices) == 4
        assert len(sgq.quiver.arrows) == 4

    def test_loop_at_distinguished(self):
        q = Quiver.build(["x"], [("f", "x", "x")])
        with pytest.raises(LoopAtDistinguished):
            sg_quiver(q, frozenset({0}))

    @pytest.mark.parametrize("name", SKEW_GENTLE_FIXTURES)
    def test_counting_invariants(self, name):
        pres = make_presentation(load(name))
        aux = auxiliary_gentle(pres)
        sp = frozenset(aux.quiver.vertex_by_label(
            pres.quiver.vertex(x).label).id for x in pres.special)
        sgq = sg_quiver(aux.quiver, sp)
        assert len(sgq.quiver.vertices) == len(aux.quiver.vertices) + len(sp)
        for a in aux.quiver.arrows:
            n = sum(1 for (base, _, _) in sgq.arrow_origins.values()
                    if base == a.id)
            specials = (a.source in sp) + (a.target in sp)
            assert n == 2 ** specials


class TestSgIdeal:
    def test_toy_exact_relation_set(self):
        adm = admissible_presentation(toy())
        labels = sorted(r.label(adm.quiver) for r in adm.relations)
        assert labels == ["+a+*+b - +a-*-b", "-a+*+b - -a-*-b", "g*d", "l*g"]

    def test_pass_through_without_special(self):
        q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        t = SgTuple(q, (P(q, "a", "b"),), frozenset(), ())
        rels = sg_ideal(t)
        assert len(rels) == 1 and rels[0].is_monomial

    def test_no_relation_repeats(self):
        # sg_ideal writes no relation twice, up to a scalar: the tuples of
        # every graph fixture, the benchmark's family graphs, T(A) of the
        # .bq fixtures and the dissections
        tuples = [(n, skew_brauer_algebra(load(n)).sg_tuple) for n in SBG_FIXTURES]
        tuples += [(n, skew_brauer_algebra(formats.parse_sbg(text, n)).sg_tuple)
                   for seed in (1, 2, 3) for n, text in family_graphs(seed)]
        for n in BQ_FIXTURES + ["a2rev.bq", "excut.bq"]:
            a = load(n)
            if not a.admissible:
                a = admissible_presentation(make_presentation(a))
            tuples.append((f"T({n})", trivial_extension(a).sg_tuple))
        tuples += [(n, trivext_tuple_from_dissection(load(n)).as_sg_tuple())
                   for n in DIS_FIXTURES]
        assert len(tuples) == 102
        for name, t in tuples:
            rels = sg_ideal(t)
            assert dedupe_relations(rels) == list(rels), name

    def test_closed_loop_kill_is_its_monomial(self):
        # each new loop B of T(semisimple2) closes a stationary path: its
        # kill B*B is also a monomial of the tuple, and is written once
        t = trivial_extension(load("semisimple2.bq"))
        q = t.algebra.quiver
        assert set(t.sg_tuple.monomials) == {P(q, "B1", "B1"), P(q, "B2", "B2")}
        assert [r.label(q) for r in sg_ideal(t.sg_tuple)] == ["B1*B1", "B2*B2"]

    def test_tuple_invariant_rejects_special_transit(self):
        q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        with pytest.raises(ValueError):
            SgTuple(q, (P(q, "a", "b"),), frozenset({1}), ())


class TestAdmissiblePresentation:
    def test_toy_figure(self):
        adm = admissible_presentation(toy())
        assert len(adm.quiver.vertices) == 7
        assert len(adm.quiver.arrows) == 9
        assert adm.admissible
        assert enumerate_basis(adm).dimension == 23

    def test_gentle_fixed_point(self):
        pres = make_presentation(load("a2.bq"))
        adm = admissible_presentation(pres)
        assert len(adm.quiver.vertices) == 2
        assert len(adm.quiver.arrows) == 1
        assert adm.relations == ()

    def test_excut_five_vertices(self):
        pres = make_presentation(load("excut.bq"))
        adm = admissible_presentation(pres)
        assert len(adm.quiver.vertices) == 5
        assert len(adm.quiver.arrows) == 4
        # the four sign-ranged copies of the killed transit
        assert all(r.is_monomial and len(r.paths()[0]) == 2
                   for r in adm.relations)
        assert len(adm.relations) == 4

    @pytest.mark.parametrize("name", SKEW_GENTLE_FIXTURES)
    def test_relation_shapes_and_finiteness(self, name):
        # not locally gentle in general, but always quadratic monomials plus
        # two-term commutation binomials, with a finite basis
        adm = admissible_presentation(make_presentation(load(name)))
        for r in adm.relations:
            if r.is_monomial:
                assert len(r.paths()[0]) == 2
            else:
                assert {len(p) for p in r.paths()} == {2}
        enumerate_basis(adm)


def _loop_presentations():
    """Every skew-gentle .bq fixture and every .dis fixture, presented with
    special loops."""
    out = [(n, make_presentation(load(n))) for n in SKEW_GENTLE_FIXTURES + ["excut.bq"]]
    out += [(n, skew_gentle_from_dissection(load(n))) for n in DIS_FIXTURES]
    return out


class TestLoopPresentation:
    def test_collapse_inverts_duplication(self):
        # loop labels may differ (excut.bq names the loop at 3 f2, the
        # loop presentation of the gentle base writes f3), so compare the
        # admissible presentations.  It writes the gentle monomials in
        # arrow order, which
        # sec73_B.bq does not list its relations in.
        for name, p in _loop_presentations():
            adm = admissible_presentation(p)
            back = admissible_presentation(loop_presentation(*gentle_base(adm)))
            assert back.quiver == adm.quiver, name
            assert back.special_vertices == adm.special_vertices, name
            if name == "sec73_B.bq":
                assert set(back.relations) == set(adm.relations)
                assert len(back.relations) == len(adm.relations)
            else:
                assert back.relations == adm.relations, name

    def test_excut_loop_label(self):
        adm = admissible_presentation(make_presentation(load("excut.bq")))
        p = loop_presentation(*gentle_base(adm))
        q = p.quiver
        assert sorted(q.arrow(a).label for a in p.loops.values()) == ["f1", "f3"]
        assert p.bound.special_vertices == p.special

    @pytest.mark.parametrize("name", DIS_FIXTURES)
    def test_loop_presentation_inverts_auxiliary(self, name):
        p = skew_gentle_from_dissection(load(name))
        back = loop_presentation(auxiliary_gentle(p), p.special)
        assert formats.serialize_bq(back.bound) == formats.serialize_bq(p.bound)
        assert back.special == p.special

    def test_loop_label_is_primed_while_taken(self):
        q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"),
                                            ("f2", "3", "1")])
        p = loop_presentation(BoundQuiver(q, ()), frozenset({1}))
        f = p.quiver.arrow(p.loops[1])
        assert f.label == "f2'" and f.source == f.target == 1
        # the loop relation, then the transit through 2, after aux's own
        assert [r.label(p.quiver) for r in p.bound.relations] == ["f2'*f2' - f2'", "a*b"]


def _toy_adm():
    return admissible_presentation(toy())


def _without(adm, label):
    q = adm.quiver
    return adm.relabelled(relations=tuple(r for r in adm.relations if r.label(q) != label))


def _toy_tuple_without(label):
    # toy.bq's tuple less one monomial of its auxiliary gentle algebra
    pres = toy()
    aux = auxiliary_gentle(pres)
    q = aux.quiver
    return SgTuple(q, tuple(r.paths()[0] for r in aux.relations if r.label(q) != label),
                   pres.special, ())


def _two_arrows_out():
    # special vertex 1 starts two arrows: condition 4 fails on the base
    q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "3")])
    return sg_bound_quiver(SgTuple(q, (), frozenset({0}), ()))


def _extra_monomial():
    # toy.bq's admissible presentation (dimension 23) with the monomial
    # +a+*+b*g added, which is not in the sg ideal: dimension 22
    adm = _toy_adm()
    return adm.relabelled(relations=adm.relations + (mono(adm.quiver, "+a+", "+b", "g"),))


BOOKKEEPING_FAULTS = {
    "signed-transit": (lambda: _without(admissible_presentation(
        make_presentation(load("excut.bq"))), "+a*b+"),
        "sg relation +a*b+ of its tuple is missing"),
    "condition-4": (_two_arrows_out, "condition-4: special vertex 1 is not the "
                    "start or end of exactly one arrow"),
    "gentle-part": (lambda: sg_bound_quiver(_toy_tuple_without("l*g")),
                    "gentle-part:unique-alive-predecessor: "
                    "arrow g has two surviving predecessors"),
    "extra-monomial": (_extra_monomial,
                       "relation +a+*+b*g is not an sg relation of its tuple"),
}


class TestGentleBase:
    def test_no_bookkeeping(self):
        adm = _toy_adm()
        with pytest.raises(NotSkewGentle,
                           match="^no duplication bookkeeping on this presentation$"):
            loop_presentation(*gentle_base(BoundQuiver(adm.quiver, adm.relations)))

    @pytest.mark.parametrize("reader", [
        pytest.param(lambda adm: loop_presentation(*gentle_base(adm)), id="loop_presentation"),
        trivial_extension, gentle_base])
    @pytest.mark.parametrize("fault", sorted(BOOKKEEPING_FAULTS))
    def test_faults(self, fault, reader):
        # gentle_base checks the gentle base as make_presentation checks
        # its loop presentation, with the same messages, before the other
        # readers build anything on it
        build, message = BOOKKEEPING_FAULTS[fault]
        with pytest.raises(NotSkewGentle) as info:
            reader(build())
        assert str(info.value) == message

    def test_trivial_extension_builds_no_loop_presentation(self, monkeypatch):
        adm = _toy_adm()
        calls = []
        for name in ("make_presentation", "loop_presentation", "auxiliary_gentle"):
            def spy(*args, name=name, real=getattr(skewgentle, name)):
                calls.append(name)
                return real(*args)
            for module in (skewgentle, trivext):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy)
        t = trivial_extension(adm)
        assert calls == []
        assert enumerate_basis(t.algebra).dimension == 2 * enumerate_basis(adm).dimension

    def test_extra_monomial_changes_the_algebra(self):
        # the fault "extra-monomial" is a smaller algebra with the same
        # tuple: read off the tuple alone, its T(A) had dimension 46, not
        # twice 22
        assert enumerate_basis(_toy_adm()).dimension == 23
        assert enumerate_basis(_extra_monomial()).dimension == 22

    def test_tuple_with_cycles_has_no_gentle_base(self):
        t = trivial_extension(_toy_adm())
        with pytest.raises(NotSkewGentle, match="distinguished cycles"):
            loop_presentation(*gentle_base(t.algebra))

    def test_quiver_off_its_tuple_is_refused(self):
        adm = _toy_adm()
        other = load("a2.bq").quiver
        with pytest.raises(NotSkewGentle, match="not the duplicated quiver"):
            loop_presentation(*gentle_base(adm.relabelled(quiver=other, relations=())))

    def test_isolated_vertex_closes_its_stationary_path(self):
        q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("f", "2", "2")])
        adm = admissible_presentation(make_presentation(
            BoundQuiver(q, (Relation.difference(P(q, "f", "f"), P(q, "f")),))))
        t = trivial_extension(adm)
        e3 = stationary(adm.quiver.vertex_by_label("3").id)
        assert {t.quiver.arrow(b).label: p for b, p in t.new_arrows.items()} == {
            "B1": e3, "+B2": P(adm.quiver, "a+"), "-B2": P(adm.quiver, "a-")}


def _lazy_tuples():
    # toy.bq's admissible tuple, with no cycles, and that of its T(A)
    adm = _toy_adm().sg_tuple
    return [adm, trivial_extension(sg_bound_quiver(adm)).sg_tuple]


class TestLazyRelations:
    """``sg_bound_quiver`` writes its relations, the tuple's sg ideal, on
    their first read."""

    @pytest.mark.parametrize("t", _lazy_tuples(), ids=["adm", "trivext"])
    def test_equal_to_the_eager_presentation(self, t):
        eager = BoundQuiver(t.sgq.quiver, sg_ideal(t), sg_tuple=t)
        lazy = sg_bound_quiver(t)
        assert "relations" not in vars(lazy)
        assert lazy == eager and eager == sg_bound_quiver(t)
        assert hash(sg_bound_quiver(t)) == hash(eager)

    @pytest.mark.parametrize("t", _lazy_tuples(), ids=["adm", "trivext"])
    def test_first_read_writes_the_sg_ideal_in_order(self, t):
        lazy = sg_bound_quiver(t)
        assert lazy.relations == sg_ideal(t)
        assert vars(lazy)["relations"] is lazy.relations

    @pytest.mark.parametrize("t", _lazy_tuples(), ids=["adm", "trivext"])
    def test_copies_round_trip(self, t):
        eager = BoundQuiver(t.sgq.quiver, sg_ideal(t), sg_tuple=t)
        assert dataclasses.replace(sg_bound_quiver(t)) == eager
        plain = sg_bound_quiver(t).relabelled(sg_tuple=None)
        assert plain == BoundQuiver(t.sgq.quiver, sg_ideal(t))
        back = pickle.loads(pickle.dumps(sg_bound_quiver(t)))
        assert "relations" not in vars(back)
        assert back == eager and back.relations == sg_ideal(t)

    def test_tuple_readers_write_no_relation(self):
        adm = _toy_adm()
        base, special = gentle_base(adm)
        t = trivial_extension(adm)
        assert (base.quiver, special) == (adm.sg_tuple.quiver, adm.sg_tuple.special)
        assert "relations" not in vars(adm) and "relations" not in vars(t.algebra)
        assert "powers" not in vars(t.sg_tuple)

    @pytest.mark.parametrize("label", ["+a+*+b - +a-*-b", "l*g"])
    def test_dropped_sg_relation_is_refused(self, label):
        adm = _without(_toy_adm(), label)
        assert len(adm.relations) == 3
        message = f"sg relation {label} of its tuple is missing"
        with pytest.raises(NotSkewGentle, match=f"^{re.escape(message)}$"):
            gentle_base(adm)


class TestSpMaximal:
    def test_repetitive_example(self):
        pres = make_presentation(load("repetitive.bq"))
        labels = sorted(p.label(pres.quiver) for p in sp_maximal_paths(pres))
        assert labels == ["b*f2", "f1*a"]

    def test_gentle_reduces_to_ordinary(self):
        pres = make_presentation(load("a2.bq"))
        assert [p.label(pres.quiver) for p in sp_maximal_paths(pres)] == ["a"]

    def test_toy_two_paths(self):
        pres = toy()
        got = sorted(p.label(pres.quiver) for p in sp_maximal_paths(pres))
        assert got == ["d*l", "f1*a*f2*b*g"]

    @pytest.mark.parametrize("name", SKEW_GENTLE_FIXTURES)
    def test_bijection_with_auxiliary_maximal(self, name):
        pres = make_presentation(load(name))
        aux = auxiliary_gentle(pres)
        amax = maximal_paths(aux, enumerate_basis(aux))
        spmax = sp_maximal_paths(pres)
        assert len(amax) == len(spmax)
        # deleting the special loops recovers the auxiliary maximal path
        loop_ids = set(pres.loops.values())
        shadows = set()
        for p in spmax:
            kept = tuple(a for a in p.arrows if a not in loop_ids)
            labels = tuple(pres.quiver.arrow(a).label for a in kept)
            shadows.add(labels)
        assert shadows == {
            tuple(aux.quiver.arrow(a).label for a in p.arrows) for p in amax}


def _induced(pres, aux, p, eps, eps2):
    """The copy of the auxiliary path p in the admissible presentation:
    signs eps and eps2 at its ends, "+" at special vertices inside."""
    sgq = SgTuple(aux.quiver, (), pres.special, ()).sgq
    q = aux.quiver
    inside = ["+" if q.arrow(a).target in pres.special else "" for a in p.arrows[:-1]]
    return _decorate(sgq, p, [eps, *inside, eps2])


class TestInducedPaths:
    def test_variants_share_normal_form(self):
        pres = toy()
        adm = admissible_presentation(pres)
        basis = enumerate_basis(adm)
        q = adm.quiver
        v1 = P(q, "+a+", "+b")
        v2 = P(q, "+a-", "-b")
        assert basis.reduce(v1) == basis.reduce(v2)

    @pytest.mark.parametrize("name", SKEW_GENTLE_FIXTURES)
    def test_induced_class_counts(self, name):
        # a nonzero auxiliary path induces 2^(number of special endpoints)
        # normal-form classes in the admissible presentation
        pres = make_presentation(load(name))
        aux = auxiliary_gentle(pres)
        adm = admissible_presentation(pres)
        aux_basis = enumerate_basis(aux)
        adm_basis = enumerate_basis(adm)
        assert SgTuple(aux.quiver, (), pres.special, ()).sgq.quiver == adm.quiver
        special_labels = {pres.quiver.vertex(x).label for x in pres.special}
        for p in aux_basis.basis_paths:
            if p.is_stationary:
                continue
            src = aux.quiver.vertex(p.source(aux.quiver)).label
            tgt = aux.quiver.vertex(p.target(aux.quiver)).label
            eps_opts = ["+", "-"] if src in special_labels else [""]
            eps2_opts = ["+", "-"] if tgt in special_labels else [""]
            classes = set()
            for e1 in eps_opts:
                for e2 in eps2_opts:
                    ip = _induced(pres, aux, p, e1, e2)
                    nf = adm_basis.reduce(ip)
                    assert nf, "induced path of a nonzero path must be nonzero"
                    classes.add(tuple(sorted((pp.arrows, str(c))
                                             for pp, c in nf.items())))
            assert len(classes) == len(eps_opts) * len(eps2_opts)

    @pytest.mark.parametrize("name", SKEW_GENTLE_FIXTURES)
    def test_maximality_transfers(self, name):
        # p maximal in the auxiliary algebra iff every induced copy is maximal
        pres = make_presentation(load(name))
        aux = auxiliary_gentle(pres)
        adm = admissible_presentation(pres)
        aux_basis = enumerate_basis(aux)
        adm_basis = enumerate_basis(adm)
        adm_max = set(maximal_paths(adm, adm_basis))
        special_labels = {pres.quiver.vertex(x).label for x in pres.special}

        def induced_reps(p):
            src = aux.quiver.vertex(p.source(aux.quiver)).label
            tgt = aux.quiver.vertex(p.target(aux.quiver)).label
            for e1 in (["+", "-"] if src in special_labels else [""]):
                for e2 in (["+", "-"] if tgt in special_labels else [""]):
                    nf = adm_basis.reduce(_induced(pres, aux, p, e1, e2))
                    (rep, coeff), = nf.items()
                    yield rep

        aux_max = set(maximal_paths(aux, aux_basis))
        for p in aux_basis.basis_paths:
            if p.is_stationary:
                continue
            copies_maximal = {rep in adm_max for rep in induced_reps(p)}
            if p in aux_max:
                assert copies_maximal == {True}
            else:
                assert True not in copies_maximal
