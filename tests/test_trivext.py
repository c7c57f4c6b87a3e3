"""Trivial extensions: cycles, cuts, quotients, windows, reflections."""
import dataclasses
import functools
import gc
import re
import weakref

import pytest
from fractions import Fraction

from skewbrauer.basis import enumerate_basis, maximal_paths
from skewbrauer.brauer import skew_brauer_algebra, symmetric_form_check
from skewbrauer.errors import (NotAdmissible, NotSkewGentle, NotSourceOrSink,
                               UnknownArrow, UnsupportedClass)
from skewbrauer.iso import are_isomorphic
from skewbrauer.quiver import (BoundQuiver, Path, Quiver, Relation,
                               dedupe_relations)
from skewbrauer.skewgentle import (SgTuple, admissible_presentation,
                                   auxiliary_gentle, gentle_base,
                                   loop_presentation, make_presentation,
                                   sg_bound_quiver)
from skewbrauer import skewgentle, trivext
from skewbrauer.trivext import (CutSet, enumerate_admissible_cuts,
                                enumerate_good_cuts, is_admissible_cut,
                                quotient_by_cut, reflect, trivial_extension)

from helpers import (BQ_FIXTURES, P, SKEW_GENTLE_FIXTURES, is_sign_closed, load,
                     record_builds, repetitive_window, sign_ladder, signed_cycles)


def toy_pres():
    return make_presentation(load("toy.bq"))


def toy_aux():
    return auxiliary_gentle(toy_pres())


def toy_adm():
    return admissible_presentation(toy_pres())


class TestSocle:
    def test_auxiliary_socle(self):
        aux = toy_aux()
        basis = enumerate_basis(aux)
        labels = sorted(p.label(aux.quiver) for p in maximal_paths(aux, basis))
        assert labels == ["a*b*g", "d*l"]

    def test_admissible_socle_three_classes(self):
        adm = toy_adm()
        basis = enumerate_basis(adm)
        labels = sorted(p.label(adm.quiver) for p in maximal_paths(adm, basis))
        assert labels == ["+a+*+b*g", "-a+*+b*g", "d*l"]

    def test_isolated_vertex(self):
        bq = load("semisimple2.bq")
        basis = enumerate_basis(bq)
        assert sorted(p.label(bq.quiver) for p in maximal_paths(bq, basis)) \
            == ["e_x", "e_y"]

    def test_unsupported_class(self):
        # a commutative square is neither gentle nor a duplication output
        q = Quiver.build(["1", "2", "3", "4"],
                         [("a", "1", "2"), ("b", "1", "3"),
                          ("c", "2", "4"), ("d", "3", "4")])
        bq = BoundQuiver(q, (Relation.difference(P(q, "a", "c"), P(q, "b", "d")),))
        with pytest.raises(UnsupportedClass, match="socle basis via maximal paths "
                           "needs a gentle or admissible skew-gentle presentation"):
            trivial_extension(bq)

    def test_special_marks_without_bookkeeping(self):
        # a plain presentation with special marks is neither gentle nor the
        # sg-bound quiver of a tuple; in loop form it is not admissible,
        # which the basis finds first
        a2 = load("a2.bq")
        marked = a2.relabelled(special_vertices=frozenset({a2.quiver.vertex_by_label("2").id}))
        with pytest.raises(NotSkewGentle, match="^special vertex 2 is marked on a "
                           "presentation with no duplication bookkeeping$"):
            trivial_extension(marked)
        with pytest.raises(NotAdmissible):
            trivial_extension(toy_pres().bound)


class TestTrivialExtension:
    def test_gentle_running_example(self):
        t = trivial_extension(toy_aux())
        q = t.algebra.quiver
        assert len(q.vertices) == 5 and len(q.arrows) == 7
        new = {q.arrow(a).label: p.label(t.source.quiver)
               for a, p in t.new_arrows.items()}
        assert sorted(new.values()) == ["a*b*g", "d*l"]
        assert {p.label(q) for p in signed_cycles(t)} == {"B1*d*l", "B2*a*b*g"}

    def test_admissible_running_example(self):
        t = trivial_extension(toy_adm())
        assert len(t.algebra.quiver.vertices) == 7
        assert len(t.algebra.quiver.arrows) == 12
        assert len(signed_cycles(t)) == 5

    def test_printed_relations_lie_in_the_ideal(self):
        t = trivial_extension(toy_adm())
        q = t.algebra.quiver
        basis = enumerate_basis(t.algebra)
        bp = {p.label(toy_adm().quiver): q.arrow(a).label
              for a, p in t.new_arrows.items()}
        b1p, b1m, b2 = bp["+a+*+b*g"], bp["-a+*+b*g"], bp["d*l"]

        def holds(*terms):
            return basis.relation_holds(
                Relation(tuple((Fraction(c), P(q, *labels)) for c, labels in terms)))

        # Type a
        assert holds((1, ("+a+", "+b")), (-1, ("+a-", "-b")))
        assert holds((1, ("-a+", "+b")), (-1, ("-a-", "-b")))
        # Type b (printed representatives)
        assert holds((1, (b2, "d", "l")), (-1, ("g", b1m, "-a-", "-b")))
        assert holds((1, (b2, "d", "l")), (-1, ("g", b1p, "+a+", "+b")))
        assert holds((1, ("d", "l", b2)), (-1, (b1p, "+a+", "+b", "g")))
        assert holds((1, ("d", "l", b2)), (-1, (b1m, "-a-", "-b", "g")))
        # Type c (the paper's B2*d*l*b entry is read as the wrap B2*d*l*B2)
        for labels in [("+b", b2), ("-b", b2), (b2, b1p), (b2, b1m),
                       ("+a+", "+b", "g", b1p, "+a+"),
                       ("+b", "g", b1p, "+a+", "+b"),
                       ("g", b1p, "+a+", "+b", "g"),
                       (b1p, "+a+", "+b", "g", b1p),
                       ("d", "l", b2, "d"), ("l", b2, "d", "l"),
                       (b2, "d", "l", b2)]:
            assert holds((1, labels)), labels
        # Type d
        assert holds((1, ("+a+", "+b", "g", b1p, "+a-")))
        assert holds((1, ("-a-", "-b", "g", b1m, "-a+")))

    @pytest.mark.parametrize("special, want", [
        # B1 closes a*b, from 3 back to 1, both ends special: four copies
        ({"1", "2", "3"}, [("+B1+", "+a+*+b+"), ("-B1+", "+a+*+b-"),
                           ("+B1-", "-a+*+b+"), ("-B1-", "-a+*+b-")]),
        # only the target of B1 is special: two copies
        ({"1", "2"}, [("B1+", "+a+*+b"), ("B1-", "-a+*+b")]),
    ])
    def test_new_arrow_copies_target_sign_first(self, special, want):
        # new_arrows lists the copies of each B<i> by the sign at its
        # target, then by the sign at its source; "+" inside the path
        q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        sp = frozenset(q.vertex_by_label(x).id for x in special)
        adm = sg_bound_quiver(SgTuple(q, (), sp, ()))
        t = trivial_extension(adm)
        assert [(t.quiver.arrow(b).label, p.label(adm.quiver))
                for b, p in t.new_arrows.items()] == want

    def test_semisimple_gives_nilpotent_loops(self):
        t = trivial_extension(load("semisimple2.bq"))
        q = t.algebra.quiver
        assert len(q.arrows) == 2
        assert all(a.is_loop for a in q.arrows)
        basis = enumerate_basis(t.algebra)
        assert basis.dimension == 4
        for a in q.arrows:
            assert basis.is_zero(Path(a.source, (a.id, a.id)))

    def test_tuple_equality_theorem(self):
        # the trivial extension of the admissible presentation agrees with
        # the sg-bound quiver of the auxiliary trivial extension's tuple
        t = trivial_extension(toy_adm())
        aux_te = trivial_extension(toy_aux())
        atq = aux_te.algebra.quiver
        mono_part = tuple(r.paths()[0] for r in aux_te.algebra.relations
                          if r.is_monomial)
        sp = frozenset(atq.vertex_by_label(x).id for x in ("1", "2"))
        tup = SgTuple(atq, mono_part, sp, tuple(signed_cycles(aux_te)))
        assert are_isomorphic(t.algebra, sg_bound_quiver(tup))

    def test_dimension_lower_bound(self):
        for name in SKEW_GENTLE_FIXTURES:
            adm = admissible_presentation(make_presentation(load(name)))
            basis = enumerate_basis(adm)
            t = trivial_extension(adm, basis)
            tdim = enumerate_basis(t.algebra).dimension
            assert tdim >= basis.dimension + len(t.new_arrows)
            # the underlying vector space is A + DA, so the presentation
            # must come out at exactly twice the input dimension
            assert tdim == 2 * basis.dimension

    def test_trivial_extensions_are_symmetric(self):
        # the symmetrising form of the Brauer module applies verbatim
        from skewbrauer.brauer import symmetric_form_check
        for name in SKEW_GENTLE_FIXTURES + ["a2.bq", "kronecker.bq",
                                            "semisimple2.bq"]:
            bq = load(name)
            if not bq.admissible:
                bq = admissible_presentation(make_presentation(bq))
            t = trivial_extension(bq)
            assert symmetric_form_check(t), name


class TestElementaryCycles:
    def test_gentle_cycles(self):
        t = trivial_extension(toy_aux())
        assert sorted(p.label(t.algebra.quiver) for p in signed_cycles(t)) \
            == ["B1*d*l", "B2*a*b*g"]

    def test_semisimple_loop_cycles(self):
        t = trivial_extension(load("semisimple2.bq"))
        assert all(len(p) == 1 for p in signed_cycles(t))

    def test_admissible_sign_copies(self):
        t = trivial_extension(toy_adm())
        q = t.algebra.quiver
        per_arrow = {}
        for p in signed_cycles(t):
            new_arrow, = (a for a in p.arrows if a in t.new_arrows)
            per_arrow[new_arrow] = per_arrow.get(new_arrow, 0) + 1
        by_label = {q.arrow(k).label: v for k, v in per_arrow.items()}
        # the two long socle classes each admit both interior sign choices
        assert sorted(by_label.values()) == [1, 2, 2]

    def test_one_new_arrow_per_cycle(self):
        for name in SKEW_GENTLE_FIXTURES:
            adm = admissible_presentation(make_presentation(load(name)))
            t = trivial_extension(adm)
            for p in signed_cycles(t):
                new = [a for a in p.arrows if a in t.new_arrows]
                assert len(new) == 1
                assert p.arrows.count(new[0]) == 1


class TestCuts:
    def test_twelve_admissible_cuts(self):
        t = trivial_extension(toy_aux())
        cuts = list(enumerate_admissible_cuts(t))
        assert len(cuts) == 12
        # brute-force oracle: product over cycles with the once-per-cycle filter
        cycles = signed_cycles(t)
        cyc = [set(p.arrows) for p in cycles]
        brute = set()
        for a in cyc[0]:
            for b in cyc[1]:
                d = frozenset({a, b})
                if all(sum(p.arrows.count(x) for x in d) == 1 for p in cycles):
                    brute.add(d)
        assert {c.arrows for c in cuts} == brute

    def test_semisimple_single_cut(self):
        t = trivial_extension(load("semisimple2.bq"))
        cuts = list(enumerate_admissible_cuts(t))
        assert len(cuts) == 1
        assert cuts[0].arrows == frozenset(t.new_arrows)

    def test_cut_by_new_arrows_recovers_source(self):
        t = trivial_extension(toy_aux())
        d = CutSet(frozenset(t.new_arrows))
        quotient = quotient_by_cut(t, d)
        assert are_isomorphic(quotient, t.source)

    def test_empty_cut_is_identity(self):
        t = trivial_extension(toy_aux())
        quotient = quotient_by_cut(t, CutSet(frozenset()))
        assert are_isomorphic(quotient, t.algebra)

    def test_unknown_arrow(self):
        t = trivial_extension(toy_aux())
        with pytest.raises(UnknownArrow):
            quotient_by_cut(t, CutSet(frozenset({999})))

    def test_limit_streams(self):
        t = trivial_extension(toy_aux())
        assert len(list(enumerate_admissible_cuts(t, limit=5))) == 5
        t = trivial_extension(toy_adm())
        for enumerate_cuts in (enumerate_admissible_cuts, enumerate_good_cuts):
            assert list(enumerate_cuts(t, limit=0)) == []
            with pytest.raises(ValueError, match="limit must be at least 0, got -1"):
                list(enumerate_cuts(t, limit=-1))


class TestQuotientRelations:
    """gamma2.sbg cut at +v.0+, +v.0-, +v.1-, -v.0-: two binomials keep one
    term each, -v.0+*+v.1+ and -v.1-*-v.0+ (the second with coefficient -1),
    and both are monomials of the ideal already."""

    @staticmethod
    def gamma2_cut():
        alg = skew_brauer_algebra(load("gamma2.sbg"))
        q = alg.algebra.quiver
        return alg, [q.arrow_by_label(lab).id
                     for lab in ("+v.0+", "+v.0-", "+v.1-", "-v.0-")]

    def test_lone_surviving_term_is_a_monomial(self):
        quot = quotient_by_cut(*self.gamma2_cut())
        labels = [r.label(quot.quiver) for r in quot.relations]
        assert "-v.1-*-v.0+" in labels
        assert all(r.terms[0][0] == 1 for r in quot.relations if r.is_monomial)

    def test_dedupe_passes_remove_relations(self, monkeypatch):
        import skewbrauer.trivext as trivext
        removed = []

        def counted(relations):
            relations = list(relations)
            out = dedupe_relations(relations)
            removed.append(len(relations) - len(out))
            return out
        monkeypatch.setattr(trivext, "dedupe_relations", counted)
        quotient_by_cut(*self.gamma2_cut())
        assert removed == [1, 0]

    def test_minimalize_on_a_cut_that_is_not_admissible(self, monkeypatch):
        # T(A) of toy.bq cut at B2- alone: the binomials with a term
        # through B2- keep their other term as a monomial, and the
        # monomials that then contain a shorter monomial are dropped,
        # which takes three passes to reach the fixpoint
        t = trivial_extension(toy_adm())
        q = t.algebra.quiver
        cut = {q.arrow_by_label("B2-").id}
        assert not is_admissible_cut(t, cut)
        passes = []
        monkeypatch.setattr(trivext, "dedupe_relations",
                            lambda rels: passes.append(rels) or dedupe_relations(rels))
        quot = quotient_by_cut(t, cut)
        assert len(passes) == 1 + 3
        assert [r.label(q) for r in quot.relations] == [
            "+a+*+b - +a-*-b", "-a+*+b - -a-*-b", "B2+*+a+", "B2+*+a-",
            "B1*d*l", "d*l*B1", "g*d", "l*g", "B1*B2+", "+b*B1", "-b*B1",
            "-a+*+b*g*B2+"]
        assert trivext.minimalize_relations(quot.quiver, quot.relations) == quot.relations
        # the relations with the cut terms dropped and nothing minimised
        # span the same ideal
        raw = []
        for r in t.algebra.relations:
            terms = tuple((c, p) for c, p in r.terms if not set(p.arrows) & cut)
            if terms:
                raw.append(Relation(terms))
        assert len(raw) == 23
        want = enumerate_basis(BoundQuiver(quot.quiver, tuple(raw)))
        got = enumerate_basis(quot)
        assert (got.basis_paths, got.nilpotency_bound) == (
            want.basis_paths, want.nilpotency_bound)
        assert got.dimension == 32


class TestGoodCuts:
    def test_twelve_good_cuts(self):
        t = trivial_extension(toy_adm())
        good = list(enumerate_good_cuts(t))
        assert len(good) == 12
        q = t.algebra.quiver
        for d in good:
            assert is_admissible_cut(t, d.arrows)
            assert is_sign_closed(t.algebra, d.arrows)

    @pytest.mark.parametrize("name", ["toy.bq", "sec73_A.bq"])
    def test_good_cuts_are_the_sign_closed_admissible_cuts(self, name):
        # brute force over every arrow set: one arrow on each elementary
        # cycle, counted with multiplicity, and a union of sign groups
        t = trivial_extension(
            admissible_presentation(make_presentation(load(name))))
        arrows = [a.id for a in t.algebra.quiver.arrows]
        cycles = signed_cycles(t)
        brute = set()
        for mask in range(1 << len(arrows)):
            chosen = frozenset(a for i, a in enumerate(arrows) if mask >> i & 1)
            if (all(sum(p.arrows.count(a) for a in chosen) == 1 for p in cycles)
                    and is_sign_closed(t.algebra, chosen)):
                brute.add(chosen)
        good = [d.arrows for d in enumerate_good_cuts(t)]
        assert len(good) == len(set(good))
        assert set(good) == brute

    def test_gentle_source_good_equals_admissible(self):
        t = trivial_extension(toy_aux())
        good = {c.arrows for c in enumerate_good_cuts(t)}
        adm = {c.arrows for c in enumerate_admissible_cuts(t)}
        assert good == adm

    def test_good_cut_round_trip(self):
        t = trivial_extension(toy_adm())
        for d in enumerate_good_cuts(t):
            quotient = quotient_by_cut(t, d)
            t2 = trivial_extension(quotient)
            assert are_isomorphic(t2.algebra, t.algebra), d.labels(t.algebra.quiver)

    def test_good_cut_round_trip_other_fixtures(self):
        for name in ["repetitive.bq", "sec73_A.bq"]:
            adm = admissible_presentation(make_presentation(load(name)))
            t = trivial_extension(adm)
            for d in enumerate_good_cuts(t):
                quotient = quotient_by_cut(t, d)
                t2 = trivial_extension(quotient)
                assert are_isomorphic(t2.algebra, t.algebra)

    def test_round_trip_of_reversed_relations(self):
        # T(A) with its relations in reverse order is still the sg-bound
        # quiver of its tuple, so each good cut cuts the tuple
        count = 0
        for name in SKEW_GENTLE_FIXTURES:
            t = trivial_extension(admissible_presentation(make_presentation(load(name))))
            rev = dataclasses.replace(t, algebra=t.algebra.relabelled(
                relations=t.algebra.relations[::-1]))
            for d in enumerate_good_cuts(rev):
                quotient = quotient_by_cut(rev, d)
                assert quotient == quotient_by_cut(t, d), (name, d.labels(t.quiver))
                result = are_isomorphic(trivial_extension(quotient).algebra, rev.algebra)
                assert result.status == "isomorphic", (name, d.labels(t.quiver))
                count += 1
        assert count == 40

    @pytest.mark.parametrize("name", SKEW_GENTLE_FIXTURES)
    def test_round_trip_maps_relations_onto_relations(self, name):
        # T(A/D) and T(A) are the sg-bound quiver of one skew-Brauer graph,
        # so the isomorphism found sends the relations of T(A/D), each up
        # to a scalar, onto exactly those of T(A)
        t = trivial_extension(admissible_presentation(make_presentation(load(name))))
        q = t.algebra.quiver
        relations = {r.canonical() for r in t.algebra.relations}
        for d in enumerate_good_cuts(t):
            back = trivial_extension(quotient_by_cut(t, d)).algebra
            result = are_isomorphic(back, t.algebra)
            assert result, d.labels(q)
            bq = back.quiver
            vmap = {bq.vertex_by_label(x).id: q.vertex_by_label(y).id
                    for x, y in result.vertex_map.items()}
            amap = {bq.arrow_by_label(x).id: q.arrow_by_label(y).id
                    for x, y in result.arrow_map.items()}
            images = {Relation(tuple((c, Path(vmap[p.base], tuple(amap[a] for a in p.arrows)))
                                     for c, p in r.terms)).canonical()
                      for r in back.relations}
            assert images == relations, d.labels(q)

    def test_round_trips_write_only_what_they_read(self, monkeypatch):
        """The 40 good-cut round trips of the five skew-gentle fixtures
        write the sg relations and the signed powers of T(A), which the
        isomorphism test reads, and build its basis, and do none of it for
        a quotient or a T(quotient): the tuple certificate accepts a
        candidate map on every round trip, and it is tried on every
        candidate before any basis."""
        ideals, powers = [], []
        real_ideal, real_powers = skewgentle.sg_ideal, SgTuple.__dict__["powers"].func

        def spy_ideal(t):
            ideals.append(t)
            return real_ideal(t)

        def spy_powers(t):
            powers.append(t)
            return real_powers(t)

        spy = functools.cached_property(spy_powers)
        spy.__set_name__(SgTuple, "powers")
        monkeypatch.setattr(skewgentle, "sg_ideal", spy_ideal)
        monkeypatch.setattr(SgTuple, "powers", spy)
        built = record_builds(monkeypatch)
        extensions, algebras, quotients, written = [], [], [], []
        for name in SKEW_GENTLE_FIXTURES:
            t = trivial_extension(admissible_presentation(make_presentation(load(name))))
            extensions.append(t.sg_tuple)
            algebras.append(t.algebra)
            for i, cut in enumerate(enumerate_good_cuts(t), 1):
                quotient = quotient_by_cut(t, cut)
                back = trivial_extension(quotient)
                assert are_isomorphic(back.algebra, t.algebra), (name, i)
                quotients.append(quotient.sg_tuple)
                if any(x is back.sg_tuple for x in ideals):
                    written.append((name, i))
                    extensions.append(back.sg_tuple)
        assert len(quotients) == 40
        assert written == []
        for calls in (ideals, powers):
            assert len(calls) == len(extensions) == 5
            assert all(any(x is t for t in extensions) for x in calls)
        assert len(built) == 5 and all(x is a for x, a in zip(built, algebras))

    def test_round_trip_makes_no_cycle(self):
        # the good-cut and isomorphism searches must leave no reference
        # cycle behind, or T(quotient) would outlive its last reference
        # until a collection
        t = trivial_extension(toy_adm())
        quotient = quotient_by_cut(t, next(enumerate_good_cuts(t)))
        gc.disable()
        try:
            t2 = trivial_extension(quotient)
            refs = [weakref.ref(x) for x in (t2, t2.algebra, t2.sg_tuple.quiver)]
            assert are_isomorphic(t2.algebra, t.algebra)
            assert list(enumerate_good_cuts(t2))
            del t2
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_quotient_collapses_to_skew_gentle(self):
        t = trivial_extension(toy_adm())
        for d in list(enumerate_good_cuts(t))[:4]:
            pres = loop_presentation(*gentle_base(quotient_by_cut(t, d)))
            assert pres.bound.special_vertices

    def test_edited_algebra_is_cut_by_pushdown(self):
        # an algebra edited away from its tuple's ideal is cut by pushing
        # its own relations down, not by cutting the unedited tuple
        t = trivial_extension(admissible_presentation(make_presentation(load("sec73_A.bq"))))
        q = t.algebra.quiver
        edited = dataclasses.replace(t, algebra=t.algebra.relabelled(relations=tuple(
            r for r in t.algebra.relations if r.label(q) != "b1*a2+")))
        cut = next(enumerate_good_cuts(edited))
        assert cut.labels(q) == ("+B2", "-B2", "B1")
        assert enumerate_basis(quotient_by_cut(t, cut)).dimension == 10
        quotient = quotient_by_cut(edited, cut)
        assert quotient.sg_tuple is None
        assert quotient == trivext._pushdown(edited.algebra, set(cut.arrows))
        assert enumerate_basis(quotient).dimension == 11

    def test_cut_that_splits_sign_variants_is_not_skew_gentle(self):
        # an admissible cut that takes some signed copies of an arrow but
        # not all is no good cut: its quotient carries no tuple and is not
        # gentle, and the error's witness names a kept copy of an arrow
        # the cut splits
        t = trivial_extension(admissible_presentation(make_presentation(load("excut.bq"))))
        origins = t.sg_tuple.sgq.arrow_origins
        split = [c for c in enumerate_admissible_cuts(t)
                 if not is_sign_closed(t.algebra, c.arrows)]
        assert len(split) == 12
        for cut in split:
            quotient = quotient_by_cut(t, cut)
            assert quotient.sg_tuple is None
            torn = {origins[a][0] for a in cut.arrows} & {
                origins[a.id][0] for a in quotient.quiver.arrows}
            with pytest.raises(UnsupportedClass) as err:
                trivial_extension(quotient)
            witness = re.fullmatch(r".*; [a-z-]+: .* \((.*)\)", str(err.value)).group(1)
            assert {origins[t.algebra.quiver.arrow_by_label(x).id][0]
                    for x in witness.split(", ")} & torn


def repetitive_adm():
    return admissible_presentation(make_presentation(load("repetitive.bq")))


def level(q: Quiver, vid: int) -> int:
    return int(q.vertex(vid).label.rsplit("[", 1)[1][:-1])


class TestRepetitiveWindow:
    def test_nonadmissible_window_shape(self):
        with pytest.raises(NotAdmissible):
            repetitive_window(load("repetitive.bq"), -1, 1)
        adm = repetitive_adm()
        w = repetitive_window(adm, -1, 1)
        q = w.algebra.quiver
        assert len(q.vertices) == 15
        # 4 arrows per level plus 4 connectors per inner level
        assert len(q.arrows) == 12 + 8
        for cid, (p, n) in w.connectors.items():
            conn = q.arrow(cid)
            src = q.vertex(conn.source).label
            tgt = q.vertex(conn.target).label
            assert src.endswith(f"[{n}]") and tgt.endswith(f"[{n + 1}]")
        labels = {(p.label(adm.quiver), n) for p, n in w.connectors.values()}
        assert labels == {(lab, n) for lab in ("+a", "-a", "b+", "b-") for n in (-1, 0)}

    def test_admissible_window_shape(self):
        adm = admissible_presentation(make_presentation(load("repetitive.bq")))
        w = repetitive_window(adm, -1, 1)
        q = w.algebra.quiver
        # five vertices and four arrows per level; the four maximal-path
        # classes split into the four sign-decorated connectors of the figure
        assert len(q.vertices) == 15
        assert len(q.arrows) == 12 + 8
        assert len({p.label(adm.quiver) for p, _ in w.connectors.values()}) == 4

    def test_connectorless_window(self):
        w = repetitive_window(repetitive_adm(), 0, 0)
        assert w.connectors == {}
        assert len(w.algebra.quiver.vertices) == 5
        assert len(w.algebra.quiver.arrows) == 4

    def test_window_relations_restrict(self):
        # every relation term stays inside the window
        w = repetitive_window(repetitive_adm(), 0, 1)
        q = w.algebra.quiver
        for r in w.algebra.relations:
            for p in r.paths():
                assert all(q.arrow(a) is not None for a in p.arrows)

    @pytest.mark.parametrize("name", BQ_FIXTURES)
    def test_no_relation_repeats(self, name):
        # lifting a relation of T(A) to a level is injective, and T(A)
        # repeats no relation
        adm = admissible_presentation(make_presentation(load(name)))
        for n_min, n_max in [(0, 0), (0, 1), (-1, 1)]:
            rels = repetitive_window(adm, n_min, n_max).algebra.relations
            assert dedupe_relations(rels) == list(rels)

    @pytest.mark.parametrize("window", [(0, 0), (0, 1), (-1, 1)])
    @pytest.mark.parametrize("name", BQ_FIXTURES)
    def test_window_is_full_subcategory(self, name, window):
        # the repetitive algebra is A on each level and D(A) from each
        # level to the next, so every such block has dimension dim A
        adm = admissible_presentation(make_presentation(load(name)))
        dim_a = enumerate_basis(adm).dimension
        n_min, n_max = window
        w = repetitive_window(adm, n_min, n_max)
        q = w.algebra.quiver
        basis = enumerate_basis(w.algebra)
        blocks = {}
        for p in basis.basis_paths:
            key = (level(q, p.source(q)), level(q, p.target(q)))
            blocks[key] = blocks.get(key, 0) + 1
        expected = {(n, m): dim_a for n in range(n_min, n_max + 1)
                    for m in (n, n + 1) if m <= n_max}
        assert blocks == expected
        assert basis.dimension == (2 * (n_max - n_min + 1) - 1) * dim_a
        t = trivial_extension(adm)
        for cid, (p, n) in w.connectors.items():
            label, lev = q.arrow(cid).label.rsplit("[", 1)
            assert lev == f"{n}]"
            assert p == t.new_arrows[t.quiver.arrow_by_label(label).id]


class TestReflect:
    def test_section_74_example(self):
        pres = make_presentation(load("sec74.bq"))
        refl = reflect(pres, "1", "minus")
        q = refl.quiver
        assert len(q.vertices) == 5 and len(q.arrows) == 7
        rels = sorted(r.label(q) for r in refl.bound.relations
                      if r.is_monomial)
        # the printed ideal keeps the two old zero relations and loses a1*a2
        assert len(rels) == 2
        check = sorted(tuple(sorted(q.arrow(a).label for a in r.paths()[0].arrows))
                       for r in refl.bound.relations if r.is_monomial)
        # the reflected ideal holds exactly two quadratic monomials
        assert all(len(t) == 2 for t in check)

    def test_reflection_preserves_trivial_extension(self):
        pres = make_presentation(load("sec74.bq"))
        t = trivial_extension(admissible_presentation(pres))
        refl = reflect(pres, "1", "minus")
        t2 = trivial_extension(admissible_presentation(refl))
        assert are_isomorphic(t.algebra, t2.algebra)

    def test_round_trip_source_then_sink(self):
        pres = make_presentation(load("repetitive.bq"))
        minus = reflect(pres, "1", "minus")
        q2 = minus.quiver
        # vertex 1 became a sink of the new auxiliary quiver; reflect back
        back = reflect(minus, "1", "plus")
        a0 = admissible_presentation(pres)
        a2 = admissible_presentation(back)
        assert are_isomorphic(a0, a2)

    def test_cuts_the_tuple_without_a_quotient(self, monkeypatch):
        # reflect cuts the tuple of T(A) itself: it neither builds a
        # quotient algebra nor reads a gentle base back off one
        calls = []
        for module, name in ((trivext, "quotient_by_cut"), (trivext, "gentle_base"),
                             (skewgentle, "gentle_base")):
            def spy(*args, name=name, real=getattr(module, name)):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(module, name, spy)
        done = 0
        for name in SKEW_GENTLE_FIXTURES:
            pres = make_presentation(load(name))
            for v in auxiliary_gentle(pres).quiver.vertices:
                for direction in ("minus", "plus"):
                    try:
                        reflect(pres, v.label, direction)
                        done += 1
                    except NotSourceOrSink:
                        pass
        assert (calls, done) == ([], 7)

    def test_not_source(self):
        pres = toy_pres()
        with pytest.raises(NotSourceOrSink):
            reflect(pres, "3", "minus")

    @pytest.mark.parametrize("name,vertex,direction", [
        ("toy.bq", "1", "minus"),
        ("sec74.bq", "1", "minus"),
        ("repetitive.bq", "1", "minus"),
        ("repetitive.bq", "3", "plus"),
        ("sec73_A.bq", "1", "minus"),
        ("sec73_A.bq", "3", "plus"),
    ])
    def test_reflections_stay_skew_gentle(self, name, vertex, direction):
        pres = make_presentation(load(name))
        refl = reflect(pres, vertex, direction)
        # make_presentation inside reflect already revalidates; check T too
        t = trivial_extension(admissible_presentation(pres))
        t2 = trivial_extension(admissible_presentation(refl))
        assert are_isomorphic(t.algebra, t2.algebra)


class TestSignLadder:
    """T(A_n) of the linear skew-gentle A_n (``sign_ladder``): one cycle
    through n - 2 special vertices, with 2^(n-2) signed copies.  The sg
    ideal writes one copy per sign class, so the number of relations
    grows linearly in n; with a copy of each cycle power per sign period
    it was 172, 4,636 and 106,540 for n = 6, 10 and 14."""

    @staticmethod
    def extension(n):
        return trivial_extension(admissible_presentation(make_presentation(sign_ladder(n))))

    @pytest.mark.parametrize("n", [6, 10, 14])
    def test_relations_grow_linearly(self, n):
        assert len(self.extension(n).algebra.relations) == 10 * n - 23

    def test_twenty_four_rungs(self):
        # the signed cycles (2^22 copies), the cuts and the Cartan data
        # are not read
        t = self.extension(24)
        basis = enumerate_basis(t.algebra)
        assert enumerate_basis(t.source).dimension == 1059
        assert basis.dimension == 2118
        assert symmetric_form_check(t, basis)
        assert "signed_cycles" not in vars(t.sg_tuple)
