"""Acceptance criteria, one test per criterion, exact assertions throughout.

Each test prints a single PASS line on success (pytest -s shows them);
a failure raises in the usual way.
"""
from fractions import Fraction

from skewbrauer.basis import enumerate_basis
from skewbrauer.brauer import (classify_rep_type, graph_from_skew_gentle,
                               projective_layers, skew_brauer_algebra,
                               symmetric_form_check)
from skewbrauer.cartan import cartan
from skewbrauer.dissection import q_cartan_det_formula, skew_gentle_from_dissection
from skewbrauer.iso import are_isomorphic
from skewbrauer.quiver import Relation
from skewbrauer.skewgentle import admissible_presentation, make_presentation
from skewbrauer.trivext import (enumerate_good_cuts, quotient_by_cut, reflect,
                                trivial_extension)

from helpers import DIS_FIXTURES, P, SKEW_GENTLE_FIXTURES, load
from oracle import oracle_reduce


def _toy_presentation():
    return make_presentation(load("toy.bq"))


def _passed(label: str):
    print(f"PASS {label}")


def test_criterion_1_toy_pipeline_exactness():
    """Admissible presentation and trivial extension of the running example."""
    pres = _toy_presentation()
    adm = admissible_presentation(pres)
    assert len(adm.quiver.vertices) == 7
    assert len(adm.quiver.arrows) == 9
    assert sorted(r.label(adm.quiver) for r in adm.relations) == [
        "+a+*+b - +a-*-b", "-a+*+b - -a-*-b", "g*d", "l*g"]
    t = trivial_extension(adm)
    q = t.algebra.quiver
    assert len(q.arrows) == 12
    basis = enumerate_basis(t.algebra)
    bp = {p.label(adm.quiver): q.arrow(a).label for a, p in t.new_arrows.items()}
    b1p, b1m, b2 = bp["+a+*+b*g"], bp["-a+*+b*g"], bp["d*l"]

    def holds(*terms):
        return basis.relation_holds(
            Relation(tuple((Fraction(c), P(q, *labels)) for c, labels in terms)))

    printed = [
        [(1, ("+a+", "+b")), (-1, ("+a-", "-b"))],
        [(1, ("-a+", "+b")), (-1, ("-a-", "-b"))],
        [(1, (b2, "d", "l")), (-1, ("g", b1m, "-a-", "-b"))],
        [(1, (b2, "d", "l")), (-1, ("g", b1p, "+a+", "+b"))],
        [(1, ("d", "l", b2)), (-1, (b1p, "+a+", "+b", "g"))],
        [(1, ("d", "l", b2)), (-1, (b1m, "-a-", "-b", "g"))],
        [(1, ("+b", b2))], [(1, ("-b", b2))],
        [(1, (b2, b1p))], [(1, (b2, b1m))],
        [(1, ("+a+", "+b", "g", b1p, "+a+"))],
        [(1, ("+b", "g", b1p, "+a+", "+b"))],
        [(1, ("g", b1p, "+a+", "+b", "g"))],
        [(1, (b1p, "+a+", "+b", "g", b1p))],
        [(1, ("d", "l", b2, "d"))], [(1, ("l", b2, "d", "l"))],
        [(1, (b2, "d", "l", b2))],
        [(1, ("+a+", "+b", "g", b1p, "+a-"))],
        [(1, ("-a-", "-b", "g", b1m, "-a+"))],
    ]
    for item in printed:
        assert holds(*item), item
    _passed("criterion 1: toy pipeline exactness")


def test_criterion_2_equiv1_round_trip():
    """Skew-Brauer algebra of the graph vs the trivial extension, six fixtures."""
    pres = _toy_presentation()
    t = trivial_extension(admissible_presentation(pres))
    alg = skew_brauer_algebra(load("fig1.sbg"))
    assert are_isomorphic(alg.algebra, t.algebra)

    fixtures = list(SKEW_GENTLE_FIXTURES)
    count = 0
    for name in fixtures:
        p = make_presentation(load(name))
        t_p = trivial_extension(admissible_presentation(p))
        alg_p = skew_brauer_algebra(graph_from_skew_gentle(p))
        assert are_isomorphic(alg_p.algebra, t_p.algebra), name
        count += 1
    torus = skew_gentle_from_dissection(load("torus.dis"))
    t_torus = trivial_extension(admissible_presentation(torus))
    alg_torus = skew_brauer_algebra(graph_from_skew_gentle(torus))
    assert are_isomorphic(alg_torus.algebra, t_torus.algebra)
    count += 1
    assert count >= 5
    _passed(f"criterion 2: Thm equiv1 round-trip on {count} fixtures")


def test_criterion_3_symmetry():
    """The symmetrising form on every skew-Brauer fixture, and its fragility."""
    from helpers import SBG_FIXTURES
    for name in SBG_FIXTURES:
        alg = skew_brauer_algebra(load(name))
        assert symmetric_form_check(alg), name
    # gamma1_m2.sbg has multiplicity two.  Removing a commutation (type a)
    # relation makes two signed copies of a cycle power differ, and phi
    # reads one of them, so phi(ab) != phi(ba); removing a power
    # difference leaves the pairing one short of full rank
    import dataclasses
    symmetry = "phi(ab) != phi(ba) for a={}, b={}".format
    want = {"excut.sbg": {
                "v2.1+*+v2.0 - v2.1-*-v2.0": ("symmetry", symmetry("-v2.0", "v2.1-")),
                "v3.0+*+v3.1 - v3.0-*-v3.1": ("symmetry", symmetry("v3.0-", "-v3.1")),
                "v2.1+*+v2.0 - v3.0+*+v3.1": ("nondegenerate",
                                              "pairing has rank 18 < dimension 19")},
            "gamma1_m2.sbg": {
                "v.1+*+v.0 - v.1-*-v.0": ("symmetry", symmetry("-v.0", "v.1-")),
                "v.1+*+v.0 - w.0*w.0": ("nondegenerate",
                                        "pairing has rank 11 < dimension 12")}}
    for name, verdicts in want.items():
        alg = skew_brauer_algebra(load(name))
        got = {}
        for victim in alg.algebra.relations:
            if victim.is_monomial:
                continue
            kept = tuple(r for r in alg.algebra.relations if r is not victim)
            weakened = dataclasses.replace(
                alg, algebra=alg.algebra.relabelled(relations=kept))
            verdict = symmetric_form_check(weakened)
            got[victim.label(alg.quiver)] = (bool(verdict), verdict.condition, verdict.detail)
        assert got == {label: (False, *v) for label, v in verdicts.items()}, name
    _passed("criterion 3: symmetric form on all fixtures, fails under deletion")


def test_criterion_4_cuts():
    """The printed quotient of the cut example, and recognition round-trips."""
    alg = skew_brauer_algebra(load("excut.sbg"))
    q = alg.quiver
    # the cut of the example: one arrow out of each sg-special cycle,
    # not sign-closed: {+a, g-, +d, b-} in the paper's naming
    by_shape = {}
    for a in q.arrows:
        key = (q.vertex(a.source).label, q.vertex(a.target).label)
        by_shape[key] = a
    cut = {by_shape[("1+", "2")].id, by_shape[("2", "1-")].id,
           by_shape[("3+", "2")].id, by_shape[("2", "3-")].id}
    from skewbrauer.trivext import is_admissible_cut
    from helpers import is_sign_closed
    assert is_admissible_cut(alg, cut)
    assert not is_sign_closed(alg.algebra, cut)
    quotient = quotient_by_cut(alg, cut)
    assert len(quotient.quiver.vertices) == 5
    expected = admissible_presentation(make_presentation(load("excut.bq")))
    assert are_isomorphic(quotient, expected)

    # recognition round-trip over every good cut of every skew-gentle fixture
    total = 0
    for name in SKEW_GENTLE_FIXTURES:
        pres = make_presentation(load(name))
        t = trivial_extension(admissible_presentation(pres))
        for d in enumerate_good_cuts(t):
            t2 = trivial_extension(quotient_by_cut(t, d))
            assert are_isomorphic(t2.algebra, t.algebra), (name, d)
            total += 1
    _passed(f"criterion 4: cut example exact; {total} good-cut round-trips")


def test_criterion_5_reflections():
    """The printed reflection, T-invariance and skew-gentleness throughout."""
    pres = make_presentation(load("sec74.bq"))
    refl = reflect(pres, "1", "minus")
    q = refl.quiver
    assert len(q.vertices) == 5 and len(q.arrows) == 7
    # the printed ideal: both special loops survive; a1*a2 is gone and the
    # two other zero relations remain
    monos = [r for r in refl.bound.relations if r.is_monomial]
    assert len(monos) == 2
    new_arrow = [a for a in q.arrows
                 if not a.is_loop and
                 q.vertex(a.target).label in
                 {q.vertex(x).label for x in refl.special}]
    assert new_arrow, "the reflected quiver carries the arrow into 1'"
    geo = skew_gentle_from_dissection(load("annulus.dis"))
    assert are_isomorphic(admissible_presentation(refl),
                          admissible_presentation(reflect(geo, "1", "minus")))

    checked = 0
    for name, vertex, direction in [
            ("toy.bq", "1", "minus"), ("sec74.bq", "1", "minus"),
            ("repetitive.bq", "1", "minus"), ("repetitive.bq", "3", "plus"),
            ("sec73_A.bq", "1", "minus"), ("sec73_A.bq", "3", "plus"),
            ("sec73_B.bq", "3", "plus")]:
        p = make_presentation(load(name))
        r = reflect(p, vertex, direction)     # re-recognition happens inside
        t1 = trivial_extension(admissible_presentation(p))
        t2 = trivial_extension(admissible_presentation(r))
        assert are_isomorphic(t1.algebra, t2.algebra), (name, vertex)
        checked += 1
    _passed(f"criterion 5: section 7.4 reflection exact; {checked} T-invariance checks")


def test_criterion_6_classification():
    """Representation type against the paper's theorems, exactly."""
    c = classify_rep_type(load("fig1.sbg"))
    assert c.rep_type == "Infinite" and c.reason_code == "multiple-distinguished"
    c = classify_rep_type(load("gamma1_m2.sbg"))
    assert c.rep_type == "Infinite" and c.band_witness
    trees = ["gamma1_m1.sbg", "sbtree_line4.sbg", "sbtree_star.sbg",
             "sbtree_cat10.sbg"]
    for name in trees:
        g = load(name)
        assert len(g.edges) <= 10
        assert classify_rep_type(g).finite, name
    classical = {"btree_path4.sbg": True, "btree_m3.sbg": True,
                 "btree_twofat.sbg": False, "bcycle.sbg": False,
                 "bloop.sbg": False, "bstar_m2.sbg": True}
    assert len(classical) >= 5
    for name, finite in classical.items():
        g = load(name)
        # the classical criterion: Brauer tree with at most one fat vertex
        from skewbrauer.brauer import _is_tree
        expected = (_is_tree(g.graph)
                    and sum(1 for v in g.graph.vertices
                            if v.multiplicity > 1) <= 1)
        assert expected == finite
        assert classify_rep_type(g).finite == finite, name
    _passed("criterion 6: classification matches all fixtures")


def test_criterion_7_cartan_invariants():
    """q-Cartan determinants: the two derived-equivalence algebras and all
    dissection fixtures against the closed formula."""
    values = {"sec73_A.bq": ("1", 1), "sec73_B.bq": ("1 - q^2", 0)}
    for name, (det_q, det) in values.items():
        adm = admissible_presentation(make_presentation(load(name)))
        data = cartan(adm, enumerate_basis(adm))
        assert str(data.det_q) == det_q
        assert data.det_ordinary == det
    for name in DIS_FIXTURES:
        d = load(name)
        adm = admissible_presentation(skew_gentle_from_dissection(d))
        data = cartan(adm, enumerate_basis(adm))
        assert str(data.det_q) == str(q_cartan_det_formula(d)), name
    _passed("criterion 7: q-Cartan determinants exact on all fixtures")


def test_criterion_8_projectives():
    """P2+, P2- exactly as printed; P3-hat against the exhaustive oracle."""
    alg = skew_brauer_algebra(load("fig1.sbg"))
    basis = enumerate_basis(alg.algebra)
    for sign in "+-":
        pl = projective_layers(alg, f"2{sign}", basis)
        assert pl.dimension == 6
        assert [sorted(l) for l in pl.layers] == [
            [f"2{sign}"], ["1+", "1-"], ["4"], ["3"], [f"2{sign}"]]
    pl = projective_layers(alg, "3", basis)
    assert pl.top == "3" and pl.socle == "3"
    # dimension from the independent exhaustive oracle
    max_gen = max(r.max_term_length() for r in alg.algebra.relations)
    dim, bound, paths, reduce_path = oracle_reduce(
        alg.algebra, cap=basis.nilpotency_bound + max_gen)
    q = alg.quiver
    v3 = q.vertex_by_label("3").id
    oracle_dim_p3 = sum(1 for p in paths if p.target(q) == v3)
    assert pl.dimension == oracle_dim_p3 == 9
    assert [sorted(l) for l in pl.layers] == [
        ["3"], ["2+", "2-", "5"], ["1+", "1-", "4"], ["4"], ["3"]]
    _passed("criterion 8: projective layer diagrams exact")


def test_criterion_9_oracle_equivalence():
    """Engine vs brute-force reduction on every fixture with <= 8 arrows."""
    pool = []
    for name in ["a2.bq", "kronecker.bq", "semisimple2.bq", "repetitive.bq",
                 "sec73_A.bq", "sec73_B.bq"]:
        bq = load(name)
        if not bq.admissible:
            bq = admissible_presentation(make_presentation(bq))
        pool.append((name, bq))
    pool.append(("excut.sbg", skew_brauer_algebra(load("excut.sbg")).algebra))
    checked = 0
    for name, bq in pool:
        if len(bq.quiver.arrows) > 8:
            continue
        basis = enumerate_basis(bq)
        max_gen = max((r.max_term_length() for r in bq.relations), default=2)
        dim, bound, paths, _ = oracle_reduce(bq, cap=basis.nilpotency_bound + max_gen)
        assert dim == basis.dimension, name
        assert bound == basis.nilpotency_bound, name
        assert set(paths) == set(basis.basis_paths), name
        checked += 1
    assert checked >= 6
    _passed(f"criterion 9: oracle equivalence on {checked} small fixtures")
