#!/usr/bin/env python3
"""Exact gate: one SHA-256 digest per algebra, per group, and overall.

Usage: ``python3 scripts/exact_gate.py [ROOT]``.  ROOT is a checkout of
this repository (default: the one holding this script); its ``src``,
``fixtures`` and ``perfbench/families.py`` are read.  Run it on two
checkouts: a change that keeps every answer gives identical output, and
``diff`` of the two outputs names each algebra whose record changed.

The groups:

- ``sbg``: every ``.sbg`` fixture's skew-Brauer algebra;
- ``families``: the family graphs of ``perfbench/families.py``, seeds 1-3;
- ``trivext``: every ``.bq`` fixture A, T(A), and each good-cut quotient
  of T(A) with its T(quotient);
- ``dis``: the sg-bound quiver of every ``.dis`` fixture's tuple;
- ``presentations``: the loop presentation (special loops f with f*f = f)
  of every ``.dis`` fixture, and for every ``.bq`` fixture that has one,
  ``_collapse`` of its admissible presentation and of each good-cut
  quotient of its T(A), and ``reflect`` at every auxiliary vertex in
  both directions; and ``_collapse`` and ``trivial_extension`` of each
  input of ``_bookkeeping_faults``, which carries no sg-tuple, or whose
  relations are not the sg ideal of its tuple, or whose gentle base is
  not skew-gentle;
- ``formats``: every fixture's text and its deterministic edits: each
  line dropped, each line repeated, and each whitespace-separated token
  replaced by each token of ``REPLACEMENTS``;
- ``generated``: ``GENERATED`` small bound quivers drawn from
  ``random.Random(GENERATED_SEED)`` (see ``_draw``), so that the gate
  also sees the completion on relations that no construction writes;
- ``iso``: ``are_isomorphic`` on T(quotient) against T(A) and T(A)
  against T(quotient) for every good cut of the ``trivext`` group; on
  the admissible presentation of every ``.bq`` fixture against itself
  (the same object) and against a second parse of it; on every ordered
  pair of distinct ``.bq`` fixtures whose admissible presentations have
  equal numbers of vertices and arrows; on loop.bq against a copy with
  its arrow renamed; on toy.bq against a second parse with
  ``budget=1``; and both ways on two pairs of ``SMALL``: two squares
  whose relations differ in one sign, and two stars of unequal
  dimension;
- ``cli``: ``skewbrauer.cli.main`` run in this process on the fixtures,
  each call once as it is and once with ``--json`` (see ``_cli_calls``).

Each algebra contributes its quiver, its relation tuple in order,
``basis_paths``, the nilpotency bound, the normal form of every nonzero
path, the projective layers at every vertex and ``CartanData``; each
carrier with an ``sg_tuple`` adds the symmetrising-form verdict; a
skew-Brauer algebra or trivial extension adds the signed copies of its
tuple's cycles, each with its graph vertex or new arrow; and a trivial
extension its ``new_arrows`` and, in the order they are enumerated, the
label rows of its admissible cuts and of its good cuts, so that a change
in the order of the ``cuts`` rows is seen.  A loop presentation
contributes its canonical ``.bq`` text, its special vertices and the
relation tuple, in order, of its admissible presentation.  A text of
the ``formats`` group contributes its canonical serialisation after
parsing.  An ``iso`` item contributes its ``IsoResult``: the status,
the vertex and arrow maps as sorted label pairs, and the node count;
and whether the call built the basis of its first argument, so that a
map accepted without that basis is seen.  A ``cli`` call contributes its
exit code, stdout and stderr, with the paths under ROOT made relative to
it.
An error, a ``SkewBrauerError`` or a bare ``ValueError``, is
recorded by its class and message.
"""
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import os
import random
import sys
import types
from fractions import Fraction
from itertools import islice, permutations

ROOT = os.path.abspath(sys.argv[1] if len(sys.argv) > 1
                       else os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, os.path.join(ROOT, "src"))

from skewbrauer import (auxiliary_gentle, formats, reflect,  # noqa: E402
                        skew_gentle_from_dissection)
from skewbrauer.basis import enumerate_basis  # noqa: E402
from skewbrauer.brauer import (SkewBrauerAlgebra,  # noqa: E402
                               brauer_quivers_with_cycles, projective_layers,
                               skew_brauer_algebra, symmetric_form_check)
from skewbrauer.cartan import cartan  # noqa: E402
from skewbrauer.cli import main as cli_main  # noqa: E402
from skewbrauer.dissection import trivext_tuple_from_dissection  # noqa: E402
from skewbrauer.errors import SkewBrauerError  # noqa: E402
from skewbrauer.iso import are_isomorphic  # noqa: E402
from skewbrauer.quiver import (BoundQuiver, Path, Quiver,  # noqa: E402
                               Relation, canonical_rotation)
from skewbrauer.skewgentle import (SgTuple,  # noqa: E402
                                   admissible_presentation, gentle_base,
                                   loop_presentation, make_presentation,
                                   sg_bound_quiver)
from skewbrauer.trivext import (TrivialExtension,  # noqa: E402
                                enumerate_admissible_cuts, enumerate_good_cuts,
                                quotient_by_cut, trivial_extension)

FIXTURES = os.path.join(ROOT, "fixtures")
SEEDS = (1, 2, 3)
GENERATED_SEED = 16
GENERATED = 200
TRUNCATE = 4
QUOTIENT_CUTS = 6
REPLACEMENTS = ("nope", "", "B1", "1+", "#", ":", "->", "mult=x")
# small bound quivers of the iso group, as .bq text: two squares that
# differ in one sign, and a star with two binomials (dimension 12)
# against one with three monomials (dimension 11)
SQUARE = ("vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
          "arrow a: 1 -> 2\narrow b: 2 -> 4\narrow c: 1 -> 3\narrow d: 3 -> 4\n")
STAR = "".join(f"vertex {v}\n" for v in range(5)) + "".join(
    f"arrow x{i}: 0 -> {i}\narrow y{i}: {i} -> 4\n" for i in (1, 2, 3))
SMALL = {"square-": SQUARE + "rel a*b - c*d\n", "square+": SQUARE + "rel a*b + c*d\n",
         "star2": STAR + "rel x1*y1 - x2*y2\nrel x2*y2 - x3*y3\n",
         "star0": STAR + "rel x1*y1\nrel x2*y2\nrel x3*y3\n"}


def _fixtures(ext):
    return sorted(f for f in os.listdir(FIXTURES) if f.endswith(ext))


def _lines(carrier):
    """The record of one carrier: anything with ``algebra``."""
    bq = carrier.algebra
    q = bq.quiver
    out = [[v.label for v in q.vertices],
           [(a.label, a.source, a.target) for a in q.arrows],
           [r.label(q) for r in bq.relations]]
    basis = enumerate_basis(bq)
    out += [[p.label(q) for p in basis.basis_paths], basis.nilpotency_bound]
    # through reduce, whose {Path: Fraction} shape every checkout shares;
    # str(Fraction(1)) == str(1), so the record is that of the words
    out.append([(p.label(q), sorted((u.arrows, str(c)) for u, c in basis.reduce(p).items()))
                for p in _nonzero_paths(q, basis)])
    out.append([projective_layers(carrier, v.id, basis) for v in q.vertices])
    data = cartan(bq, basis)
    out.append((data.vertex_labels, data.ordinary,
                [[e.coeffs for e in row] for row in data.q_graded],
                data.det_ordinary, data.det_q.coeffs))
    if getattr(carrier, "sg_tuple", None) is not None:
        verdict = symmetric_form_check(carrier, basis)
        out.append((verdict.ok, verdict.condition, verdict.detail))
    out.append(_cycles(carrier))
    new_arrows = getattr(carrier, "new_arrows", {})
    src = getattr(carrier, "source", None)
    out.append([(q.arrow(a).label, p.label(src.quiver)) for a, p in new_arrows.items()])
    if isinstance(carrier, TrivialExtension):
        out.append(_cut_rows(carrier))
    return out


def _cut_rows(t):
    """The label rows of the admissible and of the good cuts of a trivial
    extension, in the order they are enumerated, or the error."""
    q = t.algebra.quiver
    rows = []
    for enumerate_cuts in (enumerate_admissible_cuts, enumerate_good_cuts):
        try:
            rows.append([cut.labels(q) for cut in enumerate_cuts(t)])
        except SkewBrauerError as exc:
            rows.append([type(exc).__name__, str(exc)])
    return rows


def _nonzero_paths(q, basis):
    """Every path of positive length with a nonzero normal form, breadth
    first from the stationary paths in one-arrow extension order."""
    out, frontier = [], [Path(v.id, ()) for v in q.vertices]
    while frontier:
        frontier = [ext for p in frontier for a in q.arrows_from(p.target(q))
                    if not basis.is_zero(ext := Path(p.base, p.arrows + (a.id,)))]
        out += frontier
    return out


def _signed_cycles(tup):
    """``SgTuple.signed_cycles``, derived from ``SgTuple.powers`` on
    checkouts that predate it."""
    if hasattr(type(tup), "signed_cycles"):
        return tup.signed_cycles
    sq = tup.sgq.quiver
    copies = {rot: cs for rot, cs, _ in tup.powers}
    return [[canonical_rotation(sq, p.arrows[:len(c)]) for p in copies[c]]
            for c in tup.cycles]


def _cycles(carrier):
    """(label, new arrow id, graph vertex id) of every signed cycle of a
    skew-Brauer algebra or a trivial extension, in ``Path.sort_key`` order;
    the field that does not apply is None.  Other carriers have none."""
    if not isinstance(carrier, (SkewBrauerAlgebra, TrivialExtension)):
        return []
    tup = carrier.sg_tuple
    vertices = [None] * len(tup.cycles)
    if isinstance(carrier, SkewBrauerAlgebra):
        _, cycles = brauer_quivers_with_cycles(carrier.graph.graph)
        # (path, vertex, multiplicity); a SpecialCycle on older checkouts
        vertices = [c[1] if isinstance(c, tuple) else c.graph_vertex for c in cycles]
    new_arrows = getattr(carrier, "new_arrows", {})
    rows = [(p, next((a for a in p.arrows if a in new_arrows), None), vid)
            for vid, copies in zip(vertices, _signed_cycles(tup)) for p in copies]
    rows.sort(key=lambda row: row[0].sort_key())
    q = carrier.algebra.quiver
    return [(p.label(q), new, vid) for p, new, vid in rows]


def _presentation_lines(pres):
    """The record of one loop presentation, or of a trivial extension."""
    if isinstance(pres, TrivialExtension):
        return _lines(pres)
    q = pres.quiver
    adm = admissible_presentation(pres)
    return [formats.serialize_bq(pres.bound),
            sorted(q.vertex(v).label for v in pres.special),
            [r.label(adm.quiver) for r in adm.relations]]


def _admissible(bq):
    return bq if bq.admissible else admissible_presentation(make_presentation(bq))


def _load_admissible(name):
    return _admissible(formats.load(os.path.join(FIXTURES, name)))


def _sbg():
    for name in _fixtures(".sbg"):
        yield name, lambda name=name: skew_brauer_algebra(
            formats.load(os.path.join(FIXTURES, name)))


def _family_graphs():
    path = os.path.join(ROOT, "perfbench", "families.py")
    spec = importlib.util.spec_from_file_location("families", path)
    families = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(families)
    for seed in SEEDS:
        for name, text in families.family(seed):
            yield f"seed{seed}:{name}", lambda name=name, text=text: skew_brauer_algebra(
                formats.parse_sbg(text, name))


def _trivext():
    for name in _fixtures(".bq"):
        a = _load_admissible(name)
        yield name, lambda a=a: types.SimpleNamespace(algebra=a)
        yield name + ":T", lambda a=a: trivial_extension(a)
        try:
            t = trivial_extension(a)
            cuts = list(enumerate_good_cuts(t))
        except SkewBrauerError:
            continue
        for i, cut in enumerate(cuts):
            quotient = quotient_by_cut(t, cut)
            yield f"{name}:cut{i}", lambda b=quotient: types.SimpleNamespace(algebra=b)
            yield f"{name}:cut{i}:T", lambda b=quotient: trivial_extension(b)


def _dis():
    for name in _fixtures(".dis"):
        def build(name=name):
            tup = trivext_tuple_from_dissection(
                formats.load(os.path.join(FIXTURES, name))).as_sg_tuple()
            return types.SimpleNamespace(algebra=sg_bound_quiver(tup), sg_tuple=tup)
        yield name, build


def _bookkeeping_faults():
    """(name, admissible presentation) of inputs that no construction
    writes: toy.bq's without its sg-tuple; excut.bq's without ``+a*b+``,
    so the transit a*b vanishes for some signs only; the sg-bound quiver
    of toy.bq's tuple without ``l*g``, whose gentle base is not gentle;
    toy.bq's with the monomial ``+a+*+b*g`` added, which is not in the sg
    ideal (dimension 22 against 23); and a special vertex that starts two
    arrows, which breaks condition 4.  Edits go through
    ``dataclasses.replace``, which keeps whatever sign data a checkout's
    ``BoundQuiver`` carries."""
    def edited(adm, drop="", extra=()):
        q = adm.quiver
        return dataclasses.replace(adm, relations=tuple(
            r for r in adm.relations if r.label(q) != drop) + extra)
    pres = make_presentation(formats.load(os.path.join(FIXTURES, "toy.bq")))
    toy = admissible_presentation(pres)
    yield "toy.bq:no-bookkeeping", BoundQuiver(toy.quiver, toy.relations)
    yield "excut.bq:signed-transit", edited(_load_admissible("excut.bq"), drop="+a*b+")
    aux = auxiliary_gentle(pres)
    yield "toy.bq:gentle-part", sg_bound_quiver(SgTuple(aux.quiver, tuple(
        r.paths()[0] for r in aux.relations if r.label(aux.quiver) != "l*g"), pres.special, ()))
    q = toy.quiver
    arrows = [q.arrow_by_label(x) for x in ("+a+", "+b", "g")]
    yield "toy.bq:extra-monomial", edited(toy, extra=(Relation.monomial(
        Path(arrows[0].source, tuple(a.id for a in arrows))),))
    q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "3")])
    yield "condition-4", sg_bound_quiver(SgTuple(q, (), frozenset({0}), ()))


def _collapse(adm):
    """The loop presentation of the gentle base of ``adm``."""
    return loop_presentation(*gentle_base(adm))


def _presentations():
    for name in _fixtures(".dis"):
        yield name, lambda name=name: skew_gentle_from_dissection(
            formats.load(os.path.join(FIXTURES, name)))
    for name in _fixtures(".bq"):
        try:
            pres = make_presentation(formats.load(os.path.join(FIXTURES, name)))
        except SkewBrauerError:
            continue
        a = admissible_presentation(pres)
        yield name + ":collapse", lambda a=a: _collapse(a)
        try:
            t = trivial_extension(a)
            cuts = list(enumerate_good_cuts(t))
        except SkewBrauerError:
            cuts = []
        for i, cut in enumerate(cuts):
            yield f"{name}:cut{i}:collapse", lambda t=t, cut=cut: _collapse(
                quotient_by_cut(t, cut))
        for v in auxiliary_gentle(pres).quiver.vertices:
            for direction in ("minus", "plus"):
                yield (f"{name}:reflect:{v.label}:{direction}",
                       lambda pres=pres, v=v.label, d=direction: reflect(pres, v, d))
    for name, bq in _bookkeeping_faults():
        yield name + ":collapse", lambda bq=bq: _collapse(bq)
        yield name + ":T", lambda bq=bq: trivial_extension(bq)


def _words(q, cap):
    """Every path of length 2 to ``cap`` in ``q``, as a word of arrow ids."""
    out, frontier = [], [(a.id,) for a in q.arrows]
    for _ in range(cap - 1):
        frontier = [w + (a.id,) for w in frontier
                    for a in q.arrows_from(q.arrow(w[-1]).target)]
        out += frontier
    return out


def _draw(rng):
    """A small bound quiver, loops allowed, drawn as the property test
    ``inhomogeneous_algebras`` draws: every path of length ``TRUNCATE``
    is a monomial, so the quotient is finite; up to two shorter monomials;
    one to three two-term relations whose terms differ in length."""
    nv = rng.randint(1, 3)
    q = Quiver.build([str(v) for v in range(nv)],
                     [(f"a{i}", str(rng.randrange(nv)), str(rng.randrange(nv)))
                      for i in range(rng.randint(1, 4))])
    words = _words(q, TRUNCATE)
    short = [w for w in words if len(w) < TRUNCATE]
    terms = [((1, w),) for w in words if len(w) == TRUNCATE]
    if short:
        terms += [((1, rng.choice(short)),) for _ in range(rng.randint(0, 2))]
        for _ in range(rng.randint(1, 3)):
            w = rng.choice(short)
            ends = (q.arrow(w[0]).source, q.arrow(w[-1]).target)
            partners = [u for u in words if len(u) != len(w)
                        and (q.arrow(u[0]).source, q.arrow(u[-1]).target) == ends]
            if partners:
                terms.append(((1, w), (rng.choice((-2, -1, 1, 3)), rng.choice(partners))))
    relations = tuple(Relation(tuple((Fraction(c), Path(q.arrow(w[0]).source, w))
                                     for c, w in r)) for r in terms)
    return BoundQuiver(q, relations)


def _generated():
    rng = random.Random(GENERATED_SEED)
    for i in range(GENERATED):
        bq = _draw(rng)
        yield f"gen{i}", lambda bq=bq: types.SimpleNamespace(algebra=bq)


def _edits(text):
    """(suffix, text) for the text itself and each of its edits."""
    lines = text.splitlines()

    def join(new):
        return "\n".join(new) + "\n"
    yield "", text
    for i, line in enumerate(lines):
        yield f":drop{i + 1}", join(lines[:i] + lines[i + 1:])
        yield f":repeat{i + 1}", join(lines[:i + 1] + lines[i:])
        tokens = line.split()
        for j in range(len(tokens)):
            for new in REPLACEMENTS:
                edited = " ".join(tokens[:j] + [new] + tokens[j + 1:])
                yield f":{i + 1}.{j + 1}={new}", join(lines[:i] + [edited] + lines[i + 1:])


def _formats():
    codecs = {".bq": (formats.parse_bq, formats.serialize_bq),
              ".sbg": (formats.parse_sbg, formats.serialize_sbg),
              ".dis": (formats.parse_dis, formats.serialize_dis)}
    for name in sorted(os.listdir(FIXTURES)):
        parse, serialize = codecs[os.path.splitext(name)[1]]
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            text = fh.read()
        for suffix, edited in _edits(text):
            yield name + suffix, lambda p=parse, s=serialize, t=edited, n=name: s(p(t, n))


def _iso_call(a, b, **kwargs):
    """``are_isomorphic(a, b)``, and whether the call built the basis of ``a``."""
    before = "_basis" in a.__dict__
    return are_isomorphic(a, b, **kwargs), not before and "_basis" in a.__dict__


def _iso_self(name):
    a = _load_admissible(name)
    return _iso_call(a, a)


def _iso_round_trip(t, cut, back_first):
    back = trivial_extension(quotient_by_cut(t, cut)).algebra
    return _iso_call(back, t.algebra) if back_first else _iso_call(t.algebra, back)


def _iso_renamed_loop():
    with open(os.path.join(FIXTURES, "loop.bq"), encoding="utf-8") as fh:
        text = fh.read()
    renamed = formats.parse_bq(text.replace("arrow f:", "arrow g:"), "loop.bq")
    return _iso_call(formats.parse_bq(text, "loop.bq"), renamed)


def _iso():
    names = _fixtures(".bq")
    sizes = {}
    for name in names:
        a = _load_admissible(name)
        sizes[name] = (len(a.quiver.vertices), len(a.quiver.arrows))
        try:
            t = trivial_extension(a)
            cuts = list(enumerate_good_cuts(t))
        except SkewBrauerError:
            cuts = []
        for i, cut in enumerate(cuts):
            yield f"{name}:cut{i}:T~T", lambda t=t, cut=cut: _iso_round_trip(t, cut, True)
            yield f"{name}:T~cut{i}:T", lambda t=t, cut=cut: _iso_round_trip(t, cut, False)
    for name in names:
        yield name + ":self", lambda name=name: _iso_self(name)
        yield name + ":reparse", lambda name=name: _iso_call(
            _load_admissible(name), _load_admissible(name))
    for x, y in permutations(names, 2):
        if sizes[x] == sizes[y]:
            yield f"{x}~{y}", lambda x=x, y=y: _iso_call(
                _load_admissible(x), _load_admissible(y))
    yield "loop.bq~renamed", _iso_renamed_loop
    yield "toy.bq:budget1", lambda: _iso_call(
        _load_admissible("toy.bq"), _load_admissible("toy.bq"), budget=1)
    for x, y in (("square-", "square+"), ("star2", "star0")):
        for first, second in ((x, y), (y, x)):
            yield f"{first}~{second}", lambda f=first, s=second: _iso_call(
                formats.parse_bq(SMALL[f], f), formats.parse_bq(SMALL[s], s))


def _iso_lines(call):
    result, built_a = call
    return [result.status, sorted((result.vertex_map or {}).items()),
            sorted((result.arrow_map or {}).items()), result.nodes, built_a]


def _cli_calls():
    """The argument lists of the ``cli`` group, fixture paths relative to
    ROOT: ``check`` of every fixture; for every ``.bq`` fixture
    ``trivext``, ``cuts``, ``cuts --good``, ``cartan`` plain, with
    ``--det`` and with ``--q --det --matrix``, ``reflect`` at every vertex
    of its quiver in both directions, ``quotient`` by every good cut and
    by the first ``QUOTIENT_CUTS`` admissible cuts, and ``iso`` against
    every ``.bq`` fixture; ``build``, ``projectives`` and ``classify`` of
    every ``.sbg`` fixture; ``dissect`` and ``dissect --tuple`` of every
    ``.dis`` fixture."""
    def rel(name):
        return os.path.join("fixtures", name)
    for name in sorted(os.listdir(FIXTURES)):
        yield ["check", rel(name)]
    bqs = _fixtures(".bq")
    for name in bqs:
        path = rel(name)
        for verb, *flags in (["trivext"], ["cuts"], ["cuts", "--good"], ["cartan"],
                             ["cartan", "--det"], ["cartan", "--q", "--det", "--matrix"]):
            yield [verb, path, *flags]
        for v in formats.load(os.path.join(FIXTURES, name)).quiver.vertices:
            for direction in ("minus", "plus"):
                yield ["reflect", path, "--vertex", v.label, "--direction", direction]
        try:
            t = trivial_extension(_load_admissible(name))
            cuts = [*enumerate_good_cuts(t),
                    *islice(enumerate_admissible_cuts(t), QUOTIENT_CUTS)]
        except SkewBrauerError:
            cuts = []
        for cut in cuts:
            yield ["quotient", path, "--cut", ",".join(cut.labels(t.algebra.quiver))]
        for other in bqs:
            yield ["iso", path, rel(other)]
    for name in _fixtures(".sbg"):
        for verb in ("build", "projectives", "classify"):
            yield [verb, rel(name)]
    for name in _fixtures(".dis"):
        yield ["dissect", rel(name)]
        yield ["dissect", rel(name), "--tuple"]


def _cli_run(argv):
    """(exit code, stdout, stderr) of ``skewbrauer.cli.main(argv)``, run
    on the fixtures under ROOT, with ROOT's prefix taken off the output."""
    out, err = io.StringIO(), io.StringIO()
    argv = [os.path.join(ROOT, x) if x.startswith("fixtures" + os.sep) else x for x in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    prefix = ROOT + os.sep
    return [code, out.getvalue().replace(prefix, ""), err.getvalue().replace(prefix, "")]


def _cli():
    for argv in _cli_calls():
        for flags in ([], ["--json"]):
            yield " ".join(flags + argv), lambda argv=flags + argv: _cli_run(argv)


# each group: its items (name, build) and the record of what a build returns
GROUPS = {"sbg": (_sbg, _lines), "families": (_family_graphs, _lines),
          "trivext": (_trivext, _lines), "dis": (_dis, _lines),
          "presentations": (_presentations, _presentation_lines),
          "formats": (_formats, lambda text: [text]),
          "generated": (_generated, _lines), "iso": (_iso, _iso_lines),
          "cli": (_cli, list)}


def main() -> int:
    overall = hashlib.sha256()
    total = 0
    for group, (items, lines_of) in GROUPS.items():
        digest = hashlib.sha256()
        count = 0
        for name, build in items():
            try:
                lines = lines_of(build())
            except (SkewBrauerError, ValueError) as exc:
                lines = [type(exc).__name__, str(exc)]
            record = repr((name, lines)).encode()
            digest.update(record)
            count += 1
            print(f"{group:<9} {name}  {hashlib.sha256(record).hexdigest()[:16]}")
        overall.update(digest.hexdigest().encode())
        total += count
        print(f"{group:<9} {count:>4} algebras  {digest.hexdigest()}")
    print(f"{'all':<9} {total:>4} algebras  {overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
