"""Command-line front end.

Exit codes: 0 success, 1 domain error, 2 parse error.  Output is
canonical text (lexicographic everywhere, no timestamps); ``--json``
emits a structured mirror of the same data.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from typing import Optional

from . import formats
from .basis import enumerate_basis
from .brauer import (SkewBrauerGraph, _tree_verdict, classify_rep_type,
                     projective_layers, skew_brauer_algebra, validate_graph)
from .cartan import cartan
from .dissection import (OrbifoldDissection, contraction_addition,
                         q_cartan_det_formula, skew_gentle_from_dissection,
                         trivext_tuple_from_dissection, validate_dissection)
from .errors import ParseError, SkewBrauerError
from .iso import are_isomorphic
from .quiver import BoundQuiver, Path, is_gentle, is_locally_gentle
from .skewgentle import (admissible_presentation, is_skew_gentle,
                         make_presentation, sg_bound_quiver)
from .trivext import (enumerate_admissible_cuts, enumerate_good_cuts,
                      quotient_by_cut, reflect, trivial_extension)


def _emit(args, payload: dict, text: str) -> None:
    """Write the text, or under ``--json`` its mirror, to ``--output`` or stdout."""
    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True)
    if not text.endswith("\n"):
        text += "\n"
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SkewBrauerError(f"cannot write {args.output}: {exc.strerror}") from None
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush
        # at exit cannot raise again (see the SIGPIPE note in the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


def _load(path: str, kind: type, message: str):
    """The object of ``path``; a parse error when it is not a ``kind``."""
    obj = formats.load(path)
    if not isinstance(obj, kind):
        raise ParseError(message, path, 0)
    return obj


def _load_admissible(path: str) -> BoundQuiver:
    bq = _load(path, BoundQuiver, "expected a .bq file")
    if bq.admissible:
        return bq
    return admissible_presentation(make_presentation(bq))


def cmd_check(args) -> int:
    obj = formats.load(args.input)
    if isinstance(obj, BoundQuiver):
        local = is_locally_gentle(obj)
        sg = is_skew_gentle(obj)
        payload = {
            "kind": "bound-quiver",
            "vertices": len(obj.quiver.vertices),
            "arrows": len(obj.quiver.arrows),
            "admissible": obj.admissible,
            "locally_gentle": bool(local),
            "gentle": bool(is_gentle(obj)),
            "skew_gentle": bool(sg),
            "special_vertices": list(sg.special_vertices),
        }
        lines = [f"bound quiver: {payload['vertices']} vertices, "
                 f"{payload['arrows']} arrows",
                 f"admissible: {'yes' if obj.admissible else 'no'}",
                 f"locally gentle: {'yes' if local else 'no (' + local.detail + ')'}",
                 f"skew-gentle: {'yes (Sp = ' + ', '.join(sg.special_vertices) + ')' if sg else 'no (' + sg.detail + ')'}"]
        _emit(args, payload, "\n".join(lines))
        return 0
    if isinstance(obj, SkewBrauerGraph):
        v = validate_graph(obj)
        tree = _tree_verdict(obj) if v else v
        payload = {"kind": "skew-brauer-graph", "valid": bool(v),
                   "detail": v.detail, "skew_brauer_tree": bool(tree)}
        text = (f"skew-Brauer graph: {'valid' if v else 'invalid (' + v.detail + ')'}"
                + (f"\nskew-Brauer tree: {'yes' if tree else 'no'}" if v else ""))
        _emit(args, payload, text)
        return 0 if v else 1
    v = validate_dissection(obj)
    payload = {"kind": "dissection", "valid": bool(v), "detail": v.detail,
               "polygons": len(obj.polygons)}
    _emit(args, payload,
          f"dissection: {'valid' if v else 'invalid (' + v.detail + ')'} "
          f"({len(obj.polygons)} polygons)")
    return 0 if v else 1


def cmd_build(args) -> int:
    alg = skew_brauer_algebra(_load(args.input, SkewBrauerGraph,
                                    "build expects a .sbg file"))
    text = formats.serialize_bq(alg.algebra)
    cycles = sorted(chain.from_iterable(alg.sg_tuple.signed_cycles), key=Path.sort_key)
    _emit(args, {"bq": text, "cycles": [p.label(alg.quiver) for p in cycles]}, text)
    return 0


def cmd_trivext(args) -> int:
    bq = _load_admissible(args.input)
    t = trivial_extension(bq)
    text = formats.serialize_bq(t.algebra)
    side = []
    for aid in sorted(t.new_arrows, key=lambda a: t.algebra.quiver.arrow(a).label):
        p = t.new_arrows[aid]
        side.append(f"newarrow {t.algebra.quiver.arrow(aid).label} := "
                    f"{p.label(bq.quiver)}")
    text = text + "\n".join(side) + ("\n" if side else "")
    _emit(args, {"bq": text,
                 "new_arrows": {t.algebra.quiver.arrow(a).label: p.label(bq.quiver)
                                for a, p in t.new_arrows.items()}}, text)
    return 0


def cmd_cuts(args) -> int:
    t = trivial_extension(_load_admissible(args.input))
    stream = (enumerate_good_cuts(t, limit=args.limit) if args.good
              else enumerate_admissible_cuts(t, limit=args.limit))
    q = t.algebra.quiver
    rows = [", ".join(c.labels(q)) for c in stream]
    payload = {"cuts": rows, "kind": "good" if args.good else "admissible"}
    _emit(args, payload, "\n".join(f"cut: {r}" for r in rows))
    return 0


def cmd_quotient(args) -> int:
    t = trivial_extension(_load_admissible(args.input))
    q = t.algebra.quiver
    labels = [s.strip() for s in args.cut.split(",") if s.strip()]
    try:
        ids = [q.arrow_by_label(lab).id for lab in labels]
    except KeyError as exc:
        raise SkewBrauerError(f"unknown arrow {exc.args[0]}")
    quot = quotient_by_cut(t, ids)
    text = formats.serialize_bq(quot)
    _emit(args, {"bq": text}, text)
    return 0


def cmd_reflect(args) -> int:
    pres = make_presentation(_load(args.input, BoundQuiver, "expected a .bq file"))
    text = formats.serialize_bq(reflect(pres, args.vertex, args.direction).bound)
    _emit(args, {"bq": text}, text)
    return 0


def _classify_one(path: str) -> tuple[str, str]:
    c = classify_rep_type(_load(path, SkewBrauerGraph, "classify expects .sbg files"))
    return path, f"{c.rep_type} (reason: {c.detail})" + (
        f" [band witness {c.band_witness}]" if c.band_witness else "")


def cmd_classify(args) -> int:
    results = [_classify_one(p) for p in args.inputs]
    text = (results[0][1] if len(results) == 1
            else "\n".join(f"{path}: {text}" for path, text in results))
    _emit(args, dict(results), text)
    return 0


def cmd_cartan(args) -> int:
    bq = _load_admissible(args.input)
    basis = enumerate_basis(bq)
    data = cartan(bq, basis)
    payload = {
        "vertices": list(data.vertex_labels),
        "ordinary": [list(r) for r in data.ordinary],
        "q_graded": [[str(x) for x in row] for row in data.q_graded],
        "det": data.det_ordinary,
        "det_q": str(data.det_q),
        "dimension": basis.dimension,
    }
    lines = []
    if not (args.det and not args.matrix):
        header = "  ".join(data.vertex_labels)
        lines.append(f"vertices: {header}")
        rows = data.q_graded if args.q else data.ordinary
        for lab, row in zip(data.vertex_labels, rows):
            lines.append(f"{lab}: [" + ", ".join(str(x) for x in row) + "]")
    if args.det:
        if args.q:
            lines.append(f"det_q = {data.det_q}; det = {data.det_ordinary}")
        else:
            lines.append(f"det = {data.det_ordinary}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_projectives(args) -> int:
    alg = skew_brauer_algebra(_load(args.input, SkewBrauerGraph,
                                    "projectives expects a .sbg file"))
    basis = enumerate_basis(alg.algebra)
    labels = ([args.vertex] if args.vertex
              else sorted(v.label for v in alg.quiver.vertices))
    payload = {}
    lines = []
    for lab in labels:
        pl = projective_layers(alg, lab, basis)
        payload[lab] = {"top": pl.top, "socle": pl.socle,
                        "dimension": pl.dimension,
                        "layers": [list(l) for l in pl.layers]}
        body = " | ".join(", ".join(layer) for layer in pl.layers)
        lines.append(f"P[{lab}]: dim {pl.dimension}; layers [{body}]")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_dissect(args) -> int:
    d = _load(args.input, OrbifoldDissection, "dissect expects a .dis file")
    if args.tuple:
        algebra = sg_bound_quiver(trivext_tuple_from_dissection(d).as_sg_tuple())
        text = formats.serialize_bq(algebra)
    else:
        pres = skew_gentle_from_dissection(d)
        text = formats.serialize_bq(pres.bound)
    payload = {"bq": text}
    if args.json:       # the formula is computed for the JSON mirror only
        payload["det_q_formula"] = str(q_cartan_det_formula(d))
    _emit(args, payload, text)
    return 0


def cmd_move(args) -> int:
    d = _load(args.input, OrbifoldDissection, "move expects a .dis file")
    text = formats.serialize_dis(contraction_addition(d, args.polygon, angle=args.angle,
                                                      pendant=args.pendant))
    _emit(args, {"dis": text}, text)
    return 0


def cmd_iso(args) -> int:
    result = are_isomorphic(_load_admissible(args.a), _load_admissible(args.b))
    payload = {"status": result.status,
               "vertex_map": result.vertex_map,
               "arrow_map": result.arrow_map}
    if result.status == "isomorphic":
        if result.is_identity:
            text = "isomorphic (identity)"
        else:
            pairs = ", ".join(f"{k}->{v}" for k, v in
                              sorted(result.vertex_map.items()))
            text = f"isomorphic (vertices: {pairs})"
        _emit(args, payload, text)
        return 0
    if result.status == "budget_exhausted":
        payload["nodes"] = result.nodes
        _emit(args, payload,
              f"undecided (search budget exhausted after {result.nodes} nodes)")
        return 1
    _emit(args, payload, "not isomorphic")
    return 1


def _limit(text: str) -> int:
    """A ``--limit`` value: an int, at least 0 (0 asks for no cuts)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="skewbrauer",
        description="Skew-Brauer graph algebras and trivial extensions of "
                    "skew-gentle algebras, in exact arithmetic.")
    p.add_argument("--json", action="store_true", help="emit JSON output")
    sub = p.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("check", help="validate a .bq/.sbg/.dis file")
    s.add_argument("input")
    s.set_defaults(fn=cmd_check)

    s = sub.add_parser("build", help="skew-Brauer algebra of a .sbg graph")
    s.add_argument("input")
    s.add_argument("--output")
    s.set_defaults(fn=cmd_build)

    s = sub.add_parser("trivext", help="trivial extension of a .bq algebra")
    s.add_argument("input")
    s.add_argument("--output")
    s.set_defaults(fn=cmd_trivext)

    s = sub.add_parser("cuts", help="enumerate cut sets of the trivial extension")
    s.add_argument("input")
    s.add_argument("--good", action="store_true")
    s.add_argument("--limit", type=_limit, default=None)
    s.set_defaults(fn=cmd_cuts)

    s = sub.add_parser("quotient", help="quotient the trivial extension by a cut")
    s.add_argument("input")
    s.add_argument("--cut", required=True, help="comma-separated arrow labels")
    s.add_argument("--output")
    s.set_defaults(fn=cmd_quotient)

    s = sub.add_parser("reflect", help="reflection at a source or sink")
    s.add_argument("input")
    s.add_argument("--vertex", required=True)
    s.add_argument("--direction", choices=["minus", "plus"], required=True)
    s.add_argument("--output")
    s.set_defaults(fn=cmd_reflect)

    s = sub.add_parser("classify", help="representation type of .sbg graphs")
    s.add_argument("inputs", nargs="+")
    s.set_defaults(fn=cmd_classify)

    s = sub.add_parser("cartan", help="Cartan matrix and determinants")
    s.add_argument("input")
    s.add_argument("--q", action="store_true", help="path-length graded entries")
    s.add_argument("--det", action="store_true", help="print determinants")
    s.add_argument("--matrix", action="store_true", help="print the matrix too")
    s.set_defaults(fn=cmd_cartan)

    s = sub.add_parser("projectives", help="radical layers of the projectives")
    s.add_argument("input")
    s.add_argument("--vertex")
    s.set_defaults(fn=cmd_projectives)

    s = sub.add_parser("dissect", help="algebra of an orbifold dissection")
    s.add_argument("input")
    s.add_argument("--tuple", action="store_true",
                   help="emit the trivial-extension tuple algebra instead")
    s.add_argument("--output")
    s.set_defaults(fn=cmd_dissect)

    s = sub.add_parser("move", help="contraction-addition on a dissection")
    s.add_argument("input")
    s.add_argument("--polygon", type=int, required=True)
    s.add_argument("--angle", type=int)
    s.add_argument("--pendant")
    s.add_argument("--output")
    s.set_defaults(fn=cmd_move)

    s = sub.add_parser("iso", help="bound-quiver isomorphism test")
    s.add_argument("a")
    s.add_argument("b")
    s.set_defaults(fn=cmd_iso)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SkewBrauerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
