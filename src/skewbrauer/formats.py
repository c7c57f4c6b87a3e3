"""Text formats: .bq (bound quiver), .sbg (skew-Brauer graph), .dis (dissection).

All three are line oriented, UTF-8, with '#' comments.  Canonical
serialisation lists sections in a fixed order with lexicographically
sorted entries, so parse/serialise round-trips are stable.
"""
from __future__ import annotations

from fractions import Fraction

from .brauer import BrauerEdge, BrauerGraph, BrauerVertex, SkewBrauerGraph
from .dissection import Arc, BOUNDARY, OrbifoldDissection, Puncture
from .errors import ParseError, SkewBrauerError
from .quiver import BoundQuiver, Path, Quiver, Relation


def _lines(text: str):
    # '#' opens a comment only at the start of a line or after whitespace,
    # so half-edge markers like 3#1 survive
    for i, raw in enumerate(text.splitlines(), start=1):
        if raw.lstrip().startswith("#"):
            continue
        line = raw
        for k, ch in enumerate(raw):
            if ch == "#" and k > 0 and raw[k - 1] in " \t":
                line = raw[:k]
                break
        line = line.strip()
        if line:
            yield i, line


# ---------------------------------------------------------------------------
# .bq
# ---------------------------------------------------------------------------

def parse_bq(text: str, filename: str = "<input>") -> BoundQuiver:
    vertices: list[str] = []
    special: set[str] = set()
    arrows: list[tuple[str, str, str]] = []
    special_loops: list[str] = []
    rel_specs: list[tuple[int, str]] = []
    for lineno, line in _lines(text):
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) not in (2, 3):
                raise ParseError("vertex <label> [special]", filename, lineno)
            vertices.append(parts[1])
            if len(parts) == 3:
                if parts[2] != "special":
                    raise ParseError(f"unknown vertex flag {parts[2]}", filename, lineno)
                special.add(parts[1])
        elif parts[0] == "arrow":
            rest = line[len("arrow"):].strip()
            if ":" not in rest:
                raise ParseError("arrow <label>: <src> -> <tgt>", filename, lineno)
            label, spec = rest.split(":", 1)
            label = label.strip()
            pieces = spec.split()
            flag = ""
            if pieces and pieces[-1] == "special-loop":
                flag = pieces.pop()
            if len(pieces) != 3 or pieces[1] != "->":
                raise ParseError("arrow <label>: <src> -> <tgt>", filename, lineno)
            arrows.append((label, pieces[0], pieces[2]))
            if flag:
                special_loops.append(label)
        elif parts[0] == "rel":
            rel_specs.append((lineno, line[len("rel"):].strip()))
        elif parts[0] == "newarrow":
            continue        # sidecar metadata emitted next to trivial extensions
        else:
            raise ParseError(f"unknown directive {parts[0]}", filename, lineno)
    try:
        quiver = Quiver.build(vertices, arrows)
    except (ValueError, KeyError) as exc:
        raise ParseError(str(exc), filename, 0)

    def parse_path(spec: str, lineno: int) -> Path:
        labels = [s.strip() for s in spec.split("*")]
        try:
            ids = [quiver.arrow_by_label(lab).id for lab in labels]
        except KeyError as exc:
            raise ParseError(f"unknown arrow {exc.args[0]}", filename, lineno)
        arrows_objs = [quiver.arrow(a) for a in ids]
        for x, y in zip(arrows_objs, arrows_objs[1:]):
            if x.target != y.source:
                raise ParseError(f"path breaks at {x.label}*{y.label}", filename, lineno)
        return Path(arrows_objs[0].source, tuple(ids))

    relations: list[Relation] = []
    for lineno, spec in rel_specs:
        sep = " - " if " - " in spec else " + " if " + " in spec else None
        if sep is None:
            relations.append(Relation.monomial(parse_path(spec, lineno)))
            continue
        left, right = spec.split(sep, 1)
        sign = Fraction(1 if sep == " + " else -1)
        relations.append(Relation(((Fraction(1), parse_path(left, lineno)),
                                   (sign, parse_path(right, lineno)))))
    for lab in special_loops:
        f = quiver.arrow_by_label(lab)
        if not f.is_loop:
            raise ParseError(f"special-loop {lab} is not a loop", filename, 0)
        special.add(quiver.vertex(f.source).label)
        relations.append(Relation.difference(Path(f.source, (f.id, f.id)),
                                             Path(f.source, (f.id,))))
    special_ids = frozenset(quiver.vertex_by_label(s).id for s in special)
    try:
        return BoundQuiver(quiver, tuple(relations), special_ids)
    except ValueError as exc:
        raise ParseError(str(exc), filename, 0)


def serialize_bq(bq: BoundQuiver) -> str:
    """Canonical .bq text.  A binomial is written ``p - q`` or ``p + q``;
    one with any other ratio of coefficients raises ``SkewBrauerError``."""
    q = bq.quiver
    # loops with an implicit f*f - f relation are written with the flag
    loop_rel: dict[int, Relation] = {}
    for r in bq.relations:
        if len(r.terms) == 2:
            lens = sorted(len(p) for p in r.paths())
            if lens == [1, 2]:
                short = next(p for p in r.paths() if len(p) == 1)
                long = next(p for p in r.paths() if len(p) == 2)
                if (long.arrows == short.arrows * 2 and q.arrow(short.arrows[0]).is_loop
                        and r.canonical().terms[1][0] == -1):
                    loop_rel[short.arrows[0]] = r
    out = []
    for v in sorted(q.vertices, key=lambda v: v.label):
        flag = " special" if v.id in bq.special_vertices else ""
        out.append(f"vertex {v.label}{flag}")
    for a in sorted(q.arrows, key=lambda a: a.label):
        flag = " special-loop" if a.id in loop_rel else ""
        out.append(f"arrow {a.label}: {q.vertex(a.source).label} -> "
                   f"{q.vertex(a.target).label}{flag}")
    rel_lines = []
    for r in bq.relations:
        if len(r.terms) == 2 and any(r is lr for lr in loop_rel.values()):
            continue
        if r.is_monomial:
            rel_lines.append(f"rel {r.paths()[0].label(q)}")
        else:
            (_, p1), (c2, p2) = r.canonical().terms
            if c2 not in (1, -1):
                raise SkewBrauerError(f"the .bq format cannot write the relation "
                                      f"{r.label(q)}: coefficients must be 1 and ±1")
            sign = "+" if c2 == 1 else "-"
            rel_lines.append(f"rel {p1.label(q)} {sign} {p2.label(q)}")
    out.extend(sorted(rel_lines))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# .sbg
# ---------------------------------------------------------------------------

def parse_sbg(text: str, filename: str = "<input>") -> SkewBrauerGraph:
    vspecs: list[tuple[str, int, bool]] = []
    especs: list[tuple[str, str, str]] = []
    orders: list[tuple[int, str, str]] = []
    for lineno, line in _lines(text):
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) < 2:
                raise ParseError("vertex <label> [mult=<m>] [distinguished]",
                                 filename, lineno)
            label = parts[1]
            mult = 1
            dist = False
            for flag in parts[2:]:
                if flag.startswith("mult="):
                    try:
                        mult = int(flag[5:])
                    except ValueError:
                        raise ParseError(f"bad multiplicity {flag}", filename, lineno)
                elif flag == "distinguished":
                    dist = True
                else:
                    raise ParseError(f"unknown vertex flag {flag}", filename, lineno)
            vspecs.append((label, mult, dist))
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise ParseError("edge <label> <v1> <v2>", filename, lineno)
            especs.append((parts[1], parts[2], parts[3]))
        elif parts[0] == "order":
            rest = line[len("order"):].strip()
            if ":" not in rest:
                raise ParseError("order <vertex>: <edge>, ...", filename, lineno)
            vlabel, entries = rest.split(":", 1)
            orders.append((lineno, vlabel.strip(), entries.strip()))
        else:
            raise ParseError(f"unknown directive {parts[0]}", filename, lineno)
    vmap = {}
    vertices = []
    for i, (label, mult, dist) in enumerate(vspecs):
        if label in vmap:
            raise ParseError(f"duplicate vertex {label}", filename, 0)
        vmap[label] = i
        vertices.append(BrauerVertex(i, label, mult))
    emap = {}
    edges = []
    for i, (label, v1, v2) in enumerate(especs):
        if label in emap:
            raise ParseError(f"duplicate edge {label}", filename, 0)
        if v1 not in vmap or v2 not in vmap:
            raise ParseError(f"edge {label} uses an unknown vertex", filename, 0)
        emap[label] = i
        edges.append(BrauerEdge(i, label, (vmap[v1], vmap[v2])))
    order: dict[int, tuple] = {}
    for lineno, vlabel, entries in orders:
        if vlabel not in vmap:
            raise ParseError(f"order for unknown vertex {vlabel}", filename, lineno)
        hes = []
        for entry in entries.split(","):
            entry = entry.strip()
            if not entry:
                continue
            occ = 1
            if "#" in entry:
                entry, occ_s = entry.split("#", 1)
                try:
                    occ = int(occ_s)
                except ValueError:
                    raise ParseError(f"bad occurrence {occ_s}", filename, lineno)
            if entry not in emap:
                raise ParseError(f"order mentions unknown edge {entry}", filename, lineno)
            hes.append((emap[entry], occ))
        order[vmap[vlabel]] = tuple(hes)
    for v in vertices:
        order.setdefault(v.id, ())
    dist = frozenset(vmap[label] for label, _, d in vspecs if d)
    return SkewBrauerGraph(BrauerGraph(tuple(vertices), tuple(edges), order), dist)


def serialize_sbg(g: SkewBrauerGraph) -> str:
    gr = g.graph
    out = []
    for v in sorted(gr.vertices, key=lambda v: v.label):
        flags = ""
        if v.multiplicity != 1:
            flags += f" mult={v.multiplicity}"
        if v.id in g.distinguished:
            flags += " distinguished"
        out.append(f"vertex {v.label}{flags}")
    for e in sorted(gr.edges, key=lambda e: e.label):
        out.append(f"edge {e.label} {gr.vertex(e.ends[0]).label} "
                   f"{gr.vertex(e.ends[1]).label}")
    for v in sorted(gr.vertices, key=lambda v: v.label):
        entries = []
        for (eid, occ) in gr.order.get(v.id, ()):
            e = gr.edge(eid)
            entries.append(f"{e.label}#{occ}" if e.is_loop else e.label)
        if entries:
            out.append(f"order {v.label}: " + ", ".join(entries))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# .dis
# ---------------------------------------------------------------------------

def parse_dis(text: str, filename: str = "<input>") -> OrbifoldDissection:
    aspecs: list[tuple[str, str]] = []
    polys: list[tuple[int, str]] = []
    puncts: list[tuple[int, str, str]] = []
    for lineno, line in _lines(text):
        parts = line.split()
        if parts[0] == "arc":
            kind = "regular"
            if len(parts) == 3:
                kind = parts[2]
                if kind not in ("special", "pendant"):
                    raise ParseError(f"unknown arc kind {kind}", filename, lineno)
            elif len(parts) != 2:
                raise ParseError("arc <label> [special|pendant]", filename, lineno)
            aspecs.append((parts[1], kind))
        elif parts[0].startswith("polygon"):
            if ":" not in line:
                raise ParseError("polygon: <side>, ...", filename, lineno)
            polys.append((lineno, line.split(":", 1)[1]))
        elif parts[0] == "puncture":
            rest = line[len("puncture"):].strip()
            if ":" not in rest:
                raise ParseError("puncture <label>: <arc>, ...", filename, lineno)
            label, entries = rest.split(":", 1)
            puncts.append((lineno, label.strip(), entries))
        else:
            raise ParseError(f"unknown directive {parts[0]}", filename, lineno)
    amap = {}
    arcs = []
    for i, (label, kind) in enumerate(aspecs):
        if label in amap:
            raise ParseError(f"duplicate arc {label}", filename, 0)
        amap[label] = i
        arcs.append(Arc(i, label, kind))
    polygons = []
    for lineno, body in polys:
        sides: list = []
        for entry in body.split(","):
            entry = entry.strip()
            if not entry:
                continue
            if entry == BOUNDARY:
                sides.append(BOUNDARY)
            elif entry in amap:
                sides.append(amap[entry])
            else:
                raise ParseError(f"unknown side {entry}", filename, lineno)
        polygons.append(tuple(sides))
    punctures = []
    for lineno, label, entries in puncts:
        aids = []
        for entry in entries.split(","):
            entry = entry.strip()
            if not entry:
                continue
            if entry not in amap:
                raise ParseError(f"puncture {label} lists unknown arc {entry}",
                                 filename, lineno)
            aids.append(amap[entry])
        punctures.append(Puncture(label, tuple(aids)))
    return OrbifoldDissection(tuple(arcs), tuple(polygons), tuple(punctures))


def serialize_dis(d: OrbifoldDissection) -> str:
    out = []
    for a in sorted(d.arcs, key=lambda a: a.label):
        kind = f" {a.kind}" if a.kind != "regular" else ""
        out.append(f"arc {a.label}{kind}")
    for i in range(len(d.polygons)):
        run = d.run(i)
        sides = [d.arc(s).label for s in run] + [BOUNDARY]
        out.append("polygon: " + ", ".join(sides))
    for p in d.punctures:
        out.append(f"puncture {p.label}: " +
                   ", ".join(d.arc(a).label for a in p.arcs))
    return "\n".join(out) + "\n"


def load(path: str):
    """Parse a file by extension; returns the corresponding object."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".bq"):
        return parse_bq(text, path)
    if path.endswith(".sbg"):
        return parse_sbg(text, path)
    if path.endswith(".dis"):
        return parse_dis(text, path)
    raise ParseError("unknown file extension", path, 0)
