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
from .quiver import Arrow, BoundQuiver, Path, Quiver, Relation, Vertex
from .skewgentle import _idempotent_loop, _idempotent_relation


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


def _labelled(line: str, directive: str, usage: str, filename: str,
              lineno: int) -> tuple[str, str]:
    """Split ``<directive> <label>: <spec>`` into the stripped label and spec."""
    label, colon, spec = line[len(directive):].partition(":")
    if not colon:
        raise ParseError(usage, filename, lineno)
    return label.strip(), spec.strip()


def _items(spec: str) -> list[str]:
    """The non-empty entries of a comma list."""
    return [e.strip() for e in spec.split(",") if e.strip()]


def _index(specs, kind: str, filename: str) -> dict[str, int]:
    """Label -> position of each spec ``(lineno, label, ...)``; a label met
    twice is an error at the line of its second spec."""
    index: dict[str, int] = {}
    for lineno, label, *_ in specs:
        if label in index:
            raise ParseError(f"duplicate {kind} {label}", filename, lineno)
        index[label] = len(index)
    return index


# ---------------------------------------------------------------------------
# .bq
# ---------------------------------------------------------------------------

def parse_bq(text: str, filename: str = "<input>") -> BoundQuiver:
    vspecs: list[tuple[int, str]] = []
    special: set[str] = set()
    aspecs: list[tuple[int, str, str, str, bool]] = []
    rel_specs: list[tuple[int, str]] = []
    for lineno, line in _lines(text):
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) not in (2, 3):
                raise ParseError("vertex <label> [special]", filename, lineno)
            vspecs.append((lineno, parts[1]))
            if len(parts) == 3:
                if parts[2] != "special":
                    raise ParseError(f"unknown vertex flag {parts[2]}", filename, lineno)
                special.add(parts[1])
        elif parts[0] == "arrow":
            usage = "arrow <label>: <src> -> <tgt>"
            label, spec = _labelled(line, "arrow", usage, filename, lineno)
            pieces = spec.split()
            loop = bool(pieces) and pieces[-1] == "special-loop"
            if loop:
                pieces.pop()
            if len(pieces) != 3 or pieces[1] != "->":
                raise ParseError(usage, filename, lineno)
            aspecs.append((lineno, label, pieces[0], pieces[2], loop))
        elif parts[0] == "rel":
            rel_specs.append((lineno, line[len("rel"):].strip()))
        elif parts[0] == "newarrow":
            continue        # sidecar metadata emitted next to trivial extensions
        else:
            raise ParseError(f"unknown directive {parts[0]}", filename, lineno)
    vindex = _index(vspecs, "vertex", filename)
    aindex = _index(aspecs, "arrow", filename)
    arrows: list[Arrow] = []
    loops: list[Arrow] = []
    for lineno, label, src, tgt, loop in aspecs:
        for end in (src, tgt):
            if end not in vindex:
                raise ParseError(f"arrow {label} uses an unknown vertex {end}",
                                 filename, lineno)
        arrows.append(Arrow(len(arrows), label, vindex[src], vindex[tgt]))
        if loop:
            if src != tgt:
                raise ParseError(f"special-loop {label} is not a loop", filename, lineno)
            special.add(src)
            loops.append(arrows[-1])
    quiver = Quiver(tuple(Vertex(i, label) for label, i in vindex.items()), tuple(arrows))

    def parse_path(spec: str, lineno: int) -> Path:
        labels = [s.strip() for s in spec.split("*")]
        for lab in labels:
            if lab not in aindex:
                raise ParseError(f"unknown arrow {lab}", filename, lineno)
        path = [arrows[aindex[lab]] for lab in labels]
        for x, y in zip(path, path[1:]):
            if x.target != y.source:
                raise ParseError(f"path breaks at {x.label}*{y.label}", filename, lineno)
        return Path(path[0].source, tuple(a.id for a in path))

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
    relations.extend(_idempotent_relation(f.source, f.id) for f in loops)
    special_ids = frozenset(vindex[s] for s in special)
    try:
        return BoundQuiver(quiver, tuple(relations), special_ids)
    except ValueError as exc:
        raise ParseError(str(exc), filename, 0)


def serialize_bq(bq: BoundQuiver) -> str:
    """Canonical .bq text.  A binomial is written ``p - q`` or ``p + q``;
    one with any other ratio of coefficients raises ``SkewBrauerError``."""
    q = bq.quiver
    # loops with an implicit f*f - f relation are written with the flag
    loop_of = [_idempotent_loop(q, r) for r in bq.relations]
    loops = set(loop_of)
    out = []
    for v in sorted(q.vertices, key=lambda v: v.label):
        flag = " special" if v.id in bq.special_vertices else ""
        out.append(f"vertex {v.label}{flag}")
    for a in sorted(q.arrows, key=lambda a: a.label):
        flag = " special-loop" if a.id in loops else ""
        out.append(f"arrow {a.label}: {q.vertex(a.source).label} -> "
                   f"{q.vertex(a.target).label}{flag}")
    rel_lines = []
    for r, loop in zip(bq.relations, loop_of):
        if loop is not None:
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
    vspecs: list[tuple[int, str, int, bool]] = []
    especs: list[tuple[int, str, str, str]] = []
    orders: list[tuple[int, str, list[str]]] = []
    for lineno, line in _lines(text):
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) < 2:
                raise ParseError("vertex <label> [mult=<m>] [distinguished]",
                                 filename, lineno)
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
            vspecs.append((lineno, parts[1], mult, dist))
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise ParseError("edge <label> <v1> <v2>", filename, lineno)
            especs.append((lineno, parts[1], parts[2], parts[3]))
        elif parts[0] == "order":
            vlabel, entries = _labelled(line, "order", "order <vertex>: <edge>, ...",
                                        filename, lineno)
            orders.append((lineno, vlabel, _items(entries)))
        else:
            raise ParseError(f"unknown directive {parts[0]}", filename, lineno)
    vmap = _index(vspecs, "vertex", filename)
    emap = _index(especs, "edge", filename)
    _index(orders, "order for vertex", filename)
    edges = []
    for lineno, label, v1, v2 in especs:
        if v1 not in vmap or v2 not in vmap:
            raise ParseError(f"edge {label} uses an unknown vertex", filename, lineno)
        edges.append(BrauerEdge(len(edges), label, (vmap[v1], vmap[v2])))
    order: dict[int, tuple] = {}
    for lineno, vlabel, entries in orders:
        if vlabel not in vmap:
            raise ParseError(f"order for unknown vertex {vlabel}", filename, lineno)
        hes = []
        for entry in entries:
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
    vertices = tuple(BrauerVertex(i, label, mult)
                     for i, (_, label, mult, _) in enumerate(vspecs))
    for v in vertices:
        order.setdefault(v.id, ())
    dist = frozenset(i for i, (*_, d) in enumerate(vspecs) if d)
    return SkewBrauerGraph(BrauerGraph(vertices, tuple(edges), order), dist)


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
    aspecs: list[tuple[int, str, str]] = []
    polys: list[tuple[int, list[str]]] = []
    puncts: list[tuple[int, str, list[str]]] = []
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
            aspecs.append((lineno, parts[1], kind))
        elif parts[0] == "polygon" or parts[0].startswith("polygon:"):
            _, sides = _labelled(line, "polygon", "polygon: <side>, ...", filename, lineno)
            polys.append((lineno, _items(sides)))
        elif parts[0] == "puncture":
            label, entries = _labelled(line, "puncture", "puncture <label>: <arc>, ...",
                                       filename, lineno)
            puncts.append((lineno, label, _items(entries)))
        else:
            raise ParseError(f"unknown directive {parts[0]}", filename, lineno)
    amap = _index(aspecs, "arc", filename)
    _index(puncts, "puncture", filename)
    arcs = tuple(Arc(i, label, kind) for i, (_, label, kind) in enumerate(aspecs))
    polygons = []
    for lineno, sides in polys:
        for entry in sides:
            if entry != BOUNDARY and entry not in amap:
                raise ParseError(f"unknown side {entry}", filename, lineno)
        polygons.append(tuple(BOUNDARY if e == BOUNDARY else amap[e] for e in sides))
    punctures = []
    for lineno, label, entries in puncts:
        for entry in entries:
            if entry not in amap:
                raise ParseError(f"puncture {label} lists unknown arc {entry}",
                                 filename, lineno)
        punctures.append(Puncture(label, tuple(amap[e] for e in entries)))
    return OrbifoldDissection(arcs, tuple(polygons), tuple(punctures))


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
    """Parse a file by extension; returns the corresponding object.  A file
    that cannot be read as UTF-8 text is a ``ParseError`` at line 0."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read: {exc.strerror}", path, 0) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read: {exc}", path, 0) from None
    if path.endswith(".bq"):
        return parse_bq(text, path)
    if path.endswith(".sbg"):
        return parse_sbg(text, path)
    if path.endswith(".dis"):
        return parse_dis(text, path)
    raise ParseError("unknown file extension", path, 0)
