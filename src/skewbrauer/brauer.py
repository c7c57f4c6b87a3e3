"""Brauer and skew-Brauer graphs, their algebras, and representation type."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Union

from .basis import PathBasis, enumerate_basis
from .errors import UnknownVertex, UnsupportedClass
from .quiver import (BoundQuiver, Path, Quiver, Verdict, _gentle_maximal_paths,
                     cycle_rotations, label_key)
from .skewgentle import (SgTuple, SkewGentlePresentation, auxiliary_gentle,
                         sg_bound_quiver)

HalfEdge = tuple[int, int]          # (edge id, occurrence 1 or 2)


class BrauerVertex(NamedTuple):
    id: int
    label: str
    multiplicity: int = 1


class BrauerEdge(NamedTuple):
    id: int
    label: str
    ends: tuple[int, int]

    @property
    def is_loop(self) -> bool:
        return self.ends[0] == self.ends[1]


class BrauerGraph(NamedTuple):
    vertices: tuple[BrauerVertex, ...]
    edges: tuple[BrauerEdge, ...]
    order: dict[int, tuple[HalfEdge, ...]]    # vertex id -> cyclic half-edge list

    def vertex(self, vid: int) -> BrauerVertex:
        return next(v for v in self.vertices if v.id == vid)

    def edge(self, eid: int) -> BrauerEdge:
        return next(e for e in self.edges if e.id == eid)

    def valency(self, vid: int) -> int:
        return len(self.order.get(vid, ()))

    def half_edges_at(self, vid: int) -> list[HalfEdge]:
        out = []
        for e in self.edges:
            if e.ends[0] == vid and e.ends[1] == vid:
                out.extend([(e.id, 1), (e.id, 2)])
            elif vid in e.ends:
                out.append((e.id, 1))
        return out


class SkewBrauerGraph(NamedTuple):
    graph: BrauerGraph
    distinguished: frozenset[int]     # vertex ids

    @property
    def vertices(self):
        return self.graph.vertices

    @property
    def edges(self):
        return self.graph.edges

    def distinguished_edges(self) -> frozenset[int]:
        out = set()
        for e in self.graph.edges:
            if set(e.ends) & set(self.distinguished):
                out.add(e.id)
        return frozenset(out)


def validate_graph(g: SkewBrauerGraph) -> Verdict:
    """All structural invariants, including order-list consistency."""
    gr = g.graph
    vids = {v.id for v in gr.vertices}
    for e in gr.edges:
        if not set(e.ends) <= vids:
            return Verdict(False, "edge-endpoints",
                           f"edge {e.label} has an unknown endpoint")
    for v in gr.vertices:
        if v.multiplicity < 1:
            return Verdict(False, "multiplicity",
                           f"vertex {v.label} has multiplicity < 1")
        want = sorted(gr.half_edges_at(v.id))
        got = sorted(gr.order.get(v.id, ()))
        if want != got:
            return Verdict(False, "order-list",
                           f"cyclic order at {v.label} is not a permutation of "
                           "its half-edges")
    for d in g.distinguished:
        if d not in vids:
            return Verdict(False, "distinguished", "unknown distinguished vertex")
        v = gr.vertex(d)
        if v.multiplicity != 1:
            return Verdict(False, "distinguished",
                           f"distinguished vertex {v.label} has multiplicity > 1")
        if gr.valency(d) != 1:
            return Verdict(False, "distinguished",
                           f"distinguished vertex {v.label} has valency != 1")
        (eid, _), = gr.order[d]
        e = gr.edge(eid)
        other = e.ends[0] if e.ends[1] == d else e.ends[1]
        if other == d:
            return Verdict(False, "distinguished",
                           f"distinguished vertex {v.label} carries a loop")
        if other in g.distinguished:
            return Verdict(False, "distinguished",
                           f"distinguished vertices {v.label} and "
                           f"{gr.vertex(other).label} are adjacent")
    return Verdict(True)


# ---------------------------------------------------------------------------
# Brauer quiver
# ---------------------------------------------------------------------------

def brauer_quivers_with_cycles(
        g: BrauerGraph) -> tuple[Quiver, tuple[tuple[Path, int, int], ...]]:
    """The Brauer quiver, and ``(cycle, graph vertex id, multiplicity)`` for
    the oriented cycle at each graph vertex v with m(v)·val(v) >= 2."""
    vlabels = [e.label for e in sorted(g.edges, key=lambda e: e.label)]
    arrow_specs: list[tuple[str, str, str]] = []
    cycle_slots: list[tuple[tuple[int, ...], int, int]] = []
    for v in sorted(g.vertices, key=lambda v: v.label):
        order = g.order.get(v.id, ())
        if v.multiplicity * len(order) < 2:
            continue
        ids = []
        for i, (eid, _) in enumerate(order):
            nxt = order[(i + 1) % len(order)][0]
            label = f"{v.label}.{i}"
            ids.append(len(arrow_specs))
            arrow_specs.append((label, g.edge(eid).label, g.edge(nxt).label))
        cycle_slots.append((tuple(ids), v.id, v.multiplicity))
    q = Quiver.build(vlabels, arrow_specs)
    cycles = tuple((Path(q.arrow(ids[0]).source, ids), vid, m) for ids, vid, m in cycle_slots)
    return q, cycles


# ---------------------------------------------------------------------------
# the skew-Brauer algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SkewBrauerAlgebra:
    """Admissible presentation of the skew-Brauer graph algebra, with the
    tuple it was built from; the signed special cycles are
    ``sg_tuple.signed_cycles``."""
    algebra: BoundQuiver
    graph: SkewBrauerGraph
    sg_tuple: SgTuple

    @property
    def quiver(self) -> Quiver:
        return self.algebra.quiver


def skew_brauer_algebra(g: SkewBrauerGraph) -> SkewBrauerAlgebra:
    """The sg-construction on the Brauer quiver.

    The tuple holds the length-two paths that lie in no special cycle as
    monomials, the edges at distinguished vertices as special vertices,
    and each special cycle with the multiplicity of its graph vertex.
    """
    check = validate_graph(g)
    if not check:
        raise UnsupportedClass(f"invalid skew-Brauer graph: {check.detail}")
    gr = g.graph
    q, special_cycles = brauer_quivers_with_cycles(gr)
    sp_edges = frozenset(q.vertex_by_label(gr.edge(e).label).id
                         for e in g.distinguished_edges())
    cycles = tuple(c for c, _, _ in special_cycles)
    windows = {(rot.arrows * 2)[:2] for c in cycles for rot in cycle_rotations(q, c.arrows)}
    monomials = tuple(Path(a.source, (a.id, b.id)) for a in q.arrows
                      for b in q.arrows_from(a.target) if (a.id, b.id) not in windows)
    tup = SgTuple(q, monomials, sp_edges, cycles, tuple(m for _, _, m in special_cycles))
    return SkewBrauerAlgebra(sg_bound_quiver(tup), g, tup)


# ---------------------------------------------------------------------------
# the symmetrising form
# ---------------------------------------------------------------------------

def symmetric_form_check(alg, basis: Optional[PathBasis] = None) -> Verdict:
    """phi = 1 on powers of sg-special cycles; check phi(ab) = phi(ba) and
    nondegeneracy of the induced pairing.

    Accepts any carrier with ``algebra`` and the ``sg_tuple`` it was built
    from, so trivial extensions are checked against the same form: phi is
    1 on the signed powers c^m of the tuple's cycles, m its multiplicity.

    phi vanishes off closed paths, and the normal form of ab runs from the
    source of a to the target of b, so phi(ab) and phi(ba) can be nonzero
    only when b runs from the target of a back to its source.  The basis
    paths are grouped into blocks B(s, t) by source and target
    (``PathBasis.blocks``), and ab is reduced once for each a in B(s, t)
    and b in B(t, s).  Up to a permutation of rows and columns the Gram
    matrix is block diagonal with blocks B(s, t) x B(t, s), so its rank
    is the sum of the block ranks.

    A Gram row keeps only its nonzeros, ``{j: phi(a b_j)}``: symmetry is
    checked on the nonzeros of both blocks, and ``_rank`` gives the rank.
    """
    if basis is None:
        basis = enumerate_basis(alg.algebra)
    q = alg.algebra.quiver
    support: set[tuple[int, ...]] = set()     # words of the normal forms of the c^m
    for _, copies, _ in alg.sg_tuple.powers:
        for power in copies:
            nf = basis.normal_form(power.arrows)
            if nf is not None:
                support.add(nf[1])

    blocks = basis.blocks()
    gram: dict[tuple[int, int], list[dict]] = {}   # (s, t) -> [{j: phi(a b_j)} for a]
    for (s, t), block in blocks.items():
        others = blocks.get((t, s), ())
        rows = gram[s, t] = []
        for a in block:
            row = {}
            for j, b in enumerate(others):
                nf = basis.normal_form(a.arrows + b.arrows)
                if nf is not None and nf[1] in support:
                    row[j] = nf[0]
            rows.append(row)
    asymmetric = []     # (a, its first b in block order with phi(ab) != phi(ba))
    for (s, t), rows in gram.items():
        cols: list[dict] = [{} for _ in rows]   # cols[i][j] = phi(b_j a_i)
        for j, back in enumerate(gram.get((t, s), ())):
            for i, value in back.items():
                cols[i][j] = value
        for a, row, col in zip(blocks[s, t], rows, cols):
            if row != col:
                j = min(j for j in row.keys() | col.keys() if row.get(j) != col.get(j))
                asymmetric.append((a, blocks[t, s][j]))
    if asymmetric:
        # the first a in basis_paths order, which is Path.sort_key order
        a, b = min(asymmetric, key=lambda pair: pair[0].sort_key())
        return Verdict(False, "symmetry",
                       f"phi(ab) != phi(ba) for a={a.label(q)}, b={b.label(q)}")
    rank = sum(_rank(rows) for rows in gram.values())
    n = len(basis.basis_paths)
    if rank != n:
        return Verdict(False, "nondegenerate",
                       f"pairing has rank {rank} < dimension {n}")
    return Verdict(True)


def _rank(rows: Iterable[dict]) -> int:
    """Rank over the rationals of sparse rows ``{column: value}``, whose
    columns compare.  Each echelon row is keyed by its least column, with
    coefficient 1 there; a new row is reduced only by the echelon rows its
    own least columns hit, and older rows are never rewritten.  Rows stay
    ``int`` while every lead is ±1, and become ``Fraction`` otherwise."""
    echelon: dict = {}
    for vec in rows:
        vec = dict(vec)
        while vec:
            lead = min(vec)
            c = vec.pop(lead)
            top = echelon.get(lead)
            if top is None:
                scale = c if c == 1 or c == -1 else 1 / Fraction(c)
                echelon[lead] = {k: v * scale for k, v in vec.items()}
                break
            for k, v in top.items():
                new = vec.get(k, 0) - c * v
                if new:
                    vec[k] = new
                else:
                    del vec[k]
    return len(echelon)


# ---------------------------------------------------------------------------
# the skew-Brauer graph of a skew-gentle algebra
# ---------------------------------------------------------------------------

def graph_from_skew_gentle(p: SkewGentlePresentation) -> SkewBrauerGraph:
    """The skew-Brauer graph of a skew-gentle presentation.

    Edges are the quiver vertices.  Graph vertices: ``p<i>`` for each
    maximal path of the auxiliary gentle algebra, numbered in
    ``label_key`` order, so by labels and not by ids, ``e<v>`` for each
    non-special vertex v that ends a single arrow or sits in the middle of
    a transit that does not vanish, and the distinguished ``x<v>`` for
    each special vertex v.
    """
    aux = auxiliary_gentle(p)
    q = aux.quiver
    for v in sorted(q.vertices, key=lambda v: v.label):
        if not q.arrows_from(v.id) and not q.arrows_into(v.id):
            raise UnsupportedClass(
                f"vertex {v.label} has no incident arrows; the ribbon graph "
                "construction needs every vertex on a strand")
    mpaths = sorted(_gentle_maximal_paths(aux), key=lambda mp: label_key(q, mp))

    vspecs: list[tuple[str, int, tuple[int, ...]]] = []   # (label, mult, visit seq)
    for i, mp in enumerate(mpaths, start=1):
        visits = [mp.source(q)] + [q.arrow(a).target for a in mp.arrows]
        vspecs.append((f"p{i}", 1, tuple(visits)))
    killed = {r.paths()[0].arrows for r in aux.relations}
    for v in sorted(q.vertices, key=lambda v: v.label):
        if v.id in p.special:
            continue
        ins = q.arrows_into(v.id)
        outs = q.arrows_from(v.id)
        leaf = ((len(ins) == 1 and not outs) or (len(outs) == 1 and not ins))
        through = (len(ins) == 1 and len(outs) == 1
                   and (ins[0].id, outs[0].id) not in killed)
        if leaf or through:
            vspecs.append((f"e{v.label}", 1, (v.id,)))
    dist_names = []
    for x in sorted(p.special):
        label = q.vertex(x).label
        vspecs.append((f"x{label}", 1, (x,)))
        dist_names.append(f"x{label}")

    slots: dict[int, list[tuple[int, int]]] = {}   # quiver vertex -> [(gvertex, pos)]
    for gi, (_, _, visits) in enumerate(vspecs):
        for pos, x in enumerate(visits):
            slots.setdefault(x, []).append((gi, pos))
    vertices = tuple(BrauerVertex(i, lab, m) for i, (lab, m, _) in enumerate(vspecs))
    edges = []
    order_entries: dict[int, dict[int, HalfEdge]] = {i: {} for i in range(len(vspecs))}
    for v in sorted(q.vertices, key=lambda v: v.label):
        got = slots.get(v.id, [])
        if len(got) != 2:
            raise UnsupportedClass(
                f"quiver vertex {q.vertex(v.id).label} fills {len(got)} slots; "
                "the construction expects exactly two")
        eid = len(edges)
        (g1, pos1), (g2, pos2) = got
        edges.append(BrauerEdge(eid, v.label, (g1, g2)))
        occ2 = 2 if g1 == g2 else 1
        order_entries[g1][pos1] = (eid, 1)
        order_entries[g2][pos2] = (eid, occ2)
    order = {i: tuple(order_entries[i][pos] for pos in sorted(order_entries[i]))
             for i in range(len(vspecs))}
    graph = BrauerGraph(vertices, tuple(edges), order)
    dist = frozenset(v.id for v in vertices if v.label in dist_names)
    return SkewBrauerGraph(graph, dist)


# ---------------------------------------------------------------------------
# representation type
# ---------------------------------------------------------------------------

def is_skew_brauer_tree(g: SkewBrauerGraph) -> Verdict:
    """Tree, multiplicity one everywhere, exactly one distinguished vertex."""
    check = validate_graph(g)
    return _tree_verdict(g) if check else check


def _tree_verdict(g: SkewBrauerGraph) -> Verdict:
    """``is_skew_brauer_tree`` on a graph that is already validated."""
    gr = g.graph
    if len(g.distinguished) != 1:
        return Verdict(False, "distinguished-count",
                       f"{len(g.distinguished)} distinguished vertices")
    if any(v.multiplicity != 1 for v in gr.vertices):
        return Verdict(False, "multiplicity", "a vertex has multiplicity > 1")
    if not _is_tree(gr):
        return Verdict(False, "tree", "the underlying graph is not a tree")
    return Verdict(True)


def _is_tree(gr: BrauerGraph) -> bool:
    if len(gr.edges) != len(gr.vertices) - 1:
        return False
    if any(e.is_loop for e in gr.edges):
        return False
    adj: dict[int, set[int]] = {v.id: set() for v in gr.vertices}
    for e in gr.edges:
        adj[e.ends[0]].add(e.ends[1])
        adj[e.ends[1]].add(e.ends[0])
    seen = set()
    stack = [gr.vertices[0].id] if gr.vertices else []
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        stack.extend(adj[x] - seen)
    return len(seen) == len(gr.vertices)


class Classification(NamedTuple):
    rep_type: str              # "Finite" | "Infinite"
    reason_code: str
    detail: str
    band_witness: Optional[str] = None

    @property
    def finite(self) -> bool:
        return self.rep_type == "Finite"


def classify_rep_type(g: SkewBrauerGraph) -> Classification:
    """Decision procedure for finite representation type."""
    check = validate_graph(g)
    if not check:
        raise UnsupportedClass(check.detail)
    gr = g.graph
    ndist = len(g.distinguished)
    # a two-edge path: a distinguished vertex has valency one, so it is a
    # leaf, and one or both leaves are distinguished
    if ndist and len(gr.edges) == 2 and len(gr.vertices) == 3 and _is_tree(gr):
        if ndist == 1:
            w = next(v for v in gr.vertices
                     if gr.valency(v.id) == 1 and v.id not in g.distinguished)
            if w.multiplicity == 1:
                return Classification(
                    "Finite", "brauer-tree-iso",
                    "two-edge graph with one distinguished leaf is a Brauer "
                    "tree algebra in disguise")
            q, cycles = brauer_quivers_with_cycles(gr)
            loop = next(c for c, _, _ in cycles if len(c) == 1)
            cyc = next(c for c, _, _ in cycles if len(c) == 2)
            gamma, alpha, beta = (q.arrow(a).label for a in loop.arrows + cyc.arrows)
            witness = f"{gamma}^-1 ({alpha}+)(+{beta})"
            return Classification(
                "Infinite", "band-module",
                "two-edge graph with a fat plain leaf carries a band module",
                witness)
        return Classification(
            "Infinite", "two-distinguished-two-edges",
            "both leaves distinguished: the algebra is the Brauer graph "
            "algebra of a four-cycle")
    if ndist >= 2:
        return Classification("Infinite", "multiple-distinguished",
                              "≥2 distinguished vertices")
    if ndist == 1:
        tree = _tree_verdict(g)
        if tree:
            return Classification("Finite", "skew-brauer-tree",
                                  "skew-Brauer tree")
        return Classification("Infinite", "not-skew-brauer-tree",
                              f"not a skew-Brauer tree: {tree.detail}")
    fat = [v for v in gr.vertices if v.multiplicity > 1]
    if _is_tree(gr) and len(fat) <= 1:
        return Classification("Finite", "classical-brauer-tree",
                              "Brauer tree with at most one fat vertex")
    return Classification("Infinite", "classical-not-brauer-tree",
                          "not a Brauer tree with at most one fat vertex")


# ---------------------------------------------------------------------------
# projectives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectiveLayers:
    top: str
    layers: tuple[tuple[str, ...], ...]
    socle: str

    @property
    def dimension(self) -> int:
        return sum(len(layer) for layer in self.layers)


def projective_layers(alg: SkewBrauerAlgebra, vertex: Union[str, int],
                      basis: Optional[PathBasis] = None) -> ProjectiveLayers:
    """Radical filtration of the projective at a quiver vertex.

    Layer k lists the composition factors of rad^k / rad^{k+1}, labelled
    by their sources.  Every normal form is a multiple of one basis path
    (see ``skewbrauer.basis``), so rad^k is spanned by the basis paths of
    ``PathBasis.depth`` at least k that end at the vertex, and layer k
    counts those of depth exactly k, one block (source, vertex) of
    ``PathBasis.blocks`` at a time.
    """
    if basis is None:
        basis = enumerate_basis(alg.algebra)
    q = alg.algebra.quiver
    try:
        vid = q.vertex_by_label(vertex).id if isinstance(vertex, str) else q.vertex(vertex).id
    except KeyError:
        raise UnknownVertex(f"no vertex {vertex}") from None
    blocks = basis.blocks()
    by_depth: dict[int, list[str]] = {}
    for src in sorted(q.vertices, key=lambda v: v.label):
        for p in blocks.get((src.id, vid), ()):
            by_depth.setdefault(basis.depth(p), []).append(src.label)
    # the stationary path at the vertex is in layer 0, so no projective is zero
    layers = tuple(tuple(by_depth.get(k, ())) for k in range(max(by_depth) + 1))
    return ProjectiveLayers(q.vertex(vid).label, layers, layers[-1][0])
