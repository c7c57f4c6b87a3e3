"""Trivial extensions, cuts, quotients and reflections."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .basis import PathBasis, enumerate_basis
from .errors import (NotSkewGentle, NotSourceOrSink, UnknownArrow,
                     UnknownVertex, UnsupportedClass)
from .quiver import (BoundQuiver, Path, Quiver, Relation, _gentle_maximal_paths,
                     dedupe_relations, is_locally_gentle, label_key)
from .skewgentle import (SgTuple, SkewGentlePresentation, _decorate, _end_signs,
                         _tuple_fault, auxiliary_gentle, close_paths,
                         gentle_base, loop_presentation, sg_bound_quiver)


# ---------------------------------------------------------------------------
# trivial extensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrivialExtension:
    """Trivial extension data: the algebra, its tuple and the new arrows;
    the elementary cycles are ``sg_tuple.signed_cycles``."""
    algebra: BoundQuiver
    source: BoundQuiver
    new_arrows: dict[int, Path]          # new arrow id -> socle basis path (in source)
    sg_tuple: SgTuple                    # the gentle base closed by new arrows

    @property
    def quiver(self) -> Quiver:
        return self.algebra.quiver


def trivial_extension(a: BoundQuiver, basis: Optional[PathBasis] = None) -> TrivialExtension:
    """Build T(A) as the sg-bound quiver of its tuple.

    The base is a gentle algebra: ``a`` itself when it carries no
    sg-tuple and no special marks, else its ``gentle_base``.  The tuple
    is ``_closed_tuple`` of the base.  Only the plain branch builds a
    basis, that of ``a`` (``basis``, if given, stands for it): the build
    decides ``NotAdmissible`` and finite dimension first.  A tuple's
    gentle base needs none, since its maximal paths are its arrow chains.
    ``new_arrows`` maps each signed copy of ``B<i>`` to the copy of
    its maximal path in ``a``: the signs of the new arrow's copy at the
    ends, "+" at special vertices inside, looked up in the duplicated
    quiver of ``a``'s tuple, whose ids the base keeps.  The copies are
    read off ``sgq.arrow_lookup`` of T's tuple, the sign at the new
    arrow's target first, then the sign at its source.  So the build
    writes no signed power of T's tuple, and ``algebra`` (its
    ``sg_bound_quiver``) writes its relations only when they are read.
    """
    own = a.sg_tuple
    if own is None:
        if basis is None:
            enumerate_basis(a)
        local = is_locally_gentle(a)
        if not local:
            raise UnsupportedClass(
                "socle basis via maximal paths needs a gentle or admissible "
                f"skew-gentle presentation; {local.condition}: {local.detail} "
                f"({', '.join(local.witnesses)})")
        if a.special_vertices:
            label = min(a.quiver.vertex(x).label for x in a.special_vertices)
            raise NotSkewGentle(f"special vertex {label} is marked on a presentation "
                                "with no duplication bookkeeping")
        base, special = a, frozenset()
    else:
        base, special = gentle_base(a)
    q = base.quiver
    paths, tup, betas = _closed_tuple(base, special)
    look = tup.sgq.arrow_lookup
    new_arrows: dict[int, Path] = {}
    for p, beta in zip(paths, betas):
        # beta runs from the target of p back to its source
        for signs in _end_signs(q, special, p):
            new_arrows[look[beta, signs[-1], signs[0]]] = p if own is None else _decorate(
                own.sgq, p, signs)
    return TrivialExtension(sg_bound_quiver(tup), a, new_arrows, tup)


def _closed_tuple(base: BoundQuiver, special: frozenset[int]):
    """The maximal paths of a locally gentle base, its arrow chains
    (``_gentle_maximal_paths``), in ``label_key`` order, so by labels and
    not by ids, and the tuple of T with the new arrow ids
    (``close_paths``): the i-th path closed by ``B<i>``."""
    q = base.quiver
    paths = sorted(_gentle_maximal_paths(base), key=lambda p: label_key(q, p))
    return (paths, *close_paths(q, tuple(r.paths()[0] for r in base.relations), special,
                                paths, [f"B{i}" for i in range(1, len(paths) + 1)]))


# ---------------------------------------------------------------------------
# cut sets and quotients
# ---------------------------------------------------------------------------

class CutSet(NamedTuple):
    arrows: frozenset[int]

    def labels(self, q: Quiver) -> tuple[str, ...]:
        return tuple(sorted(q.arrow(a).label for a in self.arrows))


def is_admissible_cut(t, arrow_ids: Iterable[int]) -> bool:
    """Exactly one arrow of the set in each elementary cycle, counted with multiplicity."""
    ids = set(arrow_ids)
    known = {a.id for a in t.algebra.quiver.arrows}
    if not ids <= known:
        raise UnknownArrow(str(sorted(ids - known)))
    return all(_hits(ids, p) == 1 for copies in t.sg_tuple.signed_cycles for p in copies)


def enumerate_admissible_cuts(t, limit: Optional[int] = None) -> Iterator[CutSet]:
    """Backtracking enumeration of admissible cuts, deduplicated, on the
    signed cycles in ``Path.sort_key`` order (the ids of the duplicated
    quiver are assigned from labels)."""
    cycles = sorted((p for copies in t.sg_tuple.signed_cycles for p in copies),
                    key=Path.sort_key)
    for arrows in _cuts(t.algebra.quiver, cycles, limit):
        yield CutSet(arrows)


def _cuts(q: Quiver, order: Sequence[Path],
          limit: Optional[int] = None) -> list[frozenset[int]]:
    """Arrow sets meeting each cycle exactly once, counted with multiplicity,
    found depth first through the cycles in the order given; at most
    ``limit`` of them, which must not be negative."""
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    out: dict[frozenset[int], None] = {}
    # depth first, candidates in label order, on an explicit stack: a
    # nested function that calls itself would be a reference cycle
    stack = [(0, frozenset())]
    while stack and (limit is None or len(out) < limit):
        i, chosen = stack.pop()
        if i == len(order):
            out.setdefault(chosen)
            continue
        c = order[i]
        have = _hits(chosen, c)
        if have == 1:
            stack.append((i + 1, chosen))
        elif have == 0:
            cands = sorted({a for a in c.arrows if c.arrows.count(a) == 1},
                           key=lambda a: q.arrow(a).label)
            stack.extend((i + 1, chosen | {a}) for a in reversed(cands)
                         if all(_hits(chosen | {a}, order[j]) <= 1 for j in range(i)))
    return list(out)


def _hits(chosen: Iterable[int], c: Path) -> int:
    return sum(c.arrows.count(a) for a in chosen)


def _signed_copies(t: TrivialExtension, base_ids: set[int]) -> CutSet:
    """Every arrow of T whose base arrow is in ``base_ids``."""
    origins = t.sg_tuple.sgq.arrow_origins
    return CutSet(frozenset(a for a, (base, _, _) in origins.items() if base in base_ids))


def enumerate_good_cuts(t: TrivialExtension,
                        limit: Optional[int] = None) -> Iterator[CutSet]:
    """The signed copies of the admissible cuts of the base cycles, found
    through the cycles in ``label_key`` order: each signed copy of a cycle
    carries the base arrows of the cycle, so these are admissible cuts
    too."""
    tq = t.sg_tuple.quiver
    cycles = sorted(t.sg_tuple.cycles, key=lambda c: label_key(tq, c))
    for base_cut in _cuts(tq, cycles, limit):
        yield _signed_copies(t, base_cut)


def minimalize_relations(q: Quiver, relations: Iterable[Relation]) -> tuple[Relation, ...]:
    """Syntactic cleanup: kill terms with dead subpaths, drop implied monomials."""
    rels = dedupe_relations(relations)
    changed = True
    while changed:
        changed = False
        monomials = {r.paths()[0].arrows for r in rels if r.is_monomial}

        def dead(arrows: tuple[int, ...]) -> bool:
            return any(arrows[i:i + n] in monomials
                       for n in {len(m) for m in monomials}
                       for i in range(len(arrows) - n + 1)
                       if (n, i) != (len(arrows), 0))

        out = []
        for r in rels:
            if r.is_monomial:
                if dead(r.paths()[0].arrows):
                    changed = True
                    continue
                out.append(r)
                continue
            keep = [(c, p) for c, p in r.terms
                    if not (dead(p.arrows) or p.arrows in monomials)]
            if len(keep) < len(r.terms):
                changed = True
                if keep:
                    out.append(Relation.monomial(keep[0][1])
                               if len(keep) == 1 else Relation(tuple(keep)))
            else:
                out.append(r)
        rels = dedupe_relations(out)
    return tuple(rels)


def quotient_by_cut(t, cut: Union[CutSet, Iterable[int]]) -> BoundQuiver:
    """The quotient of ``t.algebra`` by the cut arrows.

    When ``t.algebra`` is the sg-bound quiver of its tuple ``t.sg_tuple``
    (``_tuple_fault``), every cycle of the tuple has multiplicity one and
    the cut is the signed copies of a set of base arrows that meets each
    cycle once, the quotient is the sg-bound quiver of ``_cut_tuple``.
    Its arrows are numbered afresh.  Any other cut or algebra pushes the
    relations down (``_pushdown``), and that quotient carries no tuple.
    """
    q = t.algebra.quiver
    ids = set(cut.arrows if isinstance(cut, CutSet) else cut)
    known = {a.id for a in q.arrows}
    if not ids <= known:
        raise UnknownArrow(str(sorted(ids - known)))
    tup = t.sg_tuple
    if not _tuple_fault(t.algebra) and all(m == 1 for m in tup.multiplicities):
        base_cut = {tup.sgq.arrow_origins[a][0] for a in ids}
        if (_signed_copies(t, base_cut).arrows == ids
                and all(_hits(base_cut, c) == 1 for c in tup.cycles)):
            return sg_bound_quiver(_cut_tuple(tup, base_cut))
    return _pushdown(t.algebra, ids)


def _cut_tuple(tup: SgTuple, base_cut: set[int]) -> SgTuple:
    """The tuple less the base arrows ``base_cut``, with the monomials that
    avoid them, the same special vertices and no cycles."""
    q = tup.quiver
    kept = Quiver(q.vertices, tuple(a for a in q.arrows if a.id not in base_cut))
    return SgTuple(kept, tuple(m for m in tup.monomials if base_cut.isdisjoint(m.arrows)),
                   tup.special, ())


def _pushdown(algebra: BoundQuiver, ids: set[int]) -> BoundQuiver:
    """Delete the arrows ``ids`` and push the relations down by syntax."""
    q = algebra.quiver
    sub = Quiver(q.vertices, tuple(a for a in q.arrows if a.id not in ids))
    new_rels = []
    for r in algebra.relations:
        terms = [(c, p) for c, p in r.terms if not set(p.arrows) & ids]
        if len(terms) == 1:
            new_rels.append(Relation.monomial(terms[0][1]))
        elif terms:
            new_rels.append(Relation(tuple(terms)))
    return BoundQuiver(sub, minimalize_relations(sub, new_rels), algebra.special_vertices)


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------

def reflect(p: SkewGentlePresentation, vertex: Union[int, str],
            direction: str) -> SkewGentlePresentation:
    """Reflection at a source (minus) or sink (plus) of the auxiliary quiver.

    Realised as the loop presentation of the cut tuple of the trivial
    extension (``_cut_tuple``), whose base cut holds the arrows leaving
    (entering) the vertex; cycles not meeting the vertex are cut at their
    new arrow.
    """
    if direction not in ("minus", "plus"):
        raise ValueError("direction must be 'minus' or 'plus'")
    aux = auxiliary_gentle(p)
    q = aux.quiver
    try:
        v = q.vertex_by_label(vertex) if isinstance(vertex, str) else q.vertex(vertex)
    except KeyError:
        raise UnknownVertex(f"no vertex {vertex}") from None
    if direction == "minus":
        if q.arrows_into(v.id):
            raise NotSourceOrSink(f"{v.label} is not a source of the auxiliary quiver")
        boundary = {a.id for a in q.arrows_from(v.id)}
    else:
        if q.arrows_from(v.id):
            raise NotSourceOrSink(f"{v.label} is not a sink of the auxiliary quiver")
        boundary = {a.id for a in q.arrows_into(v.id)}

    _, tup, new = _closed_tuple(aux, p.special)
    # a cycle enters a source only through its new arrow, and leaves a sink
    # only through it, so it holds at most one boundary arrow
    chosen: set[int] = set()
    for c in tup.cycles:
        chosen |= set(c.arrows) & boundary or set(c.arrows).intersection(new)
    cut = _cut_tuple(tup, chosen)
    base = BoundQuiver(cut.quiver, tuple(map(Relation.monomial, cut.monomials)))
    return loop_presentation(base, cut.special)
