"""Quivers, paths, relations and bound quivers.

Paths compose left to right: in ``p = a1 a2 ... al`` the target of each
arrow is the source of the next, and ``p * q`` means "p first, then q".
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    from .skewgentle import SgTuple

Coeff = Fraction
ONE = Fraction(1)


@dataclass(frozen=True)
class Vertex:
    id: int
    label: str


@dataclass(frozen=True)
class Arrow:
    id: int
    label: str
    source: int
    target: int

    @property
    def is_loop(self) -> bool:
        return self.source == self.target


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[Vertex, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        vids = {v.id for v in self.vertices}
        if len(vids) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        if len({v.label for v in self.vertices}) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        if len({a.label for a in self.arrows}) != len(self.arrows):
            raise ValueError("duplicate arrow labels")
        if len({a.id for a in self.arrows}) != len(self.arrows):
            raise ValueError("duplicate arrow ids")
        for a in self.arrows:
            if a.source not in vids or a.target not in vids:
                raise ValueError(f"arrow {a.label} has endpoint outside the vertex set")

    @staticmethod
    def build(vertex_labels: Sequence[str],
              arrow_specs: Sequence[tuple[str, str, str]]) -> "Quiver":
        """Construct from labels; arrow specs are (label, source label, target label)."""
        vertices = tuple(Vertex(i, lab) for i, lab in enumerate(vertex_labels))
        index = {v.label: v.id for v in vertices}
        arrows = tuple(Arrow(i, lab, index[s], index[t])
                       for i, (lab, s, t) in enumerate(arrow_specs))
        return Quiver(vertices, arrows)

    # -- lookups -----------------------------------------------------------
    def vertex(self, vid: int) -> Vertex:
        return self._vmap[vid]

    def vertex_by_label(self, label: str) -> Vertex:
        for v in self.vertices:
            if v.label == label:
                return v
        raise KeyError(label)

    def arrow(self, aid: int) -> Arrow:
        return self._amap[aid]

    def arrow_by_label(self, label: str) -> Arrow:
        for a in self.arrows:
            if a.label == label:
                return a
        raise KeyError(label)

    @cached_property
    def _vmap(self) -> dict[int, Vertex]:
        return {v.id: v for v in self.vertices}

    @cached_property
    def _amap(self) -> dict[int, Arrow]:
        return {a.id: a for a in self.arrows}

    @cached_property
    def _adjacency(self) -> tuple[dict[int, tuple[Arrow, ...]], dict[int, tuple[Arrow, ...]]]:
        out: dict[int, list[Arrow]] = {}
        into: dict[int, list[Arrow]] = {}
        for a in self.arrows:
            out.setdefault(a.source, []).append(a)
            into.setdefault(a.target, []).append(a)
        return ({v: tuple(arrs) for v, arrs in out.items()},
                {v: tuple(arrs) for v, arrs in into.items()})

    def arrows_from(self, vid: int) -> tuple[Arrow, ...]:
        return self._adjacency[0].get(vid, ())

    def arrows_into(self, vid: int) -> tuple[Arrow, ...]:
        return self._adjacency[1].get(vid, ())


@dataclass(frozen=True)
class Path:
    """A path in a quiver; an empty arrow tuple is the stationary path at ``base``."""
    base: int                      # source vertex id (meaningful for all paths)
    arrows: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.arrows)

    @property
    def is_stationary(self) -> bool:
        return not self.arrows

    def source(self, q: Quiver) -> int:
        return q.arrow(self.arrows[0]).source if self.arrows else self.base

    def target(self, q: Quiver) -> int:
        return q.arrow(self.arrows[-1]).target if self.arrows else self.base

    def label(self, q: Quiver) -> str:
        if not self.arrows:
            return f"e_{q.vertex(self.base).label}"
        return "*".join(q.arrow(a).label for a in self.arrows)

    def sort_key(self) -> tuple:
        return (len(self.arrows), self.arrows, self.base)


def stationary(vid: int) -> Path:
    return Path(vid, ())


def cycle_rotations(q: Quiver, arrows: Sequence[int]) -> tuple[Path, ...]:
    """Every rotation of a closed path, the given one first."""
    arrows = tuple(arrows)
    return tuple(Path(q.arrow(arrows[i]).source, arrows[i:] + arrows[:i])
                 for i in range(len(arrows)))


def canonical_rotation(q: Quiver, arrows: Sequence[int]) -> Path:
    """Rotation with lexicographically least arrow-label sequence."""
    arrow = q._amap
    return min(cycle_rotations(q, arrows),
               key=lambda p: tuple(arrow[a].label for a in p.arrows))


def label_key(q: Quiver, p: Path) -> tuple:
    """``Path.sort_key`` read through labels: (length, arrow labels,
    base-vertex label).  Where ids are in label order, the two agree."""
    return (len(p.arrows), tuple(q.arrow(a).label for a in p.arrows), q.vertex(p.base).label)


@dataclass(frozen=True)
class Relation:
    """A monomial or two-term relation; all terms share source and target.

    With at most two terms, a normal form has at most one (see ``basis``)."""
    terms: tuple[tuple[Coeff, Path], ...]

    def __post_init__(self):
        if not 1 <= len(self.terms) <= 2:
            raise ValueError("relations have one or two terms")

    @staticmethod
    def monomial(p: Path) -> "Relation":
        return Relation(((ONE, p),))

    @staticmethod
    def difference(p: Path, r: Path) -> "Relation":
        return Relation(((ONE, p), (-ONE, r)))

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def paths(self) -> tuple[Path, ...]:
        return tuple(p for _, p in self.terms)

    def max_term_length(self) -> int:
        return max(len(p) for _, p in self.terms)

    def label(self, q: Quiver) -> str:
        parts = []
        for c, p in self.terms:
            s = p.label(q)
            if not parts:
                parts.append(s if c == 1 else f"{c}*{s}")
            else:
                parts.append(f"- {s}" if c == -1 else f"+ {s}" if c == 1 else f"+ {c}*{s}")
        return " ".join(parts)

    def canonical(self) -> "Relation":
        """Sorted terms with the leading coefficient normalised to 1."""
        return Relation(_canonical_terms(self.terms))


def _canonical_terms(terms: tuple[tuple[Coeff, Path], ...]) -> tuple[tuple[Coeff, Path], ...]:
    """The terms sorted by path, largest first, and scaled to lead 1."""
    if len(terms) == 2 and terms[1][1].sort_key() > terms[0][1].sort_key():
        terms = terms[::-1]
    lead = terms[0][0]
    if lead == 1:
        return terms
    if lead == -1:
        return tuple((-c, p) for c, p in terms)
    return tuple((c / lead, p) for c, p in terms)


def dedupe_relations(relations: Iterable[Relation]) -> list[Relation]:
    """The first of the relations equal up to a scalar and term order."""
    seen = set()
    out = []
    for r in relations:
        key = _canonical_terms(r.terms)
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


@dataclass(frozen=True)
class BoundQuiver:
    """A quiver with relation generators and optional special-vertex markings.

    ``sg_tuple`` is the tuple (Q, monomials, Sp, cycles) of a presentation
    that ``sg_bound_quiver`` built; its ``sgq`` holds the sign of every
    vertex and arrow.  Any other presentation carries None.
    """
    quiver: Quiver
    relations: tuple[Relation, ...] = ()
    special_vertices: frozenset[int] = frozenset()
    # equality compares it, the hash leaves it out
    sg_tuple: Optional[SgTuple] = field(default=None, hash=False)

    def __post_init__(self):
        arrow = self.quiver._amap
        for r in self.relations:
            ends = {(arrow[p.arrows[0]].source, arrow[p.arrows[-1]].target)
                    if p.arrows else (p.base, p.base) for _, p in r.terms}
            if len(ends) != 1:
                raise ValueError(f"relation terms disagree on endpoints: {r.label(self.quiver)}")
        vids = {v.id for v in self.quiver.vertices}
        if not set(self.special_vertices) <= vids:
            raise ValueError("special vertex outside the quiver")

    @cached_property
    def admissible(self) -> bool:
        """Whether every relation term has length at least two."""
        return all(len(p) >= 2 for r in self.relations for p in r.paths())

    def relabelled(self, **kwargs) -> "BoundQuiver":
        return replace(self, **kwargs)


class Verdict(NamedTuple):
    """Outcome of a structural check, with the first violation when it fails."""
    ok: bool
    condition: str = ""
    detail: str = ""
    witnesses: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _monomial_pairs(bq: BoundQuiver) -> set[tuple[int, int]]:
    """Arrow-id pairs (a, b) with a*b a quadratic monomial relation."""
    pairs = set()
    for r in bq.relations:
        if r.is_monomial and len(r.paths()[0]) == 2:
            a, b = r.paths()[0].arrows
            pairs.add((a, b))
    return pairs


def is_locally_gentle(bq: BoundQuiver) -> Verdict:
    """Check conditions (1)-(4) of the gentle definition, minus admissibility."""
    q = bq.quiver
    for r in bq.relations:
        if not (r.is_monomial and len(r.paths()[0]) == 2):
            return Verdict(False, "quadratic-monomial-ideal",
                           "relation is not a quadratic monomial",
                           (r.label(q),))
    for v in q.vertices:
        for kind, arrs in (("in", q.arrows_into(v.id)), ("out", q.arrows_from(v.id))):
            if len(arrs) > 2:
                return Verdict(False, "at-most-two-arrows",
                               f"vertex {v.label} has more than two {kind}-arrows",
                               tuple(a.label for a in arrs))
    killed = _monomial_pairs(bq)
    for a in q.arrows:
        followers = [b for b in q.arrows_from(a.target)]
        dead = [b for b in followers if (a.id, b.id) in killed]
        alive = [b for b in followers if (a.id, b.id) not in killed]
        if len(dead) > 1:
            return Verdict(False, "unique-killed-successor",
                           f"arrow {a.label} has two killed successors",
                           tuple(b.label for b in dead))
        if len(alive) > 1:
            return Verdict(False, "unique-alive-successor",
                           f"arrow {a.label} has two surviving successors",
                           tuple(b.label for b in alive))
        preceders = [b for b in q.arrows_into(a.source)]
        dead = [b for b in preceders if (b.id, a.id) in killed]
        alive = [b for b in preceders if (b.id, a.id) not in killed]
        if len(dead) > 1:
            return Verdict(False, "unique-killed-predecessor",
                           f"arrow {a.label} has two killed predecessors",
                           tuple(b.label for b in dead))
        if len(alive) > 1:
            return Verdict(False, "unique-alive-predecessor",
                           f"arrow {a.label} has two surviving predecessors",
                           tuple(b.label for b in alive))
    return Verdict(True)


def _gentle_maximal_paths(bq: BoundQuiver) -> tuple[Path, ...]:
    """The maximal paths of a locally gentle ``bq``, read off its arrows.

    Each arrow has at most one successor b, and at most one predecessor,
    with a*b not a monomial, so the maximal paths are the maximal chains
    of such arrows, plus the stationary path at each vertex with no
    arrows.  An arrow on no chain lies on a cycle with no monomial; then
    the basis decides (``enumerate_basis`` raises ``InfiniteDimensional``
    with its witness).
    """
    q = bq.quiver
    killed = _monomial_pairs(bq)
    after = {a.id: b.id for a in q.arrows for b in q.arrows_from(a.target)
             if (a.id, b.id) not in killed}
    out = [Path(v.id) for v in q.vertices
           if not q.arrows_from(v.id) and not q.arrows_into(v.id)]
    chained = 0
    followed = set(after.values())
    for a in q.arrows:
        if a.id in followed:
            continue
        word = [a.id]
        while word[-1] in after:
            word.append(after[word[-1]])
        out.append(Path(a.source, tuple(word)))
        chained += len(word)
    if chained < len(q.arrows):
        from .basis import enumerate_basis, maximal_paths
        return maximal_paths(bq, enumerate_basis(bq))
    return tuple(out)


def is_gentle(bq: BoundQuiver) -> Verdict:
    """Locally gentle plus finite dimension of the quotient (admissibility)."""
    from .basis import enumerate_basis
    from .errors import InfiniteDimensional

    local = is_locally_gentle(bq)
    if not local:
        return local
    if not bq.admissible:
        return Verdict(False, "admissible", "presentation is not admissible")
    try:
        enumerate_basis(bq)
    except InfiniteDimensional:
        return Verdict(False, "admissible", "quotient is infinite dimensional")
    return Verdict(True)
