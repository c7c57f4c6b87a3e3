"""Combinatorial orbifold dissections: polygons with one boundary side each.

Surfaces are modelled purely combinatorially: a dissection is a list of
polygons, each a cyclic list of sides (arc references plus exactly one
BOUNDARY token).  Arrows of the extracted quiver follow the stored side
order: consecutive sides (s, t) within one boundary-free run give an
arrow s -> t.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .cartan import IntPoly, ONE
from .errors import (InvalidPosition, NotReflectable, SkewBrauerError,
                     TrivialPolygon, UnsupportedClass)
from .quiver import BoundQuiver, Path, Quiver, Relation, Verdict
from .skewgentle import (SgTuple, SkewGentlePresentation, close_paths,
                         loop_presentation)

BOUNDARY = "BOUNDARY"

ARC_KINDS = ("regular", "special", "pendant")


@dataclass(frozen=True)
class Arc:
    id: int
    label: str
    kind: str = "regular"

    def __post_init__(self):
        if self.kind not in ARC_KINDS:
            raise ValueError(f"unknown arc kind {self.kind}")


class Puncture(NamedTuple):
    label: str
    arcs: tuple[int, ...]


class OrbifoldDissection(NamedTuple):
    arcs: tuple[Arc, ...]
    polygons: tuple[tuple[Union[int, str], ...], ...]   # arc ids or BOUNDARY
    punctures: tuple[Puncture, ...] = ()

    def arc(self, key: Union[int, str]) -> Arc:
        """The arc with this id (an int) or label (a str)."""
        for a in self.arcs:
            if key == (a.label if isinstance(key, str) else a.id):
                return a
        raise InvalidPosition(f"no arc {key}")

    def run(self, polygon: int) -> tuple[int, ...]:
        """Sides of a polygon read cyclically starting after BOUNDARY."""
        sides = self.polygons[polygon]
        if BOUNDARY not in sides:
            raise SkewBrauerError(f"polygon {polygon} has no boundary side")
        if sides.count(BOUNDARY) > 1:
            raise SkewBrauerError(
                f"polygon {polygon} has {sides.count(BOUNDARY)} boundary sides")
        b = sides.index(BOUNDARY)
        return sides[b + 1:] + sides[:b]

    def is_trivial(self, polygon: int) -> bool:
        return len(self.polygons[polygon]) == 2


def validate_dissection(d: OrbifoldDissection) -> Verdict:
    ids = {a.id for a in d.arcs}
    counts = {a.id: 0 for a in d.arcs}
    for i, sides in enumerate(d.polygons):
        boundaries = sum(1 for s in sides if s == BOUNDARY)
        if boundaries != 1:
            return Verdict(False, "one-boundary",
                           f"polygon {i} has {boundaries} boundary sides")
        for s in sides:
            if s == BOUNDARY:
                continue
            if s not in ids:
                return Verdict(False, "unknown-arc", f"polygon {i} uses arc {s}")
            counts[s] += 1
    for a in d.arcs:
        want = 2 if a.kind == "regular" else 1
        if counts[a.id] != want:
            return Verdict(False, "occurrences",
                           f"{a.kind} arc {a.label} occurs {counts[a.id]} times, "
                           f"expected {want}")
    for p in d.punctures:
        for aid in p.arcs:
            if aid not in ids:
                return Verdict(False, "puncture", f"puncture {p.label} lists an unknown arc")
    return Verdict(True)


class _Angle(NamedTuple):
    polygon: int
    index: int          # gap after run position index
    source: int         # arc id
    target: int


def _angles(d: OrbifoldDissection) -> list[_Angle]:
    out = []
    for i in range(len(d.polygons)):
        run = d.run(i)
        for k in range(len(run) - 1):
            out.append(_Angle(i, k, run[k], run[k + 1]))
    return out


class DissectionQuiver(NamedTuple):
    """Extracted tuple data plus the angle bookkeeping used by moves."""
    quiver: Quiver
    relations: tuple[Relation, ...]
    special: frozenset[int]                  # quiver vertex ids
    angle_of_arrow: dict[int, _Angle]        # arrow id -> angle
    pendant_loop: dict[int, int]             # arc id -> arrow id


def quiver_from_dissection(d: OrbifoldDissection) -> DissectionQuiver:
    """Arcs become vertices; angles become arrows; relations by the transit rules.

    Special arcs are reported through ``special``; their loops and the
    transit relations at special arcs are left to the presentation layer,
    so the result is exactly the duplication-ready tuple data.
    """
    check = validate_dissection(d)
    if not check:
        raise UnsupportedClass(check.detail)
    vlabels = [a.label for a in sorted(d.arcs, key=lambda a: a.label)]
    angles = _angles(d)
    arrow_specs = []
    angle_for: dict[int, _Angle] = {}
    for ang in angles:
        label = f"a{ang.polygon}.{ang.index}"
        angle_for[len(arrow_specs)] = ang
        arrow_specs.append((label, d.arc(ang.source).label, d.arc(ang.target).label))
    pendant_loop: dict[int, int] = {}
    for a in sorted(d.arcs, key=lambda a: a.label):
        if a.kind == "pendant":
            pendant_loop[a.id] = len(arrow_specs)
            arrow_specs.append((f"f{a.label}", a.label, a.label))
    q = Quiver.build(vlabels, arrow_specs)
    special = frozenset(q.vertex_by_label(a.label).id
                        for a in d.arcs if a.kind == "special")

    rels: list[Relation] = []
    for i, first in angle_for.items():
        for j, second in angle_for.items():
            src_arrow = q.arrow(i)
            tgt_arrow = q.arrow(j)
            if src_arrow.target != tgt_arrow.source:
                continue
            mid_arc = d.arc(q.vertex(src_arrow.target).label)
            same_occurrence = (first.polygon == second.polygon
                               and second.index == first.index + 1)
            if not same_occurrence or mid_arc.kind == "pendant":
                rels.append(Relation.monomial(Path(src_arrow.source, (i, j))))
            # special-arc transits are left to loop_presentation and sg_ideal
    for aid, loop in pendant_loop.items():
        f = q.arrow(loop)
        rels.append(Relation.monomial(Path(f.source, (loop, loop))))
        # pendant loops compose with at most the flanking angles; transits
        # through other occurrences cannot exist (pendant arcs occur once)
    return DissectionQuiver(q, tuple(rels), special, angle_for, pendant_loop)


def skew_gentle_from_dissection(d: OrbifoldDissection) -> SkewGentlePresentation:
    """The non-admissible presentation: special loops on the dissection quiver."""
    dq = quiver_from_dissection(d)
    return loop_presentation(BoundQuiver(dq.quiver, dq.relations), dq.special)


class DissectionTuple(NamedTuple):
    """The duplication-ready tuple of the dissection's trivial extension."""
    quiver: Quiver
    monomials: tuple[Path, ...]
    special: frozenset[int]
    cycles: tuple[Path, ...]

    def as_sg_tuple(self) -> SgTuple:
        return SgTuple(self.quiver, self.monomials, self.special, self.cycles)


def trivext_tuple_from_dissection(d: OrbifoldDissection) -> DissectionTuple:
    """Close the maximal path of each polygon with angles by a new arrow."""
    dq = quiver_from_dissection(d)

    def polygon_path(i: int) -> Path:
        """The maximal path of polygon i, pendant loops inserted."""
        out: list[int] = []
        for aid, ang in sorted(((k, a) for k, a in dq.angle_of_arrow.items()
                                if a.polygon == i), key=lambda item: item[1].index):
            if not out and d.arc(ang.source).kind == "pendant":
                out.append(dq.pendant_loop[ang.source])
            out.append(aid)
            if d.arc(ang.target).kind == "pendant":
                out.append(dq.pendant_loop[ang.target])
        return Path(dq.quiver.arrow(out[0]).source, tuple(out))

    polygons = [i for i in range(len(d.polygons)) if len(d.run(i)) > 1]
    tup, _ = close_paths(
        dq.quiver, tuple(r.paths()[0] for r in dq.relations), dq.special,
        [polygon_path(i) for i in polygons], [f"B{i}" for i in polygons])
    return DissectionTuple(tup.quiver, tup.monomials, tup.special, tup.cycles)


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------

def contraction_addition(d: OrbifoldDissection, polygon: int,
                         angle: Optional[int] = None,
                         pendant: Optional[Union[int, str]] = None) -> OrbifoldDissection:
    """Relocate the polygon's boundary side to an angle gap or a pendant point."""
    check = validate_dissection(d)
    if not check:
        raise UnsupportedClass(check.detail)
    if not 0 <= polygon < len(d.polygons):
        raise InvalidPosition(f"no polygon {polygon}")
    if d.is_trivial(polygon):
        raise TrivialPolygon(f"polygon {polygon} is trivial")
    if (angle is None) == (pendant is None):
        raise InvalidPosition("give exactly one of angle or pendant")
    run = list(d.run(polygon))
    if pendant is not None:
        arc = d.arc(pendant)
        if arc.kind != "pendant" or arc.id not in run:
            raise InvalidPosition(
                f"arc {pendant} is not a pendant side of polygon {polygon}")
        pos = run.index(arc.id)
        new_sides = tuple(run[:pos + 1]) + (BOUNDARY,) + tuple(run[pos:])
        arcs = tuple(Arc(a.id, a.label, "regular") if a.id == arc.id else a
                     for a in d.arcs)
        polygons = tuple(new_sides if i == polygon else s
                         for i, s in enumerate(d.polygons))
        punctures = tuple(p for p in d.punctures if arc.id not in p.arcs)
        return OrbifoldDissection(arcs, polygons, punctures)
    # gaps 0 .. len(run)-2 are internal angles; gap len(run)-1 is the
    # boundary's current seat, so moving there is the identity
    if not 0 <= angle <= len(run) - 1:
        raise InvalidPosition(f"polygon {polygon} has no angle {angle}")
    new_sides = tuple(run[:angle + 1]) + (BOUNDARY,) + tuple(run[angle + 1:])
    polygons = tuple(new_sides if i == polygon else s
                     for i, s in enumerate(d.polygons))
    return OrbifoldDissection(d.arcs, polygons, d.punctures)


def geometric_reflection(d: OrbifoldDissection, arc: Union[int, str],
                         direction: str) -> OrbifoldDissection:
    """Reflection as a sequence of boundary moves, one per affected polygon.

    The moves realise the good cut whose auxiliary part consists of the
    arrows leaving (for ``minus``) or entering (for ``plus``) the arc's
    quiver vertex; polygons not meeting the vertex keep their boundary.
    """
    if direction not in ("minus", "plus"):
        raise ValueError("direction must be 'minus' or 'plus'")
    arc_obj = d.arc(arc)
    dq = quiver_from_dissection(d)
    q = dq.quiver
    vid = q.vertex_by_label(arc_obj.label).id
    if direction == "minus":
        if q.arrows_into(vid):
            raise NotReflectable(f"arc {arc_obj.label} is not a source")
        cut = [a for a in q.arrows_from(vid)]
    else:
        if q.arrows_from(vid):
            raise NotReflectable(f"arc {arc_obj.label} is not a sink")
        cut = [a for a in q.arrows_into(vid)]
    if not cut:
        raise NotReflectable(f"arc {arc_obj.label} meets no angle arrow")
    result = d
    for ar in cut:
        ang = dq.angle_of_arrow.get(ar.id)
        if ang is None:
            # pendant loops never occur: sources and sinks carry no loops
            raise NotReflectable(f"arrow {ar.label} is not an angle arrow")
        result = contraction_addition(result, ang.polygon, angle=ang.index)
    return result


def q_cartan_det_formula(d: OrbifoldDissection) -> IntPoly:
    """prod over punctures of (1 - (-q)^k), k = number of incident arcs.

    Pendant arcs contribute their endpoint puncture (k = 1) implicitly.
    """
    check = validate_dissection(d)
    if not check:
        raise UnsupportedClass(check.detail)
    ks = [len(p.arcs) for p in d.punctures]
    ks.extend(1 for a in d.arcs if a.kind == "pendant")
    result = ONE
    for k in ks:
        minus_q_k = IntPoly.q_power(k, (-1) ** k)
        result = result * (ONE - minus_q_k)
    return result
