"""Skew-gentle presentations: recognition, duplication, admissible form.

A skew-gentle algebra is handled in two presentations: the non-admissible
one (special loops f with f^2 = f) and the admissible one obtained by
duplicating the special vertices and writing each relation once per
sign class (``sg_ideal``).  The second is ``sg_bound_quiver`` of a tuple
(Q, monomials, Sp, no cycles), and carries that tuple as its
``sg_tuple``; ``gentle_base`` reads the auxiliary gentle algebra and its
special vertices back off it and checks that they are skew-gentle, and
``loop_presentation`` leads from that pair back to the first.

An ``SgTuple`` builds its duplicated quiver (``sgq``, the sign of
every vertex and arrow), its ideal (``ideal``), the signed powers c^m of
its cycles, one per sign class (``powers``), and every signed copy of
the cycles themselves (``signed_cycles``) once, on first use.  The
symmetrising form and the cuts of the skew-Brauer and trivial-extension
carriers read them there.
The presentation of ``sg_bound_quiver`` writes its relations, the
tuple's ``ideal``, on their first read, so a caller that reads only the
tuple (``gentle_base``, the good-cut quotient, ``trivial_extension``)
writes no sg relation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from typing import NamedTuple, Optional, Sequence

from .errors import LoopAtDistinguished, NotSkewGentle
from .quiver import (Arrow, BoundQuiver, Path, Quiver, Relation, Vertex,
                     canonical_rotation, cycle_rotations, is_locally_gentle)

SIGNS = ("+", "-")


class SgCheck(NamedTuple):
    """Outcome of the skew-gentle recognition, with identified data."""
    ok: bool
    condition: str = ""
    detail: str = ""
    special_vertices: tuple[str, ...] = ()
    special_loops: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


class SkewGentlePresentation(NamedTuple):
    """Non-admissible presentation: bound quiver plus identified Sp and S."""
    bound: BoundQuiver
    loops: dict[int, int]            # special vertex id -> loop arrow id

    @property
    def quiver(self) -> Quiver:
        return self.bound.quiver

    @property
    def special(self) -> frozenset[int]:
        """The special vertex ids."""
        return frozenset(self.loops)


def _idempotent_relation(x: int, f: int) -> Relation:
    """The relation f*f - f of a special loop f at x."""
    return Relation.difference(Path(x, (f, f)), Path(x, (f,)))


def _idempotent_loop(q: Quiver, r: Relation) -> Optional[int]:
    """The loop f when ``r`` is a multiple of f*f - f, else None."""
    if len(r.terms) != 2:
        return None
    (c1, short), (c2, long) = sorted(r.terms, key=lambda t: len(t[1]))
    f = short.arrows
    if len(f) == 1 and long.arrows == f * 2 and q.arrow(f[0]).is_loop and c1 + c2 == 0:
        return f[0]
    return None


def _classify_relations(bq: BoundQuiver):
    """Split relations into idempotent-loop pairs and quadratic monomials."""
    q = bq.quiver
    idem_loops: dict[int, Relation] = {}
    quads: list[Path] = []
    for r in bq.relations:
        f = _idempotent_loop(q, r)
        if f is not None:
            idem_loops[f] = r
        elif r.is_monomial and len(r.paths()[0]) == 2:
            quads.append(r.paths()[0])
        else:
            return None, None, r
    return idem_loops, quads, None


def condition_4(q: Quiver, x: int, loops: int = 0) -> str:
    """Why the special vertex x of ``q`` breaks condition 4, or "": x
    carries no loop but its ``loops`` special ones, and is the start or
    end of exactly one other arrow.  The transit through x is left to the
    caller."""
    label = q.vertex(x).label
    if sum(a.is_loop for a in q.arrows_from(x)) > loops:
        return f"there is another loop at the special vertex {label}"
    incoming = [a for a in q.arrows_into(x) if not a.is_loop]
    outgoing = [a for a in q.arrows_from(x) if not a.is_loop]
    if len(incoming) > 1 or len(outgoing) > 1 or not (incoming or outgoing):
        return f"special vertex {label} is not the start or end of exactly one arrow"
    return ""


def is_skew_gentle(bq: BoundQuiver) -> SgCheck:
    """Check the four defining conditions; identify Sp and the special loops."""
    q = bq.quiver
    idem_loops, quads, bad = _classify_relations(bq)
    if bad is not None:
        return SgCheck(False, "relation-shape",
                       f"relation {bad.label(q)} is neither f*f - f nor a quadratic monomial")
    special = {q.arrow(a).source for a in idem_loops}
    if bq.special_vertices and set(bq.special_vertices) != special:
        return SgCheck(False, "marking-mismatch",
                       "special-vertex marks disagree with the f*f - f loops")
    for p in quads:
        if any(a in idem_loops for a in p.arrows):
            return SgCheck(False, "mixed-relation",
                           f"quadratic relation {p.label(q)} uses a special loop")
    for x in special:
        fault = condition_4(q, x, loops=1)
        if fault:
            return SgCheck(False, "condition-4", fault)
        # at most one arrow in and one out: the transit when there are both
        transit = tuple(a.id for a in q.arrows_into(x) + q.arrows_from(x) if not a.is_loop)
        if len(transit) == 2 and not any(p.arrows == transit for p in quads):
            return SgCheck(False, "condition-4",
                           f"the transit through special vertex {q.vertex(x).label} "
                           "is not a relation")
    plain = tuple(a for a in q.arrows if a.id not in idem_loops)
    gentle_part = BoundQuiver(
        Quiver(q.vertices, plain),
        tuple(Relation.monomial(p) for p in quads))
    local = is_locally_gentle(gentle_part)
    if not local:
        return SgCheck(False, f"gentle-part:{local.condition}", local.detail)
    return SgCheck(True, "", "",
                   tuple(sorted(q.vertex(x).label for x in special)),
                   tuple(sorted(q.arrow(a).label for a in idem_loops)))


def make_presentation(bq: BoundQuiver) -> SkewGentlePresentation:
    check = is_skew_gentle(bq)
    if not check:
        raise NotSkewGentle(f"{check.condition}: {check.detail}")
    q = bq.quiver
    loops = {}
    for lab in check.special_loops:
        a = q.arrow_by_label(lab)
        loops[a.source] = a.id
    return SkewGentlePresentation(bq, loops)


def auxiliary_gentle(p: SkewGentlePresentation) -> BoundQuiver:
    """Delete the special loops; keep quadratic relations avoiding Sp transits."""
    q = p.quiver
    loop_ids = set(p.loops.values())
    plain = tuple(a for a in q.arrows if a.id not in loop_ids)
    sub = Quiver(q.vertices, plain)
    kept = []
    for r in p.bound.relations:
        if not r.is_monomial:
            continue
        path = r.paths()[0]
        if len(path) != 2 or any(a in loop_ids for a in path.arrows):
            continue
        mid = q.arrow(path.arrows[0]).target
        if mid in p.special:
            continue
        kept.append(Relation.monomial(path))
    return BoundQuiver(sub, tuple(kept))


def loop_presentation(aux: BoundQuiver, special: frozenset[int]) -> SkewGentlePresentation:
    """The inverse of ``auxiliary_gentle``: special loops back on ``aux``.

    Each special vertex x gets a loop ``f<x>`` (primed while the label is
    taken) with f*f = f, and each transit through x becomes a monomial;
    these relations follow those of ``aux``.
    """
    q = aux.quiver
    taken = {v.label for v in q.vertices} | {a.label for a in q.arrows}
    arrows = list(q.arrows)
    rels = list(aux.relations)
    first_id = max((a.id for a in q.arrows), default=-1) + 1
    for fid, x in enumerate(sorted(special), start=first_id):
        label = f"f{q.vertex(x).label}"
        while label in taken:
            label += "'"
        taken.add(label)
        arrows.append(Arrow(fid, label, x, x))
        rels.append(_idempotent_relation(x, fid))
        rels.extend(Relation.monomial(Path(a.source, (a.id, b.id)))
                    for a in q.arrows_into(x) for b in q.arrows_from(x))
    return make_presentation(BoundQuiver(Quiver(q.vertices, tuple(arrows)),
                                         tuple(rels), frozenset(special)))


# ---------------------------------------------------------------------------
# vertex duplication
# ---------------------------------------------------------------------------

class SgQuiver(NamedTuple):
    """Quiver after duplication, with origin bookkeeping both ways.

    ``arrow_origins`` maps each arrow to its base arrow id and its source
    and target signs; the lookups key a signed copy by the base id and
    its signs.
    """
    quiver: Quiver
    arrow_origins: dict[int, tuple[int, str, str]]
    vertex_lookup: dict[tuple[int, str], int]
    arrow_lookup: dict[tuple[int, str, str], int]


def sg_quiver(q: Quiver, special: frozenset[int]) -> SgQuiver:
    """Duplicate the distinguished vertices; arrows fan out over sign choices."""
    for a in q.arrows:
        if a.is_loop and a.source in special:
            raise LoopAtDistinguished(q.arrow(a.id).label)
    vertices: list[Vertex] = []
    vlook: dict[tuple[int, str], int] = {}
    for v in sorted(q.vertices, key=lambda v: v.label):
        for s in _signs(special, v.id):
            vlook[(v.id, s)] = len(vertices)
            vertices.append(Vertex(len(vertices), f"{v.label}{s}"))
    arrows: list[Arrow] = []
    aorig: dict[int, tuple[int, str, str]] = {}
    alook: dict[tuple[int, str, str], int] = {}
    for a in sorted(q.arrows, key=lambda a: a.label):
        for ss in _signs(special, a.source):
            for ts in _signs(special, a.target):
                alook[(a.id, ss, ts)] = len(arrows)
                aorig[len(arrows)] = (a.id, ss, ts)
                arrows.append(Arrow(len(arrows), f"{ss}{a.label}{ts}",
                                    vlook[a.source, ss], vlook[a.target, ts]))
    return SgQuiver(Quiver(tuple(vertices), tuple(arrows)), aorig, vlook, alook)


def _tuple_fault(adm: BoundQuiver) -> str:
    """Why ``adm`` is not the sg-bound quiver of its tuple, or "": its
    quiver must be the tuple's ``sgq.quiver`` and its relations the tuple's
    sg relations (``SgTuple.ideal``), up to order and scalars; the same
    ideal written with other generators is refused too.  Relations not
    read yet are the tuple's own (``sg_bound_quiver``), so "" is then
    answered without writing them."""
    t = adm.sg_tuple
    if t is None:
        return "no duplication bookkeeping on this presentation"
    q = adm.quiver
    if q != t.sgq.quiver:
        return "the quiver is not the duplicated quiver of its tuple"
    if "relations" not in adm.__dict__ or adm.relations == t.ideal:
        return ""
    have, want = ({r.canonical() for r in rels} for rels in (adm.relations, t.ideal))
    for r in adm.relations:
        if r.canonical() not in want:
            return f"relation {r.label(q)} is not an sg relation of its tuple"
    for r in t.ideal:
        if r.canonical() not in have:
            return f"sg relation {r.label(q)} of its tuple is missing"
    return ""


def gentle_base(adm: BoundQuiver) -> tuple[BoundQuiver, frozenset[int]]:
    """The inverse of ``sg_bound_quiver`` on a tuple with no cycles: the
    gentle base of ``adm`` and its special vertices, read off its tuple.

    ``adm`` must be the sg-bound quiver of its tuple (``_tuple_fault``).
    The base is the tuple's own quiver, with its ids, and its relations
    are the tuple's monomials.  The pair is checked as
    ``make_presentation`` checks a loop presentation, with its messages:
    condition 4 at each special vertex, then that the base is locally
    gentle.
    """
    fault = _tuple_fault(adm)
    if fault:
        raise NotSkewGentle(fault)
    t = adm.sg_tuple
    if t.cycles:
        raise NotSkewGentle("the tuple of this presentation has distinguished cycles")
    for x in sorted(t.special):
        fault = condition_4(t.quiver, x)
        if fault:
            raise NotSkewGentle(f"condition-4: {fault}")
    base = BoundQuiver(t.quiver, tuple(map(Relation.monomial, t.monomials)))
    local = is_locally_gentle(base)
    if not local:
        raise NotSkewGentle(f"gentle-part:{local.condition}: {local.detail}")
    return base, t.special


def _visit_vertices(q: Quiver, p: Path) -> list[int]:
    return [p.base, *(q.arrow(a).target for a in p.arrows)]


def _decorate(sgq: SgQuiver, p: Path, signs: Sequence[str]) -> Path:
    """The signed copy of a base path under a full sign assignment."""
    look = sgq.arrow_lookup
    return Path(sgq.vertex_lookup[p.base, signs[0]],
                tuple(look[aid, signs[i], signs[i + 1]] for i, aid in enumerate(p.arrows)))


def _signs(special: frozenset[int], v: int) -> tuple[str, ...]:
    """The signs of the copies of the base vertex v."""
    return SIGNS if v in special else ("",)


def _end_signs(q: Quiver, special: frozenset[int], p: Path) -> list[tuple[str, ...]]:
    """The sign assignments of the visits of a base path with "+" at every
    distinguished vertex inside it: one for each pair of signs at its two
    ends."""
    visits = _visit_vertices(q, p)
    inside = tuple("+" if v in special else "" for v in visits[1:-1])
    return [(s, *inside, e) for s in _signs(special, visits[0])
            for e in _signs(special, visits[-1])]


@dataclass(frozen=True)
class SgTuple:
    """Input of the sg-ideal construction: (Q, monomials, Sp, distinguished
    cycles), each cycle with a multiplicity; no multiplicities means all 1."""
    quiver: Quiver
    monomials: tuple[Path, ...]
    special: frozenset[int]
    cycles: tuple[Path, ...]      # one rotation representative per cycle
    multiplicities: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.multiplicities:
            object.__setattr__(self, "multiplicities", (1,) * len(self.cycles))
        if len(self.multiplicities) != len(self.cycles):
            raise ValueError("one multiplicity per distinguished cycle")
        q = self.quiver
        for a in q.arrows:
            if a.is_loop and a.source in self.special:
                raise LoopAtDistinguished(a.label)
        for m in self.monomials:
            if len(m) == 2 and q.arrow(m.arrows[0]).target in self.special:
                raise ValueError(
                    f"quadratic monomial {m.label(q)} transits a distinguished vertex")
        for x in self.special:
            through = [c for c in self.cycles
                       if x in _visit_vertices(q, c)]
            if len(through) > 1:
                raise ValueError(
                    "two distinguished cycles through one distinguished vertex")

    @cached_property
    def sgq(self) -> SgQuiver:
        """The duplicated quiver of ``(quiver, special)``."""
        return sg_quiver(self.quiver, self.special)

    @cached_property
    def ideal(self) -> tuple[Relation, ...]:
        """``sg_ideal`` of the tuple."""
        return sg_ideal(self)

    @cached_property
    def powers(self) -> tuple[tuple[Path, tuple[Path, ...], tuple[Path, ...]], ...]:
        """For each rotation rot of each cycle, m its multiplicity: rot,
        one signed copy of rot^m for each sign at its start ("+" first),
        with "+" at every distinguished vertex inside, and at a distinguished start
        each of those copies closed with the other sign.

        A copy stands for its sign class: every signed copy of rot^m with
        the same start and end signs is equal to it in the algebra (see
        ``sg_ideal``)."""
        out = []
        for c, m in zip(self.cycles, self.multiplicities):
            for rot in cycle_rotations(self.quiver, c.arrows):
                power = Path(rot.base, rot.arrows * m)
                copies, flipped = [], []
                for signs in _end_signs(self.quiver, self.special, power):
                    (copies if signs[0] == signs[-1] else flipped).append(
                        _decorate(self.sgq, power, signs))
                out.append((rot, tuple(copies), tuple(flipped)))
        return tuple(out)

    @cached_property
    def signed_cycles(self) -> tuple[tuple[Path, ...], ...]:
        """For each cycle c (not c^m): every signed copy of c, one for each
        choice of signs at its distinguished visits, at its canonical
        rotation in the sg quiver, in ``Path.sort_key`` order."""
        sq, q = self.sgq.quiver, self.quiver
        out = []
        for c in self.cycles:
            options = [_signs(self.special, v) for v in _visit_vertices(q, c)[:-1]]
            out.append(tuple(sorted(
                (canonical_rotation(sq, _decorate(self.sgq, c, period + period[:1]).arrows)
                 for period in product(*options)), key=Path.sort_key)))
        return tuple(out)


def close_paths(q: Quiver, monomials: Sequence[Path], special: frozenset[int],
                paths: Sequence[Path], labels: Sequence[str]) -> tuple[SgTuple, tuple[int, ...]]:
    """The tuple of a trivial extension: each path closed by a new arrow.

    The new arrow ``labels[i]`` (primed while the label is taken) runs
    from the target of ``paths[i]`` back to its source.  It composes only
    with the last and the first arrow of its path: every other length-two
    path through it joins the monomials.  Returns the tuple and the new
    arrow ids, in the order of ``paths``.
    """
    taken = {a.label for a in q.arrows}
    arrows = list(q.arrows)
    first_id = max((a.id for a in q.arrows), default=-1) + 1
    for aid, (p, label) in enumerate(zip(paths, labels), start=first_id):
        while label in taken:
            label += "'"
        taken.add(label)
        arrows.append(Arrow(aid, label, p.target(q), p.source(q)))
    tq = Quiver(q.vertices, tuple(arrows))
    new_ids = tuple(range(first_id, first_id + len(paths)))
    mono = list(monomials)
    cycles = []
    for p, beta in zip(paths, new_ids):
        b = tq.arrow(beta)
        cycles.append(canonical_rotation(tq, p.arrows + (beta,)))
        mono.extend(Path(b.source, (beta, c.id)) for c in tq.arrows_from(b.target)
                    if (c.id,) != p.arrows[:1])
        mono.extend(Path(c.source, (c.id, beta)) for c in tq.arrows_into(b.source)
                    if (c.id,) != p.arrows[-1:])
    return (SgTuple(tq, tuple(dict.fromkeys(mono)), special, tuple(cycles)),
            new_ids)


def sg_ideal(t: SgTuple) -> tuple[Relation, ...]:
    """Relation families a-d and the cycle kills, one signed copy per sign
    class.  Each family ranges over the signs at the two ends of its word,
    with "+" at the distinguished vertices inside (``powers``); type a
    names both signs at its inside vertex, and the kill, a copy of rot^m
    followed by its first arrow, is written once per sign at its end.

    This generates the ideal of every family over all sign decorations.
    Two signed copies of one base word with equal end signs differ by
    sign flips at distinguished visits inside it, and a flip at the visit
    x of a transit a*b adds u*(a+b+ - a-b-)*v, a type a relation times
    the paths u before it and v after it.  So the copies are equal modulo
    type a, and one lies in the ideal exactly when the one written here
    does.  The completed rewriting system, and so the basis and every
    normal form, depend only on the ideal (Bergman's diamond lemma).
    """
    q, sgq, special = t.quiver, t.sgq, t.special
    rels: list[Relation] = []

    # Type a: commutation through each distinguished transit
    for a in q.arrows:
        for b in q.arrows_from(a.target) if a.target in special else ():
            base = Path(a.source, (a.id, b.id))
            rels.extend(Relation.difference(_decorate(sgq, base, (s, "+", e)),
                                            _decorate(sgq, base, (s, "-", e)))
                        for s, _, e in _end_signs(q, special, base))

    # Type b: chains of the copies of rot^m at each non-distinguished start
    by_start: dict[int, set[Path]] = {}
    for rot, copies, _ in t.powers:
        if rot.base not in special:
            by_start.setdefault(rot.base, set()).update(copies)
    for v in sorted(by_start):
        insts = sorted(by_start[v], key=Path.sort_key)
        rels.extend(Relation.difference(p, r) for p, r in zip(insts, insts[1:]))

    # Type c, type d, then the kills.  No binomial above repeats: type a
    # is fixed by its transit and end signs, and type b chains distinct
    # paths.  A monomial can: a closed loop B of multiplicity one has the
    # kill B*B, which close_paths also writes as a type c monomial.  Keep
    # the first.
    kills = (Path(p.base, p.arrows + (sgq.arrow_lookup[rot.arrows[0], s, e],))
             for rot, copies, _ in t.powers
             for p, s in zip(copies, _signs(special, rot.base))
             for e in _signs(special, q.arrow(rot.arrows[0]).target))
    monomials = dict.fromkeys(chain(
        (_decorate(sgq, mono, signs) for mono in t.monomials
         for signs in _end_signs(q, special, mono)),
        (p for _, _, flipped in t.powers for p in flipped),
        kills))
    rels.extend(Relation.monomial(p) for p in monomials)
    return tuple(rels)


def sg_bound_quiver(t: SgTuple) -> BoundQuiver:
    """The sg-bound quiver algebra of a tuple, as an admissible
    presentation that carries the tuple.  Its relations are ``t.ideal``,
    left out of the instance and written on their first read (see
    ``BoundQuiver``), so a reader of the tuple alone writes none."""
    bq = BoundQuiver(t.sgq.quiver, sg_tuple=t)
    del bq.__dict__["relations"]
    return bq


def admissible_presentation(p: SkewGentlePresentation) -> BoundQuiver:
    """Duplicated presentation of the auxiliary tuple (Q', I', Sp, {})."""
    aux = auxiliary_gentle(p)
    mono = tuple(r.paths()[0] for r in aux.relations)
    t = SgTuple(aux.quiver, mono, p.special, ())
    return sg_bound_quiver(t)

