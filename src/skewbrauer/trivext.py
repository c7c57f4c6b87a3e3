"""Trivial extensions, elementary cycles, cuts, repetitive windows, reflections."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .basis import PathBasis, enumerate_basis, maximal_paths
from .errors import (NotSkewGentle, NotSkewGentleSource, NotSourceOrSink,
                     UnknownArrow, UnsupportedClass)
from .quiver import (Arrow, BoundQuiver, Path, Quiver, Relation,
                     canonical_rotation, cycle_rotations, dedupe_relations,
                     is_locally_gentle, stationary)
from .skewgentle import (SkewGentlePresentation, admissible_presentation,
                         auxiliary_gentle, make_presentation)


# ---------------------------------------------------------------------------
# socle and elementary cycles
# ---------------------------------------------------------------------------

def _is_supported_class(a: BoundQuiver) -> bool:
    if a.admissible and a.vertex_origins is not None:
        return True
    return bool(a.admissible and is_locally_gentle(a))


def socle_basis(a: BoundQuiver, basis: PathBasis) -> tuple[Path, ...]:
    """Maximal paths, which form a socle bimodule basis for the supported classes."""
    if not _is_supported_class(a):
        raise UnsupportedClass(
            "socle basis via maximal paths needs a gentle or admissible "
            "skew-gentle presentation")
    return maximal_paths(a, basis)


@dataclass(frozen=True)
class ElementaryCycle:
    """A cycle (maximal-path representative followed by its new arrow).

    ``path`` is the canonical rotation: lexicographically least sequence
    of arrow labels.  ``new_arrow`` is the id of the unique added arrow.
    """
    path: Path
    new_arrow: int
    weight: Fraction = Fraction(1)
    multiplicity: int = 1       # elementary cycles never repeat

    def __len__(self) -> int:
        return len(self.path)

    def occurrences(self, arrow_id: int) -> int:
        return self.path.arrows.count(arrow_id)


@dataclass(frozen=True)
class TrivialExtension:
    """Trivial extension data: the new algebra, the new arrows, the cycles."""
    algebra: BoundQuiver
    source: BoundQuiver
    new_arrows: dict[int, Path]          # new arrow id -> socle basis path (in source)
    cycles: tuple[ElementaryCycle, ...]

    @property
    def quiver(self) -> Quiver:
        return self.algebra.quiver


def _sign_of_vertex(a: BoundQuiver, vid: int) -> str:
    if a.vertex_origins is None:
        return ""
    return a.vertex_origins.get(vid, ("", ""))[1]


def _shadow_label(a: BoundQuiver, p: Path) -> str:
    """Sign-erased label of a path, used to group variants of one class."""
    q = a.quiver
    if not p.arrows:
        base = (a.vertex_origins or {}).get(p.base, (q.vertex(p.base).label, ""))[0]
        return f"e_{base}"
    parts = []
    for aid in p.arrows:
        if a.arrow_origins is not None and aid in a.arrow_origins:
            parts.append(a.arrow_origins[aid][0])
        else:
            parts.append(q.arrow(aid).label)
    return "*".join(parts)


def trivial_extension(a: BoundQuiver, basis: Optional[PathBasis] = None) -> TrivialExtension:
    """Build T(A): one new arrow per socle basis path, plus the relation ideal.

    The ideal is generated by the input relations, the minimal paths not
    contained in any elementary cycle, and the same-supplement segment
    differences of elementary cycles.
    """
    if basis is None:
        basis = enumerate_basis(a)
    q = a.quiver
    socle = socle_basis(a, basis)

    taken = {ar.label for ar in q.arrows}
    new_arrows: dict[int, Path] = {}
    arrows = list(q.arrows)
    new_origins = {}
    next_id = max((ar.id for ar in q.arrows), default=-1) + 1
    for i, p in enumerate(sorted(socle, key=Path.sort_key), start=1):
        label = f"B{i}"
        while label in taken:
            label += "'"
        taken.add(label)
        aid = next_id
        next_id += 1
        arrows.append(Arrow(aid, label, p.target(q), p.source(q)))
        new_arrows[aid] = p
        if a.vertex_origins is not None:
            new_origins[aid] = (f"b[{_shadow_label(a, p)}]",
                                _sign_of_vertex(a, p.target(q)),
                                _sign_of_vertex(a, p.source(q)))
    tq = Quiver(q.vertices, tuple(arrows))

    # elementary cycles: one per pair (new arrow, alive path in the class)
    cycles: list[ElementaryCycle] = []
    alive = basis.alive_paths()
    for aid, p in new_arrows.items():
        for w in alive:
            if w.source(q) != p.source(q) or w.target(q) != p.target(q):
                continue
            weight = basis.reduce(w).get(p, Fraction(0))
            if weight:
                cyc = canonical_rotation(tq, w.arrows + (aid,))
                cycles.append(ElementaryCycle(cyc, aid, weight))
    cycles.sort(key=lambda c: c.path.sort_key())

    relations: list[Relation] = list(a.relations)
    relations.extend(_non_elementary_kills(tq, cycles))
    relations.extend(_segment_differences(tq, cycles))
    relations = dedupe_relations(relations)

    algebra = BoundQuiver(tq, tuple(relations), a.special_vertices, True,
                          vertex_origins=a.vertex_origins,
                          arrow_origins=(dict(a.arrow_origins or {}) | new_origins
                                         if a.vertex_origins is not None else None))
    return TrivialExtension(algebra, a, new_arrows, tuple(cycles))


def _windows(cycles: Sequence[ElementaryCycle]) -> set[tuple[int, ...]]:
    out: set[tuple[int, ...]] = set()
    for c in cycles:
        word = c.path.arrows
        double = word + word
        for length in range(1, len(word) + 1):
            for start in range(len(word)):
                out.add(double[start:start + length])
    return out


def _non_elementary_kills(tq: Quiver, cycles: Sequence[ElementaryCycle]) -> list[Relation]:
    """Minimal paths not contained in any elementary cycle."""
    covered = _windows(cycles)
    for ar in tq.arrows:
        if (ar.id,) not in covered:
            raise UnsupportedClass(
                f"arrow {ar.label} lies on no elementary cycle")
    out = []
    for w in sorted(covered, key=lambda t: (len(t), t)):
        last_target = tq.arrow(w[-1]).target
        for ar in tq.arrows_from(last_target):
            ext = w + (ar.id,)
            if ext in covered:
                continue
            if ext[1:] in covered:
                out.append(Relation.monomial(
                    Path(tq.arrow(ext[0]).source, ext)))
    return out


def _segment_differences(tq: Quiver, cycles: Sequence[ElementaryCycle]) -> list[Relation]:
    """omega(C') rho - omega(C) rho' for same-supplement segments of cycles."""
    insts = []
    for c in cycles:
        for rot in cycle_rotations(tq, c.path.arrows):
            insts.append((rot, c.weight))
    out = []
    for i in range(len(insts)):
        r1, w1 = insts[i]
        for j in range(i + 1, len(insts)):
            r2, w2 = insts[j]
            if r1.source(tq) != r2.source(tq):
                continue
            for k in range(0, min(len(r1), len(r2))):
                # shared supplement q = the last k arrows
                if k and r1.arrows[-k:] != r2.arrows[-k:]:
                    break
                rho1 = r1.arrows[:len(r1) - k]
                rho2 = r2.arrows[:len(r2) - k]
                if not rho1 or not rho2 or rho1 == rho2:
                    continue
                p1 = Path(tq.arrow(rho1[0]).source, rho1)
                p2 = Path(tq.arrow(rho2[0]).source, rho2)
                if p1.target(tq) != p2.target(tq):
                    continue
                out.append(Relation(((w2, p1), (-w1, p2))))
    return out


def elementary_cycles(t: TrivialExtension) -> tuple[ElementaryCycle, ...]:
    """All elementary cycles, canonical rotations, one per (new arrow, class path)."""
    return t.cycles


# ---------------------------------------------------------------------------
# cut sets and quotients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutSet:
    arrows: frozenset[int]
    kind: str = "admissible"        # "admissible" | "good"

    def labels(self, q: Quiver) -> tuple[str, ...]:
        return tuple(sorted(q.arrow(a).label for a in self.arrows))


def is_admissible_cut(t, arrow_ids: Iterable[int]) -> bool:
    """Exactly one arrow of the set in each elementary cycle, counted with multiplicity."""
    ids = set(arrow_ids)
    known = {a.id for a in t.algebra.quiver.arrows}
    if not ids <= known:
        raise UnknownArrow(str(sorted(ids - known)))
    for c in t.cycles:
        if sum(c.occurrences(a) for a in ids) != 1:
            return False
    return True


def enumerate_admissible_cuts(t, limit: Optional[int] = None) -> Iterator[CutSet]:
    """Backtracking enumeration of admissible cuts, deduplicated and sorted."""
    q = t.algebra.quiver
    order = sorted(t.cycles, key=lambda c: c.path.sort_key())
    results: set[frozenset[int]] = set()
    out: list[frozenset[int]] = []

    def count(chosen: frozenset[int], c: ElementaryCycle) -> int:
        return sum(c.occurrences(a) for a in chosen)

    def rec(i: int, chosen: frozenset[int]):
        if limit is not None and len(out) >= limit:
            return
        if i == len(order):
            if chosen not in results:
                results.add(chosen)
                out.append(chosen)
            return
        c = order[i]
        have = count(chosen, c)
        if have > 1:
            return
        if have == 1:
            rec(i + 1, chosen)
            return
        cands = sorted({a for a in c.path.arrows if c.occurrences(a) == 1},
                       key=lambda a: q.arrow(a).label)
        for a in cands:
            nxt = chosen | {a}
            if all(count(nxt, order[j]) <= 1 for j in range(i)):
                rec(i + 1, nxt)

    rec(0, frozenset())
    for arrows in out:
        yield CutSet(arrows, "admissible")


def is_sign_closed(algebra: BoundQuiver, arrow_ids: Iterable[int]) -> bool:
    """Whether the set is a union of complete sign-variant groups."""
    if algebra.arrow_origins is None:
        return True
    ids = set(arrow_ids)
    groups: dict[str, set[int]] = {}
    for a in algebra.quiver.arrows:
        base = algebra.arrow_origins.get(a.id, (a.label, "", ""))[0]
        groups.setdefault(base, set()).add(a.id)
    for base, members in groups.items():
        inter = ids & members
        if inter and inter != members:
            return False
    return True


def _recover_presentation(source: BoundQuiver) -> SkewGentlePresentation:
    if source.vertex_origins is None:
        raise NotSkewGentleSource("the source carries no sign structure")
    return collapse_presentation(source)


def good_closure(t: TrivialExtension, aux_te: TrivialExtension,
                 d_prime: CutSet) -> CutSet:
    """Sign closure of an auxiliary-level cut inside the full trivial extension."""
    aq = aux_te.algebra.quiver
    bases = set()
    for aid in d_prime.arrows:
        if aid in aux_te.new_arrows:
            p = aux_te.new_arrows[aid]
            bases.add(f"b[{p.label(aux_te.source.quiver)}]")
        else:
            bases.add(aq.arrow(aid).label)
    closure = set()
    origins = t.algebra.arrow_origins or {}
    for a in t.algebra.quiver.arrows:
        base = origins.get(a.id, (a.label, "", ""))[0]
        if base in bases:
            closure.add(a.id)
    return CutSet(frozenset(closure), "good")


def enumerate_good_cuts(t: TrivialExtension,
                        limit: Optional[int] = None) -> Iterator[CutSet]:
    """Sign closures of the admissible cuts of the auxiliary trivial extension."""
    if t.source.vertex_origins is None:
        if t.source.special_vertices:
            raise NotSkewGentleSource("the source carries no sign structure")
        for cut in enumerate_admissible_cuts(t, limit=limit):
            yield CutSet(cut.arrows, "good")
        return
    pres = _recover_presentation(t.source)
    aux = auxiliary_gentle(pres)
    aux_te = trivial_extension(aux)
    count = 0
    for d_prime in enumerate_admissible_cuts(aux_te):
        if limit is not None and count >= limit:
            return
        closure = good_closure(t, aux_te, d_prime)
        if not is_admissible_cut(t, closure.arrows):
            raise NotSkewGentleSource(
                "sign closure of an auxiliary cut is not an admissible cut; "
                "the sign bookkeeping is inconsistent")
        count += 1
        yield closure


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
                    out.append(Relation(tuple((Fraction(1), p) for _, p in keep))
                               if len(keep) == 1 else Relation(tuple(keep)))
            else:
                out.append(r)
        rels = dedupe_relations(out)
    return tuple(rels)


def quotient_by_cut(t, cut: Union[CutSet, Iterable[int]]) -> BoundQuiver:
    """Delete the cut arrows and push the relations to the quotient presentation."""
    algebra = t.algebra
    q = algebra.quiver
    ids = set(cut.arrows if isinstance(cut, CutSet) else cut)
    known = {a.id for a in q.arrows}
    if not ids <= known:
        raise UnknownArrow(str(sorted(ids - known)))
    kept_arrows = tuple(a for a in q.arrows if a.id not in ids)
    sub = Quiver(q.vertices, kept_arrows)
    new_rels = []
    for r in algebra.relations:
        terms = [(c, p) for c, p in r.terms if not set(p.arrows) & ids]
        if not terms:
            continue
        new_rels.append(Relation(tuple(terms)))
    new_rels = minimalize_relations(sub, new_rels)
    ao = None
    if algebra.arrow_origins is not None:
        ao = {a.id: algebra.arrow_origins[a.id] for a in kept_arrows
              if a.id in algebra.arrow_origins}
    return BoundQuiver(sub, new_rels, algebra.special_vertices, True,
                       vertex_origins=algebra.vertex_origins, arrow_origins=ao)


# ---------------------------------------------------------------------------
# collapse of a duplicated presentation back to the non-admissible form
# ---------------------------------------------------------------------------

def collapse_presentation(adm: BoundQuiver) -> SkewGentlePresentation:
    """Reconstruct the non-admissible presentation from sign bookkeeping."""
    if adm.vertex_origins is None:
        raise NotSkewGentle("no duplication bookkeeping on this presentation")
    q = adm.quiver
    vgroups: dict[str, dict[str, int]] = {}
    for v in q.vertices:
        base, sign = adm.vertex_origins.get(v.id, (v.label, ""))
        vgroups.setdefault(base, {})[sign] = v.id
    for base, group in vgroups.items():
        if set(group) not in ({""}, {"+", "-"}):
            raise NotSkewGentle(f"vertex group {base} is not a sign pair")
    special_bases = {b for b, g in vgroups.items() if set(g) == {"+", "-"}}

    agroups: dict[str, dict[tuple[str, str], Arrow]] = {}
    origins = adm.arrow_origins or {}
    for a in q.arrows:
        base, ss, ts = origins.get(a.id, (a.label, "", ""))
        agroups.setdefault(base, {})[(ss, ts)] = a
    vlabels = sorted(vgroups)
    arrow_specs = []
    arrow_bases = []
    for base in sorted(agroups):
        group = agroups[base]
        sample = next(iter(group.values()))
        src_base = adm.vertex_origins.get(sample.source, (q.vertex(sample.source).label, ""))[0]
        tgt_base = adm.vertex_origins.get(sample.target, (q.vertex(sample.target).label, ""))[0]
        want_s = ("+", "-") if src_base in special_bases else ("",)
        want_t = ("+", "-") if tgt_base in special_bases else ("",)
        if set(group) != {(s, t) for s in want_s for t in want_t}:
            raise NotSkewGentle(f"arrow group {base} misses sign variants")
        arrow_specs.append((base, src_base, tgt_base))
        arrow_bases.append(base)
    loop_specs = []
    for base in sorted(special_bases):
        lab = f"f{base}"
        while any(lab == s[0] for s in arrow_specs) or lab in vlabels:
            lab += "'"
        loop_specs.append((lab, base, base))
    collapsed = Quiver.build(vlabels, arrow_specs + loop_specs)
    special_ids = frozenset(collapsed.vertex_by_label(b).id for b in special_bases)
    loops = {collapsed.vertex_by_label(b).id: collapsed.arrow_by_label(l).id
             for (l, b, _) in loop_specs}

    basis = enumerate_basis(adm)
    relations: list[Relation] = []
    for (lab, b, _) in loop_specs:
        f = collapsed.arrow_by_label(lab)
        relations.append(Relation.difference(
            Path(f.source, (f.id, f.id)), Path(f.source, (f.id,))))
    for a in collapsed.arrows:
        if a.id in loops.values():
            continue
        for b in collapsed.arrows:
            if b.id in loops.values() or a.target != b.source:
                continue
            mid_base = collapsed.vertex(a.target).label
            if mid_base in special_bases:
                relations.append(Relation.monomial(Path(a.source, (a.id, b.id))))
                continue
            # all decorated copies must agree on vanishing
            a_group = agroups[a.label]
            b_group = agroups[b.label]
            verdicts = set()
            for (ss, ts), ar in a_group.items():
                for (ss2, ts2), br in b_group.items():
                    if ts != ss2 or ar.target != br.source:
                        continue
                    verdicts.add(basis.is_zero(Path(ar.source, (ar.id, br.id))))
            if verdicts == {True}:
                relations.append(Relation.monomial(Path(a.source, (a.id, b.id))))
            elif verdicts == {False}:
                continue
            elif verdicts:
                raise NotSkewGentle(
                    f"transit {a.label}*{b.label} vanishes for some signs only")
    bq = BoundQuiver(collapsed, tuple(relations), special_ids,
                     False if special_ids else None)
    return make_presentation(bq)


# ---------------------------------------------------------------------------
# repetitive windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepetitiveWindow:
    """A finite slice of the repetitive algebra with its connecting arrows."""
    algebra: BoundQuiver
    connectors: dict[int, tuple[Path, int]]   # arrow id -> (maximal path, level)


def _window_relations(a: BoundQuiver, mpaths: Sequence[Path],
                      n_min: int, n_max: int):
    q = a.quiver
    levels = range(n_min, n_max + 1)
    vlabels = [f"{v.label}[{n}]" for n in levels for v in
               sorted(q.vertices, key=lambda v: v.label)]
    arrow_specs: list[tuple[str, str, str]] = []
    for n in levels:
        for ar in sorted(q.arrows, key=lambda x: x.label):
            arrow_specs.append((f"{ar.label}[{n}]",
                                f"{q.vertex(ar.source).label}[{n}]",
                                f"{q.vertex(ar.target).label}[{n}]"))
    conn_specs = []
    for n in levels:
        if n + 1 > n_max:
            continue
        for k, p in enumerate(mpaths, start=1):
            conn_specs.append(((f"c{k}[{n}]",
                                f"{q.vertex(p.target(q)).label}[{n}]",
                                f"{q.vertex(p.source(q)).label}[{n + 1}]"),
                               (p, n)))
    wq = Quiver.build(vlabels, arrow_specs + [c[0] for c in conn_specs])
    connectors = {}
    for (lab, _, _), (p, n) in conn_specs:
        connectors[wq.arrow_by_label(lab).id] = (p, n)
    return wq, connectors


def _lift(wq: Quiver, q: Quiver, p: Path, n: int) -> Path:
    if not p.arrows:
        return stationary(wq.vertex_by_label(f"{q.vertex(p.base).label}[{n}]").id)
    arrows = tuple(wq.arrow_by_label(f"{q.arrow(a).label}[{n}]").id for a in p.arrows)
    return Path(wq.arrow(arrows[0]).source, arrows)


def repetitive_window(a: BoundQuiver, n_min: int, n_max: int) -> RepetitiveWindow:
    """Levels ``n_min .. n_max`` of the repetitive algebra of ``a``.

    Connecting arrows with either endpoint outside the window are dropped,
    and so is every relation with a term leaving the window.
    """
    if n_min > n_max:
        raise ValueError("empty window")
    q = a.quiver
    if a.admissible:
        basis = enumerate_basis(a)
        mpaths = sorted(maximal_paths(a, basis), key=Path.sort_key)
    else:
        pres = make_presentation(a)
        from .skewgentle import sp_maximal_paths
        mpaths = sorted(sp_maximal_paths(pres), key=Path.sort_key)
    wq, connectors = _window_relations(a, mpaths, n_min, n_max)
    rels: list[Relation] = []

    # copies of the base relations at each level
    for n in range(n_min, n_max + 1):
        for r in a.relations:
            rels.append(Relation(tuple((c, _lift(wq, q, p, n)) for c, p in r.terms)))

    conn_at: dict[tuple[int, int], int] = {}
    for aid, (p, n) in connectors.items():
        conn_at[(mpaths.index(p), n)] = aid

    def prefix(p: Path, k: int) -> tuple[int, ...]:
        return p.arrows[:k]

    def suffix(p: Path, k: int) -> tuple[int, ...]:
        return p.arrows[len(p) - k:]

    for (k, n), cid in conn_at.items():
        p = mpaths[k]
        conn = wq.arrow(cid)
        # kills on the left: arrows into t(p)[n] other than the last arrow of p
        for ar in wq.arrows_into(conn.source):
            last = suffix(p, 1)
            if last and ar.label == f"{q.arrow(last[0]).label}[{n}]":
                continue
            rels.append(Relation.monomial(Path(ar.source, (ar.id, cid))))
        # kills on the right: arrows out of s(p)[n+1] other than the first of p
        for br in wq.arrows_from(conn.target):
            first = prefix(p, 1)
            if first and br.label == f"{q.arrow(first[0]).label}[{n + 1}]":
                continue
            rels.append(Relation.monomial(Path(conn.source, (cid, br.id))))
        # overruns: (suffix a of p)[n] conn (prefix b)[n+1] with a + b = len(p) + 1
        for length_a in range(1, len(p) + 1):
            length_b = len(p) + 1 - length_a
            if length_b < 1 or length_b > len(p):
                continue
            u = suffix(p, length_a)
            v = prefix(p, length_b)
            arr = (tuple(wq.arrow_by_label(f"{q.arrow(x).label}[{n}]").id for x in u)
                   + (cid,)
                   + tuple(wq.arrow_by_label(f"{q.arrow(x).label}[{n + 1}]").id for x in v))
            rels.append(Relation.monomial(Path(wq.arrow(arr[0]).source, arr)))
        # two connectors separated by a shared alive middle segment
        for (j, n2), cid2 in conn_at.items():
            if n2 != n + 1:
                continue
            pj = mpaths[j]
            for m in range(0, min(len(p), len(pj)) + 1):
                w = prefix(p, m)
                if w != suffix(pj, m):
                    continue
                if m == 0 and p.source(q) != pj.target(q):
                    continue
                mid = tuple(wq.arrow_by_label(f"{q.arrow(x).label}[{n + 1}]").id
                            for x in w)
                arr = (cid,) + mid + (cid2,)
                rels.append(Relation.monomial(Path(wq.arrow(arr[0]).source, arr)))

    # shared-middle commutations between full paths
    for (k, n), cid in conn_at.items():
        p = mpaths[k]
        for (j, n2), cid2 in conn_at.items():
            if n2 != n or (j, cid2) < (k, cid):
                continue
            pj = mpaths[j]
            for s1 in range(0, len(p) + 1):
                for e1 in range(s1, len(p) + 1):
                    mid1 = p.arrows[s1:e1]
                    for s2 in range(0, len(pj) + 1):
                        for e2 in range(s2, len(pj) + 1):
                            if pj.arrows[s2:e2] != mid1:
                                continue
                            if k == j and (s1, e1) == (s2, e2):
                                continue
                            # matching middles must share endpoints in the quiver
                            left1 = p.arrows[:s1]
                            right1 = p.arrows[e1:]
                            left2 = pj.arrows[:s2]
                            right2 = pj.arrows[e2:]
                            if not mid1:
                                v1 = (q.arrow(p.arrows[s1]).source if s1 < len(p)
                                      else p.target(q))
                                v2 = (q.arrow(pj.arrows[s2]).source if s2 < len(pj)
                                      else pj.target(q))
                                if v1 != v2:
                                    continue
                            t1 = (suffix(p, len(p) - e1), cid, prefix(p, s1))
                            t2 = (suffix(pj, len(pj) - e2), cid2, prefix(pj, s2))
                            if t1 == t2:
                                continue
                            def assemble(tr, lev):
                                u, c, v = tr
                                arr = (tuple(wq.arrow_by_label(f"{q.arrow(x).label}[{lev}]").id for x in u)
                                       + (c,)
                                       + tuple(wq.arrow_by_label(f"{q.arrow(x).label}[{lev + 1}]").id for x in v))
                                return Path(wq.arrow(arr[0]).source, arr)
                            path1 = assemble(t1, n)
                            path2 = assemble(t2, n)
                            if (path1.source(wq) == path2.source(wq)
                                    and path1.target(wq) == path2.target(wq)
                                    and path1 != path2):
                                rels.append(Relation.difference(path1, path2))

    rels = dedupe_relations(rels)
    flag = all(len(pp) >= 2 for r in rels for pp in r.paths())
    algebra = BoundQuiver(wq, tuple(rels), frozenset(), flag)
    return RepetitiveWindow(algebra, connectors)


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------

def reflect(p: SkewGentlePresentation, vertex: Union[int, str],
            direction: str) -> SkewGentlePresentation:
    """Reflection at a source (minus) or sink (plus) of the auxiliary quiver.

    Realised as the quotient of the trivial extension by the good cut whose
    auxiliary cut holds the arrows leaving (entering) the vertex; cycles not
    meeting the vertex are cut at their new arrow.
    """
    if direction not in ("minus", "plus"):
        raise ValueError("direction must be 'minus' or 'plus'")
    aux = auxiliary_gentle(p)
    q = aux.quiver
    vid = q.vertex_by_label(vertex).id if isinstance(vertex, str) else vertex
    if direction == "minus":
        if q.arrows_into(vid):
            raise NotSourceOrSink(
                f"{q.vertex(vid).label} is not a source of the auxiliary quiver")
        boundary = {a.id for a in q.arrows_from(vid)}
    else:
        if q.arrows_from(vid):
            raise NotSourceOrSink(
                f"{q.vertex(vid).label} is not a sink of the auxiliary quiver")
        boundary = {a.id for a in q.arrows_into(vid)}

    adm = admissible_presentation(p)
    t = trivial_extension(adm)
    aux_te = trivial_extension(aux)
    chosen = set()
    for c in aux_te.cycles:
        hits = [a for a in set(c.path.arrows) if a in boundary]
        if len(hits) > 1:
            raise NotSourceOrSink("several boundary arrows on one cycle")
        chosen.add(hits[0] if hits else c.new_arrow)
    d_prime = CutSet(frozenset(chosen), "admissible")
    d = good_closure(t, aux_te, d_prime)
    quotient = quotient_by_cut(t, d)
    return collapse_presentation(quotient)
