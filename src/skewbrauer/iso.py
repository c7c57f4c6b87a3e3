"""Bound-quiver isomorphism by backtracking search.

A hit is a vertex/arrow bijection that matches special-vertex markings
and carries each relation ideal onto the other.  ``are_isomorphic``
checks, in order:

1. the sizes and the vertex profiles (in- and out-degree, loops,
   special marking) of the two quivers;
2. when the two arguments are different objects, the generator check:
   the search runs to its first candidate map only, and that map is a
   hit if it sends the relations of ``a``, each up to a nonzero scalar,
   onto exactly those of ``b``, which proves that it carries one ideal
   onto the other without a basis of ``a``;
3. otherwise both bases and their dimensions, then the full search,
   whose maps are checked through normal forms in the target algebra
   (monomials must vanish; binomials must vanish up to a diagonal
   rescaling of arrows).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import Optional

from .basis import PathBasis, _axpy, enumerate_basis
from .errors import SkewBrauerError
from .quiver import Arrow, BoundQuiver, Path, Quiver, _canonical_terms


@dataclass(frozen=True)
class IsoResult:
    status: str                      # "isomorphic" | "not_isomorphic" | "budget_exhausted"
    vertex_map: Optional[dict[str, str]] = None
    arrow_map: Optional[dict[str, str]] = None
    nodes: int = 0                   # search nodes visited

    def __bool__(self) -> bool:
        return self.status == "isomorphic"

    @property
    def is_identity(self) -> bool:
        return bool(self) and all(k == v for k, v in self.vertex_map.items()) \
            and all(k == v for k, v in self.arrow_map.items())


def _vertex_profile(bq: BoundQuiver, vid: int) -> tuple:
    q = bq.quiver
    loops = sum(1 for a in q.arrows_from(vid) if a.is_loop)
    return (len(q.arrows_into(vid)), len(q.arrows_from(vid)), loops,
            vid in bq.special_vertices)


def _arrow_groups(q: Quiver) -> dict[tuple[int, int], list[Arrow]]:
    groups: dict[tuple[int, int], list[Arrow]] = {}
    for ar in q.arrows:
        groups.setdefault((ar.source, ar.target), []).append(ar)
    return groups


Terms = tuple[tuple[int | Fraction, tuple[int, ...]], ...]


def _relation_words(bq: BoundQuiver) -> list[Terms]:
    """Each relation as (coefficient, word) terms; whole coefficients as ``int``."""
    return [tuple((c.numerator if c.denominator == 1 else c, p.arrows)
                  for c, p in rel.terms)
            for rel in bq.relations]


def _relations_carry(relations: list[Terms], dst_basis: PathBasis,
                     arrow_map: dict[int, int]) -> bool:
    nf, image_of = dst_basis.normal_form, arrow_map.__getitem__
    for terms in relations:
        images = [(c, nf(tuple(map(image_of, w)))) for c, w in terms]
        if len(images) == 1:
            if images[0][1]:          # a monomial must vanish
                return False
            continue
        out: dict = {}
        for c, image in images:
            _axpy(out, c, image)
        if not out:
            continue
        # allow a scalar between the two terms (diagonal arrow rescaling)
        (_, n1), (_, n2) = images
        if not n1 or not n2 or n1.keys() != n2.keys():
            return False
        ratios = {Fraction(n1[k]) / n2[k] for k in n1}
        if len(ratios) != 1:
            return False
    return True


def _same_generators(a: BoundQuiver, b: BoundQuiver, vertex_map: dict[int, int],
                     arrow_map: dict[int, int]) -> bool:
    """Whether the map sends the relations of ``a``, each up to a nonzero
    scalar, onto exactly the relations of ``b``.

    Then it carries the ideal of ``a`` onto that of ``b``.  A relation
    with a zero coefficient has no canonical form, so it fails the check.
    """
    if any(c == 0 for r in a.relations + b.relations for c, _ in r.terms):
        return False
    image_of = arrow_map.__getitem__
    images = {_canonical_terms(tuple((c, Path(vertex_map[p.base], tuple(map(image_of, p.arrows))))
                                     for c, p in r.terms)) for r in a.relations}
    return images == {_canonical_terms(r.terms) for r in b.relations}


@dataclass
class _Search:
    """The fixed data of one isomorphism search, and its node count.

    Without the bases, every full map is a hit: the search stops at its
    first candidate, which the generator check then tests.
    """
    budget: int
    a_order: list
    candidates: dict[int, list[int]]
    groups_a: dict[tuple[int, int], list[Arrow]]
    groups_b: dict[tuple[int, int], list[Arrow]]
    rels_a: list[Terms] = field(default_factory=list)
    rels_b: list[Terms] = field(default_factory=list)
    basis_a: Optional[PathBasis] = None
    basis_b: Optional[PathBasis] = None
    nodes: int = 0

    def visit(self) -> bool:
        """Count a node; false once the budget is exhausted."""
        self.nodes += 1
        return self.nodes <= self.budget


def are_isomorphic(a: BoundQuiver, b: BoundQuiver, *,
                   budget: int = 500_000) -> IsoResult:
    """Search for an isomorphism of bound quivers.

    Requires admissible presentations on both sides.  ``budget`` bounds
    the number of search nodes; exhaustion is reported distinctly.

    The checks run in order: the vertex profiles; then, when ``a is not
    b``, the generator check on the first candidate map, within
    min(budget, |Q0| + |Q1|) nodes and with the basis of ``b`` only;
    then both bases, their dimensions and the search through normal
    forms.  A map that the generator check accepts is the first
    candidate of that search too, and passes it, so both give the same
    result.
    """
    qa, qb = a.quiver, b.quiver
    if len(qa.vertices) != len(qb.vertices) or len(qa.arrows) != len(qb.arrows):
        return IsoResult("not_isomorphic")
    if len(a.special_vertices) != len(b.special_vertices):
        return IsoResult("not_isomorphic")
    prof_a = {v.id: _vertex_profile(a, v.id) for v in qa.vertices}
    prof_b = {w.id: _vertex_profile(b, w.id) for w in qb.vertices}
    if sorted(prof_a.values()) != sorted(prof_b.values()):
        return IsoResult("not_isomorphic")

    # order vertices by rarity of profile, then label, for fast pruning
    freq = Counter(prof_a.values())
    a_order = sorted(qa.vertices, key=lambda v: (freq[prof_a[v.id]], v.label))
    b_by_label = sorted(qb.vertices, key=lambda w: w.label)
    candidates = {
        v.id: [w.id for w in b_by_label if prof_a[v.id] == prof_b[w.id]]
        for v in qa.vertices
    }
    # prefer the same label first so identity maps are found immediately
    for v in qa.vertices:
        same = [w for w in candidates[v.id] if qb.vertex(w).label == qa.vertex(v.id).label]
        if same:
            rest = [w for w in candidates[v.id] if w not in same]
            candidates[v.id] = same + rest
    groups = (_arrow_groups(qa), _arrow_groups(qb))

    # the generator check needs no basis of a; b's must build, or the
    # answer is an error, which the path below raises (a's first)
    if a is not b:
        try:
            enumerate_basis(b)
        except SkewBrauerError:
            pass
        else:
            search = _Search(min(budget, len(qa.vertices) + len(qa.arrows)),
                             a_order, candidates, *groups)
            found = _backtrack(search, 0, {}, set())
            if found is not None and _same_generators(a, b, *found):
                return _hit(qa, qb, found, search.nodes)

    basis_a = enumerate_basis(a)
    basis_b = enumerate_basis(b)
    if basis_a.dimension != basis_b.dimension:
        return IsoResult("not_isomorphic")

    search = _Search(budget, a_order, candidates, *groups,
                     _relation_words(a), _relation_words(b), basis_a, basis_b)
    found = _backtrack(search, 0, {}, set())
    if found is not None:
        return _hit(qa, qb, found, search.nodes)
    status = "budget_exhausted" if search.nodes > budget else "not_isomorphic"
    return IsoResult(status, nodes=search.nodes)


def _hit(qa: Quiver, qb: Quiver, found: tuple, nodes: int) -> IsoResult:
    """The result for ``found``, a vertex map and an arrow map on ids."""
    vmap, amap = found
    return IsoResult(
        "isomorphic",
        {qa.vertex(v).label: qb.vertex(w).label for v, w in vmap.items()},
        {qa.arrow(x).label: qb.arrow(y).label for x, y in amap.items()},
        nodes=nodes)


# Module-level functions over explicit state: a nested function that calls
# itself is a reference cycle, which keeps both algebras until a collection.

def _backtrack(s: _Search, i: int, vmap: dict[int, int],
               used: set[int]) -> Optional[tuple]:
    """Map the vertices of ``s.a_order`` from ``i`` on, then the arrows."""
    if s.nodes > s.budget:
        return None
    if i == len(s.a_order):
        amap = _try_arrows(s, vmap)
        if amap is not None:
            return (dict(vmap), amap)
        return None
    v = s.a_order[i]
    for w in s.candidates[v.id]:
        if w in used:
            continue
        if not s.visit():
            return None
        # local consistency: arrow counts between already-mapped pairs
        if any(len(s.groups_a.get((x, y), ())) != len(s.groups_b.get((wx, wy), ()))
               for u, wu in vmap.items()
               for (x, y, wx, wy) in ((v.id, u, w, wu), (u, v.id, wu, w))):
            continue
        vmap[v.id] = w
        used.add(w)
        got = _backtrack(s, i + 1, vmap, used)
        if got is not None:
            return got
        del vmap[v.id]
        used.discard(w)
    return None


def _try_arrows(s: _Search, vmap: dict[int, int]) -> Optional[dict[int, int]]:
    """An arrow bijection over the vertex map that carries both ideals."""
    groups = []
    for (x, y), ars in s.groups_a.items():
        bs = s.groups_b.get((vmap[x], vmap[y]), [])
        if len(bs) != len(ars):
            return None
        groups.append((ars, bs))
    multi = [g for g in groups if len(g[0]) > 1]
    base = {g[0][0].id: g[1][0].id for g in groups if len(g[0]) == 1}
    return _match_multi(s, multi, 0, base)


def _match_multi(s: _Search, multi: list[tuple[list, list]], i: int,
                 acc: dict[int, int]) -> Optional[dict[int, int]]:
    """Try each matching of the parallel arrows of ``multi[i:]``."""
    if i == len(multi):
        if s.basis_a is None:
            return acc
        if _relations_carry(s.rels_a, s.basis_b, acc):
            inv_a = {w: v for v, w in acc.items()}
            if _relations_carry(s.rels_b, s.basis_a, inv_a):
                return acc
        return None
    ars, bs = multi[i]
    for perm in permutations(bs):
        if not s.visit():
            return None
        trial = dict(acc)
        trial.update({x.id: y.id for x, y in zip(ars, perm)})
        got = _match_multi(s, multi, i + 1, trial)
        if got is not None:
            return got
    return None
