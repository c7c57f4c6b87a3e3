"""Bound-quiver isomorphism by backtracking search.

A hit is a vertex/arrow bijection that matches special-vertex markings
and carries each relation ideal onto the other.  ``are_isomorphic``
first compares the vertex profiles (in- and out-degree, loops, special
marking) of the two quivers and builds the basis of ``b``.  Then one
search tests each full candidate map, in order:

0. the tuple certificate, when both algebras are the sg-bound quivers
   of their tuples (``_tuple_fault`` is "" for both, asked once per
   search): every copy of a base vertex lands on the copies of one base
   vertex, and likewise for arrows; the base bijection carries the
   special vertices, the monomials (as sets of paths) and the cycles, up
   to rotation and with their multiplicities, onto those of ``b``'s
   tuple; the + and - copies at a special vertex may swap;
1. the generator check, while the basis of ``a`` is not built: the map
   is a hit if it sends the relations of ``a``, each up to a nonzero
   scalar, onto exactly those of ``b``, which proves that it carries one
   ideal onto the other without a basis of ``a``;
2. otherwise the basis of ``a`` is built, on first need; if its
   dimension is not that of ``b``, the search ends as ``not_isomorphic``;
3. otherwise the map is a hit if it carries the relations of each side
   into the ideal of the other, checked through normal forms, each one
   word times a scalar or zero: up to a diagonal rescaling of arrows, a
   relation is carried iff the images of its nonzero terms all vanish,
   or two of them are nonzero on the same word.

A map that passes the first test passes the third, which replaces it
once ``a`` has a basis (from the start, if it was built before the call).

The certificate is sound because ``sg_ideal`` is built from the tuple
alone, so a base isomorphism of tuples lifts to one of ideals.  Types a,
c and d range over all signs; type b is independent of the copy it
picks, since type a identifies the copies; a swap at a special vertex
sends each type a relation to its negative, and permutes the signed
copies of the others.  A map it accepts passes the third test too, so
it changes no answer, map or node count, only the work: no terms and
no basis of ``a``.

Relations are compared as (coefficient, base vertex, word) terms, with
whole coefficients as ``int``.  The terms of ``a`` are read at most once
per search, when the first or third test runs; the generators of ``b``, its relations in the canonical form of
the first test, are computed once per algebra and kept on ``b``, like
its basis.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from typing import Iterable, NamedTuple, Optional

from .basis import PathBasis, _is_built, enumerate_basis
from .errors import SkewBrauerError
from .quiver import Arrow, BoundQuiver, Quiver
from .skewgentle import SgTuple, _tuple_fault


class IsoResult(NamedTuple):
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


Term = tuple[int | Fraction, int, tuple[int, ...]]     # (coefficient, base vertex, word)
Terms = tuple[Term, ...]

_UNSET = object()       # generators not computed yet


def _terms(bq: BoundQuiver) -> list[Terms]:
    """Each relation as (coefficient, base vertex, word) terms; whole
    coefficients as ``int``."""
    return [tuple((c.numerator if c.denominator == 1 else c, p.base, p.arrows)
                  for c, p in rel.terms)
            for rel in bq.relations]


def _relations_carry(relations: list[Terms], dst_basis: PathBasis,
                     arrow_map: dict[int, int]) -> bool:
    """Whether the map carries each relation into the ideal of
    ``dst_basis``, up to a diagonal rescaling of arrows: the images of its
    nonzero terms all vanish, or, since normal forms have one term, two
    of them are nonzero on the same word, so that one ratio of arrow
    scalars cancels them."""
    nf, image_of = dst_basis.normal_form, arrow_map.__getitem__
    for terms in relations:
        images = [nf(tuple(map(image_of, w))) for c, _, w in terms if c]
        if all(image is None for image in images):
            continue
        if len(images) == 1 or None in images or images[0][1] != images[1][1]:
            return False
    return True


def _generators(relations: Iterable[Terms]) -> Optional[set[Terms]]:
    """The relations, given by their terms, each with its largest term
    first, by (length, word, base vertex), and scaled to lead 1; None if
    a coefficient is zero, which leaves a relation without a canonical
    form."""
    out = set()
    for terms in relations:
        if not all(c for c, _, _ in terms):
            return None
        if len(terms) == 2:
            (_, v0, w0), (_, v1, w1) = terms
            if (len(w1), w1, v1) > (len(w0), w0, v0):
                terms = terms[::-1]
        lead = terms[0][0]
        if lead != 1:
            terms = tuple((-c if lead == -1 else c / Fraction(lead), v, w)
                          for c, v, w in terms)
        out.add(terms)
    return out


def _generators_of(bq: BoundQuiver) -> Optional[set[Terms]]:
    """``_generators`` of the relations of ``bq``, computed once and kept
    on ``bq``, like its basis."""
    gens = bq.__dict__.get("_generators", _UNSET)
    if gens is _UNSET:
        gens = bq.__dict__["_generators"] = _generators(_terms(bq))
    return gens


def _same_generators(terms_a: list[Terms], gens_b: Optional[set[Terms]],
                     vertex_map: dict[int, int], arrow_map: dict[int, int]) -> bool:
    """Whether the map sends the relations of ``a``, given by their
    ``_terms``, each up to a nonzero scalar, onto exactly ``gens_b``, the
    ``_generators`` of ``b``; then it carries the ideal of ``a`` onto
    that of ``b``.  A relation with a zero coefficient has no canonical
    form, so it fails the check."""
    image_of = arrow_map.__getitem__
    return gens_b is not None and gens_b == _generators(
        tuple((c, vertex_map[v], tuple(map(image_of, w))) for c, v, w in terms)
        for terms in terms_a)


class _DimensionsDiffer(Exception):
    """Ends a search: the bases of its two algebras differ in dimension."""


def _least_rotation(word: tuple[int, ...]) -> tuple[int, ...]:
    return min(word[i:] + word[:i] for i in range(len(word)))


def _base_map(origin_a: dict[int, int], origin_b: dict[int, int],
              sg_map: dict[int, int]) -> Optional[dict[int, int]]:
    """The injective map of base ids under ``sg_map``, or None unless
    the copies of each base id of ``a`` land on the copies of one base
    id of ``b``; ``origin_*`` maps each copy to its base id."""
    out: dict[int, int] = {}
    for x, y in sg_map.items():
        if out.setdefault(origin_a[x], origin_b[y]) != origin_b[y]:
            return None
    return out if len(set(out.values())) == len(out) else None


def _tuple_certificate(ta: SgTuple, tb: SgTuple,
                       vertex_map: dict[int, int], arrow_map: dict[int, int]) -> bool:
    """Whether the quiver isomorphism of the duplicated quivers of ``ta``
    and ``tb`` lifts a base isomorphism that carries the special vertices,
    the monomials and the cycles with their multiplicities of ``ta`` onto
    those of ``tb``; then it carries the sg ideal of ``ta`` onto that of
    ``tb`` (see the module docstring)."""
    sa, sb = ta.sgq, tb.sgq
    base_v = _base_map({v: x for (x, _), v in sa.vertex_lookup.items()},
                       {v: x for (x, _), v in sb.vertex_lookup.items()}, vertex_map)
    base_a = _base_map({a: x for a, (x, _, _) in sa.arrow_origins.items()},
                       {a: x for a, (x, _, _) in sb.arrow_origins.items()}, arrow_map)
    if (base_v is None or base_a is None or len(base_v) != len(tb.quiver.vertices)
            or len(base_a) != len(tb.quiver.arrows)
            or {base_v[x] for x in ta.special} != tb.special):
        return False
    image_of = base_a.__getitem__
    if ({(base_v[m.base], tuple(map(image_of, m.arrows))) for m in ta.monomials}
            != {(m.base, m.arrows) for m in tb.monomials}):
        return False
    return ({(_least_rotation(tuple(map(image_of, c.arrows))), k)
             for c, k in zip(ta.cycles, ta.multiplicities)}
            == {(_least_rotation(c.arrows), k) for c, k in zip(tb.cycles, tb.multiplicities)})


@dataclass
class _Search:
    """The fixed data of one isomorphism search, its node count, and the
    terms and the basis of ``a`` once a candidate map or the end of the
    search needs them.  ``tuples``: both algebras are the sg-bound
    quivers of their tuples."""
    a: BoundQuiver
    b: BoundQuiver
    budget: int
    a_order: list
    candidates: dict[int, list[int]]
    groups_a: dict[tuple[int, int], list[Arrow]]
    groups_b: dict[tuple[int, int], list[Arrow]]
    gens_b: Optional[set[Terms]]
    basis_b: PathBasis
    tuples: bool
    basis_a: Optional[PathBasis] = None
    terms_b: list[Terms] = field(default_factory=list)
    nodes: int = 0

    @cached_property
    def terms_a(self) -> list[Terms]:
        return _terms(self.a)

    def visit(self) -> bool:
        """Count a node; false once the budget is exhausted."""
        self.nodes += 1
        return self.nodes <= self.budget

    def need_basis_a(self) -> PathBasis:
        """The basis of ``a``, built on first need; raises
        ``_DimensionsDiffer`` if its dimension is not that of ``b``."""
        if self.basis_a is None:
            self.basis_a = enumerate_basis(self.a)
            self.terms_b = _terms(self.b)
        if self.basis_a.dimension != self.basis_b.dimension:
            raise _DimensionsDiffer
        return self.basis_a

    def is_hit(self, vmap: dict[int, int], amap: dict[int, int]) -> bool:
        """Whether the full candidate map carries each ideal onto the other."""
        if self.tuples and _tuple_certificate(self.a.sg_tuple, self.b.sg_tuple, vmap, amap):
            return True
        if self.basis_a is None and _same_generators(self.terms_a, self.gens_b, vmap, amap):
            return True
        basis_a = self.need_basis_a()
        return (_relations_carry(self.terms_a, self.basis_b, amap)
                and _relations_carry(self.terms_b, basis_a, {w: v for v, w in amap.items()}))


def are_isomorphic(a: BoundQuiver, b: BoundQuiver, *,
                   budget: int = 500_000) -> IsoResult:
    """Search for an isomorphism of bound quivers.

    Requires admissible presentations on both sides.  ``budget`` bounds
    the number of search nodes; exhaustion is reported distinctly.

    One search tests each full candidate map in the order of the module
    docstring; a search without a hit builds the basis of ``a`` too, so
    unequal dimensions always give ``not_isomorphic`` with no nodes.  If
    the basis of ``b`` fails, that of ``a`` is built before the error is
    raised, so an error of ``a`` comes first.
    """
    qa, qb = a.quiver, b.quiver
    # equal profiles imply equal numbers of vertices, arrows and special vertices
    prof_a = {v.id: _vertex_profile(a, v.id) for v in qa.vertices}
    prof_b = {w.id: _vertex_profile(b, w.id) for w in qb.vertices}
    if sorted(prof_a.values()) != sorted(prof_b.values()):
        return IsoResult("not_isomorphic")

    # order vertices by rarity of profile, then label, for fast pruning
    freq = Counter(prof_a.values())
    a_order = sorted(qa.vertices, key=lambda v: (freq[prof_a[v.id]], v.label))
    b_by_label = sorted(qb.vertices, key=lambda w: w.label)
    # the same label first, so identity maps are found immediately
    candidates = {v.id: [w.id for w in sorted(b_by_label, key=lambda w: w.label != v.label)
                         if prof_a[v.id] == prof_b[w.id]] for v in qa.vertices}

    try:
        basis_b = enumerate_basis(b)
    except SkewBrauerError:
        enumerate_basis(a)
        raise
    search = _Search(a, b, budget, a_order, candidates, _arrow_groups(qa), _arrow_groups(qb),
                     _generators_of(b), basis_b, not _tuple_fault(a) and not _tuple_fault(b))
    try:
        if _is_built(a):    # costs no build: compare dimensions before the search
            search.need_basis_a()
        found = _backtrack(search, 0, {}, set())
        if found is None:
            search.need_basis_a()
    except _DimensionsDiffer:
        return IsoResult("not_isomorphic")
    if found is None:
        status = "budget_exhausted" if search.nodes > budget else "not_isomorphic"
        return IsoResult(status, nodes=search.nodes)
    vmap, amap = found
    return IsoResult(
        "isomorphic",
        {qa.vertex(v).label: qb.vertex(w).label for v, w in vmap.items()},
        {qa.arrow(x).label: qb.arrow(y).label for x, y in amap.items()},
        nodes=search.nodes)


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
    return _match_multi(s, vmap, multi, 0, base)


def _match_multi(s: _Search, vmap: dict[int, int], multi: list[tuple[list, list]],
                 i: int, acc: dict[int, int]) -> Optional[dict[int, int]]:
    """Try each matching of the parallel arrows of ``multi[i:]``."""
    if i == len(multi):
        return acc if s.is_hit(vmap, acc) else None
    ars, bs = multi[i]
    for perm in permutations(bs):
        if not s.visit():
            return None
        trial = dict(acc)
        trial.update({x.id: y.id for x, y in zip(ars, perm)})
        got = _match_multi(s, vmap, multi, i + 1, trial)
        if got is not None:
            return got
    return None
