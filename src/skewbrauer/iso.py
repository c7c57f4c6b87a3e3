"""Bound-quiver isomorphism by backtracking search.

A hit is a vertex/arrow bijection that matches special-vertex markings
and carries each relation ideal onto the other.  ``are_isomorphic``
first compares the vertex profiles (in- and out-degree, loops, special
marking) of the two quivers and builds the basis of ``b``.  Then a
search tests each full candidate map, in order:

0. the tuple certificate, when both algebras are the sg-bound quivers
   of their tuples (``_tuple_fault`` is "" for both, asked once per call
   for ``a`` and once per algebra for ``b``): every copy of a base
   vertex lands on the copies of one base vertex, and likewise for
   arrows; the base bijection carries the special vertices, the
   monomials (as sets of paths) and the cycles, up to rotation and with
   their multiplicities, onto those of ``b``'s tuple; the + and - copies
   at a special vertex may swap;
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

When test 0 applies and ``a`` has no basis, the search runs in two
passes over the same candidates in the same order, each with its own
node count bounded by ``budget``.  The first pass tests each map with
the certificate alone, so it reads no terms and builds no basis of
``a``.  Only if it finds no hit, by exhausting the candidates or the
budget, does the second pass run the search above from the start; the
result then reports its nodes.  A hit of the first pass is a candidate
that the single search reaches too, within the same budget, and ends on
unless an earlier candidate passes test 1 or 3 without passing test 0.
So the status is that of the single search, and the map and the node
count differ from it only on such an earlier candidate; a basis of
``a`` that would not complete is no longer built either.

The certificate is sound because ``sg_ideal`` is built from the tuple
alone, so a base isomorphism of tuples lifts to one of ideals.  It
writes one signed copy of each family's word per sign class, and every
other copy is equal to it modulo type a (see ``sg_ideal``), so the
ideal is that of every family over all signs.  A swap at a
special vertex sends each type a relation to its negative, and permutes
the signed copies of the others, so it keeps that ideal.  A map it
accepts would pass the third test too.

Relations are compared as (coefficient, base vertex, word) terms, with
whole coefficients as ``int``.  The terms of ``a`` are read at most once
per call, when the first or third test runs.  What the search reads of
``b`` is computed once per algebra and kept on ``b``, like its basis:
its generators (its relations in the canonical form of the first test)
and its ``_Side`` (its sorted vertex profiles, its vertices grouped by
profile in label order, its arrows grouped by ends, and its
``_tuple_fault`` answer).  So calls that share ``b``, such as the good-
cut round trips of one T(A), redo only ``a``'s half of the set-up.
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
from .quiver import Arrow, BoundQuiver, Quiver, Vertex
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


def _arrow_groups(q: Quiver) -> dict[tuple[int, int], list[Arrow]]:
    groups: dict[tuple[int, int], list[Arrow]] = {}
    for ar in q.arrows:
        groups.setdefault((ar.source, ar.target), []).append(ar)
    return groups


def _profiles(bq: BoundQuiver, groups: dict[tuple[int, int], list[Arrow]]) -> dict[int, tuple]:
    """Each vertex's profile, (in-degree, out-degree, loops, special),
    read off the ``_arrow_groups`` of its quiver."""
    ins, outs, loops = ({v.id: 0 for v in bq.quiver.vertices} for _ in range(3))
    for (x, y), ars in groups.items():
        outs[x] += len(ars)
        ins[y] += len(ars)
        if x == y:
            loops[x] = len(ars)
    return {v: (ins[v], outs[v], loops[v], v in bq.special_vertices) for v in ins}


class _Side(NamedTuple):
    """What a search reads of ``b`` beyond its basis and generators."""
    profiles: list[tuple]                           # sorted vertex profiles
    by_profile: dict[tuple, list[Vertex]]           # each profile's vertices, by label
    groups: dict[tuple[int, int], list[Arrow]]      # _arrow_groups
    tuples: bool                                    # _tuple_fault is ""


def _side_of(bq: BoundQuiver) -> _Side:
    """The ``_Side`` of ``bq``, computed once and kept on ``bq``, like its
    basis and its generators."""
    side = bq.__dict__.get("_iso_side")
    if side is None:
        q = bq.quiver
        groups = _arrow_groups(q)
        prof = _profiles(bq, groups)
        by_profile: dict[tuple, list[Vertex]] = {}
        for w in sorted(q.vertices, key=lambda w: w.label):
            by_profile.setdefault(prof[w.id], []).append(w)
        side = bq.__dict__["_iso_side"] = _Side(
            sorted(prof.values()), by_profile, groups, not _tuple_fault(bq))
    return side


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
    quivers of their tuples; ``certificate_only``: the tuple certificate
    is the only test (the first pass)."""
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
    certificate_only: bool = False
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
        if self.certificate_only:
            return False
        if self.basis_a is None and _same_generators(self.terms_a, self.gens_b, vmap, amap):
            return True
        basis_a = self.need_basis_a()
        return (_relations_carry(self.terms_a, self.basis_b, amap)
                and _relations_carry(self.terms_b, basis_a, {w: v for v, w in amap.items()}))


def are_isomorphic(a: BoundQuiver, b: BoundQuiver, *,
                   budget: int = 500_000) -> IsoResult:
    """Search for an isomorphism of bound quivers.

    Requires admissible presentations on both sides.  ``budget`` bounds
    the number of search nodes of each pass; exhaustion is reported
    distinctly.

    The search tests each full candidate map in the order of the module
    docstring.  When both algebras are the sg-bound quivers of their
    tuples and ``a`` has no basis, a first pass tries the tuple
    certificate alone on every candidate, and the full search runs, from
    the start and with its own node count, only if that pass finds no
    hit; the status is that of one full search, and the map and ``nodes``
    differ only where an earlier candidate passes the generator or basis
    test but not the certificate.  A search without a hit builds the
    basis of ``a`` too, so unequal dimensions always give
    ``not_isomorphic`` with no nodes.  The basis of ``b`` is built before
    any search, so an error of ``b`` is raised whatever the certificate
    says; if it fails, that of ``a`` is built before the error is raised,
    so an error of ``a`` comes first.  What the search reads of ``b``
    alone is kept on ``b``.
    """
    qa, qb = a.quiver, b.quiver
    side = _side_of(b)
    # equal profiles imply equal numbers of vertices, arrows and special vertices
    groups_a = _arrow_groups(qa)
    prof_a = _profiles(a, groups_a)
    if sorted(prof_a.values()) != side.profiles:
        return IsoResult("not_isomorphic")

    # order vertices by rarity of profile, then label, for fast pruning
    freq = Counter(prof_a.values())
    a_order = sorted(qa.vertices, key=lambda v: (freq[prof_a[v.id]], v.label))
    # the same label first, so identity maps are found immediately
    candidates = {v.id: [w.id for w in sorted(side.by_profile[prof_a[v.id]],
                                              key=lambda w: w.label != v.label)]
                  for v in qa.vertices}

    try:
        basis_b = enumerate_basis(b)
    except SkewBrauerError:
        enumerate_basis(a)
        raise
    tuples = side.tuples and not _tuple_fault(a)
    built_a = _is_built(a)
    search = _Search(a, b, budget, a_order, candidates, groups_a, side.groups,
                     _generators_of(b), basis_b, tuples, certificate_only=tuples and not built_a)
    try:
        if built_a:     # costs no build: compare dimensions before the search
            search.need_basis_a()
        found = _backtrack(search, 0, {}, set())
        if found is None and search.certificate_only:
            # no candidate passes the certificate: every test, from the start
            search.certificate_only, search.nodes = False, 0
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
    v, ga, gb = s.a_order[i], s.groups_a, s.groups_b
    for w in s.candidates[v.id]:
        if w in used:
            continue
        if not s.visit():
            return None
        # local consistency: arrow counts between already-mapped pairs
        if any(len(ga.get((v.id, u), ())) != len(gb.get((w, wu), ()))
               or len(ga.get((u, v.id), ())) != len(gb.get((wu, w), ()))
               for u, wu in vmap.items()):
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
