"""Independent exhaustive oracle for path-basis computations.

Lists all paths up to a cap, forms every product u * r * v of the
relation generators by paths, and row-reduces the whole system at once
by dense Gaussian elimination over exact rationals.  Deliberately
one-shot and unoptimised; used to cross-check the rewriting engine.
Also the earlier, slower readings of data the library now reads
directly, kept to cross-check those reads.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

from skewbrauer.basis import enumerate_basis
from skewbrauer.brauer import ProjectiveLayers
from skewbrauer.quiver import (Arrow, BoundQuiver, Path, Quiver, Relation, Verdict,
                               Vertex, cycle_rotations)
from skewbrauer.skewgentle import SgQuiver, sg_quiver


def all_paths(q: Quiver, cap: int, monomials: set[tuple[int, ...]]) -> list[Path]:
    """Every path of length <= cap without a generator-monomial subpath."""
    out = [Path(v.id, ()) for v in q.vertices]
    frontier = list(out)
    for _ in range(cap):
        nxt = []
        for p in frontier:
            tgt = q.arrow(p.arrows[-1]).target if p.arrows else p.base
            for a in q.arrows_from(tgt):
                arrows = p.arrows + (a.id,)
                if any(arrows[i:i + n] in monomials
                       for n in {len(m) for m in monomials}
                       for i in range(len(arrows) - n + 1)):
                    continue
                nxt.append(Path(p.base if p.arrows else a.source, arrows))
        out.extend(nxt)
        frontier = nxt
    return out


def oracle_reduce(bq: BoundQuiver, cap: int):
    """Return (dimension, nilpotency bound, basis paths, layer data helper).

    Raises ValueError when the cap is provably too small.
    """
    q = bq.quiver
    monomials = {r.paths()[0].arrows for r in bq.relations
                 if r.is_monomial and len(r.paths()[0]) >= 2}
    paths = all_paths(q, cap, monomials)
    order = sorted(paths, key=Path.sort_key)
    col = {p: i for i, p in enumerate(order)}
    ncols = len(order)

    rows: list[dict[int, Fraction]] = []
    # the paths from and into each vertex, shortest first like ``paths``
    starting: dict[int, list[Path]] = {}
    ending: dict[int, list[Path]] = {}
    for p in paths:
        starting.setdefault(p.source(q), []).append(p)
        ending.setdefault(p.target(q), []).append(p)

    def add_row(vec: dict[Path, Fraction]):
        row = {}
        for p, c in vec.items():
            if p.arrows and any(
                    p.arrows[i:i + n] in monomials
                    for n in {len(m) for m in monomials}
                    for i in range(len(p.arrows) - n + 1)):
                continue  # dead by a monomial generator
            if p not in col:
                raise ValueError("oracle cap too small for a product term")
            row[col[p]] = row.get(col[p], Fraction(0)) + c
        row = {k: v for k, v in row.items() if v}
        if row:
            rows.append(row)

    for r in bq.relations:
        lead = r.paths()[0]
        src, tgt = lead.source(q), lead.target(q)
        max_len = max(len(p) for p in r.paths())
        for u in ending.get(src, ()):
            room = cap - len(u) - max_len
            for v in starting.get(tgt, ()):
                if len(v) > room:
                    break
                vec: dict[Path, Fraction] = {}
                for c, p in r.terms:
                    base = u.base if u.arrows else (p.base if p.arrows else v.base)
                    joined = Path(base, u.arrows + p.arrows + v.arrows)
                    vec[joined] = vec.get(joined, Fraction(0)) + c
                add_row(vec)

    # Gaussian elimination, pivoting on the largest column of each row.
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = max(row)
            if lead not in pivots:
                coef = row.pop(lead)
                pivots[lead] = {k: v / coef for k, v in row.items()}
                break
            coef = row.pop(lead)
            for k, v in pivots[lead].items():
                new = row.get(k, Fraction(0)) - coef * v
                if new:
                    row[k] = new
                else:
                    row.pop(k, None)

    memo: dict[Path, dict[Path, Fraction]] = {}

    def reduce_path(p: Path) -> dict[Path, Fraction]:
        if p in memo:
            return memo[p]
        vec = {col[p]: Fraction(1)}
        changed = True
        while changed:
            changed = False
            for k in sorted(vec, reverse=True):
                if k in pivots:
                    coef = vec.pop(k)
                    for kk, vv in pivots[k].items():
                        new = vec.get(kk, Fraction(0)) - coef * vv
                        if new:
                            vec[kk] = new
                        else:
                            vec.pop(kk, None)
                    changed = True
                    break
        memo[p] = {order[k]: v for k, v in vec.items()}
        return memo[p]

    dead_at = {}
    for length in range(0, cap + 1):
        ps = [p for p in order if len(p) == length]
        dead_at[length] = all(not reduce_path(p) for p in ps)
    bound = None
    for length in range(1, cap + 1):
        if all(dead_at[k] for k in range(length, cap + 1)):
            bound = length
            break
    if bound is None:
        raise ValueError("oracle cap too small: paths still alive at the cap")

    basis = [p for p in order
             if len(p) < bound and reduce_path(p) == {p: Fraction(1)}]
    return len(basis), bound, basis, reduce_path


def laplace_det(m, one):
    """Determinant by Laplace expansion along the rows, division-free.

    The minor on the first k rows and a set S of k columns (a bitmask)
    expands along its last row: sum over j in S of (-1)^(#columns of S
    after j) * m[k-1][j] * minor(S minus j).  Memoised by column set, so
    it costs about 2^n * n ring products; zero entries and minors are
    skipped.  ``one`` fixes the ring.
    """
    n = len(m)
    minors = {0: one}
    for row in m:
        grown = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(row):
                if cols >> j & 1 or not entry:
                    continue
                term = entry * minor
                if bin(cols >> j).count("1") % 2:
                    term = -term
                key = cols | 1 << j
                grown[key] = grown[key] + term if key in grown else term
        minors = {cols: minor for cols, minor in grown.items() if minor}
    return minors.get((1 << n) - 1, one - one)


def cycle_decorations(sgq: SgQuiver, q: Quiver, special: frozenset[int],
                      rot: Path, m: int = 1) -> list[Path]:
    """Signed copies of ``rot^m`` whose signs repeat with each period.

    Built arrow by arrow from the lookups of the duplicated quiver,
    independently of ``SgTuple.powers``, which keeps one copy per sign
    class; each of these copies is equal in the algebra to the copy of
    its class.
    """
    visits = [q.arrow(a).source for a in rot.arrows]
    out = []
    for period in product(*(("+", "-") if v in special else ("",) for v in visits)):
        signs = period * m + period[:1]
        out.append(Path(sgq.vertex_lookup[rot.base, period[0]],
                        tuple(sgq.arrow_lookup[a, signs[i], signs[i + 1]]
                              for i, a in enumerate(rot.arrows * m))))
    return out


def _all_decorations(sgq: SgQuiver, q: Quiver, special: frozenset[int],
                     base: int, word: tuple[int, ...]) -> list[tuple[tuple[str, ...], Path]]:
    """(signs, signed copy) of the base path ``word`` from ``base`` for
    every sign at every visit of a distinguished vertex, from the lookups
    of the duplicated quiver."""
    visits = [base] + [q.arrow(a).target for a in word]
    out = []
    for signs in product(*(("+", "-") if v in special else ("",) for v in visits)):
        out.append((signs, Path(sgq.vertex_lookup[base, signs[0]],
                                tuple(sgq.arrow_lookup[a, signs[i], signs[i + 1]]
                                      for i, a in enumerate(word)))))
    return out


def full_sg_relations(t) -> tuple[Relation, ...]:
    """The sg relations of a tuple over every sign decoration.

    Type a at each distinguished transit, for all end signs; type b
    chaining every signed copy of the powers rot^m (m the multiplicity)
    of the rotations at each non-distinguished start; every signed copy
    of each monomial; at each distinguished start every signed copy of
    rot^m closed with the other sign; and every signed copy of each kill,
    rot^m followed by its first arrow.  Built from the lookups of
    ``sg_quiver``, not from ``SgTuple.powers`` or ``sg_ideal``, which
    write one copy per sign class.
    """
    q, special = t.quiver, t.special
    sgq = sg_quiver(q, special)
    vl, al = sgq.vertex_lookup, sgq.arrow_lookup
    rels = []
    for a in q.arrows:
        if a.target not in special:
            continue
        for b in q.arrows_from(a.target):
            for s in ("+", "-") if a.source in special else ("",):
                for e in ("+", "-") if b.target in special else ("",):
                    plus, minus = (Path(vl[a.source, s], (al[a.id, s, x], al[b.id, x, e]))
                                   for x in ("+", "-"))
                    rels.append(Relation.difference(plus, minus))
    by_start: dict[int, set[Path]] = {}
    monomials = [p for mono in t.monomials
                 for _, p in _all_decorations(sgq, q, special, mono.base, mono.arrows)]
    for c, m in zip(t.cycles, t.multiplicities):
        for rot in cycle_rotations(q, c.arrows):
            word = rot.arrows * m
            for signs, p in _all_decorations(sgq, q, special, rot.base, word):
                if signs[0] != signs[-1]:
                    monomials.append(p)
                elif rot.base not in special:
                    by_start.setdefault(rot.base, set()).add(p)
            monomials.extend(p for _, p in _all_decorations(sgq, q, special, rot.base,
                                                            word + rot.arrows[:1]))
    for v in sorted(by_start):
        copies = sorted(by_start[v], key=Path.sort_key)
        rels.extend(Relation.difference(p, r) for p, r in zip(copies, copies[1:]))
    rels.extend(Relation.monomial(p) for p in dict.fromkeys(monomials))
    return tuple(rels)


def dense_symmetric_form_check(alg, basis) -> Verdict:
    """The symmetrising form checked on the full Gram matrix.

    phi is the sum of the coefficients, in ``PathBasis.reduce``, of the
    paths in the normal forms of the signed powers c^m of the tuple's
    cycles.  The Gram matrix phi(ab) runs over all pairs of basis paths,
    a product of paths that do not compose being zero; its rank comes
    from one dense elimination over ``Fraction``.  Verdicts, conditions
    and details are those of ``brauer.symmetric_form_check``.
    """
    q = alg.algebra.quiver
    tup = alg.sg_tuple
    sgq = sg_quiver(tup.quiver, tup.special)
    support: set[Path] = set()
    for c, m in zip(tup.cycles, tup.multiplicities):
        for rot in cycle_rotations(tup.quiver, c.arrows):
            for power in cycle_decorations(sgq, tup.quiver, tup.special, rot, m):
                support.update(basis.reduce(power))

    def phi(a: Path, b: Path) -> Fraction:
        if a.target(q) != b.source(q):
            return Fraction(0)
        nf = basis.reduce(Path(a.base, a.arrows + b.arrows))
        return sum((c for p, c in nf.items() if p in support), Fraction(0))

    paths = basis.basis_paths
    n = len(paths)
    gram = [[phi(a, b) for b in paths] for a in paths]
    for i, a in enumerate(paths):
        for j, b in enumerate(paths):
            if gram[i][j] != gram[j][i]:
                return Verdict(False, "symmetry",
                               f"phi(ab) != phi(ba) for a={a.label(q)}, b={b.label(q)}")
    rank = dense_rank(gram)
    if rank != n:
        return Verdict(False, "nondegenerate", f"pairing has rank {rank} < dimension {n}")
    return Verdict(True)


def dense_rank(matrix) -> int:
    """Rank of a list of equally long rows, by dense Gaussian elimination."""
    rows = [list(row) for row in matrix]
    n = len(rows[0]) if rows else 0
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / top[col]
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], top)]
        rank += 1
    return rank


def _exact_oracle(bq: BoundQuiver):
    """(nilpotency bound, reduce_path, the paths below the bound).

    The cap grows until the oracle's own bound b satisfies b + the
    longest relation term <= cap; then every element of the ideal with
    terms up to the cap is a combination of the truncated products, and
    the oracle is exact.  Loops forever on an infinite-dimensional algebra.
    Kept on ``bq``, as ``enumerate_basis`` keeps its basis, so that the
    projectives of one algebra share it.
    """
    data = bq.__dict__.get("_dense_oracle")
    if data is not None:
        return data
    max_gen = max((r.max_term_length() for r in bq.relations), default=2)
    cap = 2 * max_gen
    while True:
        try:
            _, bound, _, reduce_path = oracle_reduce(bq, cap)
        except ValueError:          # still alive at the cap
            cap *= 2
            continue
        if bound + max_gen <= cap:
            break
        cap = bound + max_gen
    monomials = {r.paths()[0].arrows for r in bq.relations
                 if r.is_monomial and len(r.paths()[0]) >= 2}
    data = bound, reduce_path, all_paths(bq.quiver, bound - 1, monomials)
    bq.__dict__["_dense_oracle"] = data
    return data


def dense_projective_layers(alg, vertex) -> ProjectiveLayers:
    """The radical layers of the projective at a vertex, from the oracle.

    For each source s, every path s -> vertex is reduced by the exhaustive
    oracle; rank_k is the rank of the span of those of length >= k, found
    by one dense elimination for each k, and s occurs rank_k - rank_{k+1}
    times in layer k.  Labels, their order and the socle follow
    ``brauer.projective_layers``.
    """
    q = alg.algebra.quiver
    vid = q.vertex_by_label(vertex).id if isinstance(vertex, str) else vertex
    bound, reduce_path, paths = _exact_oracle(alg.algebra)
    layers: list[list[str]] = [[] for _ in range(bound)]
    for s in sorted(q.vertices, key=lambda v: v.label):
        vectors = [(len(p), reduce_path(p)) for p in paths
                   if p.source(q) == s.id and p.target(q) == vid]
        cols = sorted({c for _, vec in vectors for c in vec}, key=Path.sort_key)
        ranks = [dense_rank([[vec.get(c, Fraction(0)) for c in cols]
                             for length, vec in vectors if length >= k])
                 for k in range(bound + 1)]
        for k in range(bound):
            layers[k].extend([s.label] * (ranks[k] - ranks[k + 1]))
    while layers and not layers[-1]:
        layers.pop()
    label = q.vertex(vid).label
    socle = layers[-1][0] if layers else label
    return ProjectiveLayers(label, tuple(tuple(layer) for layer in layers), socle)


def gentle_base_by_basis(adm: BoundQuiver) -> tuple[BoundQuiver, frozenset[int]]:
    """The gentle base of ``adm`` read the way ``gentle_base`` read it
    before presentations carried their sg-tuple: the base quiver from the
    signs of the duplicated quiver, numbered in label order, and its
    relations the transits through non-special vertices that vanish in
    ``adm`` for all signs alike, seen in the basis of ``adm``.  A transit
    that vanishes for some signs only raises ``AssertionError``.  Only
    the labels of the tuple's quiver are read, not its ids' order."""
    tq, sgq, q = adm.sg_tuple.quiver, adm.sg_tuple.sgq, adm.quiver
    vorigin = {v: (tq.vertex(base).label, sign) for (base, sign), v in sgq.vertex_lookup.items()}
    vid = {base: i for i, base in enumerate(sorted({b for b, _ in vorigin.values()}))}
    paired = {base for base, sign in vorigin.values() if sign}
    agroups: dict[str, dict[tuple[str, str], Arrow]] = {}
    for a in q.arrows:
        base, ss, ts = sgq.arrow_origins[a.id]
        agroups.setdefault(tq.arrow(base).label, {})[(ss, ts)] = a
    arrows = []
    for base in sorted(agroups):
        sample = next(iter(agroups[base].values()))
        arrows.append(Arrow(len(arrows), base, vid[vorigin[sample.source][0]],
                            vid[vorigin[sample.target][0]]))
    collapsed = Quiver(tuple(Vertex(i, base) for base, i in vid.items()), tuple(arrows))
    special = frozenset(vid[base] for base in paired)
    basis = enumerate_basis(adm)
    monomials = []
    for a in arrows:
        if a.target in special:
            continue
        for b in collapsed.arrows_from(a.target):
            verdicts = {basis.is_zero(Path(ar.source, (ar.id, br.id)))
                        for (_, ts), ar in agroups[a.label].items()
                        for (ss, _), br in agroups[b.label].items()
                        if ts == ss and ar.target == br.source}
            assert len(verdicts) == 1, f"transit {a.label}*{b.label} vanishes for some signs only"
            if verdicts == {True}:
                monomials.append(Relation.monomial(Path(a.source, (a.id, b.id))))
    return BoundQuiver(collapsed, tuple(monomials)), special
