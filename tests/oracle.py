"""Independent exhaustive oracle for path-basis computations.

Lists all paths up to a cap, forms every product u * r * v of the
relation generators by paths, and row-reduces the whole system at once
by dense Gaussian elimination over exact rationals.  Deliberately
one-shot and unoptimised; used to cross-check the rewriting engine.
"""
from __future__ import annotations

from fractions import Fraction

from skewbrauer.quiver import (BoundQuiver, Path, Quiver, Verdict, compose_paths,
                               cycle_rotations)
from skewbrauer.skewgentle import cycle_decorations, sg_quiver


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
    by_end: dict[tuple[int, int], list[Path]] = {}
    for p in paths:
        by_end.setdefault((p.source(q), p.target(q)), []).append(p)

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
        for u in paths:
            if u.target(q) != src:
                continue
            for v in paths:
                if v.source(q) != tgt:
                    continue
                if len(u) + max_len + len(v) > cap:
                    continue
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
        nf = basis.reduce(compose_paths(q, a, b))
        return sum((c for p, c in nf.items() if p in support), Fraction(0))

    paths = basis.basis_paths
    n = len(paths)
    gram = [[phi(a, b) for b in paths] for a in paths]
    for i, a in enumerate(paths):
        for j, b in enumerate(paths):
            if gram[i][j] != gram[j][i]:
                return Verdict(False, "symmetry",
                               f"phi(ab) != phi(ba) for a={a.label(q)}, b={b.label(q)}")
    rank = 0
    rows = [list(row) for row in gram]
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, n):
            factor = rows[r][col] / top[col]
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], top)]
        rank += 1
    if rank != n:
        return Verdict(False, "nondegenerate", f"pairing has rank {rank} < dimension {n}")
    return Verdict(True)
