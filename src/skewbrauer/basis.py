"""Finite-dimensional path bases of bound quiver algebras.

The relations are completed to a rewriting system, a noncommutative
Gröbner basis in the sense of Green, under the (length, arrows) order of
``Path.sort_key``.  Each rule rewrites its tip, a path, into a
combination of strictly smaller paths, and no tip contains another.
Overlap ambiguities between tips are resolved in order of degree; a tip
that contains a newer one is rewritten and inserted again, which settles
the inclusion ambiguities.  Only tips that can overlap are paired: the
last arrow of the left one must occur in the right one, before its last
arrow.  Overlaps of two monomial rules (both tails zero) are never
queued, since they rewrite to zero; so the ``ambiguities`` counter of
``PathBasis.stats`` counts only the overlaps actually resolved, fewer
than all overlapping pairs.  Once no ambiguity is pending, Bergman's
diamond lemma gives every path a unique normal form, a combination of
tip-free paths.  Normal forms are computed by memoised rewriting, so
they terminate even for inhomogeneous relations such as differences of
cycles of unequal length.

Arithmetic is exact: coefficients stay ``int`` while every tip
coefficient is ±1, as in every relation the builders write, and become
``Fraction`` otherwise.

A ``Relation`` has at most two terms, so the ideal is binomial, and
completion keeps it so: reducing one or two terms by rules whose tails
have at most one term leaves at most two, at an overlap too, so every
tail has at most one term.  The normal form of a path is then one
tip-free path times a scalar, or zero.

The engine carries that fact in its data: a rule maps its tip to
``(coefficient, word)``, or to None for a monomial tip, and a normal
form is ``(coefficient, word)``, or None for zero.  Completion builds
each new rule from the sum of two such pairs.

Normal forms are read at two levels.  ``PathBasis.normal_form`` takes a
word, the tuple of arrow ids of a path, and returns the engine's pair,
or None; the basis walk, the relation checks of ``iso``,
``relation_holds``, ``is_zero`` and the symmetrising form read it
there.  ``PathBasis.reduce`` wraps it for a ``Path`` and returns
``{Path: Fraction}``.

The walk that finds the basis extends nonzero paths shortest first,
keeping one for each normal form of each length.  A tip-free word is
first reached at its own length, where it joins the basis; its depth
(``PathBasis.depth``) is the last length that reaches it.  The walk
decides finite dimension exactly (Ufnarovski): with
k = max(longest tip - 1, 1), tip-freeness is read on windows of k + 1
arrows, so a tip-free word whose last k arrows occur earlier in it pumps
the closed path between them, whose powers are then all nonzero.  Else
the walk ends at the first length that reaches no normal form, or once
the dimension shows that no length ever will (x^2 = x^3 on a loop).  The
length cap only guards the completion.  The completed system is built
once per algebra: it is kept on the ``BoundQuiver``, and each call
returns a new ``PathBasis`` around it.  ``PathBasis.blocks`` groups the
basis by (source, target) once per completed system, on first use; the
symmetrising form, the projective layers and the Cartan matrix read it.
"""
from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import InfiniteDimensional, NotAdmissible, Undecided
from .quiver import ONE, BoundQuiver, Path, Quiver, Relation, stationary

DEFAULT_LENGTH_CAP = 64

Word = tuple[int, ...]            # the arrows of a path of positive length
Form = Optional[tuple[int | Fraction, Word]]    # c * word, or None for zero
Blocks = dict[tuple[int, int], tuple[Path, ...]]   # (source, target) -> paths

_UNSET = object()       # not in the memo, or not a tip of the rules


def _order(w: Word) -> tuple:
    return (len(w), w)


def _times(c: int | Fraction, form: Form) -> Form:
    """``c * form``, for a nonzero ``c``."""
    return form and (c * form[0], form[1])


class _RewriteSystem:
    """Rules ``tip -> tail`` with every tail path smaller than its tip.

    A tail is ``(coefficient, word)``, or None for a monomial tip.
    """

    def __init__(self):
        self.rules: dict[Word, Form] = {}
        self._binomial: dict[Word, None] = {}   # the tips with a tail, in rules order
        self._tip_lengths: list[int] = []   # sorted; may keep a length no tip has
        self._memo: dict[Word, Form] = {}
        self._pending: list[tuple[int, int, Word, Word, int]] = []
        self._queued = 0
        self.depth: dict[Word, int] = {}        # see PathBasis.depth
        self.blocks: Optional[Blocks] = None    # see PathBasis.blocks
        self.ambiguities = self.nf_calls = self.memo_hits = 0

    # -- normal forms --------------------------------------------------------
    def normal_form(self, w: Word) -> Form:
        """Rewrite the path with arrows ``w`` until no tip occurs in it:
        ``(c, u)`` with ``u`` tip-free, or None for zero."""
        self.nf_calls += 1
        out = self._memo.get(w, _UNSET)
        if out is not _UNSET:
            self.memo_hits += 1
            return out
        prefix = w[:-1]
        head = self.normal_form(prefix) if prefix else (1, prefix)
        if head is None:
            out = None
        elif head[1] == prefix:
            # the prefix is tip-free, so a tip can only end w
            out, m = (1, w), len(w)
            for n in self._tip_lengths:
                if n > m:
                    break
                tail = self.rules.get(w[-n:], _UNSET)
                if tail is not _UNSET:
                    out = tail and self.normal_form(w[:-n] + tail[1])
                    if out is not None:
                        out = (tail[0] * out[0], out[1])
                    break
        else:
            # the prefix's normal form is tip-free
            out = self.normal_form(head[1] + w[-1:])
            if out is not None:
                out = (head[0] * out[0], out[1])
        self._memo[w] = out
        return out

    # -- completion ----------------------------------------------------------
    def complete(self, relations: Iterable[Relation], cap: int) -> None:
        """Turn the relations into a confluent system.

        Raises ``Undecided`` when an ambiguity longer than twice the cap
        is still pending.
        """
        # by longest term, so that a new tip is seldom inside an older one
        for r in sorted(relations, key=Relation.max_term_length):
            # a path twice in one relation is one term; zero terms drop
            vec: dict[Word, int | Fraction] = {}
            for c, p in r.terms:
                vec[p.arrows] = vec.get(p.arrows, 0) + (
                    c.numerator if c.denominator == 1 else c)
            self._insert(*(_times(c, self.normal_form(w)) for w, c in vec.items() if c))
        while self._pending:
            degree, _, left, right, k = heapq.heappop(self._pending)
            if left not in self.rules or right not in self.rules:
                continue
            if degree > 2 * cap:
                raise Undecided(cap)
            self.ambiguities += 1
            # left * v == u * right for the overlap of k arrows; the
            # difference of two normal forms is in normal form
            v, u = right[k:], left[:-k]
            x, y = self.rules[left], self.rules[right]
            self._insert(x and _times(x[0], self.normal_form(x[1] + v)),
                         y and _times(-y[0], self.normal_form(u + y[1])))
        self._binomial.clear()      # read only while completing

    def _insert(self, x: Form = None, y: Form = None) -> None:
        """Add the ideal element ``x + y``, a sum of two normal forms, as a
        rule, unless it is zero.

        Rules whose tips contain the new tip are taken out, reduced by it
        and inserted again, the last one first; only a longer tip can.
        """
        if x is None or (y is not None and _order(y[1]) > _order(x[1])):
            x, y = y, x
        if x is None:
            return
        if y is not None and y[1] == x[1]:
            c = x[0] + y[0]
            if not c:
                return
            x, y = (c, x[1]), None
        c, tip = x
        n = len(tip)
        stale = []
        if self._tip_lengths and self._tip_lengths[-1] > n:
            stale = [t for t in self.rules if len(t) > n and _contains(t, tip)]
        for t in stale:
            self._binomial.pop(t, None)
        stale = [(t, self.rules.pop(t)) for t in stale]
        scale = -c if c == 1 or c == -1 else -1 / Fraction(c)
        tail = self.rules[tip] = _times(scale, y)
        if tail is not None:
            self._binomial[tip] = None
        if n not in self._tip_lengths:
            bisect.insort(self._tip_lengths, n)
        self._memo.clear()
        # t overlaps tip on the left only if t[-1] is in tip[:-1], and on
        # the right only if t[0] is in tip[1:]; the overlap of two monomial
        # rules rewrites to zero, so it is never queued
        heads, tails = set(tip[:-1]), set(tip[1:])
        for t in self.rules if tail is not None else self._binomial:
            if t[-1] in heads:
                self._queue_overlaps(t, tip)
            if t[0] in tails and t != tip:
                self._queue_overlaps(tip, t)
        for t, t_tail in reversed(stale):
            self._insert(self.normal_form(t),
                         t_tail and _times(-t_tail[0], self.normal_form(t_tail[1])))

    def _queue_overlaps(self, left: Word, right: Word) -> None:
        for k in range(1, min(len(left), len(right))):
            if left[-k:] == right[:k]:
                self._queued += 1
                heapq.heappush(self._pending, (len(left) + len(right) - k,
                                               self._queued, left, right, k))


def _contains(word: Word, sub: Word) -> bool:
    """Whether ``sub``, a nonempty word, occurs in ``word``."""
    n, first = len(sub), sub[0]
    end = len(word) - n + 1       # the starts that leave room for sub
    i = 0
    try:
        while True:
            i = word.index(first, i, end)
            if word[i:i + n] == sub:
                return True
            i += 1
    except ValueError:
        return False


@dataclass(frozen=True)
class PathBasis:
    """Normal-form basis of a finite-dimensional bound quiver algebra."""
    algebra: BoundQuiver
    basis_paths: tuple[Path, ...]
    nilpotency_bound: int
    _engine: _RewriteSystem

    @property
    def dimension(self) -> int:
        return len(self.basis_paths)

    @property
    def stats(self) -> dict[str, int]:
        """Engine counters: rules of the completed system, ambiguities
        resolved, normal-form calls and their memo hits so far.

        Overlaps of two monomial rules rewrite to zero and are never
        queued, so ``ambiguities`` counts only the overlaps that a rule
        with a nonzero tail takes part in.
        """
        e = self._engine
        return {"rules": len(e.rules), "ambiguities": e.ambiguities,
                "nf_calls": e.nf_calls, "memo_hits": e.memo_hits}

    def normal_form(self, word: Word) -> Form:
        """Normal form of the path with arrows ``word``: ``(c, u)``, a
        tip-free word ``u`` times an ``int`` or ``Fraction`` ``c``, or None
        for zero, also at or past the nilpotency bound.

        One term, since relations have at most two (see the module
        docstring).  The empty word stands for the stationary paths, and
        is its own normal form, ``(1, ())``.
        """
        if len(word) >= self.nilpotency_bound:
            return None
        return self._engine.normal_form(word)

    def reduce(self, p: Path) -> dict[Path, Fraction]:
        """Normal form of a path as a combination of basis paths, with
        ``Fraction`` coefficients."""
        if not p.arrows:
            return {p: ONE}
        nf = self.normal_form(p.arrows)
        if nf is None:
            return {}
        src = self.algebra.quiver.arrow(p.arrows[0]).source
        return {Path(src, nf[1]): Fraction(nf[0])}

    def is_zero(self, p: Path) -> bool:
        return self.normal_form(p.arrows) is None

    def relation_holds(self, rel: Relation) -> bool:
        """Whether the relation element lies in the ideal."""
        # the terms share their source, so a stationary term is the word ();
        # each nonzero term is one word times a scalar, so the element
        # vanishes iff no term is left or two cancel on one word
        terms = [(c * nf[0], nf[1]) for c, p in rel.terms
                 if (nf := self.normal_form(p.arrows)) is not None and c]
        return not terms or (len(terms) == 2 and terms[0][1] == terms[1][1]
                             and terms[0][0] + terms[1][0] == 0)

    def blocks(self) -> Blocks:
        """The basis paths grouped by (source, target), each group in
        ``basis_paths`` order.

        Built once per completed system, on first use: read it, do not
        change it.
        """
        out = self._engine.blocks
        if out is None:
            out = self._engine.blocks = _group(self.algebra.quiver, self.basis_paths)
        return out

    def depth(self, p: Path) -> int:
        """The radical layer of the basis path ``p``: the length of the
        longest path whose normal form is a multiple of ``p``.

        J^k, the k-th power of the arrow ideal, is spanned by the basis
        paths of depth at least k.  Stationary paths have depth 0.
        """
        return self._engine.depth[p.arrows] if p.arrows else 0


def _group(q: Quiver, paths: Iterable[Path]) -> Blocks:
    """Group paths by (source, target), keeping their order."""
    target = {a.id: a.target for a in q.arrows}
    out: dict[tuple[int, int], list[Path]] = {}
    for p in paths:
        key = (p.base, target[p.arrows[-1]] if p.arrows else p.base)
        out.setdefault(key, []).append(p)
    return {key: tuple(group) for key, group in out.items()}


def enumerate_basis(bq: BoundQuiver, length_cap: Optional[int] = None) -> PathBasis:
    """Compute the normal-form path basis of an admissible bound quiver.

    Raises ``NotAdmissible`` for non-admissible presentations, and
    ``InfiniteDimensional`` with a cycle whose powers are all nonzero.
    ``length_cap`` (default 64, raised to the longest relation term) only
    guards the completion, which raises ``Undecided`` past twice the cap.

    The basis is built once per algebra and kept on ``bq``, whatever the
    cap; a repeated call returns a new ``PathBasis`` around the same data.
    """
    if not bq.admissible:
        raise NotAdmissible("normalise the presentation before computing a basis")
    # the stash holds no PathBasis, which points back to bq: a cycle
    # would keep every algebra alive until the garbage collector runs
    data = bq.__dict__.get("_basis")
    if data is None:
        cap = DEFAULT_LENGTH_CAP if length_cap is None else length_cap
        data = bq.__dict__["_basis"] = _build(bq, cap)
    return PathBasis(bq, *data)


def _is_built(bq: BoundQuiver) -> bool:
    """Whether ``enumerate_basis`` has built the basis of ``bq`` and kept it."""
    return "_basis" in bq.__dict__


def _build(bq: BoundQuiver, cap: int) -> tuple[tuple[Path, ...], int, _RewriteSystem]:
    cap = max(cap, max((r.max_term_length() for r in bq.relations), default=0))
    q = bq.quiver
    engine = _RewriteSystem()
    engine.complete(bq.relations, cap)
    k = max(max(map(len, engine.rules), default=0) - 1, 1)

    # extend nonzero paths one arrow at a time, each as (source, word,
    # target), keeping the first path to reach each normal form of a
    # length: paths with proportional normal forms have proportional
    # extensions
    steps = {v.id: [(a.id, a.target) for a in q.arrows_from(v.id)] for v in q.vertices}
    frontier = [(v.id, (), v.id) for v in q.vertices]
    basis = [stationary(v.id) for v in q.vertices]
    depth: dict[Word, int] = {}
    length = 1
    while True:
        reached: dict[Word, tuple[int, Word, int]] = {}
        for src, word, end in frontier:
            for a, target in steps[end]:
                w = word + (a,)
                nf = engine.normal_form(w)
                if nf is None:
                    continue
                u = nf[1]
                if u in reached:
                    continue
                reached[u] = (src, w, target)
                if u not in depth:
                    basis.append(Path(src, u))
                    # a window of k arrows that recurs bounds a cycle with
                    # tip-free powers; u's prefix repeats none, so only
                    # its last window is new
                    i = next((i for i in range(length - k) if u[i:i + k] == u[-k:]), -1)
                    if i >= 0:
                        c = Path(q.arrow(u[i]).source, u[i:length - k])
                        raise InfiniteDimensional(c, c.label(q))
        if not reached:
            break
        # the powers of the arrow ideal shrink strictly until they vanish,
        # from dimension - |vertices|; past that, they never vanish
        if length > len(basis) - len(q.vertices):
            src, w, _ = next(iter(reached.values()))
            raise NotAdmissible(
                "the ideal contains no power of the arrow ideal: paths of every "
                f"length are nonzero, e.g. {Path(src, w).label(q)}")
        depth.update(dict.fromkeys(reached, length))
        frontier = reached.values()
        length += 1
    engine.depth = depth
    basis.sort(key=Path.sort_key)
    return tuple(basis), length, engine


def maximal_paths(bq: BoundQuiver, basis: PathBasis) -> tuple[Path, ...]:
    """Nonzero basis paths killed by every arrow on both sides.

    Stationary paths qualify only at vertices with no incident arrows.
    """
    q = bq.quiver
    out = []
    for p in basis.basis_paths:
        if p.is_stationary:
            if not q.arrows_from(p.base) and not q.arrows_into(p.base):
                out.append(p)
            continue
        if any(not basis.is_zero(Path(p.base, p.arrows + (a.id,)))
               for a in q.arrows_from(p.target(q))):
            continue
        if any(not basis.is_zero(Path(a.source, (a.id,) + p.arrows))
               for a in q.arrows_into(p.source(q))):
            continue
        out.append(p)
    return tuple(out)
