"""Shared fixture loading for the test suite, and reference constructions
that only the tests use: checked path composition, sign-closed cut sets,
the sp-maximal paths of a skew-gentle presentation and windows of the
repetitive algebra."""
from __future__ import annotations

import importlib.util
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from typing import Iterable, Optional, Sequence

from skewbrauer import basis, formats
from skewbrauer.basis import enumerate_basis, maximal_paths
from skewbrauer.errors import SkewBrauerError
from skewbrauer.quiver import Arrow, BoundQuiver, Path, Quiver, Relation, Vertex
from skewbrauer.skewgentle import SkewGentlePresentation, auxiliary_gentle
from skewbrauer.trivext import trivial_extension

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


@lru_cache(maxsize=None)
def load(name: str):
    return formats.load(fixture_path(name))


def family_graphs(seed: int) -> list[tuple[str, str]]:
    """The generated skew-Brauer graphs of the benchmark, as (name, text)."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "families.py")
    spec = importlib.util.spec_from_file_location("families", path)
    families = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(families)
    return families.family(seed)


def signed_cycles(carrier) -> list[Path]:
    """The signed copies of every cycle of a carrier's tuple, in
    ``Path.sort_key`` order."""
    return sorted(chain.from_iterable(carrier.sg_tuple.signed_cycles), key=Path.sort_key)


class NonComposable(SkewBrauerError):
    """Raised when two paths with mismatched endpoints are composed."""


def path_from_arrows(q: Quiver, arrows: Sequence[Arrow | int]) -> Path:
    aids = [a.id if isinstance(a, Arrow) else a for a in arrows]
    objs = [q.arrow(a) for a in aids]
    for prev, nxt in zip(objs, objs[1:]):
        if prev.target != nxt.source:
            raise NonComposable(f"{prev.label} then {nxt.label}")
    base = objs[0].source if objs else 0
    return Path(base, tuple(aids))


def compose_paths(q: Quiver, p: Path, r: Path) -> Path:
    """Concatenate ``p`` then ``r``; stationary paths act as identities."""
    if p.target(q) != r.source(q):
        raise NonComposable(
            f"target of {p.label(q)} is not the source of {r.label(q)}")
    if p.is_stationary:
        return r
    if r.is_stationary:
        return p
    return Path(p.base, p.arrows + r.arrows)


def P(q: Quiver, *labels: str) -> Path:
    return path_from_arrows(q, [q.arrow_by_label(lab) for lab in labels])


def mono(q: Quiver, *labels: str) -> Relation:
    return Relation.monomial(P(q, *labels))


def diff(q: Quiver, left: tuple[str, ...], right: tuple[str, ...]) -> Relation:
    return Relation.difference(P(q, *left), P(q, *right))


def record_builds(monkeypatch) -> list[BoundQuiver]:
    """The algebras whose basis is built from now on, in order, by object;
    a basis kept on its algebra is not built again."""
    built = []
    build = basis._build

    def counted(bq, cap):
        built.append(bq)
        return build(bq, cap)
    monkeypatch.setattr(basis, "_build", counted)
    return built


def shuffled_copy(bq: BoundQuiver, rng) -> BoundQuiver:
    """``bq`` with its vertex ids, arrow ids, vertex labels, arrow labels
    and relation order each permuted by ``rng``."""
    q = bq.quiver
    vid = rng.sample(range(len(q.vertices)), len(q.vertices))
    aid = rng.sample(range(len(q.arrows)), len(q.arrows))
    vlabel = rng.sample([v.label for v in q.vertices], len(q.vertices))
    alabel = rng.sample([a.label for a in q.arrows], len(q.arrows))
    vertices = sorted((Vertex(vid[v.id], vlabel[v.id]) for v in q.vertices),
                      key=lambda v: v.id)
    arrows = sorted((Arrow(aid[a.id], alabel[a.id], vid[a.source], vid[a.target])
                     for a in q.arrows), key=lambda a: a.id)
    relations = [Relation(tuple((c, Path(vid[p.base], tuple(aid[x] for x in p.arrows)))
                                for c, p in r.terms)) for r in bq.relations]
    rng.shuffle(relations)
    return BoundQuiver(Quiver(tuple(vertices), tuple(arrows)), tuple(relations),
                       frozenset(vid[v] for v in bq.special_vertices))


# fixture pools used by property-style sweeps
BQ_FIXTURES = ["toy.bq", "repetitive.bq", "sec73_A.bq", "sec73_B.bq", "sec74.bq",
               "a2.bq", "kronecker.bq", "semisimple2.bq"]
SBG_FIXTURES = ["fig1.sbg", "excut.sbg", "gamma1_m1.sbg", "gamma1_m2.sbg",
                "gamma2.sbg", "torus.sbg", "sbtree_line4.sbg", "sbtree_star.sbg",
                "sbtree_cat10.sbg", "btree_path4.sbg", "btree_m3.sbg",
                "btree_twofat.sbg", "bcycle.sbg", "bloop.sbg", "bstar_m2.sbg"]
DIS_FIXTURES = ["torus.dis", "annulus.dis", "annulus_tau.dis", "sec73_X.dis",
                "sec73_tauX.dis", "disk3.dis", "exfacil.dis", "pend.dis"]
# skew-gentle bound quivers (non-admissible presentations)
SKEW_GENTLE_FIXTURES = ["toy.bq", "repetitive.bq", "sec73_A.bq", "sec73_B.bq",
                        "sec74.bq"]


def is_sign_closed(algebra: BoundQuiver, arrow_ids: Iterable[int]) -> bool:
    """Whether the set is a union of complete sign-variant groups."""
    if algebra.sg_tuple is None:
        return True
    ids = set(arrow_ids)
    groups: dict[str, set[int]] = {}
    for a, (base, _, _) in algebra.sg_tuple.sgq.arrow_origins.items():
        groups.setdefault(base, set()).add(a)
    for base, members in groups.items():
        inter = ids & members
        if inter and inter != members:
            return False
    return True


def sp_maximal_paths(p: SkewGentlePresentation) -> tuple[Path, ...]:
    """Maximal paths that begin and end with the special loop at special ends.

    Computed through the bijection with maximal paths of the auxiliary
    gentle algebra: reinsert the special loop at every special visit.
    """
    aux = auxiliary_gentle(p)
    basis = enumerate_basis(aux)
    q = p.quiver
    out = []
    for mp in maximal_paths(aux, basis):
        visits = [mp.base] + [aux.quiver.arrow(a).target for a in mp.arrows]
        arrows: list[int] = []
        for i, v in enumerate(visits):
            if v in p.loops:
                arrows.append(p.loops[v])
            if i < len(mp.arrows):
                arrows.append(mp.arrows[i])    # aux keeps the arrow ids of q
        if arrows:
            out.append(Path(q.arrow(arrows[0]).source, tuple(arrows)))
        else:
            out.append(Path(mp.base, ()))
    return tuple(out)


@dataclass(frozen=True)
class RepetitiveWindow:
    """Levels of the repetitive algebra of A, as a bound quiver.

    ``connectors`` maps the id of each arrow from level n to level n+1 to
    ``(path, n)``: ``path`` is the maximal path of A that the lifted new
    arrow of T(A) closes, as in ``TrivialExtension.new_arrows``.
    """
    algebra: BoundQuiver
    connectors: dict[int, tuple[Path, int]]


def repetitive_window(a: BoundQuiver, n_min: int, n_max: int) -> RepetitiveWindow:
    """Levels ``n_min .. n_max`` of the repetitive algebra Â of ``a``.

    Â is the ℤ-cover of T(A) = Â/ν: every vertex and base arrow of T(A) has
    a copy ``x[n]`` on each level n, and every new arrow of T(A) goes from
    level n to level n+1.  The ideal of T(A) is homogeneous in the new
    arrows and levels only rise along a path, so its relations lifted to
    every start level that keeps them inside the window give the full
    subcategory of Â on these levels.  ``a`` must be gentle or admissible
    skew-gentle; k levels have dimension (2k-1)·dim A.
    """
    if n_min > n_max:
        raise ValueError("empty window")
    t = trivial_extension(a)
    tq = t.quiver
    levels = range(n_min, n_max + 1)
    vid = {(v.id, n): i for i, (n, v) in enumerate(product(levels, tq.vertices))}
    arrows: list[Arrow] = []
    aid: dict[tuple[int, int], int] = {}
    for n, b in product(levels, tq.arrows):
        m = n + (b.id in t.new_arrows)
        if m <= n_max:
            aid[b.id, n] = len(arrows)
            arrows.append(Arrow(len(arrows), f"{b.label}[{n}]",
                                vid[b.source, n], vid[b.target, m]))
    wq = Quiver(tuple(Vertex(i, f"{tq.vertex(v).label}[{n}]") for (v, n), i in vid.items()),
                tuple(arrows))

    def lift(p: Path, n: int) -> Optional[Path]:
        start, ids = n, []
        for b in p.arrows:
            if (b, n) not in aid:
                return None
            ids.append(aid[b, n])
            n += b in t.new_arrows
        return Path(vid[p.base, start], tuple(ids))

    rels = []
    for r, n in product(t.algebra.relations, levels):
        terms = tuple((c, lift(p, n)) for c, p in r.terms)
        if all(p is not None for _, p in terms):
            rels.append(Relation(terms))
    connectors = {i: (t.new_arrows[b], n) for (b, n), i in aid.items() if b in t.new_arrows}
    return RepetitiveWindow(BoundQuiver(wq, tuple(rels)), connectors)
