"""Shared fixture loading for the test suite."""
from __future__ import annotations

import importlib.util
import os
from functools import lru_cache
from itertools import chain

from skewbrauer import formats
from skewbrauer.quiver import BoundQuiver, Path, Quiver, Relation, path_from_arrows

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


def P(q: Quiver, *labels: str) -> Path:
    return path_from_arrows(q, [q.arrow_by_label(lab) for lab in labels])


def mono(q: Quiver, *labels: str) -> Relation:
    return Relation.monomial(P(q, *labels))


def diff(q: Quiver, left: tuple[str, ...], right: tuple[str, ...]) -> Relation:
    return Relation.difference(P(q, *left), P(q, *right))


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
