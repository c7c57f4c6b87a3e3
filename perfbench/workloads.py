"""The three workloads: their inputs, the timed work of each op, its checks.

An op is timed from its first library call to its last, by a
``pace.Clock``; the checks that follow run outside that time.  A pass
runs every op of the workload's fixed input set once.  The library sees
only text: fixture files, or .sbg text made by ``families``.

Every library call goes through a module attribute (``basis.enumerate_basis``
rather than a name imported here), so that a tracer installed on the
modules sees the calls made by the benchmark too.  The ``mutate`` hook of
each pass lets the benchmark's tests weaken an algebra, to check that a
wrong answer is counted as a failed op.
"""
from __future__ import annotations

import dataclasses
import importlib
import os
import random
from typing import Optional

from skewbrauer import (basis, brauer, dissection, errors, formats, iso,
                        skewgentle, trivext)

import families
import tracing
from pace import Clock, Timing

# the package rebinds the name ``cartan`` to the function of that module
cartan = importlib.import_module("skewbrauer.cartan")

# The catalog: every fixture with the dimension of each algebra its
# pipeline builds, as (A, T(A)) for .bq, (A,) for .sbg and (A, tuple) for
# .dis; loop.bq must raise InfiniteDimensional.  repetitive.bq is left out:
# it holds the same algebra as excut.bq, and the catalog is the workload
# on which no algebra repeats, so that a basis cache has nothing to reuse.
CATALOG = {
    "a2.bq": (3, 6), "a2rev.bq": (3, 6), "excut.bq": (9, 18),
    "kronecker.bq": (4, 8), "loop.bq": None,
    "sec73_A.bq": (10, 20), "sec73_B.bq": (10, 20), "sec74.bq": (23, 46),
    "semisimple2.bq": (2, 4), "toy.bq": (23, 46),
    "bcycle.sbg": (12,), "bloop.sbg": (4,), "bstar_m2.sbg": (10,),
    "btree_m3.sbg": (8,), "btree_path4.sbg": (10,), "btree_twofat.sbg": (8,),
    "excut.sbg": (18,), "fig1.sbg": (46,), "gamma1_m1.sbg": (10,),
    "gamma1_m2.sbg": (11,), "gamma2.sbg": (16,), "sbtree_cat10.sbg": (52,),
    "sbtree_line4.sbg": (14,), "sbtree_star.sbg": (54,), "torus.sbg": (68,),
    "annulus.dis": (23, 46), "annulus_tau.dis": (23, 46), "disk3.dis": (6, 12),
    "exfacil.dis": (9, 18), "pend.dis": (5, 10), "sec73_X.dis": (10, 20),
    "sec73_tauX.dis": (10, 20), "torus.dis": (34, 68),
}

# The good-cut round trip: the skew-gentle fixtures and their good cuts.
ROUNDTRIP = {"toy.bq": 12, "repetitive.bq": 4, "sec73_A.bq": 6,
             "sec73_B.bq": 6, "sec74.bq": 12}

ORACLE_MAX_ARROWS = 8


@dataclasses.dataclass
class Op:
    name: str
    timing: Optional[Timing]          # None for a check that is not a call
    problems: list[str]
    known_defect: bool = False

    @property
    def ok(self) -> bool:
        return not self.problems


class Oracle:
    """Cross-checks small algebras against the exhaustive oracle of the tests.

    The oracle runs once per algebra, compared by value, in a run; later
    passes compare with the stored answer.
    """

    def __init__(self):
        from oracle import oracle_reduce
        self._reduce = oracle_reduce
        self._answers: dict[tuple, tuple] = {}

    def check(self, label: str, pb) -> list[str]:
        bq = pb.algebra
        if len(bq.quiver.arrows) > ORACLE_MAX_ARROWS:
            return []
        key = tracing.algebra_key(bq)
        if key not in self._answers:
            max_gen = max((r.max_term_length() for r in bq.relations), default=2)
            dim, bound, paths, _ = self._reduce(bq, cap=pb.nilpotency_bound + max_gen)
            self._answers[key] = (dim, bound, frozenset(paths))
        got = (pb.dimension, pb.nilpotency_bound, frozenset(pb.basis_paths))
        return [] if got == self._answers[key] else [f"{label}: differs from the oracle"]


def read_fixtures(root: str, names) -> dict[str, str]:
    out = {}
    for name in names:
        with open(os.path.join(root, "fixtures", name), encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


def _admissible(bq):
    if bq.admissible:
        return bq
    return skewgentle.admissible_presentation(skewgentle.make_presentation(bq))


def _cartan_sum(data) -> int:
    return sum(map(sum, data.ordinary))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _bq_pipeline(name, text, mutate):
    a = mutate(name, _admissible(formats.parse_bq(text, name)))
    pa = basis.enumerate_basis(a)
    t = trivext.trivial_extension(a, pa)
    pt = basis.enumerate_basis(t.algebra)
    return pa, pt, cartan.cartan(t.algebra, pt)


def _sbg_pipeline(name, text, mutate):
    alg = mutate(name, brauer.skew_brauer_algebra(formats.parse_sbg(text, name)))
    pa = basis.enumerate_basis(alg.algebra)
    form = brauer.symmetric_form_check(alg, pa)
    layers = [brauer.projective_layers(alg, v.id, pa) for v in alg.quiver.vertices]
    return pa, form, layers


def _dis_pipeline(name, text, mutate):
    d = formats.parse_dis(text, name)
    a = mutate(name, skewgentle.admissible_presentation(
        dissection.skew_gentle_from_dissection(d)))
    pa = basis.enumerate_basis(a)
    data = cartan.cartan(a, pa)
    tup = skewgentle.sg_bound_quiver(
        dissection.trivext_tuple_from_dissection(d).as_sg_tuple())
    return d, pa, data, basis.enumerate_basis(tup)


def _check_catalog(name, out, oracle) -> list[str]:
    want = CATALOG[name]
    if name.endswith(".bq"):
        pa, pt, data = out
        dims = (pa.dimension, pt.dimension)
        problems = oracle.check(name, pa) + oracle.check(name + ":T", pt)
        if _cartan_sum(data) != pt.dimension:
            problems.append("Cartan entries do not sum to dim T(A)")
    elif name.endswith(".sbg"):
        pa, form, layers = out
        dims = (pa.dimension,)
        problems = oracle.check(name, pa)
        if not form:
            problems.append(f"symmetrising form: {form.detail}")
        if sum(pl.dimension for pl in layers) != pa.dimension:
            problems.append("projective dimensions do not sum to dim A")
    else:
        d, pa, data, pt = out
        dims = (pa.dimension, pt.dimension)
        problems = oracle.check(name, pa) + oracle.check(name + ":tuple", pt)
        if str(data.det_q) != str(dissection.q_cartan_det_formula(d)):
            problems.append(f"det_q {data.det_q} differs from the puncture formula")
        if _cartan_sum(data) != pa.dimension:
            problems.append("Cartan entries do not sum to dim A")
    if dims != want:
        problems.append(f"dimensions {dims}, expected {want}")
    return problems


def catalog_inputs(root: str, seed: int) -> list[tuple[str, str]]:
    items = list(read_fixtures(root, CATALOG).items())
    random.Random(seed).shuffle(items)
    return items


def catalog_pass(items, oracle, mutate=None, clock=None) -> tuple[list[Timing], list[Op]]:
    mutate = mutate or (lambda name, alg: alg)
    clock = clock or Clock()
    pipelines = {".bq": _bq_pipeline, ".sbg": _sbg_pipeline, ".dis": _dis_pipeline}
    ops = []
    for name, text in items:
        body = pipelines[os.path.splitext(name)[1]]
        timing, out, exc = clock.time(body, name, text, mutate)
        if CATALOG[name] is None:
            problems = ([] if isinstance(exc, errors.InfiniteDimensional)
                        else [f"expected InfiniteDimensional, got {exc!r}"])
        elif exc is not None:
            problems = [f"raised {exc!r}"]
        else:
            problems = _check_catalog(name, out, oracle)
        ops.append(Op(name, timing, problems))
    return [op.timing for op in ops], ops


# ---------------------------------------------------------------------------
# good-cut round trip
# ---------------------------------------------------------------------------

def _extension(name, text):
    return trivext.trivial_extension(_admissible(formats.parse_bq(text, name)))


def _round_trip(t, cuts):
    cut = next(cuts, None)
    if cut is None:
        return None
    back = trivext.trivial_extension(trivext.quotient_by_cut(t, cut))
    return iso.are_isomorphic(back.algebra, t.algebra)


def roundtrip_inputs(root: str, seed: int) -> list[tuple[str, str]]:
    items = list(read_fixtures(root, ROUNDTRIP).items())
    random.Random(seed).shuffle(items)
    return items


def roundtrip_pass(items, oracle=None, mutate=None, clock=None) -> tuple[list[Timing], list[Op]]:
    """Each op: the next good cut, its quotient, T(quotient), the iso test.

    Building each fixture's T(A) and the call that finds no further cut
    are not ops, but their time counts toward the pass.
    """
    mutate = mutate or (lambda name, alg: alg)
    clock = clock or Clock()
    timings = []
    ops = []
    for name, text in items:
        timing, t, exc = clock.time(_extension, name, text)
        timings.append(timing)
        if exc is not None:
            ops.append(Op(name, timing, [f"raised {exc!r}"]))
            continue
        t = mutate(name, t)
        cuts = trivext.enumerate_good_cuts(t)
        count = 0
        while True:
            timing, result, exc = clock.time(_round_trip, t, cuts)
            timings.append(timing)
            if exc is None and result is None:
                break
            count += 1
            label = f"{name}#{count}"
            if exc is not None:
                ops.append(Op(label, timing, [f"raised {exc!r}"]))
                break
            problems = ([] if result.status == "isomorphic"
                        else [f"round trip: {result.status}"])
            ops.append(Op(label, timing, problems))
        if count != ROUNDTRIP[name]:
            ops.append(Op(f"{name}#cuts", None,
                          [f"{count} good cuts, expected {ROUNDTRIP[name]}"]))
    return timings, ops


# ---------------------------------------------------------------------------
# generated skew-Brauer families
# ---------------------------------------------------------------------------

def _family_pipeline(name, text, mutate):
    g = formats.parse_sbg(text, name)
    verdict = brauer.validate_graph(g)
    alg = mutate(name, brauer.skew_brauer_algebra(g))
    pa = basis.enumerate_basis(alg.algebra)
    form = brauer.symmetric_form_check(alg, pa)
    layers = [brauer.projective_layers(alg, v.id, pa) for v in alg.quiver.vertices]
    data = cartan.cartan(alg.algebra, pa)
    kind = brauer.classify_rep_type(g)
    return g, verdict, pa, form, layers, data, kind


def _check_family(name, text, out, oracle) -> tuple[list[str], bool]:
    g, verdict, pa, form, layers, data, kind = out
    problems = oracle.check(name, pa)
    if not verdict:
        problems.append(f"generated graph is invalid: {verdict.detail}")
    sums = {pa.dimension, _cartan_sum(data), sum(pl.dimension for pl in layers)}
    if len(sums) != 1:
        problems.append("dimension, Cartan sum and projective sum disagree")
    matrix = data.ordinary
    if any(matrix[i][j] != matrix[j][i]
           for i in range(len(matrix)) for j in range(i)):
        problems.append("Cartan matrix is not symmetric")
    if len(g.distinguished) >= 2 and kind.finite:
        problems.append("two distinguished vertices classified finite")
    known = False
    if not form:
        problems.append(f"symmetrising form: {form.detail}")
        known = families.fat_next_to_distinguished(text)
    return problems, known


def families_inputs(root: str, seed: int) -> list[tuple[str, str]]:
    return families.family(seed)


def families_pass(items, oracle, mutate=None, clock=None) -> tuple[list[Timing], list[Op]]:
    mutate = mutate or (lambda name, alg: alg)
    clock = clock or Clock()
    ops = []
    for name, text in items:
        timing, out, exc = clock.time(_family_pipeline, name, text, mutate)
        if exc is not None:
            ops.append(Op(name, timing, [f"raised {exc!r}"]))
            continue
        problems, known = _check_family(name, text, out, oracle)
        ops.append(Op(name, timing, problems, known and len(problems) == 1))
    return [op.timing for op in ops], ops


WORKLOADS = {
    "catalog": (catalog_inputs, catalog_pass),
    "roundtrip": (roundtrip_inputs, roundtrip_pass),
    "families": (families_inputs, families_pass),
}

