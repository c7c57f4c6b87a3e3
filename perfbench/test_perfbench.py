"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""
from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import families                                                # noqa: E402
import pace                                                    # noqa: E402
import tracing                                                 # noqa: E402
import workloads                                               # noqa: E402
from skewbrauer import basis, brauer, formats, iso            # noqa: E402


def drop_binomial(target: str, which: int = 0) -> Callable:
    """A mutation for negative controls: remove one two-term relation.

    Many binomials of a generated ideal are implied by the others, so the
    control picks one whose removal changes the algebra.
    """
    def mutate(name, alg):
        if name != target:
            return alg
        bq = getattr(alg, "algebra", alg)
        victim = [r for r in bq.relations if not r.is_monomial][which]
        weakened = bq.relabelled(
            relations=tuple(r for r in bq.relations if r is not victim))
        if bq is alg:
            return weakened
        return dataclasses.replace(alg, algebra=weakened)
    return mutate


def _catalog(*names):
    return [(n, t) for n, t in workloads.catalog_inputs(ROOT, 0) if n in names]


def test_catalog_ops_pass_unchanged():
    _, ops = workloads.catalog_pass(
        _catalog("excut.sbg", "a2.bq", "loop.bq", "disk3.dis"), workloads.Oracle())
    assert [op.problems for op in ops] == [[]] * 4


def test_dropped_relation_counts_as_failed():
    """Negative control: removing one relation must fail the op."""
    items = _catalog("excut.sbg", "gamma1_m2.sbg", "a2.bq")
    _, ops = workloads.catalog_pass(items, workloads.Oracle(),
                                    mutate=drop_binomial("excut.sbg"))
    failed = {op.name: op for op in ops if not op.ok}
    assert set(failed) == {"excut.sbg"}
    assert not failed["excut.sbg"].known_defect


def test_dropped_relation_in_a_family_is_not_the_known_defect():
    items = [(n, t) for n, t in families.family(1)
             if not families.fat_next_to_distinguished(t)][:1]
    _, ops = workloads.families_pass(items, workloads.Oracle(),
                                     mutate=drop_binomial(items[0][0]))
    assert not ops[0].ok and not ops[0].known_defect


def test_families_are_valid_and_reproducible():
    first, again = families.family(7), families.family(7)
    assert first == again
    assert first != families.family(8)
    assert len(first) == len(families.SLOTS)
    for name, text in first:
        assert brauer.validate_graph(formats.parse_sbg(text, name)), name


def test_known_defect_slots_do_not_depend_on_the_seed():
    shaped = [{int(name[:2]) for name, text in families.family(seed)
               if families.fat_next_to_distinguished(text)} for seed in range(1, 6)]
    assert shaped == [{2, 4, 5, 10, 16, 19, 21}] * 5


def test_clock_scales_by_the_probes_near_a_call():
    clock = pace.Clock(calibrate=True)
    timing, result, exc = clock.time(sum, [1, 2])
    assert (result, exc) == (3, None) and len(clock.probes) == 2
    # a probe twice as slow as the reference scales by 2 ** -EXPONENT
    clock.probes[:] = [2 * pace.REFERENCE_PROBE_S] * 2
    slow = pace.Timing(clock.probe_times[0], clock.probe_times[0] + 1.0)
    assert abs(clock.scaled(slow) - 2 ** -pace.EXPONENT) < 1e-12
    far = pace.Timing(clock.probe_times[-1] + 10, clock.probe_times[-1] + 11)
    clock.probe_times.append(far.end)
    clock.probes.append(pace.REFERENCE_PROBE_S)
    assert abs(clock.scaled(far) - 1.0) < 1e-12
    plain = pace.Clock()
    timing, _, exc = plain.time(int, "x")
    assert isinstance(exc, ValueError) and plain.scaled(timing) == timing.seconds


def test_known_defect_shape():
    text = ("vertex x distinguished\nvertex v mult=2\nvertex w\n"
            "edge 1 x v\nedge 2 v w\norder x: 1\norder v: 1, 2\norder w: 2\n")
    assert families.fat_next_to_distinguished(text)
    assert not families.fat_next_to_distinguished(text.replace("mult=2", ""))


def test_tracer_sees_calls_through_every_binding():
    bq = formats.parse_bq(open(os.path.join(ROOT, "fixtures", "a2.bq")).read())
    tracer = tracing.Tracer()
    original = basis.enumerate_basis
    tracer.install()
    try:
        basis.enumerate_basis(bq)
        iso.are_isomorphic(bq, bq)        # two more builds, via iso's binding
    finally:
        tracer.uninstall()
    assert basis.enumerate_basis is original
    assert iso.enumerate_basis is original
    assert tracer.counts["basis.calls"] == 3
    assert tracer.counts["basis.repeats"] == 2
    by_layer, by_name = tracer.self_times()
    names = [span[0] for span in tracer.spans]
    assert names.count("basis.enumerate_basis") == 3
    assert names.count("iso.are_isomorphic") == 1
    total = sum(end - start for _, _, start, end, parent in tracer.spans
                if parent < 0)
    assert abs(sum(by_layer.values()) - total) < 1e-6


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_round_trip_of_a_weakened_extension_fails():
    items = [(n, t) for n, t in workloads.roundtrip_inputs(ROOT, 0)
             if n == "sec73_A.bq"]
    # the last binomial of this T(A) is the one not implied by the others
    mutate = drop_binomial("sec73_A.bq", which=-1)
    _, ops = workloads.roundtrip_pass(items, mutate=mutate)
    assert ops and not any(op.ok for op in ops)
