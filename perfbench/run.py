"""Benchmark of skewbrauer: one workload per run, closed loop, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py``):

- ``catalog``: the fixtures once each through their natural pipeline;
- ``roundtrip``: the good-cut round trip of the five skew-gentle fixtures;
- ``families``: seeded skew-Brauer graphs (``families.py``) through
  build, basis, symmetrising form, projectives, Cartan and classification.

A run repeats passes over the workload's input set until one more pass
would exceed ``--seconds``, but runs at least ``MIN_PASSES`` passes and
as many as the tail percentile needs (a traced run: at least one).  Each op starts when the
previous one has returned.  Every answer is checked after its op,
outside the timed work.

Every time below is scaled by the host's pace, probed after every op
(``pace.py``): a shared host runs the same code up to about 1.8x slower
at times, and the scaling takes most of that out.  The summary on stderr
also gives the measured pass times.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: median over passes of the library time of a pass;
- ``op_p50_ms``: median latency of an op, pooled over the run's passes;
- ``op_tail_ms``: op latency at the workload's tail percentile
  (``TAIL``), which leaves at least ten ops beyond it;
- ``setup_s``: median over several fresh interpreters of the time from
  their start to the end of ``import skewbrauer`` and of reading or
  generating the inputs;
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced and traced passes (``tracing.py``) and
reports per-layer self times and exact counters of the traced passes,
plus ``trace.overhead_s``, traced minus untraced median pass time.  The
spans of the last traced pass are written to ``.perfbench/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a readable summary goes to stderr, with every
metric's unit and sample count.  ``attempted`` counts the distinct ops of
the input set, each checked on every pass, and ``failed`` those that
failed, so both depend on the input set alone and not on how many passes
the host's speed allowed.  A failed op is a wrong answer or an
unexpected exception.  The failure ratio is ``failed`` over ``attempted``;
the summary prints it as ``fail_ratio``, but it is not among the metrics,
since it reads 0 on a healthy run.  ``correct`` is false when an op fails
in any way other than the known defect of ``symmetric_form_check``
recorded in ``BENCHMARK.json``, when an op's answer differs between
passes, or when the counters of two traced passes differ.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

import pace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NEEDED = ("src/skewbrauer/__init__.py", "tests/oracle.py", "fixtures")
# p75 of families fell in the gap between two ops of unlike cost, so
# that the noise of one op moved it by 20%; p70 falls among ops of like cost
TAIL = {"catalog": 90, "roundtrip": 75, "families": 70}
MIN_PASSES = 2
SETUP_STARTS = 11


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(TAIL))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and prepare the inputs, print 'ready', exit")
    return p.parse_args(argv)


def prepare(workload: str, seed: int):
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import workloads
    make_inputs, run_pass = workloads.WORKLOADS[workload]
    return workloads, make_inputs(ROOT, seed), run_pass


def measure_setup(args, clock) -> list:
    """Timings from starting a fresh interpreter until its inputs are ready.

    The host's pace is probed after each start.
    """
    import subprocess
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    timings = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            timing = pace.Timing(t0, time.perf_counter())
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up start failed with code {child.returncode}")
        clock.sample()
        timings.append(timing)
    return timings


def percentile(values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


class Run:
    """The passes of one run, with their ops and (when traced) layer data."""

    def __init__(self, args, clock, workloads, inputs, run_pass):
        self.args = args
        self.clock = clock
        self.inputs = inputs
        self.run_pass = run_pass
        self.oracle = workloads.Oracle()
        self.passes: list[list] = []          # the timings of each pass
        self.traced_passes: list[list] = []
        self.ops = []
        self.verdicts: dict[str, tuple] = {}  # op name -> its first problems
        self.changed: set[str] = set()        # ops whose answer changed
        self.layer_data: list[tuple[dict, dict, dict, dict]] = []
        self.tracer = None
        if args.trace:
            import tracing
            self.tracer = tracing.Tracer()

    def one_pass(self, traced: bool) -> None:
        if traced:
            self.tracer.reset()
            self.tracer.install()
            try:
                timings, ops = self.run_pass(self.inputs, self.oracle, clock=self.clock)
            finally:
                self.tracer.uninstall()
            self.traced_passes.append(timings)
            by_layer, by_name = self.tracer.self_times()
            calls = {}
            for span in self.tracer.spans:
                calls[span[0]] = calls.get(span[0], 0) + 1
            self.layer_data.append((dict(self.tracer.counts), by_layer,
                                    by_name, calls))
        else:
            timings, ops = self.run_pass(self.inputs, self.oracle, clock=self.clock)
            self.passes.append(timings)
        for op in ops:
            first = self.verdicts.setdefault(op.name, tuple(op.problems))
            if first != tuple(op.problems):
                self.changed.add(op.name)
        self.ops.extend(ops)

    def walls(self, passes) -> list[float]:
        return [sum(map(self.clock.scaled, timings)) for timings in passes]

    def latencies(self) -> list[float]:
        return [self.clock.scaled(op.timing) for op in self.ops if op.timing]

    def tail_short(self) -> bool:
        """Whether the passes are too few, or the ops for the tail percentile."""
        if self.tracer is not None:
            return not self.ops
        if len(self.passes) < MIN_PASSES:
            return True
        timed_ops = [op.timing.seconds for op in self.ops if op.timing]
        return percentile(timed_ops, TAIL[self.args.workload])[1] < 10

    def loop(self) -> None:
        start = time.perf_counter()
        last = 0.0
        while self.tail_short() or time.perf_counter() - start + last <= self.args.seconds:
            t0 = time.perf_counter()
            self.one_pass(False)
            if self.tracer is not None:
                self.one_pass(True)
            last = time.perf_counter() - t0

    def write_spans(self) -> str:
        import json
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{self.args.workload}-{self.args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent"],
                       "spans": self.tracer.spans}, fh)
        return path


def end_to_end(run: Run, setup: list) -> list:
    import resource
    from statistics import median
    pct = TAIL[run.args.workload]
    latencies = run.latencies()
    tail, beyond = percentile(latencies, pct)
    walls = run.walls(run.passes)
    setup = [run.clock.scaled(t) for t in setup]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rows = [
        ("wall_s", median(walls), "s", f"median of {len(walls)} passes"),
        ("op_p50_ms", 1000 * median(latencies), "ms", f"{len(latencies)} ops"),
        ("op_tail_ms", 1000 * tail, "ms",
         f"p{pct} of {len(latencies)} ops, {beyond} beyond"),
        ("setup_s", median(setup), "s", f"median of {len(setup)} starts"),
        ("peak_rss_mb", rss_mb, "MB", "this process"),
    ]
    return rows


def per_layer(run: Run) -> list:
    from statistics import median
    counts, _, _, calls = run.layer_data[0]
    # span times are scaled by their pass's ratio of scaled to measured time
    factors = [wall / sum(t.seconds for t in timings) for wall, timings
               in zip(run.walls(run.traced_passes), run.traced_passes)]

    def self_s(layer=None, name=None):
        return median(factor * (by_name if name else by_layer).get(name or layer, 0.0)
                      for factor, (_, by_layer, by_name, _)
                      in zip(factors, run.layer_data))

    basis_calls = counts.get("basis.calls", 0)
    n = f"median of {len(run.layer_data)} traced passes"
    rows = [
        ("basis.self_s", self_s("basis"), "s", n),
        ("basis.calls", basis_calls, "count", "enumerate_basis calls per pass"),
        ("basis.dim_sum", counts.get("basis.dim_sum", 0), "count",
         "sum of the dimensions returned"),
        ("basis.reduce_calls", counts.get("basis.reduce_calls", 0), "count",
         "PathBasis.reduce calls per pass"),
        ("basis.repeat_ratio",
         counts.get("basis.repeats", 0) / basis_calls if basis_calls else 0.0,
         "ratio", f"{counts.get('basis.repeats', 0)} of {basis_calls} calls"),
        ("iso.self_s", self_s("iso"), "s", n),
        ("iso.calls", calls.get("iso.are_isomorphic", 0), "count",
         "are_isomorphic calls per pass"),
        ("trivext.self_s", self_s("trivext"), "s", n),
        ("trivext.calls", calls.get("trivext.trivial_extension", 0), "count",
         "trivial_extension calls per pass"),
        ("brauer.symform_s", self_s(name="brauer.symmetric_form_check"), "s", n),
        ("brauer.projectives_s", self_s(name="brauer.projective_layers"), "s", n),
        ("brauer.self_s", self_s("brauer"), "s", n),
        ("cartan.self_s", self_s("cartan"), "s", n),
        ("skewgentle.self_s", self_s("skewgentle"), "s", n),
        ("dissection.self_s", self_s("dissection"), "s", n),
        ("formats.self_s", self_s("formats"), "s", n),
        ("quiver.arrows_from_calls", counts.get("quiver.arrows_from_calls", 0),
         "count", "Quiver.arrows_from calls per pass"),
        ("trace.overhead_s",
         median(run.walls(run.traced_passes)) - median(run.walls(run.passes)), "s",
         "traced minus untraced median pass"),
    ]
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in NEEDED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a skewbrauer checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    import json
    clock = pace.Clock(calibrate=True)
    setup = [] if args.trace else measure_setup(args, clock)
    run = Run(args, clock, *prepare(args.workload, args.seed))
    run.loop()

    failed = {op.name for op in run.ops if not op.ok}
    known = {op.name for op in run.ops if not op.ok and op.known_defect}
    problems = [f"{op.name}: {'; '.join(op.problems)}" for op in run.ops
                if not op.ok and op.name not in known]
    problems += [f"{name}: answer differs between passes" for name in run.changed]
    if run.tracer is not None:
        first = run.layer_data[0][0], run.layer_data[0][3]
        if any((c, k) != first for c, _, _, k in run.layer_data[1:]):
            problems.append("counters differ between traced passes")
        rows = per_layer(run)
        spans_path = run.write_spans()
    else:
        rows = end_to_end(run, setup)

    log = sys.stderr
    probes = sorted(clock.probes)
    print(f"{args.workload} seed={args.seed} trace={args.trace}; untraced pass "
          "seconds, scaled: " + " ".join(f"{w:.3f}" for w in run.walls(run.passes)),
          file=log)
    print("  measured: " + " ".join(f"{sum(t.seconds for t in timings):.3f}"
                                    for timings in run.passes), file=log)
    print(f"  host pace: {len(probes)} probes, fastest {1000 * probes[0]:.2f} ms, "
          f"median {1000 * probes[len(probes) // 2]:.2f} ms, reference "
          f"{1000 * pace.REFERENCE_PROBE_S:.2f} ms", file=log)
    fail_ratio = ("fail_ratio", len(failed) / len(run.verdicts), "ratio",
                  f"{len(failed)} of {len(run.verdicts)} distinct ops, "
                  f"{len(known)} of them the known defect; "
                  f"{len(run.ops)} ops run")
    for name, value, unit, note in rows + [fail_ratio]:
        print(f"  {name:26s} {value:14.6f} {unit:6s} {note}", file=log)
    if run.tracer is not None:
        print(f"  spans written to {os.path.relpath(spans_path, ROOT)}", file=log)
    for line in sorted(set(problems)):
        print(f"  FAILED {line}", file=log)

    print(json.dumps({
        "correct": not problems,
        "attempted": len(run.verdicts),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
