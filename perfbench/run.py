"""The bridgevar benchmark: one workload, end to end or traced by layer.

Run from the root of a bridgevar checkout::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 25 --trace 0

Workloads (see `workloads.py` for why each exists): ``grid``, ``large``,
``riley`` and ``sweep``.  The in-process workloads are closed loops with
one client: the next op starts when the previous one returns.  ``sweep``
is a batch job run as a subprocess.

With ``--trace 0`` the benchmark runs whole passes over the workload's ops
until the next pass would overrun ``--seconds`` (at least one), checks
every output, and reports the end-to-end metrics: ``setup_s``, the median
over several fresh interpreters of the time to import bridgevar and build
the CLI parser; ``wall_s``, the median time of a pass; ``ops_per_s``, items (knot
reports, Riley cells or sweep rows) per second of a pass; ``op_p50_ms``,
the median latency of an op (a knot report, a Riley cell, or one whole
``bridgevar sweep`` run), with p90 or p99 printed where at least ten
samples lie beyond it; and ``peak_rss_mb``, the peak resident memory of
the benchmark process (of the largest sweep process for ``sweep``).
Pass and op times are seconds at reference speed (`reference.py`); raw
seconds are printed too.  An op's time covers the program's work only:
its output is checked after the clock stops.

With ``--trace 1`` it runs one untraced pass and then the same ops with
every layer wrapped (`tracer.py`), checks that both passes give the same
outputs, and reports the per-layer metrics and the tracing overhead.

Human-readable results come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``, holding exactly the metrics `BENCHMARK.json` names for the
mode.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import NamedTuple

from reference import SpeedSampler
from tracer import Tracer

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_LAUNCHES = 9
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import bridgevar.cli
bridgevar.cli.build_parser()
t1 = time.perf_counter()
from reference import speed
print(t1 - t0, speed())
"""


def percentile(values, q):
    """The q-th percentile (0 <= q <= 100), interpolating linearly between
    the closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest of p99 and p90 with at least ten of `n` samples beyond
    it, or None."""
    for q in (99, 90):
        if n * (100 - q) / 100 >= 10:
            return q
    return None


def import_program():
    """Import bridgevar from this checkout's sources, never from elsewhere."""
    init = os.path.join(SRC, "bridgevar", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit("perfbench: %s not found; run from the root of a "
                         "bridgevar checkout" % init)
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC
    import bridgevar
    if os.path.realpath(bridgevar.__file__) != os.path.realpath(init):
        raise SystemExit("perfbench: imported bridgevar from %s, not %s"
                         % (bridgevar.__file__, init))
    return bridgevar


def measure_setup():
    """(seconds at reference speed, raw seconds) for each of several fresh
    interpreters to import bridgevar and build the CLI parser.  The speed
    is sampled in the same interpreter just after."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    times = []
    for _ in range(SETUP_LAUNCHES):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                             check=True, capture_output=True, text=True)
        raw, speed = map(float, out.stdout.split())
        times.append((raw * speed, raw))
    return times


def environment(bridgevar, args):
    digest = hashlib.sha256()
    pkg = os.path.dirname(bridgevar.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"backend": bridgevar.BACKEND,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "src_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


class Pass(NamedTuple):
    wall: float        # seconds at reference speed for the whole pass
    raw_wall: float    # seconds for the whole pass
    latencies: list    # per op, seconds at reference speed


class Tally:
    """Items checked and failures by reason, without their outputs, so
    that the benchmark's memory does not grow with the number of passes."""

    def __init__(self):
        self.attempted = 0
        self.reasons = Counter()  # first line of a failure -> items
        self.problems = set()     # failures that make the run incorrect

    def add(self, outcomes):
        for o in outcomes:
            self.attempted += 1
            if o.failure is not None:
                self.reasons[o.failure.splitlines()[0][:100]] += 1
                if o.wrong:
                    self.problems.add(o.failure)

    @property
    def failed(self):
        return sum(self.reasons.values())


def run_pass(workload, ops, sink, keep_text=False, call=None):
    """Run `ops` in order, timing each `call` (default `workload.call`) in
    seconds at reference speed as sampled while it ran, then pass its
    checked outcomes to `sink`."""
    call = call or workload.call
    spans = []
    clock = time.perf_counter
    with SpeedSampler() as sampler:
        start = clock()
        for op in ops:
            t0 = clock()
            result = call(op)
            spans.append((t0, clock()))
            sink(workload.check(op, result, keep_text))
        raw = clock() - start
    latencies = [sampler.scale(*span) for span in spans]
    return Pass(sum(latencies), raw, latencies)


def end_to_end(workload, rng, seconds, setup):
    """Whole passes until the next one would overrun `seconds`."""
    deadline = time.perf_counter() + seconds
    passes, tally = [], Tally()
    while True:
        passes.append(run_pass(workload, workload.ops(rng), tally.add))
        if time.perf_counter() + passes[-1].raw_wall > deadline:
            break
    wall = statistics.median(p.wall for p in passes)
    who = resource.RUSAGE_SELF if workload.in_process else \
        resource.RUSAGE_CHILDREN
    lat = [x for p in passes for x in p.latencies]
    metrics = {
        "setup_s": statistics.median(t for t, _ in setup),
        "wall_s": wall,
        "ops_per_s": tally.attempted / len(passes) / wall,
        "op_p50_ms": percentile(lat, 50) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    notes = {"passes": len(passes), "op_samples": len(lat),
             "failed_share": tally.failed / tally.attempted,
             "raw_setup_s": statistics.median(raw for _, raw in setup),
             "raw_wall_s": statistics.median(p.raw_wall for p in passes)}
    q = tail_percentile(len(lat))
    if q is not None:
        notes["op_p%d_ms" % q] = percentile(lat, q) * 1e3
    return metrics, notes, tally


def traced(workload, rng, grid):
    """One untraced pass, then the same ops traced; both must agree.  For
    the sweep, one untraced pass of `grid` gives its single-process
    baseline."""
    ops = workload.ops(rng)
    base_outs, outs = [], []
    base = run_pass(workload, ops, base_outs.extend, keep_text=True)
    tracer = Tracer()
    if workload.in_process:
        with tracer:
            run = run_pass(workload, ops, outs.extend, keep_text=True)
    else:
        run = run_pass(workload, ops, outs.extend, keep_text=True,
                       call=lambda op: workload.call_traced(op, tracer))
    problems = []
    if [o.text for o in base_outs] != [o.text for o in outs]:
        problems.append("traced outputs differ from untraced outputs")
    knots = len(outs) if workload.knots else 0
    metrics = tracer.metrics(knots, run.raw_wall)
    metrics["trace_overhead"] = run.wall / base.wall
    notes = {"untraced_wall_s": base.wall, "traced_wall_s": run.wall,
             "raw_untraced_wall_s": base.raw_wall,
             "raw_traced_wall_s": run.raw_wall}
    if not workload.in_process:
        grid_wall = run_pass(grid, grid.ops(rng), Tally().add).wall
        notes["grid_wall_s"] = grid_wall
        notes["cli.sweep.scaling_efficiency"] = grid_wall / (
            workload.jobs * base.wall)
    return metrics, notes, outs, problems, tracer


def declared(trace):
    """{name: unit} of the metrics BENCHMARK.json names for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("grid", "large", "riley", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bridgevar = import_program()
    units = declared(args.trace)
    from workloads import WORKLOADS, Grid

    env = environment(bridgevar, args)
    workload = WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    tracer = None
    if args.trace:
        metrics, notes, outs, problems, tracer = traced(workload, rng, Grid())
        tally = Tally()
        tally.add(outs)
    else:
        metrics, notes, tally = end_to_end(workload, rng, args.seconds,
                                           measure_setup())
        problems = []
    problems += sorted(tally.problems)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit("perfbench: not measured: %s" % ", ".join(missing))

    print("# env " + json.dumps(env, sort_keys=True))
    if tracer is not None:
        print(tracer.table())
    for name in sorted(units):
        print("%-52s %16.6f %s" % (name, metrics[name], units[name]))
    for name, value in sorted(notes.items()):
        print("%-52s %16.6f" % (name, value))
    print("%-52s %16d / %d" % ("failed / attempted", tally.failed,
                                tally.attempted))
    for why, n in tally.reasons.most_common(6):
        print("  %5d x %s" % (n, why))
    for p in problems:
        print("WRONG: " + p)
    result = {"correct": not problems, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
