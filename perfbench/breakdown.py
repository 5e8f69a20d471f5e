"""Where one knot's report spends its time, by stage and by function.

Run from the root of a bridgevar checkout::

    python3 perfbench/breakdown.py -k 16 -l -18

Builds the report once untraced, then once more with every layer wrapped
(`tracer.py`), as ``bridgevar analyze --json`` would (build_report, then
to_json).  Prints the stages (the calls build_report makes directly) with
their inclusive time, then every wrapped function with its calls,
inclusive and self time, then the self time of each layer.
"""

import argparse
import sys
import time

from run import import_program


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-k", type=int, required=True)
    ap.add_argument("-l", type=int, required=True)
    args = ap.parse_args(argv)

    bridgevar = import_program()
    from tracer import Tracer
    from workloads import run_knot

    t0 = time.perf_counter()
    plain = run_knot(args.k, args.l)
    untraced = time.perf_counter() - t0
    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        outcome = run_knot(args.k, args.l)
        traced = time.perf_counter() - t0

    print("J(%d, %d), backend %s: %.3f s untraced, %.3f s traced"
          % (args.k, args.l, bridgevar.BACKEND, untraced, traced))
    print("outcome: %s" % (outcome.failure or "ok"))
    if outcome.text != plain.text:
        print("WRONG: traced output differs from untraced output")
    print("\nstages of report.build_report (inclusive time):")
    stages = sorted(((v[1], v[0], callee)
                     for (caller, callee), v in tracer.edges.items()
                     if caller == "report.build_report"), reverse=True)
    for seconds, calls, callee in stages:
        print("  %-44s %4d calls %10.3f s %6.1f%%"
              % (callee, calls, seconds, 100 * seconds / traced))
    print("\n" + tracer.table())
    return 1 if outcome.wrong or outcome.text != plain.text else 0


if __name__ == "__main__":
    sys.exit(main())
