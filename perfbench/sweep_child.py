"""`bridgevar sweep` with the tracer installed, for traced sweep runs.

Usage: python3 perfbench/sweep_child.py sweep --kmax 8 --lmax 8 --jobs N

Runs the CLI in this process with every layer wrapped.  Pool workers are
forked from it (the default start method on Linux up to Python 3.13) and
inherit the wrappers; each row carries the counters of
the work behind it back to this process, which merges them as the row is
unpickled.  Rows go to stdout as the CLI writes them; the merged counters
are the last line of stderr.
"""

import json
import sys

from tracer import Tracer
from workloads import TRACE_PREFIX

TRACER = Tracer()
_sweep_row = None  # the CLI's row function, set by main()


class _Row(dict):
    """A sweep row with the counters of the work that produced it."""

    def __reduce__(self):
        return _merge_row, (dict(self), self.counters)


def _merge_row(row, counters):
    TRACER.merge(counters)
    return row


def _traced_row(pair):
    before = TRACER.snapshot()
    row = _Row(_sweep_row(pair))
    row.counters = TRACER.delta(before)
    return row


def main(argv):
    global _sweep_row
    import bridgevar.cli as cli

    TRACER.install()
    _sweep_row, cli._sweep_row = cli._sweep_row, _traced_row
    try:
        code = cli.main(argv)
    finally:
        cli._sweep_row = _sweep_row
        TRACER.uninstall()
    sys.stdout.flush()
    sys.stderr.write(TRACE_PREFIX + json.dumps(TRACER.snapshot()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
