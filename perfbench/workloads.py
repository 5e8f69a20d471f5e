"""The benchmark's workloads: their inputs, one op, and its checks.

A workload's `call(op)` runs one op of the program and returns what it
gave, unchecked, so that timing it times the program alone; `check(op,
result)` then gives one `Outcome` per item the op produced (a knot report,
a Riley cell, a sweep row).  An item *fails* when the program raises,
leaves a section of a hyperbolic report unavailable (at any depth), or
gives an answer that an independent check contradicts; only the last kind
also makes the run incorrect.  Failures are counted, never skipped.
"""

import json
import os
import re
import subprocess
import sys
from typing import NamedTuple, Optional

import bridgevar


class Outcome(NamedTuple):
    text: Optional[str]     # canonical output, compared across passes
    failure: Optional[str]  # why the item counts as failed
    wrong: bool = False     # an independent check contradicts the output


def knot_class(k, l):
    """Classification of J(k, l), written out independently of bridgevar."""
    if k % 2 and l % 2:
        return "NotAKnot"
    if k * l == 0:
        return "Unknot"
    if (k, l) in ((2, 2), (-2, -2)):
        return "Trefoil"
    if 1 in (abs(k), abs(l)):
        return "TorusNonHyperbolic"
    return "Hyperbolic"


_TERM = re.compile(r"([+-]?)(\d*)(\*?t(?:\^(\d+))?)?")


def eval_at_minus_one(text):
    """Value at t = -1 of a polynomial printed like '-t^2+3*t-1'."""
    total = 0
    for sign, coeff, mono, exp in _TERM.findall(text.replace(" ", "")):
        if not coeff and not mono:
            continue
        c = int(coeff) if coeff else 1
        e = (int(exp) if exp else 1) if mono else 0
        total += (-c if sign == "-" else c) * (-1) ** e
    return total


def unavailable_sections(rep, prefix=""):
    """Dotted paths of the report sections, at any depth, that say
    "unavailable"."""
    found = []
    for key, v in rep.items():
        if isinstance(v, dict):
            if "unavailable" in v:
                found.append(prefix + key)
            found += unavailable_sections(v, prefix + key + ".")
    return found


def check_report(k, l, rep):
    """(failure, wrong) for one report; failure is None when it passes."""
    if rep.get("knot", {}).get("k") != k or rep["knot"].get("l") != l:
        return "report is for another knot", True
    cls = knot_class(k, l)
    if rep.get("classification") != cls:
        return "classification %r, expected %r" % (
            rep.get("classification"), cls), True
    if cls != "Hyperbolic":
        return None, False
    missing = unavailable_sections(rep)
    if missing:
        return "unavailable: " + ", ".join(missing), False
    if rep["smoothness"].get("smooth") is not True:
        return "smoothness certificate is not smooth", True
    p = rep["two_bridge"]["p"]
    det = abs(eval_at_minus_one(rep["alexander"]["poly"]))
    if p != det:
        return "two-bridge p = %d but |Alexander(-1)| = %d" % (p, det), True
    return None, False


def analyze(k, l):
    """One `bridgevar analyze --json` op: build_report then to_json.
    Returns (report, JSON text, (stage, exception)); nothing is checked
    here, so that the op's time is the program's alone."""
    try:
        rep = bridgevar.build_report(k, l)
    except Exception as e:
        return None, None, ("build_report", e)
    try:
        return rep, bridgevar.to_json(rep), None
    except Exception as e:
        return rep, None, ("to_json", e)


def check_knot(k, l, result, keep_text=True):
    """The Outcome of one `analyze` result.  Without `keep_text` the
    canonical output is not kept (None)."""
    rep, text, error = result
    if error is not None and error[0] == "build_report":
        why = "build_report raised %s: %s" % (type(error[1]).__name__,
                                             error[1])
        return Outcome(why if keep_text else None, why)
    failure, wrong = check_report(k, l, rep)
    if error is not None:
        why = "to_json raised %s: %s" % (type(error[1]).__name__, error[1])
        if keep_text:
            body = {key: v for key, v in rep.items() if key != "timing"}
            text = "%s\n%r" % (why, body)
        return Outcome(text if keep_text else None, failure or why, wrong)
    try:
        json.loads(text)
    except ValueError as e:
        failure, wrong = failure or "to_json gave invalid JSON: %s" % e, True
    return Outcome(text if keep_text else None, failure, wrong)


def run_knot(k, l):
    """`analyze` and check one knot."""
    return check_knot(k, l, analyze(k, l))


def sweep_pairs(kmax, lmax):
    """The knots `bridgevar sweep` visits, in its order."""
    return [(k, l) for k in range(-kmax, kmax + 1)
            for l in range(-lmax, lmax + 1) if k % 2 == 0 or l % 2 == 0]


class Grid:
    """Every knot with |k| <= kmax, |l| <= lmax and kl even; the seed only
    orders them.  Most knots are small, so per-knot fixed cost and
    recomputed artifacts dominate."""

    name = "grid"
    in_process = True
    knots = True

    def __init__(self, kmax=8, lmax=8):
        self.pairs = sweep_pairs(kmax, lmax)

    def ops(self, rng):
        ops = list(self.pairs)
        rng.shuffle(ops)
        return ops

    def call(self, op):
        return analyze(*op)

    def check(self, op, result, keep_text=True):
        return [check_knot(*op, result, keep_text)]


class Large(Grid):
    """A few expensive hyperbolic knots with 12 <= max(|k|, |l|) <= 14,
    including one k = l knot and knots with k odd.  The set is fixed and
    the seed only orders it: knots of the band differ in cost by up to 30%
    (mirror images too), so drawing them would make the run time a
    function of the seed.  The exact smoothness PRS and the GF(p) kernels
    dominate here."""

    name = "large"
    KNOTS = ((14, 14), (13, -10), (-11, -12), (12, -10), (-14, -9))

    def __init__(self, knots=KNOTS):
        self.pairs = list(knots)


class Riley:
    """Every (k, n) cell of `bridgevar verify riley` with 2 <= |k| <= kmax
    and 1 <= |n| <= nmax: the Riley polynomial three ways, compared after
    `normalize_unit`, plus a closed-form trace spot check at a random
    point labelled by the seed.  Many tiny Laurent and UniPoly products;
    no smoothness or trace-field work."""

    name = "riley"
    in_process = True
    knots = False

    def __init__(self, kmax=8, nmax=5):
        self.cells = [(k, n) for k in range(-kmax, kmax + 1) if abs(k) >= 2
                      for n in range(-nmax, nmax + 1) if n]

    def ops(self, rng):
        label = "%08x-" % rng.getrandbits(32)
        ops = [(k, n, label) for k, n in self.cells]
        rng.shuffle(ops)
        return ops

    def call(self, op):
        """The three normalised Riley polynomials and the spot check, or
        the exception raised."""
        k, n, label = op
        try:
            a = bridgevar.normalize_unit(bridgevar.riley_poly_J(k, n))
            b = bridgevar.normalize_unit(bridgevar.riley_poly_matrix(k, n))
            tb = bridgevar.two_bridge_params(k, 2 * n)
            c = (bridgevar.normalize_unit(bridgevar.riley_poly_pq(tb.p, tb.q))
                 if tb.p > 1 else a)
            return a, b, c, bridgevar.trace_formula_check(k, 1, seed=label)
        except Exception as e:
            return e

    def check(self, op, result, keep_text=True):
        if isinstance(result, Exception):
            why = "raised %s: %s" % (type(result).__name__, result)
            return [Outcome(why if keep_text else None, why)]
        a, b, c, spot = result
        text = str(a) if keep_text else None
        if not a == b == c:
            return [Outcome(text, "the three Riley polynomials differ", True)]
        if not spot:
            return [Outcome(text, "trace formula spot check failed", True)]
        return [Outcome(text, None)]


SWEEP_MAIN = "import sys; from bridgevar.cli import main; sys.exit(main())"
SWEEP_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "sweep_child.py")
TRACE_PREFIX = "perfbench-trace "


class Sweep:
    """`bridgevar sweep --jobs <nproc>` as a subprocess, a batch job over
    the same knots as grid.  The only workload that runs the CLI process
    pool and pays interpreter and pool start-up; grid is its
    single-process baseline."""

    name = "sweep"
    in_process = False
    knots = True

    def __init__(self, kmax=8, lmax=8, jobs=None):
        self.pairs = sweep_pairs(kmax, lmax)
        self.jobs = jobs or len(os.sched_getaffinity(0))
        self.args = ["sweep", "--kmax", str(kmax), "--lmax", str(lmax),
                     "--jobs", str(self.jobs)]

    def ops(self, rng):
        return [tuple(self.args)]

    def call(self, op):
        proc = subprocess.run([sys.executable, "-c", SWEEP_MAIN, *op],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def call_traced(self, op, tracer):
        """`call` with the tracer in the CLI process and its pool workers;
        their counters are merged into `tracer`."""
        proc = subprocess.run([sys.executable, SWEEP_CHILD, *op],
                              capture_output=True, text=True)
        lines = proc.stderr.splitlines()
        if not lines or not lines[-1].startswith(TRACE_PREFIX):
            raise RuntimeError("traced sweep printed no counters:\n"
                               + proc.stderr)
        tracer.merge(json.loads(lines[-1][len(TRACE_PREFIX):]))
        return proc.returncode, proc.stdout

    def check(self, op, result, keep_text=True):
        """One outcome per expected knot, from the sweep's exit code and
        JSON lines."""
        returncode, stdout = result
        rows, garbled = {}, 0
        for line in stdout.splitlines():
            try:
                row = json.loads(line)
                key = (row["k"], row["l"])
            except (ValueError, TypeError, KeyError):
                garbled += 1
                continue
            rows.setdefault(key, []).append((line, row))
        outcomes = []
        for k, l in self.pairs:
            got = rows.pop((k, l), [])
            if len(got) != 1:
                outcomes.append(Outcome("", "%d rows for (%d, %d)"
                                        % (len(got), k, l), bool(got)))
                continue
            line, row = got[0]
            line = line if keep_text else None
            cls = knot_class(k, l)
            if row.get("error"):
                outcomes.append(Outcome(line, row["error"]))
            elif row.get("disagreements"):
                outcomes.append(Outcome(line, "disagreements: %s"
                                        % row["disagreements"]))
            elif row.get("classification") != cls:
                outcomes.append(Outcome(line, "classification %r, expected %r"
                                        % (row.get("classification"), cls),
                                        True))
            elif cls == "Hyperbolic" and row.get("p") != abs(1 - k * l):
                outcomes.append(Outcome(line, "p = %r, expected %d"
                                        % (row.get("p"), abs(1 - k * l)),
                                        True))
            else:
                outcomes.append(Outcome(line, None))
        extra = sum(len(v) for v in rows.values()) + garbled
        failed = sum(o.failure is not None for o in outcomes)
        if extra:
            outcomes.append(Outcome("", "%d lines that are not rows of the "
                                    "grid" % extra, True))
        elif returncode != (1 if failed else 0):
            # A crash after good rows, or a zero exit despite failed rows.
            outcomes = [Outcome(o.text, o.failure or "exit code %d"
                                % returncode, o.wrong or returncode == 0)
                        for o in outcomes]
        return outcomes


WORKLOADS = {w.name: w for w in (Grid, Large, Riley, Sweep)}
