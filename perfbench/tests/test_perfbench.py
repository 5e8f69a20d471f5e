"""Tests of the benchmark itself.

Run from the root of the checkout::

    python3 -m pytest -q perfbench/tests
"""

import gc
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "perfbench"))
sys.path.insert(0, str(REPO / "src"))
os.environ["PYTHONPATH"] = str(REPO / "src")  # for the sweep subprocesses

import bridgevar  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import REF_SECONDS, SpeedSampler  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Grid, Large, Riley, Sweep  # noqa: E402


# --- arithmetic -------------------------------------------------------------

def test_percentile_interpolates_between_ranks():
    assert run.percentile([4, 1, 3, 2], 50) == 2.5
    assert run.percentile([7], 90) == 7
    assert run.percentile(range(1, 101), 90) == pytest.approx(90.1)
    assert run.percentile([1, 2, 3], 0) == 1
    assert run.percentile([1, 2, 3], 100) == 3
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(99) is None
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(999) == 90
    assert run.tail_percentile(1000) == 99


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_wrapped_callees_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 2

    def helper():  # not wrapped: its time is the caller's self time
        clock.now += 5

    inner = tracer.wrap("m.inner", inner)

    def outer():
        clock.now += 1
        inner()
        helper()
        inner()
        clock.now += 3

    tracer.wrap("m.outer", outer)()
    out, inn = tracer.stats["m.outer"], tracer.stats["m.inner"]
    assert (out.calls, out.total, out.self_time) == (1, 13, 9)
    assert (inn.calls, inn.total, inn.self_time) == (2, 4, 4)
    assert tracer.edges[("m.outer", "m.inner")] == [2, 4]


def test_recursion_counts_inclusive_time_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fact(n):
        clock.now += 1
        return 1 if n <= 1 else n * wrapped(n - 1)

    wrapped = tracer.wrap("m.fact", fact)
    assert wrapped(4) == 24
    stat = tracer.stats["m.fact"]
    assert (stat.calls, stat.total, stat.self_time) == (4, 4, 4)


def test_errors_are_counted_and_reraised():
    tracer = Tracer()

    def boom():
        raise TypeError("no")

    with pytest.raises(TypeError):
        tracer.wrap("m.boom", boom)()
    assert tracer.stats["m.boom"].errors == 1


def test_snapshot_delta_merge_round_trip():
    tracer = Tracer()
    f = tracer.wrap("m.f", lambda: None)
    f()
    before = tracer.snapshot()
    f()
    f()
    other = Tracer()
    other.merge(json.loads(json.dumps(tracer.delta(before))))
    assert other.stats["m.f"].calls == 2


def test_speed_scaling_uses_samples_inside_or_beside_the_interval():
    sampler = SpeedSampler()
    sampler.starts = [0.0, 1.0, 2.0]
    sampler.lengths = [REF_SECONDS, 2 * REF_SECONDS, REF_SECONDS]
    # Two samples inside, at half and at full speed; their time is not
    # the op's.
    assert sampler.scale(0.5, 2.5) == pytest.approx(
        (2.0 - 3 * REF_SECONDS) * 0.75)
    # No sample inside: the neighbours at 1.0 and 2.0 give the speed.
    assert sampler.scale(1.2, 1.5) == pytest.approx(0.3 * 0.75)


def test_reference_runs_without_the_collector_and_restores_it():
    calls = []
    real = reference.reference
    reference.reference = lambda: calls.append(gc.isenabled())
    try:
        assert gc.isenabled()
        reference.timed_reference()
        assert gc.isenabled()
        gc.disable()
        reference.timed_reference()
        assert not gc.isenabled()
    finally:
        gc.enable()
        reference.reference = real
    assert calls == [False, False]


class SlowCheck:
    """A workload whose check takes far longer than its op."""

    in_process = True

    def call(self, op):
        return op

    def check(self, op, result, keep_text=True):
        time.sleep(0.2)
        return [workloads.Outcome(None, None)]


def test_op_time_leaves_out_the_check():
    outs = []
    done = run.run_pass(SlowCheck(), [1, 2], outs.extend)
    assert len(outs) == 2 and done.raw_wall >= 0.4
    assert max(done.latencies) < 0.1


# --- wrapping the real package ----------------------------------------------

def test_install_reaches_names_imported_elsewhere_and_uninstall_restores():
    from bridgevar import _kernels, geometry, kernels, poly
    originals = (kernels.poly_mul_p, _kernels.poly_mul_p, poly.poly_mul_p,
                 geometry.resultant, bridgevar.build_report)
    f = bridgevar.parse_poly("t^7 + 3*t + 1")
    with Tracer() as tracer:
        assert poly.modp_degree_pattern(f, 101) == \
            poly.modp_degree_pattern.__wrapped__(f, 101)
        assert geometry.resultant is not originals[3]
    calls = {key: s.calls for key, s in tracer.stats.items()}
    # poly_powmod_p reaches poly_mul_p through _kernels' own globals.
    assert calls["poly.modp_degree_pattern"] == 1
    assert calls["kernels.poly_powmod_p"] >= 1
    assert calls["kernels.poly_mul_p"] >= calls["kernels.poly_powmod_p"]
    assert (kernels.poly_mul_p, _kernels.poly_mul_p, poly.poly_mul_p,
            geometry.resultant, bridgevar.build_report) == originals


def test_traced_counts_match_a_profile_of_one_knot():
    import cProfile
    import pstats
    prof = cProfile.Profile()
    prof.runcall(workloads.run_knot, 4, -6)
    profiled = {}
    for (path, _line, name), row in pstats.Stats(prof).stats.items():
        if "bridgevar" in path:
            profiled[name] = profiled.get(name, 0) + row[1]
    with Tracer() as tracer:
        workloads.run_knot(4, -6)
    for key in ("geometry.smoothness_certificate",
                "geometry.affine_singular_locus", "curves.d_model",
                "poly.resultant", "poly.modp_degree_pattern",
                "kernels.poly_powmod_p"):
        assert tracer.stats[key].calls == profiled[key.split(".")[1]], key


# --- checks -----------------------------------------------------------------

def test_alexander_value_at_minus_one():
    assert workloads.eval_at_minus_one("-t^2+3*t-1") == -5
    assert workloads.eval_at_minus_one("t^2-t+1") == 3
    assert workloads.eval_at_minus_one("7") == 7


def test_independent_classification():
    assert workloads.knot_class(3, 5) == "NotAKnot"
    assert workloads.knot_class(0, 4) == "Unknot"
    assert workloads.knot_class(-2, -2) == "Trefoil"
    assert workloads.knot_class(1, 6) == "TorusNonHyperbolic"
    assert workloads.knot_class(2, -2) == "Hyperbolic"


def test_good_report_passes():
    out = workloads.run_knot(2, -2)
    assert out.failure is None and not out.wrong
    assert json.loads(out.text)["knot"]["k"] == 2


def test_planted_wrong_report_is_failed_and_wrong(monkeypatch):
    real = bridgevar.build_report

    def planted(k, l):
        rep = real(k, l)
        rep["alexander"] = dict(rep["alexander"], poly="t^2-t+1")
        return rep

    monkeypatch.setattr(bridgevar, "build_report", planted)
    out = workloads.run_knot(2, -2)
    assert out.wrong and "Alexander" in out.failure
    metrics, notes, tally = run.end_to_end(Grid(2, 2), random.Random(0),
                                           0, [(1.0, 1.0)])
    assert tally.failed >= 1 and tally.problems


def test_unavailable_section_fails_without_being_wrong(monkeypatch):
    real = bridgevar.build_report

    def planted(k, l):
        rep = real(k, l)
        rep["genus_X"] = {"unavailable": "planted"}
        return rep

    monkeypatch.setattr(bridgevar, "build_report", planted)
    out = workloads.run_knot(2, -2)
    assert out.failure == "unavailable: genus_X" and not out.wrong


def test_nested_unavailable_section_fails(monkeypatch):
    real = bridgevar.build_report

    def planted(k, l):
        rep = real(k, l)
        rep["models"] = dict(rep["models"], D={"unavailable": "planted"})
        return rep

    monkeypatch.setattr(bridgevar, "build_report", planted)
    out = workloads.run_knot(2, -2)
    assert out.failure == "unavailable: models.D" and not out.wrong


def test_seed_fourplat_gap_is_counted():
    # Hyperbolic knots with one parameter 2 have no four-plat in the table.
    out = workloads.run_knot(2, 3)
    assert out.failure == "unavailable: two_bridge.fourplat"


def test_to_json_error_is_counted():
    # The frozenset in an inconclusive trace-field verdict breaks to_json.
    out = workloads.run_knot(-8, -6)
    assert out.failure.startswith("to_json raised TypeError")
    assert not out.wrong


def test_sweep_check_counts_missing_and_bad_rows():
    sweep = Sweep(2, 2, jobs=1)
    rows = [{"k": k, "l": l, "classification": workloads.knot_class(k, l),
             "p": abs(1 - k * l), "disagreements": []}
            for k, l in sweep.pairs]
    lines = [json.dumps(r) for r in rows]

    def check(code, lines):
        return sweep.check(None, (code, "\n".join(lines)))

    assert all(o.failure is None for o in check(0, lines))
    bad = [json.dumps(dict(rows[0], error="boom"))] + lines[2:]
    outs = check(1, bad)
    assert len(outs) == len(sweep.pairs)
    assert sum(o.failure is not None for o in outs) == 2
    i = sweep.pairs.index((2, -2))
    wrong_p = lines[:i] + [json.dumps(dict(rows[i], p=0))] + lines[i + 1:]
    assert any(o.wrong for o in check(1, wrong_p))
    assert all(o.failure for o in check(2, lines))


# --- smoke-size runs --------------------------------------------------------

SMOKE = [Grid(3, 3), Large([(4, -4), (3, 4)]), Riley(3, 2), Sweep(3, 3)]


@pytest.mark.parametrize("workload", SMOKE, ids=lambda w: w.name)
def test_smoke_end_to_end(workload):
    metrics, notes, tally = run.end_to_end(
        workload, random.Random(1), 0, [(0.5, 0.5)])
    assert not tally.problems
    assert tally.attempted and notes["passes"] == 1
    if workload.name == "sweep":
        assert notes["failed_share"] == 0
    for name in ("setup_s", "wall_s", "ops_per_s", "op_p50_ms",
                 "peak_rss_mb"):
        assert metrics[name] > 0, name


@pytest.mark.parametrize("workload", SMOKE, ids=lambda w: w.name)
def test_smoke_traced(workload):
    metrics, notes, outs, problems, tracer = run.traced(
        workload, random.Random(1), Grid(3, 3))
    assert not problems and not any(o.wrong for o in outs)
    assert metrics["trace_overhead"] > 0
    if workload.name != "riley":
        assert metrics["report.build_report.calls"] == len(outs)
        assert metrics["geometry.smoothness_certificate.calls"] > 0
    else:
        assert metrics["riley.riley_poly_matrix.calls"] == len(outs)
    if workload.name == "sweep":
        assert notes["cli.sweep.scaling_efficiency"] > 0


def test_seed_fixes_the_inputs():
    a = Riley(3, 2).ops(random.Random(5))
    assert a == Riley(3, 2).ops(random.Random(5))
    assert a != Riley(3, 2).ops(random.Random(6))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
