"""Report assembly and command-line interface.

Oracle: reports are rebuilt from scratch and compared byte-for-byte,
and every CLI path is driven through ``main`` with exit codes and
parsed output checked against the library API directly.  Degree-pattern
witnesses are recomputed by the distinct-degree oracle of test_poly.
"""

import hashlib
import json
import re
import sys

import pytest

from bridgevar import cli, curves, geometry, report
from bridgevar.cli import main
from bridgevar.geometry import exact_singular_locus, genus_Y
from bridgevar.kernels import poly_gcd_p
from bridgevar.knotprops import (HYPERBOLIC, TREFOIL, UNKNOT, classify,
                                 trace_field_poly)
from bridgevar.poly import (BiPoly, ExactError, UniPoly, is_prime,
                            resultant_mod_p, squarefree_part)
from bridgevar.seq import delta
from bridgevar.report import build_report, render_text, to_json
from test_poly import powmod_ddf_pattern

SECTIONS = ("knot", "classification", "models", "two_bridge", "smoothness",
            "component_count", "genus_Y", "genus_X", "odd_points",
            "alexander", "trace_field", "commensurability")


# --- report structure -----------------------------------------------------

def test_report_sections_and_routes():
    rep = build_report(4, 6)
    assert rep["schema"] == 1
    for key in SECTIONS:
        assert key in rep, key
    assert "timing" in rep
    routes = {v["route"] for v in rep.values()
              if isinstance(v, dict) and "route" in v}
    assert routes <= {"formula", "oracle", "both-agree"}
    assert rep["smoothness"]["route"] == "oracle"
    assert rep["alexander"]["route"] == "formula"
    assert rep["two_bridge"]["route"] == "both-agree"


def test_report_json_is_deterministic_and_untimed():
    a, b = to_json(build_report(4, 6)), to_json(build_report(4, 6))
    assert a == b
    data = json.loads(a)
    assert "timing" not in data and data["schema"] == 1
    assert data["knot"] == {"k": 4, "l": 6, "model_k": 4, "model_l": 6,
                            "normalized": True, "moves": []}


def test_report_degenerate_inputs_do_not_raise():
    trefoil = build_report(2, 2)
    assert trefoil["classification"] == TREFOIL
    assert "refused" in trefoil["smoothness"]
    assert trefoil["component_count"]["degenerate"]

    unknot = build_report(0, 4)
    assert unknot["classification"] == UNKNOT
    assert "unavailable" in unknot["two_bridge"]
    assert unknot["alexander"]["fibered"] is True

    not_knot = build_report(3, 3)
    assert "unavailable" in not_knot["two_bridge"]
    json.loads(to_json(not_knot))  # still serializes


def test_report_split_models_for_k_equals_l():
    rep = build_report(4, 4)
    assert "D_split" in rep["models"]
    assert len(rep["models"]["D_split"]) == 2
    assert rep["smoothness"]["component_intersection"]["count"] == 2


def count_calls(monkeypatch, fns):
    """Count the calls of `fns` wherever a bridgevar module binds them."""
    counts = dict.fromkeys((fn.__name__ for fn in fns), 0)

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in fns:
        wrapper = counted(fn)
        for name, mod in list(sys.modules.items()):
            if name == "bridgevar" or name.startswith("bridgevar."):
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        monkeypatch.setattr(mod, attr, wrapper)
    return counts


@pytest.mark.parametrize("k,l", [(4, 4), (6, -8), (3, -4), (2, 2)])
def test_report_computes_each_artifact_once(monkeypatch, k, l):
    counts = count_calls(monkeypatch, [
        geometry.smoothness_certificate, curves.c_model,
        geometry.odd_point_report, curves.d_model])
    build_report(k, l)
    assert counts["smoothness_certificate"] <= 1, counts
    assert counts["c_model"] <= 1, counts
    assert counts["odd_point_report"] <= 1, counts
    assert counts["d_model"] == 1, counts


def test_invariant_failure_is_not_unavailable(monkeypatch, capsys):
    def genus_Y_off_by_one(k, l, certificate=None):
        gy = genus_Y(k, l, certificate=certificate)
        return gy._replace(entries=tuple(
            e._replace(genus_bidegree=e.genus_bidegree + 1)
            for e in gy.entries))

    monkeypatch.setattr(report, "genus_Y", genus_Y_off_by_one)
    code, _, err = run(capsys, "analyze", "-k", "2", "-l", "-2")
    assert code == 1 and "invariant failure" in err
    code, out, _ = run(capsys, "sweep", "--kmax", "2", "--lmax", "2",
                       "--jobs", "1")
    assert code == 1
    rows = {(r["k"], r["l"]): r for r in map(json.loads, out.splitlines())}
    assert "X-genus mismatch" in rows[(2, -2)]["error"]


def test_render_text_contains_key_lines():
    text = render_text(build_report(2, -2))
    assert "classification: Hyperbolic" in text
    assert "schema: 1" in text
    assert text.endswith("\n")


# --- CLI ----------------------------------------------------------------------

def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_analyze_json_matches_library(capsys):
    code, out, _ = run(capsys, "analyze", "-k", "2", "-l", "-2", "--json")
    assert code == 0
    assert out == to_json(build_report(2, -2))


def test_cli_analyze_text_mode(capsys):
    code, out, _ = run(capsys, "analyze", "-k", "2", "-l", "-2")
    assert code == 0
    assert out == render_text(build_report(2, -2))


def test_cli_analyze_json_inconclusive_trace_field(capsys):
    code, out, _ = run(capsys, "analyze", "-k", "-8", "-l", "-6", "--json")
    assert code == 0
    analysis = json.loads(out)["trace_field"]["analysis"]
    assert analysis["verdict"] == "inconclusive"
    assert analysis["degree_sums"] == sorted(analysis["degree_sums"])


def subset_sums(pattern):
    sums = {0}
    for d in pattern:
        sums |= {s + d for s in sums}
    return sums


# The knots of the benchmark's `grid` (|k|, |l| <= 8, kl even) and `large`
# workloads.
GRID_KNOTS = [(k, l) for k in range(-8, 9) for l in range(-8, 9)
              if (k % 2 == 0 or l % 2 == 0) and classify(k, l) == HYPERBOLIC]
LARGE_KNOTS = [(14, 14), (13, -10), (-11, -12), (12, -10), (-14, -9)]


def test_canonical_outputs_are_pinned():
    # The canonical JSON and text of every knot |k|, |l| <= 8 with kl even
    # (k the outer loop), then of the large knots, as first recorded.
    digest = hashlib.sha256()
    for k, l in [(k, l) for k in range(-8, 9) for l in range(-8, 9)
                 if k * l % 2 == 0] + LARGE_KNOTS:
        r = build_report(k, l)
        digest.update((to_json(r) + render_text(r)).encode())
    assert digest.hexdigest() == \
        "e398f86c30360de9a02a8a7f9bbe4411eedaf34bc360726dc932d1fee6c6a740"


def test_irreducibility_witnesses_recheck_from_json():
    # Each listed prime gives the listed degree pattern of the trace-field
    # polynomial, recomputed by the test oracle, and no proper degree is a
    # subset sum of every pattern.
    seen = 0
    for k, l in GRID_KNOTS + LARGE_KNOTS:
        knot = report.Knot(k, l)
        section = json.loads(json.dumps(knot.section("trace_field")))
        analysis = section["analysis"]
        if analysis["verdict"] != "irreducible":
            continue
        seen += 1
        tf = knot.trace_field
        f = squarefree_part(trace_field_poly(tf.k, tf.l, canonical=True))
        f = f.clear_denominators().primitive()
        n = analysis["degree"]
        assert n == f.degree == section["squarefree_degree"]
        assert [powmod_ddf_pattern(f, p)
                for p in analysis["sampled_primes"]] == \
            analysis["patterns"]
        left = set(range(1, n))
        for pattern in analysis["patterns"]:
            left &= subset_sums(pattern)
        assert not left, (k, l)
    assert seen == 140 + 5  # the five large knots too


@pytest.fixture(scope="module")
def smoothness_sections():
    return [json.loads(json.dumps(report.Knot(k, l).section("smoothness")))
            for k, l in GRID_KNOTS + LARGE_KNOTS]


def parse_bipoly(text):
    """The BiPoly in t over r of a report equation such as r*t^2-t+1."""
    terms = {}
    for sign, body in re.findall(r"([+-]?)([^+-]+)", text):
        coef, i, j = 1, 0, 0
        for factor in body.split("*"):
            var, _, exp = factor.partition("^")
            if var == "r":
                i = int(exp or 1)
            elif var == "t":
                j = int(exp or 1)
            else:
                coef = int(var)
        terms[i, j] = -coef if sign == "-" else coef
    a = max(i for i, _ in terms)
    b = max(j for _, j in terms)
    F = BiPoly([UniPoly([terms.get((i, j), 0) for i in range(a + 1)], "r")
                for j in range(b + 1)], "t", "r")
    assert str(F) == text
    return F


def test_smoothness_witnesses_recheck_from_json(smoothness_sections):
    # R1 = Res_t(F, F_t) and R2 = Res_t(F, F_r) mod the recorded prime
    # have the recorded degrees and a constant gcd with Delta_k, and either
    # p misses lc(Delta_k) or deg R1 mod p is the Sylvester bound.
    assert len(smoothness_sections) == 158 + 5
    for section in smoothness_sections:
        target, trace = section["target"], section["affine"]["trace"]
        F = parse_bipoly(target["equation"])
        a, b = target["bidegree"]
        assert (F.degree_inner, F.degree_outer) == (a, b)
        p = trace["prime"]
        assert is_prime(p) and p.bit_length() == 61
        assert trace["degree_bound"] == a * (2 * b - 1)
        R1, _ = resultant_mod_p(F, F.deriv_outer(), p)
        degrees = {"Res_t(F,Ft)": len(R1) - 1}
        G = R1
        if "delta_filter" in section["method"]:
            assert trace["delta_filter"] is True
            dr = delta(target["k"])
            assert dr.lead % p
            G = poly_gcd_p(G, list(dr.c), p)
        else:
            assert "delta_filter" not in trace
            assert len(R1) - 1 == a * (2 * b - 1)
        if "Res_t(F,Fr)" in trace["res_degrees_mod_p"]:
            R2, _ = resultant_mod_p(F, F.deriv_inner(), p)
            degrees["Res_t(F,Fr)"] = len(R2) - 1
            G = poly_gcd_p(G, R2, p)
        assert trace["res_degrees_mod_p"] == degrees, target
        assert len(G) == 1 and trace["gcd_r_degree"] == 0, target
        assert section["smooth"] is True


def test_modular_and_exact_routes_agree(smoothness_sections):
    # The exact subresultant route, run on the same equations, proves
    # the same knots smooth.
    for section in smoothness_sections:
        target, trace = section["target"], section["affine"]["trace"]
        F = parse_bipoly(target["equation"])
        filt = None
        if "delta_filter" in section["method"]:
            filt = (delta(target["k"]), delta(target["l"]))
        exact = exact_singular_locus(F, filt)
        assert exact.kind == "Empty", target
        assert exact.trace["gcd_r_degree"] == 0, target
        assert (exact.trace["res_degrees"]["Res_t(F,Ft)"]
                >= trace["res_degrees_mod_p"]["Res_t(F,Ft)"])


@pytest.mark.parametrize("command,section", [
    ("model", "models"), ("tracefield", "trace_field"),
    ("commensurability", "commensurability")])
@pytest.mark.parametrize("k,l", [(4, 4), (3, -4)])
def test_cli_commands_print_report_sections(capsys, command, section, k, l):
    code, out, _ = run(capsys, command, "-k", str(k), "-l", str(l), "--json")
    assert code == 0
    assert json.loads(out) == json.loads(to_json(build_report(k, l)))[section]


def test_cli_exit_codes(capsys):
    code, _, err = run(capsys, "tracefield", "-k", "2", "-l", "2")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "sweep", "--kmax", "1", "--lmax", "4")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "-k", "2"])  # missing -l
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["verify", "nosuchsuite"])
    capsys.readouterr()


def test_cli_model_and_tracefield(capsys):
    code, out, _ = run(capsys, "model", "-k", "4", "-l", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["D"]["state"] == "curve" and len(data["D_split"]) == 2

    code, out, _ = run(capsys, "tracefield", "-k", "2", "-l", "-2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["bound"] == 2 and data["analysis"]["verdict"] == "irreducible"


def test_cli_newton_matches_expected(capsys):
    code, out, _ = run(capsys, "newton", "--variant", "one", "-n", "4",
                       "-p", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["matches_expected"] is True
    assert data["vertices"][0] == [0, "inf"]

    code, out, _ = run(capsys, "newton", "--variant", "alpha", "-n", "6",
                       "--json")
    assert code == 0
    assert json.loads(out)["matches_expected"] is True


def test_cli_commensurability(capsys):
    code, out, _ = run(capsys, "commensurability", "-k", "2", "-l", "4",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "NotCommensurable"
    assert data["witness"]["type"] == "reducible-point"


def test_cli_verify_suites_pass(capsys):
    code, out, _ = run(capsys, "verify", "identities", "--range", "8")
    assert code == 0
    assert "FAIL" not in out and "pass" in out

    code, out, _ = run(capsys, "verify", "riley", "--kmax", "3",
                       "--nmax", "2", "--seed", "7")
    assert code == 0 and "FAIL" not in out


def test_cli_verify_json(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "riley", "--kmax", "2",
                       "--nmax", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert [c["name"] for c in data["checks"]] == [
        "trace closed form |k|<=2", "word-vs-matrix and normal-form grid",
        "vanishing-ideal generator spot checks"]
    assert all(c["ok"] is True for c in data["checks"])

    monkeypatch.setattr(cli, "trace_formula_check", lambda *a, **kw: False)
    code, out, _ = run(capsys, "verify", "riley", "--kmax", "2",
                       "--nmax", "1", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False and data["checks"][0]["ok"] is False


@pytest.mark.parametrize("argv", [("analyze", "-k", "2", "-l", "4"),
                                  ("verify", "riley", "--kmax", "2",
                                   "--nmax", "1")])
def test_cli_common_options_before_or_after_the_command(capsys, argv):
    before = run(capsys, "--json", *argv)
    assert before == run(capsys, *argv, "--json")
    assert before[0] == 0
    json.loads(before[1])
    args = cli.build_parser().parse_args(["--jobs", "3", "--seed", "s", *argv])
    assert (args.json, args.jobs, args.seed) == (False, 3, "s")
    args = cli.build_parser().parse_args(["--jobs", "3", *argv, "--jobs", "4"])
    assert (args.jobs, args.seed) == (4, None)


def test_cli_verify_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("BRIDGEVAR_SEED", "override-seed")
    code, out, _ = run(capsys, "verify", "riley", "--kmax", "2",
                       "--nmax", "1")
    assert code == 0 and "FAIL" not in out


# --- sweep ----------------------------------------------------------------------

def test_sweep_rows_deterministic_serial_vs_parallel(tmp_path, capsys):
    serial, parallel = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
    code, _, err = run(capsys, "sweep", "--kmax", "2", "--lmax", "2",
                       "--jobs", "1", "--out", str(serial))
    assert code == 0 and "0 with failures" in err
    code, _, _ = run(capsys, "sweep", "--kmax", "2", "--lmax", "2",
                     "--jobs", "2", "--out", str(parallel))
    assert code == 0
    assert serial.read_bytes() == parallel.read_bytes()

    rows = [json.loads(line) for line in serial.read_text().splitlines()]
    # k, l in [-2, 2]^2 minus the 4 odd-odd pairs
    assert len(rows) == 21
    by_kl = {(r["k"], r["l"]): r for r in rows}
    assert by_kl[(2, -2)]["classification"] == HYPERBOLIC
    assert by_kl[(2, -2)]["genus_X"] == {"X0": 1}
    assert by_kl[(2, -2)]["fibered"] is True
    assert by_kl[(2, 2)]["classification"] == TREFOIL
    assert all(not r.get("disagreements") and "error" not in r for r in rows)


def test_sweep_pool_is_capped_at_the_core_count(monkeypatch, capsys):
    # A pool forks every worker up front; the fake records its size and
    # maps serially, so that no process starts.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    argv = ("sweep", "--kmax", "2", "--lmax", "2")
    code, out, _ = run(capsys, *argv, "--jobs", "100000")
    assert code == 0 and sizes == [3]
    assert (code, out) == run(capsys, *argv, "--jobs", "1")[:2]
    assert sizes == [3]


def test_sweep_flags_nested_unavailable_section(monkeypatch, capsys):
    def no_fourplat(k, l, form=None):
        raise ExactError("no four-plat sequence")

    monkeypatch.setattr(report, "fourplat_sequence", no_fourplat)
    code, out, _ = run(capsys, "sweep", "--kmax", "2", "--lmax", "2",
                       "--jobs", "1")
    assert code == 1
    rows = {(r["k"], r["l"]): r for r in map(json.loads, out.splitlines())}
    assert rows[(2, -2)]["disagreements"] == ["two_bridge.fourplat"]
    assert not rows[(2, 2)]["disagreements"]   # trefoil: not hyperbolic


def test_sweep_stdout_mode(capsys):
    code, out, err = run(capsys, "sweep", "--kmax", "2", "--lmax", "2",
                         "--jobs", "1")
    assert code == 0
    assert len(out.splitlines()) == 21
    assert "21 rows" in err
