"""Report assembly and command-line interface.

Oracle: reports are rebuilt from scratch and compared byte-for-byte,
and every CLI path is driven through ``main`` with exit codes and
parsed output checked against the library API directly.  Degree-pattern
witnesses are recomputed by the distinct-degree oracle of test_poly.
"""

import gc
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bridgevar import (cli, curves, geometry, knotprops, poly, report, riley,
                       seq)
from bridgevar.cli import main
from bridgevar.geometry import genus_Y
from bridgevar.kernels import poly_gcd_p
from bridgevar.knotprops import (HYPERBOLIC, TREFOIL, UNKNOT, classify,
                                 trace_field_poly)
from bridgevar.poly import (BiPoly, ExactError, UniPoly,
                            irreducibility_analysis, is_prime,
                            resultant_mod_p, squarefree_part)
from bridgevar.seq import delta
from bridgevar.report import Knot, build_report, render_text, to_json
from test_poly import powmod_ddf_pattern
from smoothness_oracle import exact_singular_locus

SECTIONS = ("knot", "classification", "models", "two_bridge", "smoothness",
            "component_count", "genus_Y", "genus_X", "odd_points",
            "alexander", "trace_field", "commensurability")


# --- report structure -----------------------------------------------------

def test_report_sections_and_routes():
    rep = build_report(4, 6)
    assert rep["schema"] == 1
    for key in SECTIONS:
        assert key in rep, key
    routes = {v["route"] for v in rep.values()
              if isinstance(v, dict) and "route" in v}
    assert routes <= {"formula", "oracle", "both-agree"}
    assert rep["smoothness"]["route"] == "oracle"
    assert rep["alexander"]["route"] == "formula"
    assert rep["two_bridge"]["route"] == "both-agree"
    # one route, read from the smoothness certificate
    assert rep["component_count"] == {"count": 1, "route": "oracle"}


def test_report_json_is_deterministic_and_untimed():
    a, b = to_json(build_report(4, 6)), to_json(build_report(4, 6))
    assert a == b
    data = json.loads(a)
    assert "timing" not in data and data["schema"] == 1
    assert data["knot"] == {"k": 4, "l": 6, "model_k": 4, "model_l": 6,
                            "moves": []}


def test_report_degenerate_inputs_do_not_raise():
    trefoil = build_report(2, 2)
    assert trefoil["classification"] == TREFOIL
    refusal = {"unavailable": "smoothness certificate needs a hyperbolic "
                              "knot, got Trefoil"}
    assert trefoil["smoothness"] == refusal
    assert trefoil["component_count"] == refusal

    unknot = build_report(0, 4)
    assert unknot["classification"] == UNKNOT
    assert "unavailable" in unknot["two_bridge"]
    assert unknot["alexander"]["fibered"] is True

    not_knot = build_report(3, 3)
    assert "unavailable" in not_knot["two_bridge"]
    json.loads(to_json(not_knot))  # still serializes


def test_reports_of_kl_odd_certify_nothing():
    # D(3, 5) is a curve and D(5, 5) has no split, but neither pair is a
    # knot: the geometry sections are refused, not certified
    for k, l in ((3, 5), (5, 5)):
        rep = build_report(k, l)
        assert rep["classification"] == knotprops.NOT_A_KNOT
        assert "smooth" not in rep["smoothness"]
        assert "count" not in rep["component_count"]
        for key in ("smoothness", "component_count", "genus_Y", "genus_X",
                    "odd_points"):
            assert rep[key] == {"unavailable": "smoothness certificate "
                                "needs a hyperbolic knot, got NotAKnot"}


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


@pytest.mark.parametrize("k,l", [(4, 4), (6, -8), (3, -4), (2, 2), (0, 4),
                                 (3, 5)])
def test_report_computes_each_artifact_once(monkeypatch, k, l):
    counts = count_calls(monkeypatch, [
        geometry.smoothness_certificate, curves.c_model,
        geometry.odd_point_report, curves.d_model, curves.d_split,
        geometry.component_count, geometry.genus_Y, geometry.genus_X,
        knotprops.alexander, knotprops.two_bridge_params,
        knotprops.trace_field_report, knotprops.commensurability_certificate,
        seq.delta, geometry.infinity_transversality])
    texts = []
    real_text = poly.format_poly

    def recorded(*args):
        texts.append(real_text(*args))
        return texts[-1]

    monkeypatch.setattr(poly, "format_poly", recorded)
    rep = build_report(k, l)
    # each model's equation is formatted once, however many sections print
    # it (D, or D1 when k = l, is the smoothness target too)
    models = rep["models"]
    printed = [models[key] for key in ("C", "D") if "equation" in models[key]]
    printed += models.get("D_split", [])
    assert printed
    for m in printed:
        assert texts.count(m["equation"]) == 1, (m["kind"], texts)
    assert counts["smoothness_certificate"] <= 1, counts
    assert counts["c_model"] <= 1, counts
    assert counts["odd_point_report"] <= 1, counts
    assert counts["d_model"] == 1, counts
    for name in ("d_split", "component_count", "genus_Y", "genus_X",
                 "alexander", "two_bridge_params", "trace_field_report",
                 "commensurability_certificate", "delta"):
        assert counts[name] <= 1, (name, counts)
    if classify(k, l) == HYPERBOLIC:
        # k = l certifies D1 and counts the odd points on D itself
        want = 2 if k == l else 1
        assert counts["infinity_transversality"] == want, counts


@pytest.mark.parametrize("k,l", [(2, 2), (4, 4)])
def test_knot_is_freed_without_the_cyclic_gc(k, l):
    # a refused stage keeps no ExactError, and so no traceback, on the knot
    enabled = gc.isenabled()
    gc.disable()
    try:
        knot = Knot(k, l)
        for key in report.SECTIONS:
            try:
                knot.section(key)
            except ExactError:
                pass
        ref = weakref.ref(knot)
        del knot
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_refused_artifact_raises_again_on_each_access():
    knot = Knot(2, 2)
    for name in ("certificate", "genus_X", "trace_field",
                 "commensurability"):
        messages = set()
        for _ in range(3):
            with pytest.raises(ExactError) as info:
                getattr(knot, name)
            messages.add(str(info.value))
        assert len(messages) == 1, messages
        assert "needs a hyperbolic knot" in messages.pop()
    assert knot.D is knot.D and knot.classification == TREFOIL


def test_invariant_failure_is_not_unavailable(monkeypatch, capsys):
    def genus_Y_off_by_one(cert):
        gy = genus_Y(cert)
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
    # (-2, 2) is computed and (2, -2) projected from it: both fail
    for pair in ((-2, 2), (2, -2)):
        assert "X-genus mismatch" in rows[pair]["error"]
    assert rows[(2, -2)]["same_knot_as"] == [-2, 2]


def test_failed_separability_lemma_is_an_invariant_failure(monkeypatch,
                                                           capsys):
    # the odd-point count of a hyperbolic knot rests on separability
    # lemmas, in both parity cases: a failed one exits 1, it is not
    # reported as unavailable
    monkeypatch.setattr(geometry, "is_separable", lambda p: False)
    for k, l in ((4, 6), (3, 4)):
        with pytest.raises(AssertionError, match="separability failure"):
            Knot(k, l).odd_points
        code, _, err = run(capsys, "analyze", "-k", str(k), "-l", str(l))
        assert code == 1 and "separability failure" in err, (k, l)


def test_failed_intersection_fact_is_an_invariant_failure(monkeypatch,
                                                           capsys):
    # k = l: the D0/D1 intersection must match G_n; a false fact next to
    # a smooth certificate exits 1
    real = geometry.big_g
    monkeypatch.setattr(geometry, "big_g",
                        lambda n, var: real(n, var) * (UniPoly.gen(var) + 3))
    with pytest.raises(AssertionError, match="matches_big_g is false"):
        Knot(4, 4).certificate
    code, _, err = run(capsys, "analyze", "-k", "4", "-l", "4")
    assert code == 1 and "matches_big_g is false" in err


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


def test_analysis_fields_come_in_the_printed_order():
    # No grid or large knot is reducible, so the pinned outputs do not
    # cover this verdict: its keys come in the order the text report
    # prints them, with the rational root as a string.
    x = UniPoly.gen("x")
    red = report._analysis_dict(
        irreducibility_analysis((x - 2) * (x ** 2 + 1)))
    assert list(red) == ["verdict", "factor_degrees", "root"]
    assert red == {"verdict": "reducible", "factor_degrees": [1, 2],
                   "root": "2"}
    assert render_text(red).splitlines() == [
        "verdict: reducible", "factor_degrees:", "  - 1", "  - 2",
        "root: 2"]
    irr = report._analysis_dict(irreducibility_analysis(x ** 2 + 1))
    assert list(irr) == ["verdict", "degree", "sampled_primes", "patterns"]
    inc = report._analysis_dict(irreducibility_analysis(x ** 4 + 1))
    assert list(inc) == ["verdict", "degree_sums", "sampled_primes"]


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
    # (k the outer loop), then of the large knots.
    digest = hashlib.sha256()
    for k, l in [(k, l) for k in range(-8, 9) for l in range(-8, 9)
                 if k * l % 2 == 0] + LARGE_KNOTS:
        r = build_report(k, l)
        digest.update((to_json(r) + render_text(r)).encode())
    assert digest.hexdigest() == \
        "8bf45ef373584d9b3be2deb95cb1520d412ec1c1c3eaab9868e622e53706fa29"


def test_degree_264_report_is_pinned():
    # (24, -22) is chiral with a trace field of degree 264, far past the
    # degrees the pin above reaches; the hash is of its canonical JSON
    digest = hashlib.sha256(to_json(build_report(24, -22)).encode())
    assert digest.hexdigest() == \
        "998883651494756cd18224810c075eb50e9280723bf96ab47b04ca1e109a2402"


def test_degree_288_report_is_pinned():
    # (24, -24) is amphichiral with a trace field of degree 288, past
    # poly.KRONECKER_GATE; every degree pattern of it runs in a ring of
    # degree 288, in narrow slots reduced in halves (kernels.NARROW_GATE)
    digest = hashlib.sha256(to_json(build_report(24, -24)).encode())
    assert digest.hexdigest() == \
        "e2e961421b617bcd4f629564cbda7efaa3866870f912a0337e4150e62f34123c"


def json_dumps_oracle(value):
    return json.dumps(value, sort_keys=True, separators=(",", ": "),
                      indent=1) + "\n"


def test_to_json_matches_json_dumps_on_reports():
    knots = [(k, l) for k in range(-8, 9) for l in range(-8, 9)
             if k * l % 2 == 0] + LARGE_KNOTS
    for k, l in knots:
        rep = build_report(k, l)
        assert to_json(rep) == json_dumps_oracle(rep), (k, l)


# quotes, backslashes, control and non-ASCII characters, among any others
json_text = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001d11e'),
    st.characters()))
json_values = st.recursive(
    st.one_of(json_text, st.integers(), st.integers(min_value=2 ** 64),
              st.integers(max_value=-2 ** 64), st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(json_text, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=150, deadline=None)
@given(value=json_values)
def test_to_json_matches_json_dumps_on_nested_values(value):
    assert to_json(value) == json_dumps_oracle(value)


def test_to_json_empty_containers_and_refused_types():
    for value in ({}, [], (), {"a": {}, "b": [[], {}]}, [[[]]], ""):
        assert to_json(value) == json_dumps_oracle(value)
    for bad in (1.5, {"a": [frozenset()]}, {1: 2}, [{"a": 1, 2: 3}]):
        with pytest.raises(TypeError):
            to_json(bad)


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
        f = squarefree_part(trace_field_poly(knot.C))
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


@pytest.mark.parametrize("argv", [
    ("riley", "--kmax", "-5"), ("riley", "--kmax", "1"),
    ("riley", "--nmax", "0"), ("newton", "--range", "0"),
    ("identities", "--range", "-1"), ("all", "--kmax", "1", "--json")])
def test_cli_verify_refuses_vacuous_bounds(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == "" and "error:" in err


def test_cli_model_and_tracefield(capsys):
    code, out, _ = run(capsys, "model", "-k", "4", "-l", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["D"]["bidegree"] == [2, 2] and len(data["D_split"]) == 2

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
                       "--nmax", "2")
    assert code == 0 and "FAIL" not in out


def test_cli_verify_json(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "riley", "--kmax", "2",
                       "--nmax", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert [c["name"] for c in data["checks"]] == [
        "trace identity |k|<=2", "word-vs-matrix and normal-form grid",
        "vanishing-ideal identity grid"]
    assert all(c["ok"] is True for c in data["checks"])

    monkeypatch.setattr(cli, "trace_formula_check", lambda *a, **kw: False)
    code, out, _ = run(capsys, "verify", "riley", "--kmax", "2",
                       "--nmax", "1", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False and data["checks"][0]["ok"] is False


def test_cli_verify_riley_builds_each_riley_polynomial_once(monkeypatch,
                                                           capsys):
    # the vanishing-ideal check takes the F of the three-route grid
    counts = count_calls(monkeypatch, [riley.riley_poly_J])
    code, out, _ = run(capsys, "verify", "riley", "--kmax", "3",
                       "--nmax", "2")
    assert code == 0 and "FAIL" not in out
    assert counts["riley_poly_J"] == 4 * 4  # 2 <= |k| <= 3, 1 <= |n| <= 2


@pytest.mark.parametrize("argv", [("analyze", "-k", "2", "-l", "4"),
                                  ("verify", "riley", "--kmax", "2",
                                   "--nmax", "1")])
def test_cli_common_options_before_or_after_the_command(capsys, argv):
    before = run(capsys, "--json", *argv)
    assert before == run(capsys, *argv, "--json")
    assert before[0] == 0
    json.loads(before[1])
    args = cli.build_parser().parse_args(["--jobs", "3", *argv])
    assert (args.json, args.jobs) == (False, 3)
    args = cli.build_parser().parse_args(["--jobs", "3", *argv, "--jobs", "4"])
    assert args.jobs == 4


def test_cli_seed_option_is_gone(capsys):
    # every check is exact: there is nothing to seed
    for argv in (("--seed", "7", "verify", "riley"),
                 ("verify", "riley", "--seed", "7")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "bridgevar: error:" in capsys.readouterr().err


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


def test_sweep_rows_agree_under_the_knot_symmetries():
    # J(l, k) is J(k, l) and J(-k, -l) its mirror image: their rows agree
    # on every invariant that mirroring keeps
    def invariants(k, l):
        row = cli._sweep_row((k, l))
        sf_degree = None
        if row["classification"] == HYPERBOLIC:
            assert row["components"] in (1, 2)
            sf_degree = report.Knot(k, l).trace_field.squarefree_degree
        else:
            assert row["components"] is None
        return (row["classification"], row.get("p"),
                sorted(row.get("genus_X", {}).values()), row["fibered"],
                row["components"], sf_degree)

    pairs = [(k, l) for k in range(-8, 9) for l in range(-8, 9)
             if k * l % 2 == 0]
    rows = {pair: invariants(*pair) for pair in pairs}
    assert len(rows) == 225
    for k, l in pairs:
        assert rows[(k, l)] == rows[(l, k)] == rows[(-k, -l)], (k, l)


def test_sweep_rows_agree_across_a_two_bridge_class():
    # J(k, l) is the two-bridge knot b(p, q), and b(p, q) is b(p, q') up
    # to mirror image exactly when q' is one of +-q^(+-1) mod p: every
    # orbit of a class must give the same row but for k and l
    orbits = {cli._orbit(k, l) for k in range(-12, 13)
              for l in range(-12, 13) if k * l % 2 == 0}
    classes = {}
    for pair in sorted(orbits):
        row = cli._sweep_row(pair)
        if row["classification"] != HYPERBOLIC:
            continue
        p, q = row["p"], row["q"]
        inv = pow(q, -1, p)
        least = min(x % p for x in (q, -q, inv, -inv))
        rest = {key: v for key, v in row.items() if key not in ("k", "l")}
        classes.setdefault((p, least), []).append((pair, rest))
    shared = {cls: members for cls, members in classes.items()
              if len(members) > 1}
    for members in shared.values():
        assert all(rest == members[0][1] for _, rest in members), members
    # only the twist knots J(-m, -2) = J(1 - m, 2) share a class here
    assert {cls: [pair for pair, _ in members]
            for cls, members in shared.items()} == {
        (2 * m - 1, 2): [(-m, -2), (1 - m, 2)] for m in range(3, 13)}


def test_commands_without_a_pool_do_not_load_one():
    # the pool modules cost start-up time and no command needs them: a
    # sweep forks its own processes
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from bridgevar.cli import build_parser, main\n"
        "build_parser()\n"
        "main(['analyze', '-k', '4', '-l', '-6'])\n"
        "main(['sweep', '--kmax', '2', '--lmax', '2', '--jobs', '1'])\n"
        "main(['sweep', '--kmax', '2', '--lmax', '2', '--jobs', '2'])\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('concurrent', 'multiprocessing'))),\n"
        "      file=sys.stderr)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == "[]"


@pytest.fixture
def pool_sizes(monkeypatch):
    """A sweep forks all its processes up front; the fake records their
    count and maps serially, so that no process starts."""
    sizes = []

    def serial_rows(reps, procs):
        sizes.append(procs)
        return [cli._sweep_row(p) for p in reps]

    monkeypatch.setattr(cli, "_forked_rows", serial_rows)
    return sizes


def test_sweep_pool_is_capped_at_the_core_count(monkeypatch, capsys,
                                                pool_sizes):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    argv = ("sweep", "--kmax", "2", "--lmax", "2")
    code, out, _ = run(capsys, *argv, "--jobs", "100000")
    assert code == 0 and pool_sizes == [3]
    assert (code, out) == run(capsys, *argv, "--jobs", "1")[:2]
    assert pool_sizes == [3]


def test_sweep_pool_is_capped_at_the_knot_count(monkeypatch, capsys,
                                                pool_sizes):
    monkeypatch.setattr(cli, "_usable_cores", lambda: 64)
    code, _, err = run(capsys, "sweep", "--kmax", "2", "--lmax", "2")
    assert code == 0 and pool_sizes == [7]
    assert "21 rows from 7 orbits, 0 with failures" in err


@pytest.mark.parametrize("kmax,lmax", [(6, 4), (4, 6)])
def test_sweep_projects_each_row_from_its_orbit(capsys, kmax, lmax):
    # with lmax > kmax the orbit's least pair can lie out of range
    code, out, err = run(capsys, "sweep", "--kmax", str(kmax),
                         "--lmax", str(lmax), "--jobs", "1")
    assert code == 0 and "93 rows from 33 orbits" in err
    rows = [json.loads(line) for line in out.splitlines()]
    by_kl = {(r["k"], r["l"]): r for r in rows}
    assert len(by_kl) == len(rows) == 93

    def orbit(k, l):
        return {(k, l), (l, k), (-k, -l), (-l, -k)}

    for row in rows:
        k, l = row["k"], row["l"]
        rep = row.pop("same_knot_as", None)
        # every field, p and q included, equals a direct computation
        assert row == cli._sweep_row((k, l)), (k, l)
        if rep is not None:
            rep = tuple(rep)
            assert rep != (k, l) and rep in orbit(k, l) and rep in by_kl
            assert "same_knot_as" not in by_kl[rep]


def test_sweep_projection_is_the_same_in_a_pool(monkeypatch, capsys):
    # with --jobs 3 this process reads two pipes; --jobs 2 runs in a fresh
    # interpreter with warnings as errors, where Python 3.12 and later warn
    # of a fork in a process that has threads
    monkeypatch.setattr(cli, "_usable_cores", lambda: 3)
    argv = ["sweep", "--kmax", "6", "--lmax", "6", "--jobs"]
    serial = run(capsys, *argv, "1")
    assert serial[0] == 0 and "0 with failures" in serial[2]
    assert run(capsys, *argv, "3") == serial
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import sys; from bridgevar.cli import main; sys.exit(main())",
         *argv, "2"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert (done.returncode, done.stdout, done.stderr) == serial
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("die,error", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9")])
def test_sweep_rows_of_a_dead_worker_are_errors(monkeypatch, capsys, die,
                                                error):
    # a child that dies before it sends its rows turns the rows of its
    # share, and their projections, into error rows: exit 1, no hang, and
    # no child left behind
    parent = os.getpid()

    def dying_row(pair):
        if os.getpid() != parent:
            die()
        return sweep_row(pair)

    sweep_row = cli._sweep_row
    monkeypatch.setattr(cli, "_sweep_row", dying_row)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    code, out, err = run(capsys, "sweep", "--kmax", "2", "--lmax", "2",
                         "--jobs", "2")
    assert code == 1
    rows = [json.loads(line) for line in out.splitlines()]
    reps = [(r["k"], r["l"]) for r in rows if "same_knot_as" not in r]
    dead = set(reps[1::2])
    for row in rows:
        rep = tuple(row.get("same_knot_as", (row["k"], row["l"])))
        if rep in dead:
            assert row["error"] == "ChildProcessError: worker process " + error
        else:
            assert "error" not in row
    failed = sum("error" in row for row in rows)
    assert failed > len(dead) == 3
    assert "21 rows from 7 orbits, %d with failures" % failed in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_interrupted_in_this_process_kills_its_children(monkeypatch):
    parent = os.getpid()

    def row(pair):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(cli, "_sweep_row", row)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", "--kmax", "2", "--lmax", "2", "--jobs", "3"])
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("bound,calls,rows", [(2, 7, 21), (4, 19, 65)])
def test_sweep_computes_each_knot_once(monkeypatch, capsys, bound, calls,
                                       rows):
    computed = []

    def counting_row(pair):
        computed.append(pair)
        return sweep_row(pair)

    sweep_row = cli._sweep_row
    monkeypatch.setattr(cli, "_sweep_row", counting_row)
    code, out, _ = run(capsys, "sweep", "--kmax", str(bound),
                       "--lmax", str(bound), "--jobs", "1")
    assert code == 0 and len(out.splitlines()) == rows
    assert len(computed) == len(set(computed)) == calls


def test_sweep_projected_row_gets_its_own_two_bridge_error(monkeypatch):
    def refuse(k, l):
        raise AssertionError("normal form broke at (%d,%d)" % (k, l))

    row = cli._sweep_row((-2, 4))
    monkeypatch.setattr(cli, "two_bridge_params", refuse)
    assert cli._projected_row(row, 4, -2, (-2, 4)) == {
        "k": 4, "l": -2, "same_knot_as": [-2, 4],
        "error": "AssertionError: normal form broke at (4,-2)"}
    assert cli._projected_row(row, -2, 4, (-2, 4)) is row


def test_sweep_flags_nested_unavailable_section(monkeypatch, capsys):
    def no_fourplat(k, l, form=None):
        raise ExactError("no four-plat sequence")

    monkeypatch.setattr(report, "fourplat_sequence", no_fourplat)
    code, out, _ = run(capsys, "sweep", "--kmax", "2", "--lmax", "2",
                       "--jobs", "1")
    assert code == 1
    rows = {(r["k"], r["l"]): r for r in map(json.loads, out.splitlines())}
    for pair in ((-2, 2), (2, -2)):
        assert rows[pair]["disagreements"] == ["two_bridge.fourplat"]
    assert not rows[(2, 2)]["disagreements"]   # trefoil: not hyperbolic


def test_sweep_unwritable_out_fails_before_any_row(tmp_path, monkeypatch,
                                                   capsys):
    def no_row(pair):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(cli, "_sweep_row", no_row)
    code, out, err = run(capsys, "sweep", "--kmax", "2", "--lmax", "2",
                         "--jobs", "1",
                         "--out", str(tmp_path / "missing" / "rows.jsonl"))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write ")


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("before", [True, False])
def test_sweep_refuses_jobs_below_one(monkeypatch, capsys, jobs, before):
    def no_row(pair):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(cli, "_sweep_row", no_row)
    argv = ["sweep", "--kmax", "2", "--lmax", "2"]
    argv = ["--jobs", jobs] + argv if before else argv + ["--jobs", jobs]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def run_cli_process(argv, stdout):
    """The exit code and stderr of the CLI in a fresh interpreter whose
    stdout is the file descriptor or file `stdout`."""
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from bridgevar.cli import main; sys.exit(main())",
         *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    return done.returncode, done.stderr


DEV_FULL = Path("/dev/full")
needs_dev_full = pytest.mark.skipif(not DEV_FULL.exists(),
                                    reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize("argv", [
    ["analyze", "-k", "4", "-l", "-6"],
    ["verify", "riley", "--kmax", "2", "--nmax", "1"],
    ["newton", "-n", "6", "-p", "3", "--json"],
    ["sweep", "--kmax", "3", "--lmax", "3", "--jobs", "1"]])
def test_output_to_a_full_device_is_an_error_line(argv):
    # one error line and exit 2, no traceback, and nothing printed when
    # the interpreter flushes stdout at exit
    with open(DEV_FULL, "w") as full:
        assert run_cli_process(argv, full) == (
            2, "error: cannot write <stdout>: No space left on device\n")


@needs_dev_full
def test_sweep_out_on_a_full_device_is_an_error_line():
    argv = ["sweep", "--kmax", "3", "--lmax", "3", "--jobs", "2",
            "--out", str(DEV_FULL)]
    assert run_cli_process(argv, subprocess.DEVNULL) == (
        2, "error: cannot write %s: No space left on device\n" % DEV_FULL)


@pytest.mark.parametrize("argv", [
    ["analyze", "-k", "4", "-l", "-6", "--json"],
    ["sweep", "--kmax", "3", "--lmax", "3", "--jobs", "1"]])
def test_output_to_a_closed_pipe_is_an_error_line(argv):
    # the reader is gone before the command writes, as when `head` exits
    r, w = os.pipe()
    os.close(r)
    try:
        assert run_cli_process(argv, w) == (
            2, "error: cannot write <stdout>: Broken pipe\n")
    finally:
        os.close(w)


def test_sweep_failed_fork_is_not_an_output_error(monkeypatch, capsys):
    # only the writes turn an OSError into exit 2
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(BlockingIOError):
        main(["sweep", "--kmax", "2", "--lmax", "2", "--jobs", "2"])
    assert capsys.readouterr().out == ""


def test_sweep_stdout_mode(capsys):
    code, out, err = run(capsys, "sweep", "--kmax", "2", "--lmax", "2",
                         "--jobs", "1")
    assert code == 0
    assert len(out.splitlines()) == 21
    assert "21 rows" in err
