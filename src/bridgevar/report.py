"""Aggregate per-knot reports and their JSON/text rendering.

`Knot(k, l)` is the invariant pipeline of one knot: each artifact (curve
models, smoothness certificate, genera, odd points, trace field,
commensurability) is computed at most once and handed to the stages that
need it.  `build_report` and the CLI commands project their output from
its sections.

Every numeric claim carries a ``route`` tag: "formula" (closed form),
"oracle" (independent computation), or "both-agree" (the two were
computed separately and asserted equal before the report was built).
JSON output is canonical: keys sorted, rationals as "num/den" strings,
polynomials in their text form; the timing block is excluded from both
JSON and text, so equal inputs give byte-identical output.
"""

import json
import time

from .poly import ExactError
from .curves import c_model, d_model, d_split, STATE_CURVE
from .geometry import (component_count, genus_X, genus_Y, odd_point_report,
                       smoothness_certificate)
from .knotprops import (HYPERBOLIC, alexander, classify,
                        commensurability_certificate, fourplat_sequence,
                        is_fibered, normalize_knot, two_bridge_params,
                        trace_field_report)

SCHEMA = 1


def _affine_dict(v):
    return {"kind": v.kind, "points": [dict(p) for p in v.points],
            "trace": v.trace}


def _infinity_dict(v):
    return {"transversal": v.transversal,
            "r_line": {"found": v.r_line[0], "required": v.r_line[1]},
            "t_line": {"found": v.t_line[0], "required": v.t_line[1]},
            "corner_on_curve": v.corner_on_curve,
            "witnesses": [dict(w) for w in v.witnesses]}


def _cert_dict(cert):
    if cert.refusal is not None:
        return {"refused": cert.refusal}
    out = {"smooth": cert.smooth, "route": "oracle",
           "target": cert.target.to_dict(),
           "affine": _affine_dict(cert.affine),
           "infinity": _infinity_dict(cert.infinity),
           "method": cert.method}
    if cert.d0d1 is not None:
        out["component_intersection"] = dict(cert.d0d1)
    return out


def _analysis_dict(a):
    out = {"verdict": a.verdict}
    for field in ("degree", "factor_degrees", "root", "degree_sums",
                  "sampled_primes", "patterns"):
        if hasattr(a, field):
            v = getattr(a, field)
            if field == "root":
                v = str(v)
            elif isinstance(v, frozenset):
                v = sorted(v)
            elif isinstance(v, tuple):
                v = list(v)
            out[field] = v
    return out


class _once:
    """A `Knot` artifact, computed on first access.  The value, or the
    ExactError its computation raised, is kept on the knot, so a failed
    stage is not run again by the stages after it."""

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, knot, owner=None):
        if knot is None:
            return self
        done = knot._done
        if self.name not in done:
            try:
                done[self.name] = (self.build(knot), None)
            except ExactError as e:
                done[self.name] = (None, e)
        value, error = done[self.name]
        if error is not None:
            raise error
        return value


class Knot:
    """The invariant pipeline of J(k, l).

    Each artifact is computed at most once, on first access, and passed
    by argument to the stages built on it.  A knot keeps everything it
    computed: make one per report and share none between knots.
    """

    def __init__(self, k, l):
        self.k = k
        self.l = l
        self._done = {}

    @_once
    def classification(self):
        return classify(self.k, self.l)

    # The models take their keys in the report's "models" section as
    # names: a method named like the function it calls would merge with
    # it in profiles, which key functions by name.

    @_once
    def C(self):
        return c_model(self.k, self.l)

    @_once
    def D(self):
        return d_model(self.k, self.l)

    @_once
    def D_split(self):
        """(D0, D1) of the D model, which needs k = l."""
        dm = self.D
        if dm.k != dm.l:
            raise ExactError("D(%d,%d) splits only when k = l" % (dm.k, dm.l))
        return d_split(dm.l, dm)

    @_once
    def certificate(self):
        dm = self.D
        split = (self.D_split if dm.state == STATE_CURVE and dm.k == dm.l
                 else None)
        return smoothness_certificate(self.k, self.l, dm, split)

    @_once
    def component_count(self):
        return component_count(self.k, self.l, self.certificate)

    @_once
    def genus_Y(self):
        return genus_Y(self.k, self.l, certificate=self.certificate)

    @_once
    def odd_points(self):
        """The whole odd-point report."""
        return odd_point_report(self.k, self.l, model=self.D,
                                certificate=self.certificate)

    @_once
    def genus_X(self):
        return genus_X(self.k, self.l, self.genus_Y, self.odd_points)

    @_once
    def two_bridge(self):
        return two_bridge_params(self.k, self.l)

    @_once
    def alexander(self):
        return alexander(self.k, self.l)

    @_once
    def fibered(self):
        # the unknot (kl = 0) is fibered and has no Alexander polynomial here
        return is_fibered(self.k, self.l,
                          self.alexander if self.k * self.l else None)

    # The two stages below refuse a knot that is not hyperbolic before
    # they read an artifact; it may have none (kl odd has no C model).

    @_once
    def trace_field(self):
        if self.classification != HYPERBOLIC:
            return trace_field_report(self.k, self.l)
        return trace_field_report(self.k, self.l, self.C)

    @_once
    def commensurability(self):
        if self.classification != HYPERBOLIC:
            return commensurability_certificate(self.k, self.l)
        return commensurability_certificate(self.k, self.l, self.C,
                                            self.fibered)

    def section(self, key):
        """The report section `key` (a key of `SECTIONS`); raises
        ExactError when its artifacts are unavailable."""
        return SECTIONS[key](self)


def _knot_section(knot):
    nid = normalize_knot(knot.k, knot.l)
    return {"k": knot.k, "l": knot.l, "model_k": nid.k, "model_l": nid.l,
            "normalized": nid.normalized, "moves": list(nid.moves)}


def _models_section(knot):
    models = {}
    try:
        models["C"] = knot.C.to_dict()
    except ExactError as e:
        models["C"] = {"unavailable": str(e)}
    try:
        dm = knot.D
        models["D"] = dm.to_dict()
        if dm.state == STATE_CURVE and dm.k == dm.l and dm.l % 2 == 0:
            models["D_split"] = [m.to_dict() for m in knot.D_split]
    except ExactError as e:
        models["D"] = {"unavailable": str(e)}
    return models


def _two_bridge_section(knot):
    tb = knot.two_bridge
    two = {"p": tb.p, "q": tb.q, "cont_frac": list(tb.cont_frac),
           "value": str(tb.value()), "route": "both-agree"}
    try:
        two["fourplat"] = list(fourplat_sequence(knot.k, knot.l, tb))
    except ExactError as e:
        two["fourplat"] = {"unavailable": str(e)}
    return two


def _component_count_section(knot):
    cc = knot.component_count
    return {"count": cc.count, "degenerate": cc.degenerate,
            "route": "both-agree"}


def _genus_Y_section(knot):
    return [{"component": e.component, "genus": e.genus_bidegree,
             "hyperelliptic": e.hyperelliptic, "route": "both-agree"}
            for e in knot.genus_Y.entries]


def _genus_X_section(knot):
    return [{"component": e.component, "genus": e.genus_rh,
             "odd_points": e.odd_points, "route": "both-agree"}
            for e in knot.genus_X.entries]


def _odd_points_section(knot):
    knot.genus_X    # the odd points are reported with the genus they give
    opr = knot.odd_points
    return {"count": opr.count, "affine": opr.affine,
            "infinity": opr.infinity, "case": opr.case,
            "route": "both-agree"}


def _alexander_section(knot):
    try:
        return {"poly": str(knot.alexander), "fibered": knot.fibered,
                "route": "formula"}
    except ExactError as e:
        fib = True if knot.k * knot.l == 0 else None
        return {"unavailable": str(e), "fibered": fib}


def _trace_field_section(knot):
    tf = knot.trace_field
    return {"bound": tf.bound, "poly_degree": tf.poly_degree,
            "squarefree_degree": tf.squarefree_degree,
            "analysis": _analysis_dict(tf.analysis),
            "empirical": tf.empirical, "route": "both-agree"}


def _commensurability_section(knot):
    cc = knot.commensurability
    return {"verdict": cc.verdict, "witness": cc.witness, "route": "oracle"}


# The report's sections, in the order the renderings print them.
SECTIONS = {
    "knot": _knot_section,
    "classification": lambda knot: knot.classification,
    "models": _models_section,
    "two_bridge": _two_bridge_section,
    "smoothness": lambda knot: _cert_dict(knot.certificate),
    "component_count": _component_count_section,
    "genus_Y": _genus_Y_section,
    "genus_X": _genus_X_section,
    "odd_points": _odd_points_section,
    "alexander": _alexander_section,
    "trace_field": _trace_field_section,
    "commensurability": _commensurability_section,
}


def build_report(k, l):
    """Full invariant pipeline for one (k,l), degenerate-safe: a section
    whose artifacts raise ExactError is reported as unavailable."""
    t0 = time.perf_counter()
    knot = Knot(k, l)
    rep = {"schema": SCHEMA}
    for key in SECTIONS:
        try:
            rep[key] = knot.section(key)
        except ExactError as e:
            rep[key] = {"unavailable": str(e)}
    rep["timing"] = {"seconds": round(time.perf_counter() - t0, 3)}
    return rep


def _untimed(rep):
    """The report without its wall-clock timing block, so that both
    renderings give the same output for the same input."""
    return {k: v for k, v in rep.items() if k != "timing"}


def to_json(rep):
    """Canonical JSON: sorted keys, no timing block."""
    return json.dumps(_untimed(rep), sort_keys=True, separators=(",", ": "),
                      indent=1) + "\n"


def _render(value, indent):
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in value:
            v = value[key]
            if isinstance(v, (dict, list)):
                lines.append("%s%s:" % (pad, key))
                lines.extend(_render(v, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, key, v))
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append("%s-" % pad)
                lines.extend(_render(v, indent + 1))
            else:
                lines.append("%s- %s" % (pad, v))
    else:
        lines.append("%s%s" % (pad, value))
    return lines


def render_text(rep):
    """Indented text in dict order, no timing block."""
    return "\n".join(_render(_untimed(rep), 0)) + "\n"
