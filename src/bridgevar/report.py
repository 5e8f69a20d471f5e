"""Aggregate per-knot reports and their JSON/text rendering.

`Knot(k, l)` is the invariant pipeline of one knot and the only place
that builds one artifact from another: each artifact (curve models,
smoothness certificate, genera, odd points, trace field,
commensurability) is cached on the knot and passed to the stages that
read it.  `build_report` and the CLI commands project their output from
its sections.  A stage that needs a hyperbolic knot refuses any other
with ExactError, which the report prints as "unavailable"; a refused
stage keeps nothing and raises its refusal again on each access.

Every numeric claim carries a ``route`` tag: "formula" (closed form),
"oracle" (independent computation), or "both-agree" (the two were
computed separately and asserted equal before the report was built).
JSON output is canonical: keys sorted, rationals as "num/den" strings,
polynomials in their text form, so equal inputs give byte-identical
output.
"""

from functools import cached_property
from json.encoder import encode_basestring_ascii as _json_str

from .poly import ExactError
from .curves import c_model, d_model, d_split
from .geometry import (component_count, genus_X, genus_Y, odd_point_report,
                       smoothness_certificate)
from .knotprops import (HYPERBOLIC, alexander, classify,
                        commensurability_certificate, fourplat_sequence,
                        is_fibered, normalize_knot, require_hyperbolic,
                        two_bridge_params, trace_field_report)

SCHEMA = 1


def _infinity_dict(v):
    return {"transversal": v.transversal,
            "r_line": {"found": v.r_line[0], "required": v.r_line[1]},
            "t_line": {"found": v.t_line[0], "required": v.t_line[1]},
            "corner_on_curve": v.corner_on_curve,
            "witnesses": [dict(w) for w in v.witnesses]}


def _smoothness_section(knot):
    cert = knot.certificate
    # the certified model, D or (k = l) D1, in the dict that the models
    # section prints too
    target = knot.D_dict if cert.target is knot.D else knot.D_split_dicts[1]
    out = {"smooth": cert.smooth, "route": "oracle", "target": target,
           "affine": {"trace": cert.affine},
           "infinity": _infinity_dict(cert.infinity),
           "method": cert.method}
    if cert.d0d1 is not None:
        out["component_intersection"] = dict(cert.d0d1)
    return out


def _analysis_dict(a):
    out = {"verdict": a.verdict}
    for field, v in a._asdict().items():
        if field == "root":
            v = str(v)
        elif isinstance(v, frozenset):
            v = sorted(v)
        elif isinstance(v, tuple):
            v = list(v)
        out[field] = v
    return out


class Knot:
    """The invariant pipeline of J(k, l).

    Each artifact is computed on first access, kept, and passed by
    argument to the stages built on it; a stage that refuses the knot
    keeps nothing and raises its refusal again on each access.  A knot
    keeps everything it computed: make one per report and share none
    between knots.
    """

    def __init__(self, k, l):
        self.k = k
        self.l = l

    @cached_property
    def classification(self):
        return classify(self.k, self.l)

    # The models take their keys in the report's "models" section as
    # names: a method named like the function it calls would merge with
    # it in profiles, which key functions by name.

    @cached_property
    def C(self):
        return c_model(self.k, self.l)

    @cached_property
    def D(self):
        return d_model(self.k, self.l)

    @cached_property
    def D_split(self):
        """(D0, D1) of the D model, which needs k = l."""
        return d_split(self.D)

    # The dict of a model prints its equation; the models section and the
    # smoothness target share it.

    @cached_property
    def D_dict(self):
        return self.D.to_dict()

    @cached_property
    def D_split_dicts(self):
        return [m.to_dict() for m in self.D_split]

    # The three stages that need a hyperbolic knot refuse any other before
    # they read C (kl odd has none) or D_split (which needs l even).

    @cached_property
    def certificate(self):
        require_hyperbolic(self.k, self.l, "smoothness certificate")
        split = self.D_split if self.k == self.l else None
        return smoothness_certificate(self.D, split)

    @cached_property
    def component_count(self):
        return component_count(self.certificate)

    @cached_property
    def genus_Y(self):
        return genus_Y(self.certificate)

    @cached_property
    def odd_points(self):
        return odd_point_report(self.D, self.certificate)

    @cached_property
    def genus_X(self):
        return genus_X(self.genus_Y, self.odd_points)

    @cached_property
    def two_bridge(self):
        return two_bridge_params(self.k, self.l)

    @cached_property
    def alexander(self):
        return alexander(self.k, self.l)

    @cached_property
    def fibered(self):
        # the unknot (kl = 0) is fibered and has no Alexander polynomial here
        return self.k * self.l == 0 or is_fibered(self.alexander)

    @cached_property
    def trace_field(self):
        require_hyperbolic(self.k, self.l, "trace-field report")
        return trace_field_report(self.C)

    @cached_property
    def commensurability(self):
        require_hyperbolic(self.k, self.l, "commensurability certificate")
        return commensurability_certificate(self.C, self.fibered)

    def section(self, key):
        """The report section `key` (a key of `SECTIONS`); raises
        ExactError when its artifacts are unavailable."""
        return SECTIONS[key](self)


def _knot_section(knot):
    nid = normalize_knot(knot.k, knot.l)
    return {"k": knot.k, "l": knot.l, "model_k": nid.k, "model_l": nid.l,
            "moves": list(nid.moves)}


def _models_section(knot):
    models = {}
    try:
        models["C"] = knot.C.to_dict()
    except ExactError as e:
        models["C"] = {"unavailable": str(e)}
    try:
        models["D"] = knot.D_dict
        # the knots whose certificate reads D_split
        if knot.classification == HYPERBOLIC and knot.k == knot.l:
            models["D_split"] = knot.D_split_dicts
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
    return {"count": knot.component_count, "route": "oracle"}


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
    return {"bound": tf.bound, "squarefree_degree": tf.squarefree_degree,
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
    "smoothness": _smoothness_section,
    "component_count": _component_count_section,
    "genus_Y": _genus_Y_section,
    "genus_X": _genus_X_section,
    "odd_points": _odd_points_section,
    "alexander": _alexander_section,
    "trace_field": _trace_field_section,
    "commensurability": _commensurability_section,
}


def build_report(k, l):
    """Full invariant pipeline for one (k,l), for any integers: a section
    whose artifacts raise ExactError, such as a stage that refuses a knot
    that is not hyperbolic, is reported as unavailable."""
    knot = Knot(k, l)
    rep = {"schema": SCHEMA}
    for key in SECTIONS:
        try:
            rep[key] = knot.section(key)
        except ExactError as e:
            rep[key] = {"unavailable": str(e)}
    return rep


def to_json(rep):
    """Canonical JSON: the text of ``json.dumps(rep, sort_keys=True,
    separators=(",", ": "), indent=1)`` and a newline, written directly.

    Reports hold only dicts with str keys, lists, tuples, str, int, bool
    and None; anything else raises TypeError.
    """
    return _json_text(rep, "\n") + "\n"


def _json_text(v, nl):
    """The JSON text of v; nl is a newline and the indentation of the
    line v starts on."""
    if isinstance(v, str):
        return _json_str(v)
    inner = nl + " "
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = []
        for key in sorted(v):
            if not isinstance(key, str):
                raise TypeError("JSON keys must be str, got %r" % type(key))
            items.append(_json_str(key) + ": " + _json_text(v[key], inner))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        return ("[" + inner + ("," + inner).join([_json_text(x, inner)
                                                   for x in v]) + nl + "]")
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    raise TypeError("%r is not JSON serializable here" % type(v))


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
    """Indented text in dict order."""
    return "\n".join(_render(rep, 0)) + "\n"
