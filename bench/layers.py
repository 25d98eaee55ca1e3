"""What the traced run wraps, and the per-layer metrics it derives.

Span names are ``<module>.<function>``; TruncatedPoly's arithmetic methods
are ``poly.<op>``.  Functions the metrics do not name are wrapped as well
when they do real work, so that ``cli.self_ref`` -- request time outside
every wrapped call -- is left with parsing and rendering only.
"""
from __future__ import annotations

from tracer import Target

# -- observers: exact work counts read off arguments and results ----------


def _reduce_step(tr, args, kwargs, result):
    tr.counts["standard_basis.reduce_step.terms"] += len(args[0].terms)


def _final_reduction(tr, args, kwargs, result):
    if tr.parent_name() == "standard_basis.buchberger":
        tr.counts["standard_basis.buchberger.pairs"] += 1
        tr.counts["standard_basis.buchberger.useful"] += not result.vanished


def _newton_puiseux(tr, args, kwargs, result):
    tr.note_max("curve.series_len_max", len(result.y))
    tr.note_max("curve.coeff_bits_max", max(
        c.numerator.bit_length() + c.denominator.bit_length() for c in result.y))


def _residue(tr, args, kwargs, result):
    tr.counts["bernstein.residue.groups"] += len(result.groups)


def _delta_sequences(tr, args, kwargs, result):
    tr.counts["bernstein.delta_sequences.total"] += len(result)


def _residue_is_zero(tr, args, kwargs, result):
    tr.counts["bernstein.nonzero_decisions"] += result.value != "zero"


def _interval_certificate(tr, args, kwargs, result):
    precision = args[1] if len(args) > 1 else kwargs.get("precision", 256)
    tr.note_max("bernstein.interval_certificate.bits_max", result.precision_bits)
    tr.counts["bernstein.interval_certificate.escalations"] += (
        result.precision_bits > max(precision, 8))


def _poly_terms(tr, args, kwargs, result):
    tr.counts["poly.terms_in"] += sum(len(a.terms) for a in args
                                      if hasattr(a, "terms"))


def _fn(module: str, name: str, observe=None) -> Target:
    return Target(f"{module}.{name}", f"cuspidal.{module}", name, observe)


def _poly(op: str, method: str, observe=_poly_terms) -> Target:
    return Target(f"poly.{op}", "cuspidal.poly", f"TruncatedPoly.{method}", observe)


TARGETS = (
    _fn("standard_basis", "reduce_step", _reduce_step),
    _fn("standard_basis", "final_reduction", _final_reduction),
    _fn("standard_basis", "s_process_min"),
    _fn("standard_basis", "buchberger"),
    _fn("standard_basis", "codimension"),
    _poly("add", "__add__"),
    _poly("sub", "__sub__", None),
    _poly("neg", "__neg__", None),
    _poly("mul", "__mul__"),
    _poly("rmul", "__rmul__", None),
    _poly("scale", "scale"),
    _poly("mul_monomial", "mul_monomial"),
    _fn("curve", "newton_puiseux", _newton_puiseux),
    _fn("differentials", "oracle_differential_value"),
    _fn("differentials", "differential_value"),
    _fn("differentials", "delorme"),
    _fn("jacobian", "jacobian_basis_direct"),
    _fn("jacobian", "jacobian_basis_via_differentials"),
    _fn("jacobian", "tjurina_number"),
    _fn("bernstein", "decide_root"),
    _fn("bernstein", "residue", _residue),
    _fn("bernstein", "delta_sequences", _delta_sequences),
    _fn("bernstein", "residue_is_zero", _residue_is_zero),
    _fn("bernstein", "interval_certificate", _interval_certificate),
    _fn("bernstein", "certified_roots_from_semimodule"),
    _fn("bernstein", "zariski_condition_check"),
    _fn("bernstein", "four_condition_check"),
)

REQUEST_SPAN = "cli"


# -- metrics ---------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls(span):
    return ("count", (span,), lambda c: c.counts[f"{span}.calls"])


def _self_ref(span):
    return ("ref", (span,), lambda c: c.self_ref.get(span, 0.0))


PER_LAYER = {
    "standard_basis.reduce_step.calls": _calls("standard_basis.reduce_step"),
    "standard_basis.reduce_step.self_ref": _self_ref("standard_basis.reduce_step"),
    "standard_basis.reduce_step.terms_mean": (
        "terms", ("standard_basis.reduce_step",),
        lambda c: _ratio(c.counts["standard_basis.reduce_step.terms"],
                         c.counts["standard_basis.reduce_step.calls"])),
    "standard_basis.final_reduction.calls": _calls("standard_basis.final_reduction"),
    "standard_basis.final_reduction.self_ref": _self_ref("standard_basis.final_reduction"),
    "standard_basis.s_process_min.calls": _calls("standard_basis.s_process_min"),
    "standard_basis.buchberger.calls": _calls("standard_basis.buchberger"),
    "standard_basis.buchberger.self_ref": _self_ref("standard_basis.buchberger"),
    "standard_basis.buchberger.useful_frac": (
        "fraction", ("standard_basis.buchberger", "standard_basis.final_reduction"),
        lambda c: _ratio(c.counts["standard_basis.buchberger.useful"],
                         c.counts["standard_basis.buchberger.pairs"])),
    "poly.add.calls": _calls("poly.add"),
    "poly.mul.calls": _calls("poly.mul"),
    "poly.mul_monomial.calls": _calls("poly.mul_monomial"),
    "poly.terms_in": ("terms", ("poly.add", "poly.mul", "poly.mul_monomial"),
                      lambda c: c.counts["poly.terms_in"]),
    "poly.self_ref": ("ref", ("poly.add", "poly.mul", "poly.mul_monomial"),
                      lambda c: sum(v for k, v in c.self_ref.items()
                                    if k.startswith("poly."))),
    "curve.newton_puiseux.calls": _calls("curve.newton_puiseux"),
    "curve.newton_puiseux.self_ref": _self_ref("curve.newton_puiseux"),
    "curve.series_len_max": ("coeffs", ("curve.newton_puiseux",),
                             lambda c: c.maxima.get("curve.series_len_max", 0)),
    "curve.coeff_bits_max": ("bits", ("curve.newton_puiseux",),
                             lambda c: c.maxima.get("curve.coeff_bits_max", 0)),
    "differentials.oracle_differential_value.calls":
        _calls("differentials.oracle_differential_value"),
    "differentials.oracle_differential_value.self_ref":
        _self_ref("differentials.oracle_differential_value"),
    "differentials.differential_value.calls": _calls("differentials.differential_value"),
    "differentials.differential_value.self_ref":
        _self_ref("differentials.differential_value"),
    "differentials.delorme.calls": _calls("differentials.delorme"),
    "differentials.delorme.self_ref": _self_ref("differentials.delorme"),
    "jacobian.jacobian_basis_direct.per_request": (
        "calls/request", ("jacobian.jacobian_basis_direct",),
        lambda c: _ratio(c.counts["jacobian.jacobian_basis_direct.calls"], c.requests)),
    "jacobian.tjurina_number.calls": _calls("jacobian.tjurina_number"),
    "bernstein.decide_root.calls": _calls("bernstein.decide_root"),
    "bernstein.decide_root.self_ref": _self_ref("bernstein.decide_root"),
    "bernstein.residue.calls": _calls("bernstein.residue"),
    "bernstein.residue.self_ref": _self_ref("bernstein.residue"),
    "bernstein.residue.groups_mean": (
        "groups", ("bernstein.residue",),
        lambda c: _ratio(c.counts["bernstein.residue.groups"],
                         c.counts["bernstein.residue.calls"])),
    "bernstein.delta_sequences.total": (
        "count", ("bernstein.delta_sequences",),
        lambda c: c.counts["bernstein.delta_sequences.total"]),
    "bernstein.interval_certificate.calls": _calls("bernstein.interval_certificate"),
    "bernstein.interval_certificate.self_ref": _self_ref("bernstein.interval_certificate"),
    "bernstein.interval_certificate.per_decision": (
        "certs/decision", ("bernstein.interval_certificate", "bernstein.residue_is_zero"),
        lambda c: _ratio(c.counts["bernstein.interval_certificate.calls"],
                         c.counts["bernstein.nonzero_decisions"])),
    "bernstein.interval_certificate.bits_max": (
        "bits", ("bernstein.interval_certificate",),
        lambda c: c.maxima.get("bernstein.interval_certificate.bits_max", 0)),
    "bernstein.interval_certificate.escalations": (
        "count", ("bernstein.interval_certificate",),
        lambda c: c.counts["bernstein.interval_certificate.escalations"]),
    "cli.self_ref": ("ref", (), lambda c: c.self_ref.get(REQUEST_SPAN, 0.0)),
}
