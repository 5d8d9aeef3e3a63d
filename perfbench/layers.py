"""Per-layer metrics of a traced run, from the passes ``child.py`` made.

Names are ``<module>.<public function>.<stat>``: ``calls`` (or ``builds``
for a ``cached_property`` builder) counts spans, ``self_s`` is span time
minus child-span time, ``s`` is inclusive time, ``useful_ratio`` is distinct
outcomes over calls, ``peak_rss_rise_mb`` is the largest rise of the
resident set inside one of the layer's outermost spans that set a new
process high-water mark (a lower bound, see ``tracer.py``), and
``<layer>.errors`` counts exceptions raised out of the layer.  A function a
workload never enters reads 0.
"""
from __future__ import annotations

from tracer import LAYERS, PEAK_LAYERS, USEFUL

_SELF = [
    "measure.CylinderMeasure.eval", "measure.invariance_report",
    "measure.fiber_spectrum", "measure.entropy_rate_profile",
    "measure.coset_measure_check", "measure.support_alphabet",
    "automaton.fiber_preimages", "automaton.is_bipermutative",
    "automaton.step", "automaton.xi", "automaton.xi_inverse", "automaton.tau",
    "quasigroup.validate_latin", "quasigroup.closure",
    "quasigroup.subquasigroups",
    "groups.GroupTable.rows", "groups.elementary_abelian_group",
    "matfp.rcf", "matfp.char_poly", "matfp.min_poly",
    "matfp.invariant_subspaces",
    "eca.affine_matrix_system", "eca.decompose_affine", "eca.kernel",
    "eca.linear_view", "eca.invariant_subgroups", "eca.lemma_audit",
    "fixtures.resolve_rule", "fixtures.resolve_group",
    "cli.main",
]
_CALLS = [
    "measure.CylinderMeasure.eval", "measure.invariance_report",
    "automaton.fiber_preimages", "automaton.is_bipermutative",
    "automaton.step", "automaton.xi", "automaton.xi_inverse", "automaton.tau",
    "quasigroup.validate_latin", "quasigroup.closure",
    "groups.GroupTable.mul", "matfp.rref",
]
_BUILDS = ["groups.GroupTable.rows"]
# inclusive: the suite criteria, and is_bipermutative, whose cost is in its
# is_left_permutative / is_right_permutative children
_INCLUSIVE = [f"suite.criterion_{i}" for i in range(1, 10)] \
    + ["automaton.is_bipermutative"]

PER_LAYER = (
    [(f"{n}.calls", "count") for n in _CALLS]
    + [(f"{n}.builds", "count") for n in _BUILDS]
    + [(f"{n}.self_s", "s") for n in _SELF]
    + [(f"{n}.s", "s") for n in _INCLUSIVE]
    + [(f"{n}.useful_ratio", "ratio") for n in USEFUL]
    + [(f"{layer}.peak_rss_rise_mb", "MB") for layer in PEAK_LAYERS]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [("trace.untraced_wall_s", "s"), ("trace.wall_s", "s"),
       ("trace.overhead_s", "s")]
)


def metrics(plain: dict, spans: dict) -> dict:
    """Every PER_LAYER metric from an untraced and a traced pass."""
    stats = spans["stats"]

    def stat(name: str, i: int):
        return stats.get(name, [0, 0.0, 0.0])[i]

    values = {}
    for name, unit in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind in ("calls", "builds"):
            value = stat(base, 0)
        elif kind == "self_s":
            value = stat(base, 2)
        elif kind == "s":
            value = stat(base, 1)
        elif kind == "useful_ratio":
            calls = stat(base, 0)
            value = spans["distinct"][base] / calls if calls else 0.0
        elif kind == "peak_rss_rise_mb":
            value = spans["peak_rss_rise"][base] / 2 ** 20
        elif kind == "errors":
            value = spans["errors"][base]
        elif name == "trace.untraced_wall_s":
            value = plain["pass_s"]
        elif name == "trace.wall_s":
            value = spans["pass_s"]
        else:
            value = spans["pass_s"] - plain["pass_s"]
        values[name] = {"value": value, "unit": unit}
    return values
