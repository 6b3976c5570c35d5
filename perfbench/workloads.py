"""The benchmark workloads: one operation per input, its output checks and
the canonical output that goes into the output digest.

Every call into wildram goes through the module object at call time
(``_blowup.resolve``, not a name bound at import), so the traced run's
wrappers see it.
"""

from __future__ import annotations

from inputs import field_size
import wildram.blowup as _blowup
import wildram.parsing as _parsing
import wildram.reduction as _reduction
import wildram.report as _report
import wildram.staircase as _staircase


class ReportMixed:
    """``build_report`` in candidates mode, perturbed rerun included."""

    name = "report-mixed"
    # the depth cap surfaces as an error; representative_independence
    # fails when a perturbation leaves a non-essential corner in the good
    # representative's staircase
    known_failures = frozenset({"DepthCapError",
                                "verdict:representative_independence"})
    expected_spans = ("report.build", "parsing.parse", "blowup.resolve",
                      "reduction.good_representative", "reduction.swan",
                      "laurent.pole_staircase", "laurent.translate",
                      "fields.find_roots", "staircase.recursive",
                      "staircase.closed_form", "staircase.hull")
    expected_counts = ("fields.mul_calls",)

    def fields(self, items):
        return sorted({field_size(item["field"]) for item in items})

    def prepare(self, item):
        return _report.InputSpec(field=item["field"], branches=item["branches"],
                                 expr=item["expr"], seed=item["seed"])

    def call(self, spec):
        return _report.build_report(spec)

    def output(self, result):
        return result.to_dict()

    def check(self, item, spec, result):
        failed = sorted(name for name, verdict in result.verdicts.items()
                        if not verdict["pass"])
        return "verdict:" + ",".join(failed) if failed else None


class SweepExt:
    """``resolve`` in sweep mode over F_8, F_9, F_16 and F_25."""

    name = "sweep-ext"
    known_failures = frozenset()
    expected_spans = ("blowup.resolve", "reduction.good_representative",
                      "reduction.swan", "laurent.pole_staircase",
                      "laurent.translate")
    expected_counts = ("fields.mul_calls",)

    def fields(self, items):
        out = set()
        for item in items:
            p, k = field_size(item["field"])
            out.add((p, k))
            out.add((p, k * item["sweep_degree"]))
        return sorted(out)

    def prepare(self, item):
        f = _parsing.parse_polynomial(item["expr"],
                                      _parsing.parse_field(item["field"]))
        config = _blowup.SimulationConfig(mode="sweep",
                                          sweep_degree=item["sweep_degree"])
        return f, item["branches"], config

    def call(self, prepared):
        return _blowup.resolve(*prepared)

    def output(self, result):
        return {"tree": _blowup.tree_as_dict(result.root),
                "total": result.total,
                "good_regime": result.good_regime,
                "off_origin_nonclean": result.off_origin_nonclean,
                "nonroot_repair": result.nonroot_repair,
                "partial_roots": result.partial_roots,
                "constant_added_anywhere": result.constant_added_anywhere,
                "precision_escalations": result.precision_escalations}

    def check(self, item, prepared, result):
        """The recursion oracle on the good regime, and the bound."""
        f, branches, _ = prepared
        stair = _reduction.good_representative(f).staircase
        recursive = _staircase.ramification_recursive(stair, branches).total
        if result.good_regime and result.total != recursive:
            return "check:oracle"
        if len(stair) > 1:
            bound = _staircase.ramification_bound(stair, branches)
            if result.total > bound or recursive > bound:
                return "check:bound"
        return None


class StaircaseDeep:
    """Recursion, closed form, hull and bound of one staircase."""

    name = "staircase-deep"
    known_failures = frozenset({"RecursionError"})
    expected_spans = ("staircase.recursive", "staircase.closed_form",
                      "staircase.hull")
    expected_counts = ()

    def fields(self, items):
        return []

    def prepare(self, item):
        return _staircase.Staircase(item["points"]), item["branches"]

    def call(self, prepared):
        stair, branches = prepared
        trace = _staircase.ramification_recursive(stair, branches)
        closed = _staircase.ramification_closed_form(stair, branches)
        hull = _staircase.essential_vertices(stair)
        bound = _staircase.ramification_bound(stair, branches)
        return trace, closed, hull, bound

    def output(self, result):
        trace, closed, hull, bound = result
        return {"total": trace.total, "steps": len(trace.steps),
                "closed_form": closed, "hull": [list(pt) for pt in hull],
                "bound": bound}

    def check(self, item, prepared, result):
        """Recursion == closed form, the recursion on the hull gives the
        same total, and the total stays within the bound."""
        stair, branches = prepared
        trace, closed, hull, bound = result
        if trace.total != closed:
            return "check:closed-form"
        if _staircase.ramification_recursive(hull, branches).total != trace.total:
            return "check:hull"
        if len(stair) > 1 and trace.total > bound:
            return "check:bound"
        return None


WORKLOADS = {w.name: w for w in (ReportMixed(), SweepExt(), StaircaseDeep())}
