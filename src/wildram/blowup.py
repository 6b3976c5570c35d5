"""Blow-up simulation of the local resolution at a boundary point.

``resolve`` literally executes the resolution: reduce the local function
to a good representative, stop if the staircase is clean, otherwise blow
up the origin and recurse into every non-clean point of the exceptional
curve.  The returned total (the sum of the per-blow-up contributions
e*(e-1) or e**2 over all non-clean nodes) is the independent oracle for
the staircase recursion and for the upper bound.

Per node the conductor drop e is computed twice, once from the staircase
ends and once as Sw(first branch) [+ Sw(second branch)] - Sw(exceptional)
through the valuation-ring loops; any disagreement aborts with a
diagnostic, since it would mean the two definitions have come apart.

Locating the non-clean points of the exceptional curve is the one step
with no formula.  Two policies are implemented:

* candidates: the points where something can happen are the chart
  origins, the nonzero roots of the leading coefficient of the
  exceptional pole, and, when p divides the pole order, the roots of its
  formal derivative (the first place a corner reduction can cascade at an
  off-origin point).  Every candidate is certified by the full local test
  (translate, reduce, staircase shape), so false candidates cost time,
  never correctness; completeness for deep cascades is the open risk.

* sweep: test every point of the exceptional curve with coordinate in
  F_{p^(k*sweep_degree)} directly.  Authoritative on its field but
  expensive; the test suite pins candidates == sweep on the corpus.

Translations at off-origin points can truncate series (see the laurent
module).  ``resolve`` therefore reruns the whole simulation with a
doubled series budget until two consecutive runs produce identical trees,
and raises after ``max_escalations`` doublings.  Every acceptance path
re-derives from the exact pre-translation polynomial, so a stable answer
is also a correct one for every quantity that became stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .fields import embed, field, find_roots, join_context, minimal_form
from .laurent import (PrecisionLossError, blowup_substitute,
                      pole_staircase, translate, valuation)
from .reduction import (exceptional_swan, good_representative, is_clean,
                        swan_conductor)
from .staircase import blowup_term, is_clean_shape, swan_drop


class CrossCheckError(RuntimeError):
    """The two routes to the conductor drop disagreed at a node."""


class DepthCapError(RuntimeError):
    """The blow-up tree exceeded the configured depth cap."""

    def __init__(self, path, partial):
        self.path = path
        self.partial = partial
        super().__init__(f"depth cap exceeded at {path}")


class EscalationError(RuntimeError):
    """The series budget failed to stabilize within the escalation cap."""


@dataclass
class SimulationConfig:
    mode: str = "candidates"      # or "sweep"
    ext_cap: int = 6
    sweep_degree: int = 1
    depth_cap: int = 32
    series_terms: int = 16
    max_escalations: int = 6

    def __post_init__(self):
        if self.mode not in ("candidates", "sweep"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.depth_cap < 1 or self.sweep_degree < 1 or self.ext_cap < 1:
            raise ValueError("caps and degrees must be >= 1")
        if self.series_terms < 1 or self.max_escalations < 0:
            raise ValueError("series budget must be positive")


@dataclass
class BlowupNode:
    path: str                     # chart letters and translation points from the root
    branches: int
    staircase: object
    drop: int
    term: int
    clean: bool
    children: list = dataclass_field(default_factory=list)
    constant_added: bool = False
    reductions: int = 0

    def total(self):
        return self.term + sum(c.total() for c in self.children)

    def blowup_depth(self):
        if self.clean:
            return 0
        return 1 + max((c.blowup_depth() for c in self.children), default=0)

    def nodes(self):
        yield self
        for c in self.children:
            yield from c.nodes()

    def signature(self):
        return (self.path, self.branches, self.staircase.points, self.drop,
                self.clean, tuple(c.signature() for c in self.children))


@dataclass
class RunStats:
    constant_added_anywhere: bool = False
    partial_roots: bool = False
    used_truncation: bool = False
    off_origin_nonclean: bool = False
    nonroot_repair: bool = False


@dataclass
class ResolutionResult:
    total: int
    root: BlowupNode
    constant_added_anywhere: bool
    partial_roots: bool
    precision_escalations: int
    off_origin_nonclean: bool
    nonroot_repair: bool

    @property
    def good_regime(self):
        """Whether the run stayed inside what the staircase recursion
        models: no off-origin non-clean points, and below the root every
        reduced staircase equal to its raw chart image."""
        return not (self.off_origin_nonclean or self.nonroot_repair)

    @property
    def depth(self):
        return self.root.blowup_depth()


def resolve(f, branches, config=None):
    """Compute the blow-up total for the cover defined by f at the origin.

    `branches` is 1 when the boundary is {t1 = 0} and 2 when it is
    {t1*t2 = 0}; one-branch input must not have t2-poles.
    """
    config = config or SimulationConfig()
    if branches not in (1, 2):
        raise ValueError("the boundary has 1 or 2 branches")
    if branches == 1 and any(n < 0 for _, n in f.terms):
        raise ValueError("a one-branch point admits no poles along t2")

    budget = config.series_terms
    previous = None
    escalations = 0
    while True:
        stats = RunStats()
        try:
            root = _build_node(f, branches, "x", 0, config, budget, stats,
                               is_root=True)
        except PrecisionLossError:
            root = None
        if root is not None:
            if not stats.used_truncation:
                return _finish(root, stats, escalations)
            signature = root.signature()
            if previous is not None and signature == previous:
                return _finish(root, stats, escalations)
            previous = signature
        if escalations >= config.max_escalations:
            raise EscalationError(
                f"series budget still unstable after {escalations} doublings")
        budget *= 2
        escalations += 1


def _finish(root, stats, escalations):
    return ResolutionResult(
        total=root.total(),
        root=root,
        constant_added_anywhere=stats.constant_added_anywhere,
        partial_roots=stats.partial_roots,
        precision_escalations=escalations,
        off_origin_nonclean=stats.off_origin_nonclean,
        nonroot_repair=stats.nonroot_repair,
    )


def _build_node(poly, branches, path, depth, config, budget, stats, is_root=False):
    if depth > config.depth_cap:
        raise DepthCapError(path, None)
    if not poly.is_exact:
        stats.used_truncation = True
    rep = good_representative(poly)
    stats.constant_added_anywhere |= rep.constant_added
    if not is_root:
        try:
            raw_stair = pole_staircase(poly)
        except PrecisionLossError:
            raw_stair = None
        if rep.staircase != raw_stair:
            # the chart image alone no longer describes this node, so the
            # staircase recursion stops being an exact model here
            stats.nonroot_repair = True
    stair = rep.staircase
    clean = is_clean_shape(stair, branches)
    drop = swan_drop(stair) if len(stair) else 0

    sw1 = swan_conductor(rep.g, "t1").value
    sw2 = swan_conductor(rep.g, "t2").value if branches == 2 else 0
    swe = exceptional_swan(rep.g).value
    if drop != sw1 + sw2 - swe:
        raise CrossCheckError(
            f"at {path}: staircase gives drop {drop}, conductors give "
            f"{sw1} + {sw2} - {swe}")

    node = BlowupNode(path=path, branches=branches, staircase=stair,
                      drop=drop, term=blowup_term(drop, branches),
                      clean=clean, constant_added=rep.constant_added,
                      reductions=rep.reductions)
    if clean:
        if node.term != 0:
            raise CrossCheckError(f"clean node {path} with nonzero term")
        return node

    try:
        children = []
        second = blowup_substitute(rep.g, "B")
        children.append(_build_node(second, 2, path + "/B", depth + 1,
                                    config, budget, stats))
        first = blowup_substitute(rep.g, "A")
        children.append(_build_node(first, branches, path + "/A", depth + 1,
                                    config, budget, stats))
        for point in _off_origin_points(first, config, stats):
            ctx = join_context(first.ctx, point.ctx)
            moved = translate(first.embed_into(ctx), embed(point, ctx), budget)
            child = _build_node(moved, 1, path + f"/A@v={point}", depth + 1,
                                config, budget, stats)
            if not child.clean:
                stats.off_origin_nonclean = True
                children.append(child)
    except DepthCapError as err:
        if err.partial is None:
            err.partial = node
        raise
    node.children = children
    return node


# ---------------------------------------------------------------------------
# locating points on the exceptional curve
# ---------------------------------------------------------------------------

def leading_exceptional_column(chart_first, require_exact=True):
    """The leading coefficient of the exceptional pole as a map n -> coeff,
    together with the pole order.  Returns (pole, column); pole <= 0 means
    the cover is unramified along the exceptional curve."""
    v = valuation(chart_first, "t1")
    if v >= 0:
        return (0 if v == float("inf") else -v), {}
    column = {n: c for (m, n), c in chart_first.terms.items() if m == v}
    if require_exact:
        cut = min((u[1] for u in chart_first.unknown if u[0] <= v), default=None)
        if cut is not None:
            raise PrecisionLossError((v, cut), "leading column truncated")
    return -v, column


def exceptional_candidates(chart_first, config, stats=None):
    """Candidate off-origin points in candidates mode (pre-certification).

    Nonzero roots of the leading coefficient, plus nonzero roots of its
    formal derivative when p divides the pole order; each expressed in its
    minimal field, deduplicated, deterministically ordered.
    """
    pole, column = leading_exceptional_column(chart_first)
    if pole <= 0 or not column:
        return []
    ctx = chart_first.ctx
    p = ctx.p
    points = {}

    def collect(coeff_map):
        if not coeff_map:
            return
        low = min(coeff_map)
        size = max(coeff_map) - low + 1
        coeffs = [ctx.zero()] * size
        for n, c in coeff_map.items():
            coeffs[n - low] = c
        if all(not c for c in coeffs):
            return
        search = find_roots(coeffs, ext_cap=config.ext_cap)
        if stats is not None and search.partial:
            stats.partial_roots = True
        for root, _mult in search.roots:
            if root:
                small = minimal_form(root, base_degree=1)
                points[(small.ctx.degree, small.encoding())] = small

    collect(column)
    if pole % p == 0:
        derivative = {}
        for n, c in column.items():
            scaled = c * (n % p)
            if scaled:
                derivative[n - 1] = scaled
        collect(derivative)
    return [points[key] for key in sorted(points)]


def _off_origin_points(chart_first, config, stats):
    if config.mode == "candidates":
        return exceptional_candidates(chart_first, config, stats)
    base = chart_first.ctx
    sweep_ctx = field(base.p, base.degree * config.sweep_degree)
    points = {}
    for x in sweep_ctx.elements():
        if not x:
            continue
        small = minimal_form(x, base_degree=1)
        points[(small.ctx.degree, small.encoding())] = small
    return [points[key] for key in sorted(points)]


def certified_nonclean_points(chart_first, config, budget=None):
    """Points of the exceptional curve (besides the chart origins) where
    the cover is certified non-clean by the full local test."""
    stats = RunStats()
    budget = budget or config.series_terms
    out = []
    for point in _off_origin_points(chart_first, config, stats):
        ctx = join_context(chart_first.ctx, point.ctx)
        moved = translate(chart_first.embed_into(ctx), embed(point, ctx), budget)
        rep = good_representative(moved)
        if not is_clean_shape(rep.staircase, 1):
            out.append(point)
    return out


def nonclean_children(f, branches, config=None):
    """The non-clean points produced by one blow-up: local polynomial,
    branch count and label for each, in deterministic order.  The input
    must itself be non-clean for the list to be meaningful."""
    config = config or SimulationConfig()
    rep = good_representative(f)
    out = []
    second = blowup_substitute(rep.g, "B")
    if not is_clean(second, 2):
        out.append((second, 2, "B"))
    first = blowup_substitute(rep.g, "A")
    if not is_clean(first, branches):
        out.append((first, branches, "A"))
    for point in certified_nonclean_points(first, config):
        ctx = join_context(first.ctx, point.ctx)
        moved = translate(first.embed_into(ctx), embed(point, ctx),
                          config.series_terms)
        out.append((moved, 1, f"A@v={point}"))
    return out


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def tree_as_dict(node):
    return {
        "path": node.path,
        "branches": node.branches,
        "staircase": [list(pt) for pt in node.staircase],
        "drop": node.drop,
        "term": node.term,
        "clean": node.clean,
        "constant_added": node.constant_added,
        "reductions": node.reductions,
        "children": [tree_as_dict(c) for c in node.children],
    }


def tree_as_dot(node):
    lines = ["digraph blowups {", '  node [shape=box, fontname="monospace"];']
    counter = [0]

    def walk(n):
        my_id = f"n{counter[0]}"
        counter[0] += 1
        shape = "I" if n.branches == 1 else "II"
        stair = ",".join(f"({a},{b})" for a, b in n.staircase)
        status = "clean" if n.clean else f"e={n.drop} mu={n.term}"
        lines.append(f'  {my_id} [label="{n.path}\\ntype {shape}  '
                     f'[{stair}]\\n{status}"];')
        for c in n.children:
            child_id = walk(c)
            lines.append(f"  {my_id} -> {child_id};")
        return my_id

    walk(node)
    lines.append("}")
    return "\n".join(lines)
