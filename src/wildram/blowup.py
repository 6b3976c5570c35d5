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

Both policies feed one child enumeration: chart B's origin, chart A's
origin, then every off-origin point.  Each off-origin point is probed by
the full node build, drop cross-check included, and dropped when clean.

Translations at off-origin points can truncate series (see the laurent
module).  ``resolve`` therefore reruns the whole simulation with a
doubled series budget until two consecutive runs produce identical trees,
and raises after ``MAX_ESCALATIONS`` doublings.  Every acceptance path
re-derives from the exact pre-translation polynomial, so a stable answer
is also a correct one for every quantity that became stable.

What a round recomputes.  A node whose polynomial is exact does not
depend on the budget, so one ``resolve`` call analyses it once and every
later round reuses that analysis: the reduced representative and its
node fields (drop cross-check passed), its two chart images, and, once
the enumeration first reaches them, its off-origin points with the flag
of a partial root search.  Each round still builds fresh nodes, translates
every off-origin point at its own budget and analyses every truncated
polynomial anew, so the tree, the probes and the run flags are those of
a run from scratch.  One enumeration of a node's children embeds chart A
once per field its points lie in, and keeps the images only while it
runs.  The reuse lasts one call: two calls on the same input compute
everything twice.  The result keeps the root's representative, so that
callers read the input's reduction there instead of computing it again.

The run flags of a result (``good_regime`` and the flags behind it) are
read from the finished tree, so they depend only on the input, never on
the policy.  A dropped clean probe affects only the escalation: when its
verdict was read from a truncated series, the run counts as truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .fields import embed, field, find_roots, join_context, minimal_form
from .laurent import (PrecisionLossError, blowup_substitute, leading_column,
                      pole_staircase, translate, valuation)
from .reduction import conductors, good_representative
from .staircase import blowup_term, is_clean_shape, swan_drop


# series-budget doublings before resolve gives up
MAX_ESCALATIONS = 6


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

    def __post_init__(self):
        if self.mode not in ("candidates", "sweep"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.depth_cap < 1 or self.sweep_degree < 1 or self.ext_cap < 1:
            raise ValueError("caps and degrees must be >= 1")
        if self.series_terms < 1:
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
    repair: bool = False          # reduced staircase != raw input staircase
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
        return (self.path, self.branches, self.staircase, self.drop,
                self.clean, tuple(c.signature() for c in self.children))


@dataclass
class RunStats:
    """What one simulation run learns that its tree cannot show."""
    partial_roots: bool = False
    used_truncation: bool = False
    representative: object = None     # the root's GoodRepresentative


@dataclass
class ResolutionResult:
    total: int
    root: BlowupNode
    partial_roots: bool
    precision_escalations: int
    representative: object        # the input's, which the root was built from

    @property
    def constant_added_anywhere(self):
        return any(n.constant_added for n in self.root.nodes())

    @property
    def off_origin_nonclean(self):
        # the tree keeps an off-origin point only when it is non-clean
        return any("@v=" in n.path for n in self.root.nodes())

    @property
    def nonroot_repair(self):
        return any(n.repair for n in self.root.nodes() if n is not self.root)

    @property
    def good_regime(self):
        """Whether the run stayed inside what the staircase recursion
        models: no off-origin non-clean points, and below the root every
        reduced staircase equal to its raw chart image.  Read from the
        finished tree only; off-origin probes that were dropped as clean
        do not count."""
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
    seen = {}       # (exact polynomial, branches) -> its _NodeAnalysis
    while True:
        stats = RunStats()
        try:
            root = _build_node(f, branches, "x", 0, config, budget, stats,
                               seen)
        except PrecisionLossError:
            root = None
        if root is not None:
            signature = root.signature() if stats.used_truncation else None
            if signature is None or signature == previous:
                return ResolutionResult(
                    total=root.total(), root=root,
                    partial_roots=stats.partial_roots,
                    precision_escalations=escalations,
                    representative=stats.representative)
            previous = signature
        if escalations >= MAX_ESCALATIONS:
            raise EscalationError(
                f"series budget still unstable after {escalations} doublings")
        budget *= 2
        escalations += 1


@dataclass
class _NodeAnalysis:
    """What a node's polynomial determines at every series budget: the
    node's fields but its path, its good representative, the chart B and
    chart A images of that representative when the node is not clean, and
    the off-origin points with the flag of a partial root search, once
    searched."""
    fields: dict
    representative: object
    charts: tuple = ()
    points: tuple = None


def _build_node(poly, branches, path, depth, config, budget, stats, seen):
    if depth > config.depth_cap:
        raise DepthCapError(path, None)
    if poly.is_exact:
        info = seen.get((poly, branches))
        if info is None:
            info = seen[(poly, branches)] = _analyse(poly, branches, path)
    else:
        stats.used_truncation = True
        info = _analyse(poly, branches, path)
    if depth == 0:
        stats.representative = info.representative
    node = BlowupNode(path=path, **info.fields)
    if node.clean:
        return node

    children = []
    try:
        for child_poly, child_branches, label in _blowup_children(
                info, config, budget, stats):
            child = _build_node(child_poly, child_branches, f"{path}/{label}",
                                depth + 1, config, budget, stats, seen)
            # the chart origins stay in the tree even when clean
            if not child.clean or "@v=" not in label:
                children.append(child)
    except DepthCapError as err:
        if err.partial is None:
            err.partial = node
        raise
    node.children = children
    return node


def _analyse(poly, branches, path):
    rep = good_representative(poly)
    try:
        raw_stair = pole_staircase(poly)
    except PrecisionLossError:
        raw_stair = None
    stair = rep.staircase
    clean = is_clean_shape(stair, branches)
    drop = swan_drop(stair)
    sw1, sw2, swe = conductors(rep.g, branches)
    if drop != sw1 + sw2 - swe:
        raise CrossCheckError(
            f"at {path}: staircase gives drop {drop}, conductors give "
            f"{sw1} + {sw2} - {swe}")
    term = blowup_term(drop, branches)
    if clean and term != 0:
        raise CrossCheckError(f"clean node {path} with nonzero term")

    # below the root, a repair means the chart image alone no longer
    # describes the node, so the staircase recursion stops being exact
    info = _NodeAnalysis(dict(
        branches=branches, staircase=stair, drop=drop, term=term,
        clean=clean, constant_added=rep.constant_added,
        repair=stair != raw_stair, reductions=rep.reductions), rep)
    if not clean:
        info.charts = (blowup_substitute(rep.g, "B"),
                       blowup_substitute(rep.g, "A"))
    return info


def _blowup_children(info, config, budget, stats):
    """Every point that one blow-up of a non-clean node can leave
    non-clean, as (local polynomial, branch count, label): the origin of
    chart B, the origin of chart A, then each off-origin point of the
    exceptional curve, translated to the origin of chart A.  Lazy, so that
    a failure while the caller handles one child stops the enumeration
    there; the points are searched for once per analysis, and chart A is
    embedded once per point field and enumeration."""
    second, first = info.charts
    yield second, 2, "B"
    yield first, info.fields["branches"], "A"
    if info.points is None:
        info.points = _off_origin_points(first, config)
    points, partial = info.points
    if partial:
        stats.partial_roots = True
    images = {}
    for point in points:
        ctx = join_context(first.ctx, point.ctx)
        image = images.get(ctx)
        if image is None:
            image = images[ctx] = first.embed_into(ctx)
        moved = translate(image, embed(point, ctx), budget)
        yield moved, 1, f"A@v={point}"


# ---------------------------------------------------------------------------
# locating points on the exceptional curve
# ---------------------------------------------------------------------------

def leading_exceptional_column(chart_first):
    """The leading coefficient of the exceptional pole as a map n -> coeff,
    together with the pole order.  Returns (pole, column); pole <= 0 means
    the cover is unramified along the exceptional curve."""
    v = valuation(chart_first, "t1")
    if v >= 0:
        return (0 if v == float("inf") else -v), {}
    column, cut = leading_column(chart_first, v)
    if cut is not None:
        raise PrecisionLossError((v, cut), "leading column truncated")
    return -v, column


def exceptional_candidates(chart_first, config):
    """Candidate off-origin points in candidates mode (pre-certification),
    and whether a root search behind them was partial.

    Nonzero roots of the leading coefficient, plus nonzero roots of its
    formal derivative when p divides the pole order; each expressed in its
    minimal field, deduplicated, deterministically ordered.
    """
    pole, column = leading_exceptional_column(chart_first)
    if pole <= 0 or not column:
        return [], False
    ctx = chart_first.ctx
    p = ctx.p
    points = {}

    def collect(coeff_map):
        """Adds the nonzero roots of one coefficient map to points, and
        returns whether their search was partial."""
        if not coeff_map:
            return False
        low = min(coeff_map)
        size = max(coeff_map) - low + 1
        coeffs = [ctx.zero()] * size
        for n, c in coeff_map.items():
            coeffs[n - low] = c
        if all(not c for c in coeffs):
            return False
        search = find_roots(coeffs, ext_cap=config.ext_cap)
        for root, _mult in search.roots:
            if root:
                small = minimal_form(root)
                points[(small.ctx.degree, small.encoding())] = small
        return search.partial

    partial = collect(column)
    if pole % p == 0:
        derivative = {}
        for n, c in column.items():
            scaled = c * (n % p)
            if scaled:
                derivative[n - 1] = scaled
        partial = collect(derivative) or partial
    return [points[key] for key in sorted(points)], partial


def _off_origin_points(chart_first, config):
    """The off-origin points to probe, and whether a root search behind
    them was partial."""
    if config.mode == "candidates":
        return exceptional_candidates(chart_first, config)
    base = chart_first.ctx
    sweep_ctx = field(base.p, base.degree * config.sweep_degree)
    points = {}
    for x in sweep_ctx.elements():
        if not x:
            continue
        small = minimal_form(x)
        points[(small.ctx.degree, small.encoding())] = small
    return [points[key] for key in sorted(points)], False


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


def simulation_as_dict(result):
    """The JSON form of a ResolutionResult: the run's total, depth and
    flags, and its tree."""
    return {
        "r_x": result.total,
        "depth": result.depth,
        "good_regime": result.good_regime,
        "constant_added_anywhere": result.constant_added_anywhere,
        "partial_roots": result.partial_roots,
        "precision_escalations": result.precision_escalations,
        "off_origin_nonclean": result.off_origin_nonclean,
        "nonroot_repair": result.nonroot_repair,
        "tree": tree_as_dict(result.root),
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
