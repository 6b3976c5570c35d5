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

The non-clean off-origin points of the exceptional curve E have a
formula: Kato's refined Swan conductor (Kato, "Swan conductors for
characters of degree one in the imperfect residue field case", 1989).
With A = Sw_E the pole order along E of the chart A image and c(v) its
leading column, rsw = u^-A (c'(v) dv - A c(v) du/u), and a point of E is
clean iff rsw does not vanish there.  Every term of c comes from a
corner of the good representative, and no such corner lies in
pZ x pZ, so when p divides A no exponent of c is divisible by p, and c'
is not zero.  Two policies are implemented:

* candidates: probe the zeros of rsw, the nonzero common roots of c and
  c' when p does not divide A and the nonzero roots of c' when it does,
  in whatever extension they lie.  Complete over the algebraic closure.
  Every zero is built in full (translate, reduce, staircase shape, drop
  cross-check), and one that comes out clean raises ``CrossCheckError``:
  the probe is a check of the locator, not a filter.

* sweep: test directly the points of the exceptional curve with
  coordinate in one field per run, F_{p^(k*sweep_degree)} for the input's
  field F_{p^k}, one per Frobenius orbit (below), and drop the clean
  ones.  Complete on that field only.  At every non-clean node the
  non-clean points found must be the zeros of rsw in the sweep field, or
  ``CrossCheckError`` is raised.

Both policies feed one child enumeration: chart B's origin, chart A's
origin, then the off-origin points.  The points are grouped into orbits
of v -> v^q, where F_q is the field of the node's chart, and an orbit is
probed through its first point in enumeration order: in sweep mode, when
that point comes out clean, its conjugates are skipped; when not, every
conjugate is built in full, so the tree, its labels and the order of its
exceptions are those of probing every point.  The skip is exact, not a
heuristic.  The chart has its coefficients in F_q, so the Frobenius
x -> x^q, applied to the coefficients, carries the local function at v
(numerator and denominator, see the laurent module) to the one at v^q.
Reduction, staircase and conductors read a coefficient only through
field operations (p-th roots included) and through whether it vanishes,
so they commute with that automorphism: the two points get the same node
fields, the same clean verdict and the same drop cross-check.  The zeros
the candidates policy finds are roots of polynomials over F_q, which
come in whole orbits already, and are all non-clean.

Translations at off-origin points are exact: ``translate`` returns the
local function as P / V^p, and every node below is built from exact
data, so one round gives the tree and there is no series budget.

A ``resolve`` call analyses each node polynomial once: its reduced
representative and its node fields (drop cross-check passed), its two
chart images, and, once the enumeration first reaches them, its
off-origin points and their Frobenius orbits.  In sweep mode the points
are those of the sweep field at every node, so a call lists them once,
and takes their orbits once per field order of the charts.  The zeros
the sweep check compares with are kept on the analysis too.  One
enumeration of a node's children embeds chart A once per field its
points lie in, and keeps the images only while it runs.

The analyses live in a memo keyed by (polynomial, branches, sweep field
or None), with polynomials compared by value (field, terms and
denominator).  A call keeps its own memo unless the caller passes one,
and a caller may pass one memo to several calls: a report does so for
its input and its perturbation, whose trees often share nodes.  An
analysis depends only on its key, so a hit gives what analysing again
would give, and each call still builds its own tree from it; without a
shared memo, two calls on the same input compute everything twice.  The
result keeps the root's representative, so that callers read the
input's reduction there instead of computing it again.

The run flags of a result (``good_regime`` and the flags behind it) are
read from the finished tree, so they depend only on the input, never on
the policy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dataclass_field

from .fields import (_fgcd, embed, field, find_roots, join_context,
                     minimal_form)
from .laurent import (blowup_substitute, leading_column, pole_staircase,
                      translate, valuation)
from .reduction import conductors, good_representative
from .staircase import _check_branches, blowup_term, is_clean_shape, swan_drop


class CrossCheckError(RuntimeError):
    """The two routes to the conductor drop disagreed at a node."""


class DepthCapError(RuntimeError):
    """The blow-up tree exceeded the configured depth cap."""

    def __init__(self, path, partial):
        self.path = path
        self.partial = partial
        super().__init__(f"depth cap exceeded at {path}")


@dataclass
class SimulationConfig:
    mode: str = "candidates"      # or "sweep"
    sweep_degree: int = 1
    depth_cap: int = 32

    def __post_init__(self):
        """The cap and the degree are integers by ``operator.index`` and
        not bools: a float or a ``True`` is refused, never truncated."""
        if self.mode not in ("candidates", "sweep"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("sweep_degree", "depth_cap"):
            value = getattr(self, name)
            try:
                if isinstance(value, bool):
                    raise TypeError
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, "
                                 f"got {value!r}") from None
        if self.depth_cap < 1 or self.sweep_degree < 1:
            raise ValueError("caps and degrees must be >= 1")


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
class ResolutionResult:
    total: int
    root: BlowupNode
    representative: object        # the input's, which the root was built from
    # read by perfbench/workloads.py until ROADMAP item 4: root search is
    # complete and translation exact, so these never change
    partial_roots = False
    precision_escalations = 0

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


def check_point(f, branches):
    """ValueError unless `branches` is the int 1 or 2 (no bool or float)
    and, on one branch, f has no t2-poles: what ``resolve`` accepts."""
    _check_branches(branches)
    if branches == 1 and any(n < 0 for _, n in f.terms):
        raise ValueError("a one-branch point admits no poles along t2")


def resolve(f, branches, config=None, *, memo=None):
    """Compute the blow-up total for the cover defined by f at the origin.

    `branches` is 1 when the boundary is {t1 = 0} and 2 when it is
    {t1*t2 = 0}; ``check_point`` refuses any other input.  `memo` is a
    dict of node analyses that the caller may pass to several calls
    (see the module docstring); without it the call keeps its own.
    """
    config = config or SimulationConfig()
    check_point(f, branches)
    # sweep mode probes one field per run, fixed by the input's field
    sweep = (field(f.ctx.p, f.ctx.degree * config.sweep_degree)
             if config.mode == "sweep" else None)
    call = _Call(config.depth_cap, sweep, {} if memo is None else memo)
    root = _build_node(f, branches, "x", 0, call)
    return ResolutionResult(
        total=root.total(), root=root,
        representative=call.analysis(f, branches, "x").representative)


@dataclass
class _NodeAnalysis:
    """What a node's polynomial determines: the node's fields but its
    path, its good representative, the chart B and chart A images of that
    representative when the node is not clean, the off-origin points with
    their Frobenius orbits, once searched, and in sweep mode the refined
    Swan zeros in the sweep field, by field degree and encoding, once the
    sweep check has computed them."""
    fields: dict
    representative: object
    charts: tuple = ()
    points: tuple = None
    sweep_zeros: frozenset = None


class _Call:
    """What one ``resolve`` call keeps: the depth cap, the sweep field
    (None in candidates mode), the memo of node analyses, and in sweep
    mode the sweep field's points, listed on first use, with their
    Frobenius orbits once per chart-field order."""

    def __init__(self, depth_cap, sweep, memo):
        self.depth_cap = depth_cap
        self.sweep = sweep
        self.memo = memo    # (polynomial, branches, sweep) -> analysis
        self.sweep_points = None
        self.sweep_orbits = {}      # chart-field order -> orbits

    def analysis(self, poly, branches, path):
        """The analysis of a node polynomial, analysed once per memo.
        The key holds the sweep field because the points searched depend
        on it, and the branches because the node fields do."""
        key = (poly, branches, self.sweep)
        info = self.memo.get(key)
        if info is None:
            info = self.memo[key] = _analyse(poly, branches, path)
        return info

    def off_origin_points(self, chart_first):
        """The off-origin points to probe below a chart A image, with
        their Frobenius orbits under x -> x^q, F_q the chart's field: the
        refined Swan zeros of the image, or every nonzero point of the
        sweep field, which holds every node field."""
        q = chart_first.ctx.order
        if self.sweep is None:
            points = exceptional_candidates(chart_first)
            return points, _frobenius_orbits(points, q)
        if self.sweep_points is None:
            self.sweep_points = _minimal_points(self.sweep.elements())
        orbits = self.sweep_orbits.get(q)
        if orbits is None:
            orbits = self.sweep_orbits[q] = _frobenius_orbits(
                self.sweep_points, q)
        return self.sweep_points, orbits

    def check_sweep(self, info, clean_orbits, kept, path):
        """CrossCheckError unless the off-origin points that a node in
        sweep mode kept are exactly the refined Swan zeros in the sweep
        field.  The kept points are those of the orbits whose first point
        was not clean, and there must be `kept` of them, one child each.
        Points are compared by field and encoding, not by label: labels
        omit the field, so g of F_4 and g of F_16 print alike.  The zeros
        are computed once per analysis."""
        zeros = info.sweep_zeros
        if zeros is None:
            zeros = info.sweep_zeros = frozenset(
                _point_key(x) for x in exceptional_candidates(info.charts[1])
                if self.sweep.degree % x.ctx.degree == 0)
        points, orbits = info.points
        found = {_point_key(x) for x, orbit in zip(points, orbits)
                 if orbit not in clean_orbits}
        if found != zeros or len(found) != kept:
            raise CrossCheckError(
                f"at {path}: {kept} children for the non-clean points "
                f"{sorted(found)}, refined Swan zeros {sorted(zeros)} in "
                f"{self.sweep} (field degree, encoding)")


def _build_node(poly, branches, path, depth, call):
    if depth > call.depth_cap:
        raise DepthCapError(path, None)
    info = call.analysis(poly, branches, path)
    node = BlowupNode(path=path, **info.fields)
    if node.clean:
        return node

    children = []
    clean_orbits = set()    # sweep mode: orbits whose first point is clean
    try:
        for child_poly, child_branches, label, orbit in _blowup_children(
                info, call, clean_orbits):
            child = _build_node(child_poly, child_branches, f"{path}/{label}",
                                depth + 1, call)
            # the chart origins stay in the tree even when clean
            if orbit is None or not child.clean:
                children.append(child)
            elif call.sweep is None:
                raise CrossCheckError(
                    f"at {child.path}: a refined Swan zero is clean")
            else:
                clean_orbits.add(orbit)
    except DepthCapError as err:
        if err.partial is None:
            err.partial = node
        raise
    if call.sweep is not None:
        # the chart origins come first and are always kept
        call.check_sweep(info, clean_orbits, len(children) - 2, path)
    node.children = children
    return node


def _analyse(poly, branches, path):
    rep = good_representative(poly)
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
        repair=stair != pole_staircase(poly), reductions=rep.reductions),
        rep)
    if not clean:
        info.charts = (blowup_substitute(rep.g, "B"),
                       blowup_substitute(rep.g, "A"))
    return info


def _blowup_children(info, call, clean_orbits):
    """Every point that one blow-up of a non-clean node can leave
    non-clean, as (local polynomial, branch count, label, orbit): the
    origin of chart B, the origin of chart A (orbit None), then each
    off-origin point of the exceptional curve, translated to the origin of
    chart A, unless the caller has put its Frobenius orbit into
    clean_orbits.  Lazy, so that a failure while the caller handles one
    child stops the enumeration there, and so that a point sees every
    orbit found clean before it; the points and their orbits are searched
    once per analysis (in sweep mode listed once per call), and chart A is
    embedded once per point field and enumeration."""
    second, first = info.charts
    yield second, 2, "B", None
    yield first, info.fields["branches"], "A", None
    if info.points is None:
        info.points = call.off_origin_points(first)
    points, orbits = info.points
    images = {}
    for point, orbit in zip(points, orbits):
        if orbit in clean_orbits:
            continue
        ctx = join_context(first.ctx, point.ctx)
        image = images.get(ctx)
        if image is None:
            image = images[ctx] = first.embed_into(ctx)
        moved = translate(image, embed(point, ctx))
        yield moved, 1, f"A@v={point}", orbit


# ---------------------------------------------------------------------------
# locating points on the exceptional curve
# ---------------------------------------------------------------------------

def leading_exceptional_column(chart_first):
    """The leading coefficient of the exceptional pole as a map n -> coeff,
    together with the pole order.  Returns (pole, column); pole <= 0 means
    the cover is unramified along the exceptional curve.  The column is
    the numerator's, which is the function's times the constant
    V(0, 0)^p (see ``laurent.leading_column``): it has the same zeros."""
    v = valuation(chart_first, "t1")
    if v >= 0:
        return (0 if v == float("inf") else -v), {}
    return -v, leading_column(chart_first, v)


def exceptional_candidates(chart_first):
    """The off-origin points of the exceptional curve that one blow-up
    leaves non-clean: the nonzero zeros of Kato's refined Swan conductor
    (Kato, "Swan conductors for characters of degree one in the imperfect
    residue field case", 1989).

    With A the pole order along the exceptional curve and c(v) its
    leading column, rsw = u^-A (c'(v) dv - A c(v) du/u), and a point is
    clean iff rsw does not vanish there.  So the points are the nonzero
    common roots of c and c' (the multiple roots of c) when p does not
    divide A, and the nonzero roots of c' when it does; each is expressed
    in its minimal field, listed once, deterministically ordered.
    """
    pole, column = leading_exceptional_column(chart_first)
    if pole <= 0 or not column:
        return []
    ctx = chart_first.ctx
    p = ctx.p
    if pole % p == 0:
        column = {n - 1: c * (n % p) for n, c in column.items() if n % p}
    # a map of fewer than two terms is empty or c*v^n, with no nonzero root
    if len(column) < 2:
        return []
    low = min(column)
    coeffs = [ctx.zero()] * (max(column) - low + 1)
    for n, c in column.items():
        coeffs[n - low] = c
    if pole % p:
        # shifting c by a power of v moves no nonzero common root of c, c'
        coeffs = _fgcd(coeffs, [c * (i % p) for i, c in enumerate(coeffs)][1:],
                       ctx)
        if len(coeffs) < 2:
            return []
    return sorted(map(minimal_form, find_roots(coeffs).roots), key=_point_key)


def _point_key(x):
    return x.ctx.degree, x.encoding()


def _minimal_points(elements):
    """The nonzero elements of a field, each in its minimal field, ordered
    by that field's degree, then by encoding."""
    return sorted((minimal_form(x) for x in elements if x), key=_point_key)


def _frobenius_orbits(points, q):
    """For each point, the index of the first point of its orbit under
    x -> x^q among points.  A chart defined over F_q has at v^q the
    Frobenius image of its local equation at v, so every point of an
    orbit gets the same node fields."""
    index = {_point_key(x): i for i, x in enumerate(points)}
    orbits = [None] * len(points)
    for i, x in enumerate(points):
        if orbits[i] is not None:
            continue
        y = x
        while True:
            j = index.get(_point_key(y))
            if j is not None:
                orbits[j] = i
            y = y ** q
            if y == x:
                break
    return orbits


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
