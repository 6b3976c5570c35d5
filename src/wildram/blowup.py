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
is not zero.  The zeros of rsw are the nonzero common roots of c and c'
when p does not divide A and the nonzero roots of c' when it does, in
whatever extension they lie.

Both point-location policies build the same children: chart B's origin,
chart A's origin, then the zeros of rsw, each translated to the origin
of chart A and built in full (translate, reduce, staircase shape, drop
cross-check).  A zero that comes out clean raises ``CrossCheckError``:
the build is a check of the locator, not a filter.

* candidates: build every zero.  Complete over the algebraic closure.

* sweep: build the zeros that lie in one field per run,
  F_{p^(k*sweep_degree)} for the input's field F_{p^k}, and so be
  complete on that field only.  After a node's subtrees, a check that
  does not recurse probes every other point of that field and raises
  ``CrossCheckError`` unless it comes out clean, so the non-clean points
  of the field are exactly the zeros in it.  The probes are examined,
  not built, and taken one per orbit of v -> v^q, F_q the field of the
  node's chart.  This is exact, not a heuristic.  The chart has its
  coefficients in F_q, so the Frobenius x -> x^q, applied to the
  coefficients, carries the local function at v (numerator and
  denominator, see the laurent module) to the one at v^q.  Reduction,
  staircase and conductors read a coefficient only through field
  operations (p-th roots included) and through whether it vanishes, so
  they commute with that automorphism: the two points get the same node
  fields and the same clean verdict.  The zeros are roots of
  polynomials over F_q, so they come in whole orbits, and an orbit is
  probed through its first point that is no zero.

Translations at off-origin points are exact: ``translate`` returns the
local function as P / V^p, and every node below is built from exact
data, so one round gives the tree and there is no series budget.

A ``resolve`` call analyses each node polynomial once: its reduced
representative and its node fields (drop cross-check passed), its two
chart images, and, once the enumeration first reaches them, the zeros
of rsw in every field.  One enumeration of a node's children embeds
chart A once per field its points lie in.  One sweep check embeds it
once, into the join of the chart's field and the sweep field, and
translates every probe there, so that all its probes share one image
and that image's translation plan (see ``laurent.translate``).  Both
keep the images only while they run.  The sweep field's points and their
labels depend on the field alone, and their orbits on it and on the
field order of the chart: the process lists them once per field, and
takes the orbits once per field order of the charts, for every call
(``_sweep_points``, ``_sweep_orbits``); candidates mode takes no orbits.
Nothing that depends on an input polynomial outlives the call, or the
memo its caller passed.

The analyses live in a memo keyed by (polynomial, branches), with
polynomials compared by value (field, terms and denominator).  An
analysis does not depend on the policy, which filters the zeros when it
enumerates them.  A call keeps its own memo unless the caller passes
one, and a caller may pass one memo to several calls, in either policy:
a report does so for its input and its perturbation, whose trees often
share nodes.  An analysis depends only on its key, so a hit gives what
analysing again would give, and each call still builds its own tree from
it; without a shared memo, two calls on the same input compute
everything twice.  The result keeps the root's representative, so that
callers read the input's reduction there instead of computing it again.

The memo holds the analyses of built nodes only.  A probe of the sweep
check is examined (reduction, shape, drop and clean-term cross-checks)
and dropped: no memo key is a probe, since a probe's polynomial is
almost never met again.  The check itself depends only on the analysis
and the sweep field, so an analysis records the sweep fields whose check
has passed below it, and the check runs once per analysis and sweep
field: a node built again from the memo (a report's perturbed rerun)
skips a check that has passed.

The tree is one preorder table, built by a loop over a work stack of
frames, with no recursion: a row (``BlowupNode``) holds its parent's
index, its label (the last segment of its path), its depth and its node
fields, and no list of children.  A path is rebuilt from the parents
only where an error message, the DOT export or a caller reads it.  The
total, the depth and the run flags of a result (``good_regime`` and the
flags behind it) are loops over the finished table, so they depend only
on the input, never on the policy, and no walk meets the recursion
limit, whatever the depth.
"""

from __future__ import annotations

import functools
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
    """The blow-up tree exceeded the configured depth cap.  ``partial`` is
    the preorder table of the tree built up to the cap (rows as in
    ``BlowupNode``, the input's node first); the child at ``path`` that
    was cut would have been its next row."""

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


@dataclass(slots=True, eq=False)
class BlowupNode:
    """One row of a tree's preorder table ``tree``, whose row 0 is the
    root: a node comes before its children, and each child's subtree
    follows the one before it."""
    tree: list = dataclass_field(repr=False)
    parent: int | None            # the parent's row in tree, None at the root
    label: str                    # "x" at the root, else B, A or A@v=<point>
    depth: int                    # 0 at the root
    branches: int
    staircase: object
    drop: int
    term: int
    clean: bool
    constant_added: bool = False
    repair: bool = False          # reduced staircase != raw input staircase
    reductions: int = 0

    @property
    def path(self):
        """The labels from the root down to this node, joined by "/",
        rebuilt from the parents."""
        labels = [self.label]
        node = self
        while node.parent is not None:
            node = self.tree[node.parent]
            labels.append(node.label)
        return "/".join(reversed(labels))

    def nodes(self):
        """Every row of this node's tree, in preorder: its table."""
        return self.tree


def _path(parent, label):
    """The path of the node with this label below the row `parent` (None
    for the root)."""
    return label if parent is None else f"{parent.path}/{label}"


@dataclass
class ResolutionResult:
    total: int
    root: BlowupNode              # row 0 of the tree's table, root.tree
    representative: object        # the input's, which the root was built from
    # read by perfbench/workloads.py until ROADMAP item 4: root search is
    # complete and translation exact, so these never change
    partial_roots = False
    precision_escalations = 0

    @property
    def constant_added_anywhere(self):
        return any(node.constant_added for node in self.root.tree)

    @property
    def off_origin_nonclean(self):
        # the tree keeps an off-origin point only when it is non-clean
        return any(node.label.startswith("A@v=") for node in self.root.tree)

    @property
    def nonroot_repair(self):
        return any(node.repair for node in self.root.tree
                   if node.parent is not None)

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
        """The most non-clean nodes on a path down from the root, 0 when
        the root is clean: a clean node has no children, so every
        ancestor of a non-clean node is non-clean."""
        return max((node.depth + 1 for node in self.root.tree
                    if not node.clean), default=0)


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
    tree = _build_tree(f, branches, call)
    return ResolutionResult(
        total=sum(node.term for node in tree), root=tree[0],
        representative=call.analysis(f, branches, None, "x").representative)


@dataclass
class _NodeAnalysis:
    """What a node's polynomial determines: the node's fields but its
    place in the tree, its good representative, the chart B and chart A
    images of that representative when the node is not clean, the refined
    Swan zeros below the chart A image, in every field, once the
    enumeration of the node's children first reaches them, and the sweep
    fields whose check (``_Call.check_sweep``) has passed below it."""
    fields: dict
    representative: object
    charts: tuple = ()
    zeros: list = None
    swept: tuple = ()


class _Call:
    """What one ``resolve`` call keeps: the depth cap, the sweep field
    (None in candidates mode) and the memo of node analyses.  The sweep
    field's points, their labels and their Frobenius orbits are not the
    call's: the process keeps them per field (``_sweep_points``,
    ``_sweep_orbits``)."""

    def __init__(self, depth_cap, sweep, memo):
        self.depth_cap = depth_cap
        self.sweep = sweep
        self.memo = memo    # (polynomial, branches) -> analysis

    def analysis(self, poly, branches, parent, label):
        """The analysis of a node polynomial, analysed once per memo.
        The key holds the branches because the node fields depend on
        them; nothing in it depends on the mode.  `parent` (the row
        above, None at the root) and `label` name the node in the error
        of a failed check."""
        key = (poly, branches)
        info = self.memo.get(key)
        if info is None:
            info = self.memo[key] = _analyse(poly, branches, parent, label)
        return info

    def check_sweep(self, info, node):
        """CrossCheckError unless every point of the sweep field that is
        no refined Swan zero comes out clean below the row `node` in sweep
        mode.
        The points are probed one per Frobenius orbit under x -> x^q, F_q
        the chart's field, among the points that are no zero.  A probe is
        examined (``_examine``: reduction, shape, both cross-checks), not
        built and not stored: a clean point has no children, and no memo
        key is a probe.  Every probe is translated in one field, the join
        of the chart's and the sweep field, so that all of them share one
        image of chart A and its translation plan.  The check depends only
        on the analysis and the sweep field, so it runs once per pair.
        The error names the point by field degree and encoding as well as
        by label, since labels omit the field: g of F_4 and g of F_16
        print alike."""
        sweep = self.sweep
        if sweep in info.swept:
            return
        first = info.charts[1]
        ctx = join_context(first.ctx, sweep)
        image = first.embed_into(ctx)
        points, labels, elements = _sweep_points(sweep)
        orbits = _sweep_orbits(sweep, first.ctx.order)
        probed = set()
        for point, label, element, orbit in zip(points, labels, elements,
                                                orbits):
            if point in info.zeros or orbit in probed:
                continue
            probed.add(orbit)
            moved = translate(image, embed(element, ctx))
            if not _examine(moved, 1, node, label)[1]:
                raise CrossCheckError(
                    f"at {_path(node, label)}: not clean, but "
                    f"{_point_key(point)} (field degree, encoding) is no "
                    f"refined Swan zero in {sweep}")
        info.swept += (sweep,)


def _build_tree(f, branches, call):
    """The preorder table of f's tree, built by a loop.  Each non-clean
    row has a frame on the work stack while its children are built: its
    analysis, the iterator of its children and its row index.  A row
    enters the table when it is reached, so a child's subtree follows it
    and the table built so far is the tree up to the current row."""
    tree = []
    frames = []

    def add(poly, node_branches, parent, label):
        above = None if parent is None else tree[parent]
        depth = 0 if above is None else above.depth + 1
        if depth > call.depth_cap:
            raise DepthCapError(_path(above, label), tree)
        info = call.analysis(poly, node_branches, above, label)
        row = BlowupNode(tree, parent, label, depth, **info.fields)
        tree.append(row)
        if not row.clean:
            frames.append((info, _blowup_children(info, call), len(tree) - 1))
        return row

    add(f, branches, None, "x")
    while frames:
        info, children, index = frames[-1]
        child = next(children, None)
        if child is None:
            frames.pop()
            if call.sweep is not None:
                call.check_sweep(info, tree[index])
            continue
        poly, child_branches, label = child
        row = add(poly, child_branches, index, label)
        # the chart origins come first and stay in the tree even when
        # clean; the points after them are refined Swan zeros, which are
        # never clean
        if row.clean and row.label.startswith("A@v="):
            raise CrossCheckError(
                f"at {row.path}: a refined Swan zero is clean")
    return tree


def _examine(poly, branches, parent, label):
    """(good representative, clean, drop, term) of a node polynomial,
    with the checks that every node and every sweep probe runs: the
    reduction (which verifies its witness), the staircase shape, the drop
    from the staircase against the conductor loops, and a zero term on a
    clean node.  CrossCheckError names the point by its path, rebuilt
    from `parent` and `label` only then."""
    rep = good_representative(poly)
    stair = rep.staircase
    clean = is_clean_shape(stair, branches)
    drop = swan_drop(stair)
    sw1, sw2, swe = conductors(rep.g, branches)
    if drop != sw1 + sw2 - swe:
        raise CrossCheckError(
            f"at {_path(parent, label)}: staircase gives drop {drop}, "
            f"conductors give {sw1} + {sw2} - {swe}")
    term = blowup_term(drop, branches)
    if clean and term != 0:
        raise CrossCheckError(
            f"clean node {_path(parent, label)} with nonzero term")
    return rep, clean, drop, term


def _analyse(poly, branches, parent, label):
    """The analysis of a node polynomial: ``_examine``'s fields and
    checks, whether the reduction repaired the staircase, and the chart
    images of a non-clean node."""
    rep, clean, drop, term = _examine(poly, branches, parent, label)
    stair = rep.staircase
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


def _blowup_children(info, call):
    """Every point that one blow-up of a non-clean node can leave
    non-clean, as (local polynomial, branch count, label): the origin of
    chart B, the origin of chart A, then each refined Swan zero on the
    exceptional curve (in sweep mode, each in the sweep field), translated
    to the origin of chart A.  Lazy, so that a failure while the caller
    handles one child stops the enumeration there; the zeros are searched
    once per analysis, and chart A is embedded once per point field and
    enumeration."""
    second, first = info.charts
    yield second, 2, "B"
    yield first, info.fields["branches"], "A"
    if info.zeros is None:
        info.zeros = exceptional_candidates(first)
    images = {}     # chart A embedded into each point field
    for point in info.zeros:
        if call.sweep is None or call.sweep.degree % point.ctx.degree == 0:
            ctx = join_context(first.ctx, point.ctx)
            image = images.get(ctx)
            if image is None:
                image = images[ctx] = first.embed_into(ctx)
            yield translate(image, embed(point, ctx)), 1, f"A@v={point}"


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


@functools.lru_cache(maxsize=None)
def _sweep_points(sweep):
    """The nonzero points of the sweep field, each in its minimal field and
    ordered by field degree, then by encoding, their labels, and the same
    points as elements of the sweep field: three tuples, a pure function
    of the field, kept for the process."""
    pairs = sorted(((minimal_form(x), x) for x in sweep.elements() if x),
                   key=lambda pair: _point_key(pair[0]))
    points = tuple(point for point, _ in pairs)
    return (points, tuple(f"A@v={x}" for x in points),
            tuple(x for _, x in pairs))


@functools.lru_cache(maxsize=None)
def _sweep_orbits(sweep, q):
    """The Frobenius orbits under x -> x^q of the sweep field's points,
    as a tuple; kept for the process per field and chart-field order."""
    return tuple(_frobenius_orbits(_sweep_points(sweep)[0], q))


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

def tree_as_dict(root):
    """The JSON form of root's tree: its table, one dict per row in
    preorder, with the parent's index (None at the root), the label and
    the depth in place of a path and children."""
    return [{
        "parent": node.parent,
        "label": node.label,
        "depth": node.depth,
        "branches": node.branches,
        "staircase": [list(pt) for pt in node.staircase],
        "drop": node.drop,
        "term": node.term,
        "clean": node.clean,
        "constant_added": node.constant_added,
        "reductions": node.reductions,
    } for node in root.tree]


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


def tree_as_dot(root):
    """The Graphviz form of root's tree: node i is row i of its table,
    and the edge from its parent follows its line.  Each path extends
    its parent's, so the paths cost their length only."""
    lines = ["digraph blowups {", '  node [shape=box, fontname="monospace"];']
    paths = []
    for i, n in enumerate(root.tree):
        path = n.label if n.parent is None else f"{paths[n.parent]}/{n.label}"
        paths.append(path)
        shape = "I" if n.branches == 1 else "II"
        stair = ",".join(f"({a},{b})" for a, b in n.staircase)
        status = "clean" if n.clean else f"e={n.drop} mu={n.term}"
        lines.append(f'  n{i} [label="{path}\\ntype {shape}  '
                     f'[{stair}]\\n{status}"];')
        if n.parent is not None:
            lines.append(f"  n{n.parent} -> n{i};")
    lines.append("}")
    return "\n".join(lines)
