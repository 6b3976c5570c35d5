import random

import pytest

from wildram.blowup import (DepthCapError, SimulationConfig,
                            exceptional_candidates, resolve, tree_as_dict,
                            tree_as_dot)
from wildram.corpus import random_polynomial
from wildram.fields import field
from wildram.laurent import LaurentPolynomial, blowup_substitute, pole_staircase
from wildram.parsing import parse_polynomial
from wildram.reduction import good_representative
from wildram.staircase import (crossing_child, continuation_child,
                               ramification_bound, ramification_recursive)

F2 = field(2)
F3 = field(3)
F5 = field(5)

RUN_FLAGS = ("good_regime", "off_origin_nonclean", "nonroot_repair",
             "constant_added_anywhere")


def poly(text, ctx):
    return parse_polynomial(text, ctx)


@pytest.mark.parametrize("ctx", [F2, F3, F5])
def test_two_blowup_chain(ctx):
    result = resolve(poly("t1^-2*t2", ctx), 2)
    assert result.total == 2
    assert result.depth == 2
    nonclean = [n for n in result.root.nodes() if not n.clean]
    assert len(nonclean) == 2
    assert all(n.term == 1 for n in nonclean)
    assert result.good_regime


def test_clean_one_branch_input():
    result = resolve(poly("t1^-1", F5), 1)
    assert result.total == 0
    assert result.root.clean
    assert result.depth == 0


def test_trivial_cover():
    result = resolve(LaurentPolynomial.zero(F3), 2)
    assert result.total == 0 and result.root.clean


def test_one_branch_input_rejects_t2_poles():
    with pytest.raises(ValueError):
        resolve(poly("t2^-1", F3), 1)


def _nonclean_children(f):
    """(label, branches) of each non-clean point that the first blow-up
    of f leaves, read off the first level of its resolution tree."""
    return [(c.path.rsplit("/", 1)[-1], c.branches)
            for c in resolve(f, 2).root.children if not c.clean]


def test_children_only_first_chart_origin():
    children = _nonclean_children(poly("1 + t1^-2*t2", F3))
    assert children == [("A", 2)]


def test_children_empty_when_chart_images_clean():
    # one blow-up of this non-clean point leaves only clean points
    children = _nonclean_children(poly("1 + t1^-1*t2", F3))
    assert children == []


def test_crossing_child_detected_despite_unramified_exceptional():
    # the exceptional curve itself is unramified here, but the crossing
    # with the old first branch still needs one more blow-up
    children = _nonclean_children(poly("1 + t1^-1*t2^2", F3))
    assert children == [("B", 2)]
    result = resolve(poly("1 + t1^-1*t2^2", F3), 2)
    assert result.total == 2 and result.good_regime


def _off_origin_labels(f):
    return [label for label, _ in _nonclean_children(f) if "@v=" in label]


def test_candidate_points_from_leading_coefficient():
    # leading coefficient along the exceptional curve is v^2 + v
    f = poly("t1^-2*t2 + t1^-3*t2^2", F2)
    chart = blowup_substitute(good_representative(f).g, "A")
    candidates = exceptional_candidates(chart, SimulationConfig())
    assert [c.encoding() for c in candidates] == [1]
    # the candidate certifies clean, so it is not a child
    assert _off_origin_labels(f) == []


def test_off_origin_nonclean_point():
    # the double root of v(v+1)^2 at v = 1 hides a genuine non-clean point
    f = poly("t1^-2*t2 + t1^-4*t2^3", F2)
    result = resolve(f, 2)
    assert result.off_origin_nonclean and not result.good_regime
    rep = good_representative(f)
    recursive = ramification_recursive(rep.staircase, 2).total
    assert result.total == 11 and recursive == 10
    bound = ramification_bound(rep.staircase, 2)
    assert result.total <= bound and recursive <= bound
    labels = [n.path for n in result.root.nodes()]
    assert any("@v=1" in path for path in labels)


def test_depth_cap():
    with pytest.raises(DepthCapError):
        resolve(poly("t1^-2*t2", F3), 2, SimulationConfig(depth_cap=1))


def test_drop_crosscheck_runs_per_node():
    result = resolve(poly("t1^-4*t2 + t1^-1*t2^-2", F3), 2)
    for node in result.root.nodes():
        assert node.term >= 0
        if node.clean:
            assert node.term == 0


def test_chart_consistency_with_index_transforms():
    # the reduced staircase of a chart image equals the index-set
    # transform of the parent staircase, before any local repair
    rng = random.Random(11)
    for _ in range(120):
        ctx = [F2, F3, F5][rng.randrange(3)]
        rep = good_representative(random_polynomial(rng, ctx))
        if len(rep.staircase) == 0:
            continue
        second = pole_staircase(blowup_substitute(rep.g, "B"))
        assert second == crossing_child(rep.staircase)
        first = pole_staircase(blowup_substitute(rep.g, "A"))
        assert first == continuation_child(rep.staircase)


def _resolve_in_both_modes(f):
    swept = resolve(f, 2, SimulationConfig(
        mode="sweep", sweep_degree=3 if f.ctx.p == 2 else 2))
    direct = resolve(f, 2, SimulationConfig())
    assert direct.total == swept.total
    assert direct.root.signature() == swept.root.signature()
    for flag in RUN_FLAGS:
        assert getattr(direct, flag) == getattr(swept, flag), flag
    return direct, swept


def test_modes_agree():
    # sweep mode probes off-origin points that come out clean; their
    # repairs must not leak into the run flags
    f = poly("t1^-9*t2^2 + t1^-2*t2^-7 + t1^-4*t2^-1", F3)
    direct, swept = _resolve_in_both_modes(f)
    recursive = ramification_recursive(good_representative(f).staircase, 2)
    assert direct.total == recursive.total == 63
    assert direct.good_regime and swept.good_regime
    rng = random.Random(12)
    for idx in range(60):
        ctx = [F2, F3][idx % 2]
        _resolve_in_both_modes(
            random_polynomial(rng, ctx, max_terms=3, exp_bound=3))


def test_truncation_escalates_and_stabilizes():
    f = poly("t1*t2^-4 + 1 + t1^-1*t2^-4 + t1^-3*t2^-2", F2)
    result = resolve(f, 2)
    assert result.precision_escalations >= 1
    assert result.total <= ramification_bound(good_representative(f).staircase, 2)
    # the escalated result does not depend on the starting series budget
    for terms in (16, 32, 64):
        other = resolve(f, 2, SimulationConfig(series_terms=terms))
        assert other.root.signature() == result.root.signature()
        assert other.total == result.total


def test_exports():
    result = resolve(poly("t1^-2*t2", F2), 2)
    tree = tree_as_dict(result.root)
    assert tree["path"] == "x" and tree["children"]
    dot = tree_as_dot(result.root)
    assert dot.startswith("digraph") and "type II" in dot


def test_depth_cap_error_carries_partial_tree():
    with pytest.raises(DepthCapError) as err:
        resolve(poly("t1^-2*t2", F3), 2, SimulationConfig(depth_cap=1))
    # the deepest node whose children were being explored when the cap hit
    assert err.value.partial is not None
    assert err.value.partial.path == "x/A"


def test_children_order_is_chart_then_points():
    f = poly("t1^-2*t2 + t1^-4*t2^3", F2)
    result = resolve(f, 2)
    labels = [c.path for c in result.root.children]
    assert labels[0].endswith("/B")
    assert labels[1].endswith("/A")
    assert all("@v=" in rest for rest in labels[2:])


def test_derivative_rule_finds_cascade_point():
    # over F_3 with leading coefficient v + v^2: v = 1 is not a root
    # (L(1) = 2) but kills the derivative, and after the corner-reduction
    # cascade the point is genuinely non-clean; only the derivative rule
    # can propose it
    f = poly("t1^-4*t2 + t1^-5*t2^2", F3)
    chart = blowup_substitute(good_representative(f).g, "A")
    candidates = exceptional_candidates(chart, SimulationConfig())
    assert sorted(c.encoding() for c in candidates) == [1, 2]
    # only v = 1 certifies non-clean
    assert _off_origin_labels(f) == ["A@v=1"]
    direct = resolve(f, 2, SimulationConfig())
    swept = resolve(f, 2, SimulationConfig(mode="sweep", sweep_degree=1))
    assert direct.total == swept.total == 9
    assert direct.root.signature() == swept.root.signature()
    assert not direct.good_regime


def test_extension_base_fields():
    rng = random.Random(31)
    for idx in range(60):
        ctx = [field(2, 2), field(3, 2)][idx % 2]
        f = random_polynomial(rng, ctx, max_terms=3, exp_bound=3)
        result = resolve(f, 2, SimulationConfig())
        rep = good_representative(f)
        recursive = ramification_recursive(rep.staircase, 2).total
        if result.good_regime:
            assert result.total == recursive
        if len(rep.staircase) > 1:
            bound = ramification_bound(rep.staircase, 2)
            assert result.total <= bound and recursive <= bound
