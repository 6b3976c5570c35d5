import json
import pathlib
import random
from collections import Counter

import pytest

from wildram import blowup, laurent
from wildram.blowup import (CrossCheckError, DepthCapError, SimulationConfig,
                            exceptional_candidates,
                            leading_exceptional_column, resolve,
                            simulation_as_dict, tree_as_dict, tree_as_dot)
from wildram.corpus import random_polynomial
from wildram.fields import RootSearch, field
from wildram.laurent import (LaurentPolynomial, PrecisionLossError,
                             blowup_substitute, pole_staircase)
from wildram.parsing import parse_polynomial
from wildram.reduction import good_representative
from wildram.staircase import (ramification_bound, ramification_recursive,
                               split)

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
    candidates, partial = exceptional_candidates(chart, SimulationConfig())
    assert not partial
    assert [c.encoding() for c in candidates] == [1]
    # the candidate certifies clean, so it is not a child
    assert _off_origin_labels(f) == []


def test_leading_exceptional_column_raises_on_a_truncated_column():
    # the certified column {1: 1} is all a guardless reader would see: the
    # column from t2^4 on is unknown, and returning (2, {1: 1}) would
    # present a truncated leading coefficient as complete
    f = LaurentPolynomial(F2, {(-2, 1): F2.one(), (-1, 0): F2.one()},
                          unknown={(-2, 4)})
    with pytest.raises(PrecisionLossError,
                       match="leading column truncated") as err:
        leading_exceptional_column(f)
    assert err.value.position == (-2, 4)


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
        _, _, crossing, continuation = split(rep.staircase)
        second = pole_staircase(blowup_substitute(rep.g, "B"))
        assert second == crossing
        first = pole_staircase(blowup_substitute(rep.g, "A"))
        assert first == continuation


def _resolve_in_both_modes(f):
    swept = resolve(f, 2, SimulationConfig(
        mode="sweep", sweep_degree=3 if f.ctx.p == 2 else 2))
    direct = resolve(f, 2, SimulationConfig())
    assert direct.total == swept.total
    assert direct.root.signature() == swept.root.signature()
    for flag in RUN_FLAGS:
        assert getattr(direct, flag) == getattr(swept, flag), flag
    return direct, swept


# type II inputs over F_2 on which sweep mode probes a translation of a
# translation whose corner reduction cancels the corner that dominated an
# unknown one; the constant repair must follow that reduction, or every
# series budget fails (r_x in candidates mode alongside)
CONSTANT_REPAIR_CASES = [
    ("t2^-3 + t1^-1*t2^-3 + t1^-3*t2^-1", 6),
    ("t2^-2 + t1^-2*t2^-2 + t1^-3*t2", 6),
    ("t2^-1 + t1^-2*t2^-2 + t1^-3*t2", 6),
    ("t2^-2 + t1^-1*t2^-1 + t1^-3*t2", 6),
    ("t2^-1 + t1^-1*t2^-1 + t1^-3*t2", 6),
    ("t1^2*t2^-3 + t1*t2^-3 + t1^-3*t2", 20),
    ("t2^-3 + t1^-1*t2^-2 + t1^-3*t2^2", 15),
    ("t1^2*t2^-3 + t1*t2^-3 + t1^-2*t2^-2", 6),
    ("t1^3*t2^-3 + t1^2*t2^-3 + t1^-2*t2^-1", 10),
    ("t1^2*t2^-3 + t1*t2^-3 + t1^-1*t2^-1", 6),
]


@pytest.mark.parametrize("text, total", CONSTANT_REPAIR_CASES)
def test_constant_repair_after_a_reduction_agrees_across_modes(text, total):
    f = poly(text, F2)
    direct = resolve(f, 2, SimulationConfig())
    assert direct.total == total and not direct.good_regime
    for degree in (1, 2, 3):
        swept = resolve(f, 2, SimulationConfig(mode="sweep",
                                               sweep_degree=degree))
        assert swept.total == direct.total
        assert swept.root.signature() == direct.root.signature()
        for flag in RUN_FLAGS:
            assert getattr(swept, flag) == getattr(direct, flag), flag


def test_result_keeps_the_root_representative():
    # the representative on the result is the input's own reduction, not
    # that of another node of the tree
    rng = random.Random(17)
    nonclean = 0
    for index in range(60):
        ctx = (F2, F3, F5)[index % 3]
        branches = 1 + index % 2
        f = random_polynomial(rng, ctx, nonneg_t2=branches == 1)
        result = resolve(f, branches)
        got, expected = result.representative, good_representative(f)
        for name in ("g", "witness", "constant_delta", "staircase",
                     "constant_added", "reductions"):
            assert getattr(got, name) == getattr(expected, name), name
        nonclean += not result.root.clean
    assert nonclean >= 10


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


ESCALATING = "t1*t2^-4 + 1 + t1^-1*t2^-4 + t1^-3*t2^-2"


def test_escalation_rounds_reduce_each_exact_polynomial_once(monkeypatch):
    reduced = []
    original = blowup.good_representative

    def recorded(g):
        reduced.append(g)
        return original(g)

    monkeypatch.setattr(blowup, "good_representative", recorded)
    f = poly(ESCALATING, F2)
    result = resolve(f, 2)
    assert result.precision_escalations >= 1
    first = [g for g in reduced if g.is_exact]
    assert f in first
    assert len(first) == len(set(first))
    # truncated polynomials are not kept: they are reduced each time
    assert len(first) < len(reduced)
    # a second call shares nothing with the first
    del reduced[:]
    again = resolve(f, 2)
    assert again.root.signature() == result.root.signature()
    assert Counter(g for g in reduced if g.is_exact) == Counter(first)


@pytest.mark.parametrize("expr, ctx", [("t1^-3*t2 + t2^-2", F3),
                                       ("t1^-2*t2 + t1^-4*t2^3", F2),
                                       ("t1^-2*t2", F3)])
def test_a_corrupt_corner_summary_fails_the_drop_cross_check(monkeypatch,
                                                              expr, ctx):
    # the staircase and its hidden-corner guard read the certified corners,
    # the conductor loops take their valuations in their own pass: a
    # summary that loses its leftmost corner (largest t1 pole) must make
    # the two routes disagree
    assert resolve(poly(expr, ctx), 2).total >= 1
    real = laurent._certified_corners

    def without_leftmost(f):
        return sorted(real(f))[1:]

    monkeypatch.setattr(laurent, "_certified_corners", without_leftmost)
    with pytest.raises(CrossCheckError):
        resolve(poly(expr, ctx), 2)


@pytest.mark.parametrize("partial_calls", [None, 1])
def test_reused_points_still_report_a_partial_search(monkeypatch,
                                                     partial_calls):
    # every search reports partial, or only the first one: the root's,
    # which runs in the first round alone and is reused by the later ones
    original = blowup.find_roots
    calls = []

    def partial(coeffs, ext_cap=6):
        calls.append(coeffs)
        return RootSearch(roots=original(coeffs, ext_cap).roots,
                          partial=partial_calls is None
                          or len(calls) <= partial_calls)

    monkeypatch.setattr(blowup, "find_roots", partial)
    result = resolve(poly(ESCALATING, F2), 2)
    assert result.precision_escalations >= 1
    assert result.partial_roots


GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_sweep_embeds_chart_a_once_per_point_field(monkeypatch):
    # with sweep_degree=2 over F_3 the points lie in F_3 and in F_9; an
    # enumeration of a node's children embeds its chart A image at most once
    # into each field, and the tree is the golden one of sweep_degree=1
    embeddings = Counter()      # (source, target field) -> real embeddings
    enumerations = Counter()    # chart A image -> enumerations of it
    kept = []                   # keeps every counted id alive
    original_embed = LaurentPolynomial.embed_into
    original_children = blowup._blowup_children

    def counted_embed(self, target):
        if target != self.ctx:
            kept.append(self)
            embeddings[(id(self), target)] += 1
        return original_embed(self, target)

    def counted_children(info, config, budget, stats):
        kept.append(info.charts[1])
        enumerations[id(info.charts[1])] += 1
        return original_children(info, config, budget, stats)

    monkeypatch.setattr(LaurentPolynomial, "embed_into", counted_embed)
    monkeypatch.setattr(blowup, "_blowup_children", counted_children)
    result = resolve(poly("t1^-4*t2 + t1^-5*t2^2", F3), 2,
                     SimulationConfig(mode="sweep", sweep_degree=2))
    assert {target for _, target in embeddings} == {field(3, 2)}
    for (source, _), count in embeddings.items():
        assert count <= enumerations[source]
    golden = (GOLDEN / "simulate_f3_sweep.txt").read_text(encoding="utf-8")
    assert simulation_as_dict(result) == json.loads(golden.split("\n", 1)[1])


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


def test_candidates_flag_a_partial_root_search():
    # the leading coefficient v^2 + v + 1 has its roots in F_4 only, which
    # an extension cap of 1 does not reach
    f = poly("t1^-1 + t1^-2*t2 + t1^-3*t2^2", F2)
    chart = blowup_substitute(good_representative(f).g, "A")
    assert exceptional_candidates(chart, SimulationConfig(ext_cap=1)) == (
        [], True)
    points, partial = exceptional_candidates(chart, SimulationConfig())
    assert [(c.ctx.degree, c.encoding()) for c in points] == [(2, 2), (2, 3)]
    assert not partial


def test_derivative_rule_finds_cascade_point():
    # over F_3 with leading coefficient v + v^2: v = 1 is not a root
    # (L(1) = 2) but kills the derivative, and after the corner-reduction
    # cascade the point is genuinely non-clean; only the derivative rule
    # can propose it
    f = poly("t1^-4*t2 + t1^-5*t2^2", F3)
    chart = blowup_substitute(good_representative(f).g, "A")
    candidates, partial = exceptional_candidates(chart, SimulationConfig())
    assert not partial
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
