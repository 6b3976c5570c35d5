import json
import pathlib
import random
import sys
from collections import Counter

import pytest

import series_reference as ref
from conftest import chain_result
from wildram import blowup, fields, laurent
from wildram.blowup import (CrossCheckError, DepthCapError, SimulationConfig,
                            exceptional_candidates,
                            leading_exceptional_column, resolve,
                            simulation_as_dict, tree_as_dict, tree_as_dot)
from wildram.corpus import random_polynomial
from wildram.fields import field, find_roots, minimal_form
from wildram.laurent import (LaurentPolynomial, PrecisionLossError,
                             blowup_substitute, pole_staircase, translate)
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


def _clear_sweep_caches():
    for cache in (blowup._sweep_points, blowup._sweep_orbits):
        cache.cache_clear()


@pytest.fixture
def fresh_sweep_caches():
    """Empty the process's caches of sweep points, orbits and labels before
    a test that patches what fills them, so that it runs the patched code,
    and after it, so that no patched entry outlives it.  A test that
    patches midway calls the function it yields to empty them again."""
    _clear_sweep_caches()
    yield _clear_sweep_caches
    _clear_sweep_caches()


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


def _no_reduction(f, *args, **kwargs):
    raise AssertionError("the input reached the reduction")


@pytest.mark.parametrize("branches", [1.0, 2.0, True, 0, 3])
def test_resolve_refuses_a_point_that_is_not_one_or_two_branches(
        monkeypatch, branches):
    # refused before anything runs: a float or a bool equal to 1 is not
    # read as one branch
    monkeypatch.setattr(blowup, "good_representative", _no_reduction)
    with pytest.raises(ValueError):
        resolve(poly("t1^-2*t2", F3), branches)


@pytest.mark.parametrize("name", ["sweep_degree", "depth_cap"])
@pytest.mark.parametrize("value", [2.5, True])
def test_simulation_config_refuses_floats_and_bools(name, value):
    with pytest.raises(ValueError, match=name):
        SimulationConfig(**{name: value})


def _children(node):
    """The rows of node's table whose parent is node, in order."""
    index = node.tree.index(node)
    return [n for n in node.tree if n.parent == index]


def _nonclean_children(f):
    """(label, branches) of each non-clean point that the first blow-up
    of f leaves, read off the first level of its resolution tree."""
    return [(c.label, c.branches)
            for c in _children(resolve(f, 2).root) if not c.clean]


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


def _chart_a(f):
    return blowup_substitute(good_representative(f).g, "A")


def _zeros(f):
    """(field degree, encoding) of each refined Swan zero below f's root."""
    return [(x.ctx.degree, x.encoding())
            for x in exceptional_candidates(_chart_a(f))]


def test_candidate_points_from_leading_coefficient():
    # the leading column along the exceptional curve is v + v^2 with pole
    # order 1, prime to p: its root v = 1 is simple, so the refined Swan
    # conductor c' dv - c du/u does not vanish there and nothing is probed
    f = poly("t1^-2*t2 + t1^-3*t2^2", F2)
    assert leading_exceptional_column(_chart_a(f))[0] == 1
    assert _zeros(f) == []
    assert _off_origin_labels(f) == []
    # sweep mode probes v = 1 and finds it clean
    swept = resolve(f, 2, SimulationConfig(mode="sweep"))
    assert tree_as_dict(swept.root) == tree_as_dict(resolve(f, 2).root)


def _with_simple_roots(real):
    """The candidate set before the refined Swan conductor: the zeros plus
    every root of the leading column."""
    def candidates(chart):
        _, column = leading_exceptional_column(chart)
        low = min(column, default=0)
        coeffs = [chart.ctx.zero()] * (max(column, default=0) - low + 1)
        for n, c in column.items():
            coeffs[n - low] = c
        roots = find_roots(coeffs).roots if len(column) > 1 else []
        return sorted((minimal_form(x) for x in roots + real(chart) if x),
                      key=blowup._point_key)
    return candidates


def test_a_clean_candidate_fails_the_refined_swan_check(monkeypatch):
    # candidates mode probes only refined Swan zeros, so a probe that
    # comes out clean means the locator and the node build disagree
    f = poly("t1^-2*t2 + t1^-3*t2^2", F2)
    monkeypatch.setattr(blowup, "exceptional_candidates",
                        _with_simple_roots(exceptional_candidates))
    with pytest.raises(CrossCheckError, match="x/A@v=1: a refined Swan"):
        resolve(f, 2)
    # sweep mode builds the zero v = 1 of its field as well, and so fails
    # in the same way
    with pytest.raises(CrossCheckError, match="x/A@v=1: a refined Swan zero "
                                              "is clean"):
        resolve(f, 2, SimulationConfig(mode="sweep"))


def test_sweep_mode_checks_its_points_against_the_refined_swan_zeros(
        monkeypatch):
    # over F_3 the pole order 3 is divisible by p and c = v + v^2, so the
    # only zero is the root v = 1 of c' = 1 + 2v; a locator that drops
    # the roots of c' leaves a non-clean sweep point that is no zero
    f = poly("t1^-4*t2 + t1^-5*t2^2", F3)
    real = exceptional_candidates

    def without_derivative_roots(chart):
        pole, _ = leading_exceptional_column(chart)
        return [] if pole > 0 and pole % chart.ctx.p == 0 else real(chart)

    monkeypatch.setattr(blowup, "exceptional_candidates",
                        without_derivative_roots)
    with pytest.raises(CrossCheckError, match=r"at x/A@v=1: not clean, but "
                                              r"\(1, 1\) .* is no refined "
                                              r"Swan zero"):
        resolve(f, 2, SimulationConfig(mode="sweep"))


def test_the_sweep_check_tells_points_of_different_fields_apart(monkeypatch):
    # the zeros g and g + 1 of F_4 print like g and g + 1 of F_16, the
    # sweep field here; a locator that names the F_16 points must fail:
    # sweep mode builds the F_16 point g, which is clean
    f = poly("t1^-1 + t1^-3*t2^2 + t1^-5*t2^4", F2)
    sweep = SimulationConfig(mode="sweep", sweep_degree=4)
    assert resolve(f, 2, sweep).total == 18
    f16, real = field(2, 4), exceptional_candidates

    def in_f16(chart):
        return [f16.from_encoding(x.encoding()) for x in real(chart)]

    monkeypatch.setattr(blowup, "exceptional_candidates", in_f16)
    with pytest.raises(CrossCheckError, match="at x/A@v=g: a refined Swan "
                                              "zero is clean"):
        resolve(f, 2, sweep)


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
    assert tree_as_dict(direct.root) == tree_as_dict(swept.root)
    for flag in RUN_FLAGS:
        assert getattr(direct, flag) == getattr(swept, flag), flag
    return direct, swept


# type II inputs over F_2 on which sweep mode probes a translation of a
# translation whose corner reduction cancels the term next to the corner,
# so that the constant repair must follow that reduction (r_x in
# candidates mode alongside)
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
        assert tree_as_dict(swept.root) == tree_as_dict(direct.root)
        for flag in RUN_FLAGS:
            assert getattr(swept, flag) == getattr(direct, flag), flag


def test_sweep_mode_sweeps_one_field_per_run(monkeypatch, fresh_sweep_caches):
    # the non-clean points lie in F_64, the run's sweep field for F_4 and
    # degree 3; below them the sweep stays in F_64 instead of growing to
    # F_{2^18}, and gives candidates mode's tree and flags
    original = blowup.minimal_form

    def within_f64(x):
        assert 6 % x.ctx.degree == 0, f"a point of {x.ctx}"
        return original(x)

    monkeypatch.setattr(blowup, "minimal_form", within_f64)
    f = poly("t1^3*t2^-4 + t1*t2^3 + g*t1^-3*t2^2", field(2, 2))
    _, swept = _resolve_in_both_modes(f)
    assert swept.total == 39 and not swept.good_regime


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


# an input whose probes once needed a doubled series budget
ESCALATING = "t1*t2^-4 + 1 + t1^-1*t2^-4 + t1^-3*t2^-2"


def test_the_formerly_escalating_input_resolves_in_one_round():
    # the input that escalated under a series budget resolves in one round
    # to the tree the budget rounds stabilized on (the golden file), and
    # the off-origin probes it analyses are local functions P / V^p
    f = poly(ESCALATING, F2)
    memo = {}
    result = resolve(f, 2, memo=memo)
    assert result.precision_escalations == 0
    assert result.total == 9
    assert result.total <= ramification_bound(good_representative(f).staircase, 2)
    golden = (GOLDEN / "simulate_f2_translated.txt").read_text(
        encoding="utf-8")
    assert simulation_as_dict(result) == json.loads(golden.split("\n", 1)[1])
    assert any(g.denominator is not None for g, _ in memo)


def test_one_round_reduces_each_exact_polynomial_once(monkeypatch):
    # one round: every node polynomial, translated probes included, is
    # reduced once per call, and a second call repeats the same work
    reduced = []
    original = blowup.good_representative

    def recorded(g):
        reduced.append(g)
        return original(g)

    monkeypatch.setattr(blowup, "good_representative", recorded)
    f = poly(ESCALATING, F2)
    result = resolve(f, 2)
    first = list(reduced)
    assert f in first and len(first) == len(set(first))
    assert any(g.denominator is not None for g in first)
    del reduced[:]
    again = resolve(f, 2)
    assert tree_as_dict(again.root) == tree_as_dict(result.root)
    assert Counter(reduced) == Counter(first)


# (polynomial, branches, config) pairs of calls that one memo may serve:
# candidates mode finds the off-origin points of t1^-6*t2^3 + t2^-3 (r_x
# 45) that sweep mode over F_2 misses (r_x 39), and a type I and a type II
# call analyse the same polynomials with different node fields
SHARED_MEMO_CALLS = [
    (("t1^-6*t2^3 + t2^-3", 2, SimulationConfig()),
     ("t1^-6*t2^3 + t2^-3", 2, SimulationConfig(mode="sweep"))),
    (("t1^-2*t2 + t1^-4*t2^3", 1, SimulationConfig()),
     ("t1^-2*t2 + t1^-4*t2^3", 2, SimulationConfig())),
]


@pytest.mark.parametrize("calls", SHARED_MEMO_CALLS)
def test_a_shared_memo_gives_each_call_its_solo_tree(calls):
    # the memo is keyed by the polynomial and the branches, and an
    # analysis holds the refined Swan zeros in every field, so a call in
    # either mode may read an analysis that the other made
    solo = [simulation_as_dict(resolve(poly(text, F2), branches, config))
            for text, branches, config in calls]
    assert solo[0] != solo[1]
    for order in (calls, calls[::-1]):
        memo = {}
        shared = [simulation_as_dict(resolve(poly(text, F2), branches, config,
                                             memo=memo))
                  for text, branches, config in order]
        assert shared == (solo if order is calls else solo[::-1])


def _recording_analyse(monkeypatch):
    """A list of the (polynomial, branches) of each analysis run so far."""
    analysed = []
    original = blowup._analyse

    def recorded(g, branches, parent, label):
        analysed.append((g, branches))
        return original(g, branches, parent, label)

    monkeypatch.setattr(blowup, "_analyse", recorded)
    return analysed


def test_one_memo_serves_both_modes(monkeypatch):
    # an analysis does not depend on the mode: a sweep-mode call after a
    # candidates-mode call on one memo analyses only what the first did
    # not, and each call gives its solo tree (r_x 45 and 39)
    f = poly("t1^-6*t2^3 + t2^-3", F2)
    sweep = SimulationConfig(mode="sweep")
    solo = [simulation_as_dict(resolve(f, 2, config))
            for config in (None, sweep)]
    analysed = _recording_analyse(monkeypatch)
    memo = {}
    shared = [simulation_as_dict(resolve(f, 2, config, memo=memo))
              for config in (None, sweep)]
    assert shared == solo and [t["r_x"] for t in shared] == [45, 39]
    assert len(analysed) == len(set(analysed)) == len(memo)


def test_a_shared_memo_analyses_each_exact_polynomial_once(monkeypatch):
    # every node polynomial is a memo key, the translated zeros too, so a
    # second call on one memo analyses nothing
    analysed = _recording_analyse(monkeypatch)
    f = poly(ESCALATING, F2)
    memo = {}
    first = resolve(f, 2, memo=memo)
    count = len(analysed)
    assert count == len(set(analysed)) == len(memo)
    again = resolve(f, 2, memo=memo)
    assert tree_as_dict(again.root) == tree_as_dict(first.root)
    assert len(analysed) == count


class _CountingMemo(dict):
    """A memo that counts its lookups."""
    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def _recording(monkeypatch, name):
    """A list of the arguments of each call of the blowup function `name`
    from now on."""
    calls = []
    original = getattr(blowup, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(blowup, name, recorded)
    return calls


# sweeps of F_8, F_9 and F_16, as the sweep-ext benchmark runs them
SWEEP_EXT_LIKE = [("t1^-6*t2^3 + t2^-3", F2, 3),
                  ("t1^-4*t2 + t1^-5*t2^2", F3, 2),
                  ("t1^-2*t2 + t1^-4*t2^3", F2, 4)]


@pytest.mark.parametrize("text, ctx, degree", SWEEP_EXT_LIKE)
def test_sweep_probes_leave_the_memo_alone(monkeypatch, text, ctx, degree):
    # the memo ends with the analyses of the built nodes and nothing else,
    # and is read once per built node and once for the root's
    # representative: the probes of the sweep checks, many more, are
    # examined without a memo key
    looked_up = []
    original = blowup._Call.analysis

    def recorded(call, *args):
        looked_up.append(args)
        return original(call, *args)

    monkeypatch.setattr(blowup._Call, "analysis", recorded)
    examined = _recording(monkeypatch, "_examine")
    memo = _CountingMemo()
    result = resolve(poly(text, ctx), 2,
                     SimulationConfig(mode="sweep", sweep_degree=degree),
                     memo=memo)
    assert len(looked_up) == len(result.root.nodes()) + 1
    assert set(memo) == {args[:2] for args in looked_up}
    assert memo.lookups == len(looked_up)
    assert len(examined) > 2 * len(memo)


def test_a_sweep_check_runs_once_per_analysis_and_sweep_field(monkeypatch):
    # a second sweep-mode call on one memo reads every node from it and
    # probes nothing, since each check already passed on the same analysis
    # and field; a call with another sweep degree probes its own field
    f = poly("t1^-6*t2^3 + t2^-3", F2)
    configs = [SimulationConfig(mode="sweep", sweep_degree=degree)
               for degree in (2, 2, 3)]
    solo = [simulation_as_dict(resolve(f, 2, config)) for config in configs]
    examined = _recording(monkeypatch, "_examine")
    memo = {}
    probes = []
    for config, expected in zip(configs, solo):
        del examined[:]
        result = resolve(f, 2, config, memo=memo)
        assert simulation_as_dict(result) == expected
        nodes = {n.path for n in result.root.nodes()}
        paths = (blowup._path(parent, label) for *_, parent, label in examined)
        probes.append([path for path in paths if path not in nodes])
    assert probes[0] and not probes[1] and probes[2]


def test_the_sweep_check_follows_each_non_clean_subtree(monkeypatch):
    # the check runs once per non-clean row, right after the last row of
    # its subtree has entered the table and before any other row does
    calls = []
    original = blowup._Call.check_sweep

    def recorded(call, info, node):
        calls.append((node, len(node.tree)))
        return original(call, info, node)

    monkeypatch.setattr(blowup._Call, "check_sweep", recorded)
    result = resolve(poly("t1^-6*t2^3 + t2^-3", F2), 2,
                     SimulationConfig(mode="sweep", sweep_degree=2))
    tree = result.root.tree
    nonclean = [node for node in tree if not node.clean]
    assert len(nonclean) > 2
    assert sorted(map(id, nonclean)) == sorted(id(node) for node, _ in calls)
    for node, size in calls:
        i = tree.index(node)
        end = next((j for j in range(i + 1, len(tree))
                    if tree[j].depth <= node.depth), len(tree))
        assert size == end, node.path


def test_a_drop_mismatch_on_a_sweep_probe_names_the_probe(monkeypatch):
    # the zeros of this input lie in F_2, so only the probes of the F_4
    # sweep are translated over F_4; conductors that misread just those
    # must fail the drop cross-check at a probe, which is no tree node
    f = poly("t1^-2*t2 + t1^-4*t2^3", F2)
    sweep = SimulationConfig(mode="sweep", sweep_degree=2)
    nodes = {n.path for n in resolve(f, 2, sweep).root.nodes()}
    assert "x/A/A@v=1" not in nodes
    real, f4 = blowup.conductors, field(2, 2)

    def misread_over_f4(g, branches):
        sw1, sw2, swe = real(g, branches)
        return (sw1 + (g.ctx == f4), sw2, swe)

    monkeypatch.setattr(blowup, "conductors", misread_over_f4)
    with pytest.raises(CrossCheckError, match=r"^at x/A/A@v=1: staircase "
                                              r"gives drop 0, conductors "
                                              r"give 1 \+ 0 - 0$"):
        resolve(f, 2, sweep)


@pytest.mark.parametrize("mode", ["candidates", "sweep"])
def test_the_callers_input_keeps_no_translation_plan(mode):
    # a translation plan lives on the chart images the call built (and
    # on their embeddings), never on the polynomial the caller passed
    for text in ("t1^-2*t2 + t1^-4*t2^3", ESCALATING):
        f = poly(text, F2)
        memo = {}
        resolve(f, 2, SimulationConfig(mode=mode, sweep_degree=2), memo=memo)
        assert f._plan is None
        assert any(g._plan is not None for g, _ in memo)


def _flags_by_definition(result):
    nodes = result.root.nodes()
    return (any(n.constant_added for n in nodes),
            any("@v=" in n.path for n in nodes),
            any(n.repair for n in nodes[1:]))


def test_run_flags_match_their_definitions_in_both_modes():
    # the flags of one walk against one definition each, on a seeded
    # corpus with the constant-repair cases, in candidates mode and in
    # sweep mode
    rng = random.Random(14)
    inputs = [(poly(text, F2), 2) for text, _ in CONSTANT_REPAIR_CASES]
    inputs.append((poly("t1^-2*t2 + t1^-4*t2^3", F2), 2))
    for index in range(80):
        ctx = (F2, F3, field(2, 2), F5)[index % 4]
        branches = 1 + index // 4 % 2
        inputs.append((random_polynomial(rng, ctx,
                                         nonneg_t2=branches == 1), branches))
    seen = Counter()
    for f, branches in inputs:
        for config in (SimulationConfig(),
                       SimulationConfig(mode="sweep", sweep_degree=2)):
            result = resolve(f, branches, config)
            flags = _flags_by_definition(result)
            assert (result.constant_added_anywhere, result.off_origin_nonclean,
                    result.nonroot_repair) == flags
            assert result.good_regime == (not (flags[1] or flags[2]))
            seen[flags + (result.root.repair,)] += 1
    for index in range(3):
        assert {flags[index] for flags in seen} == {False, True}
    # an off-origin point without a repair below the root, and a repair
    # at the root only
    assert any(flags[1] and not flags[2] for flags in seen)
    assert any(flags[3] and not flags[2] for flags in seen)


def _trees_in(data):
    """Every blow-up tree in a golden file's JSON: each "tree" value."""
    if isinstance(data, dict):
        for key, value in data.items():
            if key == "tree":
                yield value
            else:
                yield from _trees_in(value)
    elif isinstance(data, list):
        for value in data:
            yield from _trees_in(value)


def _check_preorder(tree):
    """The rows of a tree_as_dict list form a preorder table: the root
    first with no parent, every other row one level below its parent, an
    earlier row, which is the nearest earlier row one level up."""
    assert tree[0]["parent"] is None and tree[0]["depth"] == 0
    assert tree[0]["label"] == "x"
    for index, row in enumerate(tree[1:], 1):
        parent = row["parent"]
        assert parent is not None and parent < index
        assert row["depth"] == tree[parent]["depth"] + 1
        assert parent == max(i for i in range(index)
                             if tree[i]["depth"] == row["depth"] - 1)


def test_every_golden_tree_is_a_preorder_table():
    trees = 0
    for path in sorted(GOLDEN.glob("*.txt")):
        data = json.loads(path.read_text(encoding="utf-8").split("\n", 1)[1])
        for tree in _trees_in(data):
            _check_preorder(tree)
            trees += 1
    assert trees >= 8


def test_a_3000_deep_chain_is_walked_at_the_default_recursion_limit():
    # the total, the run flags, the depth, a path and both exports run at
    # the default recursion limit; test_cli prints the same chain as JSON
    assert sys.getrecursionlimit() < 3000
    result = chain_result(3000)
    root = result.root
    assert root.nodes() is root.tree and len(root.tree) == 3000
    assert sum(n.term for n in root.nodes()) == result.total == 3000
    assert (result.constant_added_anywhere, result.off_origin_nonclean,
            result.nonroot_repair, result.good_regime) == (True, True, True,
                                                           False)
    assert result.depth == 3000
    assert root.tree[-1].path == "x" + "/A" * 2998 + "/A@v=1"
    tree = tree_as_dict(root)
    _check_preorder(tree)
    assert [row["parent"] for row in tree] == [None, *range(2999)]
    assert simulation_as_dict(result)["tree"] == tree
    lines = tree_as_dot(root).splitlines()
    assert len(lines) == 2 + 3000 + 2999 + 1
    # each node's line, then the edge from its parent
    assert [line.split()[0] for line in lines[2:-1]] == ["n0"] + [
        name for i in range(1, 3000) for name in (f"n{i}", f"n{i - 1}")]
    assert lines[-2] == "  n2998 -> n2999;"
    assert lines[-3].startswith(f'  n2999 [label="{root.tree[-1].path}\\n')


@pytest.mark.parametrize("expr, ctx", [("t1^-3*t2 + t2^-2", F3),
                                       ("t1^-2*t2 + t1^-4*t2^3", F2),
                                       ("t1^-2*t2", F3)])
def test_a_corrupt_corner_summary_fails_the_drop_cross_check(monkeypatch,
                                                              expr, ctx):
    # the staircase reads the corners, the conductor loops take their
    # valuations in their own pass: a
    # summary that loses its leftmost corner (largest t1 pole) must make
    # the two routes disagree
    assert resolve(poly(expr, ctx), 2).total >= 1
    real = laurent._sorted_corners

    def without_leftmost(points):
        return sorted(real(points))[1:]

    monkeypatch.setattr(laurent, "_sorted_corners", without_leftmost)
    with pytest.raises(CrossCheckError):
        resolve(poly(expr, ctx), 2)


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

    def counted_children(info, *args):
        kept.append(info.charts[1])
        enumerations[id(info.charts[1])] += 1
        return original_children(info, *args)

    monkeypatch.setattr(LaurentPolynomial, "embed_into", counted_embed)
    monkeypatch.setattr(blowup, "_blowup_children", counted_children)
    result = resolve(poly("t1^-4*t2 + t1^-5*t2^2", F3), 2,
                     SimulationConfig(mode="sweep", sweep_degree=2))
    assert {target for _, target in embeddings} == {field(3, 2)}
    for (source, _), count in embeddings.items():
        assert count <= enumerations[source]
    golden = (GOLDEN / "simulate_f3_sweep.txt").read_text(encoding="utf-8")
    assert simulation_as_dict(result) == json.loads(golden.split("\n", 1)[1])


def _every_point_its_own_orbit(points, q):
    # the enumeration before orbits: each point is probed for itself
    return list(range(len(points)))


def _counting_translate(monkeypatch):
    """A list whose length is the number of translations run so far."""
    calls = []
    original = blowup.translate

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(blowup, "translate", counted)
    return calls


def _orbit_corpus(seed, count):
    """Seeded type II inputs c*t1^-a*t2^b + c'*t1^c*t2^-d, every other one
    with a third random term, over F_2, F_3 and F_4, each paired with a
    point-location mode: candidates, or sweep of degree 2 or 3."""
    rng = random.Random(seed)
    fields = (F2, F3, field(2, 2))
    modes = (SimulationConfig(),
             SimulationConfig(mode="sweep", sweep_degree=2),
             SimulationConfig(mode="sweep", sweep_degree=3))
    corpus = []
    for index in range(count):
        ctx = fields[index % 3]
        exponents = [(-rng.randint(1, 6), rng.randint(0, 4)),
                     (rng.randint(0, 3), -rng.randint(1, 5))]
        if index % 2:
            exponents.append((rng.randint(-4, 4), rng.randint(-4, 4)))
        terms = {e: ctx.from_encoding(rng.randrange(1, ctx.order))
                 for e in exponents}
        corpus.append((LaurentPolynomial(ctx, terms), modes[index // 3 % 3]))
    return corpus


def test_orbit_probes_match_probing_every_point(
        monkeypatch, fresh_sweep_caches):
    # the charts are defined over the node's field F_q, so the local
    # equation at v^q is the Frobenius image of the one at v: probing one
    # point per orbit of v -> v^q gives the tree and the flags of probing
    # every point, in both modes
    corpus = _orbit_corpus(2, 90)
    calls = _counting_translate(monkeypatch)
    by_orbit = [simulation_as_dict(resolve(f, 2, config))
                for f, config in corpus]
    orbit_translations = len(calls)
    monkeypatch.setattr(blowup, "_frobenius_orbits",
                        _every_point_its_own_orbit)
    fresh_sweep_caches()
    by_point = [simulation_as_dict(resolve(f, 2, config))
                for f, config in corpus]
    assert by_orbit == by_point
    assert orbit_translations < len(calls) - orbit_translations
    off_origin = [config.mode for (_, config), out in zip(corpus, by_point)
                  if out["off_origin_nonclean"]]
    assert len(off_origin) >= 10 and set(off_origin) == {"candidates", "sweep"}


def test_orbits_are_taken_under_the_frobenius_of_the_chart_field(
        monkeypatch, fresh_sweep_caches):
    # over F_4 the map v -> v^2 moves the coefficient g of the chart, so
    # orbits taken under it skip non-clean points and give r_x 16
    f = poly("g*t1^-2*t2 + t1^2*t2^-3", field(2, 2))
    calls = _counting_translate(monkeypatch)
    for mode in ("candidates", "sweep"):
        result = resolve(f, 2, SimulationConfig(mode=mode, sweep_degree=2))
        assert result.total == 19, mode
    by_orbit = len(calls)
    monkeypatch.setattr(blowup, "_frobenius_orbits",
                        _every_point_its_own_orbit)
    fresh_sweep_caches()
    resolve(f, 2, SimulationConfig(mode="sweep", sweep_degree=2))
    assert by_orbit < len(calls) - by_orbit


def test_sweep_points_are_listed_once_per_field_per_process(
        monkeypatch, fresh_sweep_caches):
    # the points and their labels depend only on the sweep field, and their
    # orbits only on it and on the field order of the chart (F_2 pairs g
    # with g + 1, F_4 does not), so the process lists each once, whatever
    # the calls, and the sweep check of every non-clean node reads them
    orbits = []
    original_orbits = blowup._frobenius_orbits

    def counted_orbits(points, q):
        orbits.append((max(x.ctx.degree for x in points), q))
        return original_orbits(points, q)

    monkeypatch.setattr(blowup, "_frobenius_orbits", counted_orbits)
    f4, f8 = field(2, 2), field(2, 3)
    assert blowup._sweep_points(f4)[1] == ("A@v=1", "A@v=g", "A@v=g + 1")
    assert blowup._sweep_orbits(f4, 2) == (0, 1, 1)
    assert blowup._sweep_orbits(f4, 4) == (0, 1, 2)
    f = poly("t1^-6*t2^3 + t2^-3", F2)
    trees = {}
    for _ in range(2):
        for degree in (2, 3):
            result = resolve(f, 2, SimulationConfig(mode="sweep",
                                                    sweep_degree=degree))
            assert sum(not n.clean for n in result.root.nodes()) > 1
            trees.setdefault(degree, tree_as_dict(result.root))
            assert tree_as_dict(result.root) == trees[degree]
    listed = blowup._sweep_points.cache_info()
    assert listed.misses == 2 and listed.currsize == 2    # F_4 and F_8
    assert orbits == [(2, 2), (2, 4), (3, 2)]


def test_frobenius_orbits_group_conjugates_under_the_first_point():
    f4 = field(2, 2)
    g = f4.gen()
    points = [F2.one(), g, g + f4.one()]
    assert blowup._frobenius_orbits(points, 2) == [0, 1, 1]
    assert blowup._frobenius_orbits(points, 4) == [0, 1, 2]
    # a conjugate missing from the list leaves its orbit to the rest
    assert blowup._frobenius_orbits([g + f4.one()], 2) == [0]


def test_exports():
    result = resolve(poly("t1^-2*t2", F2), 2)
    tree = tree_as_dict(result.root)
    assert tree[0]["label"] == "x" and tree[0]["parent"] is None
    assert [row["parent"] for row in tree[1:3]] == [0, 0]
    dot = tree_as_dot(result.root)
    assert dot.startswith("digraph") and "type II" in dot


def test_depth_cap_error_carries_partial_tree():
    # the table of the tree built up to the cap, the input's node first:
    # finished children stay, and the branch that hit the cap ends at the
    # node whose child was cut
    with pytest.raises(DepthCapError) as err:
        resolve(poly("t1^-2*t2", F3), 2, SimulationConfig(depth_cap=1))
    partial = err.value.partial
    assert err.value.path == "x/A/B"
    assert [n.path for n in partial] == ["x", "x/B", "x/A"]
    assert _children(partial[2]) == []
    # the depth-32 cut of ROADMAP item 2's reproducer: 65 rows, chart B's
    # origin and chart A's at each level, the last cut below chart A
    with pytest.raises(DepthCapError) as err:
        resolve(poly("t1^-200*t2 + t2^-3", F2), 2)
    partial = err.value.partial
    _check_preorder(tree_as_dict(partial[0]))
    nodes = {node.path: node for node in partial}
    cut = err.value.path.rpartition("/")[0]
    assert partial[0].path == "x" and len(partial) == len(nodes) == 65
    assert [n.label for n in partial] == ["x"] + ["B", "A"] * 32
    assert (sum(n.term for n in partial), sum(n.clean for n in partial)) == (
        528, 32)
    assert max(n.depth for n in partial) == nodes[cut].depth == 32
    assert _children(nodes[cut]) == []


def test_children_order_is_chart_then_points():
    f = poly("t1^-2*t2 + t1^-4*t2^3", F2)
    result = resolve(f, 2)
    labels = [c.path for c in _children(result.root)]
    assert labels[0].endswith("/B")
    assert labels[1].endswith("/A")
    assert all("@v=" in rest for rest in labels[2:])


def test_candidates_include_roots_in_an_extension():
    # the zeros are the roots of v^2 + v + 1, which lie in F_4 only: with
    # pole order 1 the leading column is (v^2 + v + 1)^2, with pole order
    # 2 it is v + v^3 + v^5, whose derivative is (v^2 + v + 1)^2
    for text, pole in [("t1^-1 + t1^-3*t2^2 + t1^-5*t2^4", 1),
                       ("t1^-3*t2 + t1^-5*t2^3 + t1^-7*t2^5", 2)]:
        f = poly(text, F2)
        assert leading_exceptional_column(_chart_a(f))[0] == pole
        assert _zeros(f) == [(2, 2), (2, 3)]
        assert _off_origin_labels(f) == ["A@v=g", "A@v=g + 1"]
        direct = resolve(f, 2)
        swept = resolve(f, 2, SimulationConfig(mode="sweep", sweep_degree=2))
        assert tree_as_dict(direct.root) == tree_as_dict(swept.root)
    # a simple root of a column is no zero: v^2 + v + 1 itself gives none
    assert _zeros(poly("t1^-1 + t1^-2*t2 + t1^-3*t2^2", F2)) == []


def test_candidates_find_the_roots_of_an_irreducible_septic_column():
    # the exceptional leading column (v^7 + v + 1)^2 = v^14 + v^2 + 1 has
    # pole order 1; v^7 + v + 1 is irreducible over F_2, so the seven
    # zeros lie in F_128 and in no smaller extension
    f = poly("t1^-1 + t1^-3*t2^2 + t1^-15*t2^14", F2)
    points = exceptional_candidates(_chart_a(f))
    assert [c.ctx for c in points] == [field(2, 7)] * 7
    result = resolve(f, 2)
    assert result.total == 203 and not result.partial_roots
    assert len(_off_origin_labels(f)) == 7
    # the column v^7 + v + 1 itself has simple roots only: no zero
    assert _zeros(poly("t1^-10*t2^7 + t1^-4*t2 + t1^-3", F2)) == []


def test_candidates_search_a_column_whose_roots_need_f_8192(monkeypatch):
    # the leading column is h^2 for the irreducible degree-13 polynomial
    # h = v^13 + v^4 + v^3 + v + 1 over F_2, with pole order 1: its zeros
    # lie in F_8192, above the table cap, where the equal-degree split
    # finds one of them and the others are its powers r^2, r^4, ...; they
    # form one Frobenius orbit, and each of them is a non-clean child
    f = poly("t1^-27*t2^26 + t1^-9*t2^8 + t1^-7*t2^6 + t1^-3*t2^2 + t1^-1",
             F2)
    points = exceptional_candidates(_chart_a(f))
    assert [c.ctx for c in points] == [field(2, 13)] * 13
    assert blowup._frobenius_orbits(points, 2) == [0] * 13
    probed = []
    original = blowup.translate

    def recorded(g, point):
        probed.append(point.ctx)
        return original(g, point)

    monkeypatch.setattr(blowup, "translate", recorded)
    result = resolve(f, 2)
    assert result.total == 689
    assert probed[:13] == [field(2, 13)] * 13
    assert len(_off_origin_labels(f)) == 13


def test_a_failed_pull_back_stops_the_candidate_search(monkeypatch):
    # over F_16 the zeros g and g + 1 of v^2 + v + 1 are found in F_16 and
    # pulled back into F_4 by minimal_form; a root search in F_4 that
    # drops a root fails that pull-back, and the failure reaches the
    # caller instead of ending the map over the points early
    f = poly("t1^-1 + t1^-3*t2^2 + t1^-5*t2^4", field(2, 4))
    points = exceptional_candidates(_chart_a(f))
    assert [(c.ctx, c.encoding()) for c in points] == [(field(2, 2), 2),
                                                        (field(2, 2), 3)]
    original = fields._roots_in_field

    def dropping(coeffs, ctx, q=None):
        roots = original(coeffs, ctx, q)
        return roots[:-1] if ctx is field(2, 2) else roots

    monkeypatch.setattr(fields, "_roots_in_field", dropping)
    with pytest.raises(RuntimeError, match="minimal polynomial"):
        exceptional_candidates(_chart_a(f))


TWO_FIELD_COLUMN = ("t1^-1 + t1^-7*t2^6 + t1^-9*t2^8 + t1^-11*t2^10 "
                    "+ t1^-13*t2^12")


@pytest.mark.parametrize("config", [
    SimulationConfig(), SimulationConfig(mode="sweep", sweep_degree=4)],
    ids=["candidates", "sweep"])
def test_a_column_with_zeros_in_f_4_and_f_16(config):
    # the chart A column along E is ((v^2 + v + 1)(v^4 + v + 1))^2: its
    # zeros are g and g + 1 of F_4 and four points of F_16, and each is a
    # non-clean child.  Labels print the point without its field, so the
    # F_4 and F_16 points g and g + 1 share their paths (ROADMAP item 17);
    # the sweep over F_16 pulls its F_4 points back through minimal_form
    f = poly(TWO_FIELD_COLUMN, F2)
    points = exceptional_candidates(_chart_a(f))
    assert [(c.ctx.degree, str(c)) for c in points] == [
        (2, "g"), (2, "g + 1"), (4, "g"), (4, "g + 1"), (4, "g^2"),
        (4, "g^2 + 1")]
    result = resolve(f, 2, config)
    assert result.total == 150
    assert len(tree_as_dict(result.root)) == 33
    expected = Counter({"x": 1, "x/B": 1, "x/A": 1})
    for point, count in [("g", 2), ("g + 1", 2), ("g^2", 1), ("g^2 + 1", 1)]:
        for below in ("", "/B", "/B/B", "/B/A", "/A"):
            expected[f"x/A@v={point}{below}"] = count
    paths = Counter(node.path for node in result.root.nodes())
    assert paths == expected
    assert len(paths) == 23 and sum(n == 2 for n in paths.values()) == 10


def test_a_deep_non_good_tree_below_an_off_origin_point():
    # the deep path runs below the point v = 1 of chart A, so a cap read
    # off the root's recursion is too small (ROADMAP item 2)
    f = poly("t1^-50*t2^-50 + t1^-49*t2^-51 + t1^-51*t2^-49", F5)
    result = resolve(f, 2, SimulationConfig(depth_cap=100))
    assert (result.total, result.depth) == (196, 49)
    assert len(tree_as_dict(result.root)) == 197
    assert not result.good_regime
    assert max(result.root.nodes(), key=lambda n: n.depth).path.startswith(
        "x/A@v=1/A/")


def test_candidates_search_no_constant(monkeypatch):
    # a map of one term c*v^n has no nonzero root, and a column whose pole
    # order is prime to p has no zero when gcd(c, c') is constant, so no
    # root search runs on either; this input meets two exceptional columns
    # of one term and the column 1 + v^2 (pole order 1, gcd with 2v is 1),
    # and searches only c' = 1 + 2v of the column v + v^2 of pole order 3
    searched, one_term = [], []
    original_roots = blowup.find_roots
    original_column = blowup.leading_exceptional_column

    def roots(coeffs):
        searched.append(len(coeffs))
        return original_roots(coeffs)

    def column(chart):
        pole, col = original_column(chart)
        if pole > 0 and len(col) == 1:
            one_term.append(pole)
        return pole, col

    monkeypatch.setattr(blowup, "find_roots", roots)
    monkeypatch.setattr(blowup, "leading_exceptional_column", column)
    result = resolve(poly("t1^-4*t2 + t1^-5*t2^2", F3), 2)
    assert result.total == 9
    assert len(one_term) == 2
    assert searched == [2]


def test_derivative_rule_finds_cascade_point():
    # over F_3 with leading coefficient v + v^2 and pole order 3: v = 1 is
    # not a root (L(1) = 2) but kills the derivative, and after the
    # corner-reduction cascade the point is genuinely non-clean; with p
    # dividing the pole order the refined Swan conductor is c'(v) dv, so
    # v = 1 is its only zero, and the simple root v = 2 of c is no zero
    f = poly("t1^-4*t2 + t1^-5*t2^2", F3)
    assert leading_exceptional_column(_chart_a(f))[0] == 3
    assert _zeros(f) == [(1, 1)]
    assert _off_origin_labels(f) == ["A@v=1"]
    direct = resolve(f, 2, SimulationConfig())
    swept = resolve(f, 2, SimulationConfig(mode="sweep", sweep_degree=1))
    assert direct.total == swept.total == 9
    assert tree_as_dict(direct.root) == tree_as_dict(swept.root)
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


def _kato_clean_at_origin(g):
    """Kato's criterion for a reduced one-branch g at the origin: with A
    the pole order along t1 and c(t2) its leading column, the refined Swan
    conductor c'(t2) dt2 - A c(t2) dt1/t1 does not vanish at t2 = 0, that
    is c(0) != 0 or c'(0) != 0 when p does not divide A, and c'(0) != 0
    when it does."""
    pole, column = leading_exceptional_column(g)
    if pole <= 0:
        return True
    if pole % g.ctx.p:
        return 0 in column or 1 in column
    return 1 in column


def test_clean_shape_agrees_with_kato_at_the_origin():
    # every exact one-branch node that a seeded corpus of resolutions
    # analyses: its input, its chart A origins and its off-origin points
    rng = random.Random(14)
    memo = {}
    for index in range(400):
        ctx = (F2, F3, field(2, 2), F5)[index % 4]
        branches = 1 + index // 4 % 2
        f = random_polynomial(rng, ctx, nonneg_t2=branches == 1)
        resolve(f, branches, memo=memo)
    seen = Counter()
    for (g, branches), info in memo.items():
        if branches != 1:
            continue
        rep = info.representative
        pole, _ = leading_exceptional_column(rep.g)
        clean = info.fields["clean"]
        assert clean == _kato_clean_at_origin(rep.g), g
        seen[pole > 0 and pole % g.ctx.p == 0, clean] += 1
    assert all(seen[key] >= 10 for key in [(False, False), (False, True),
                                          (True, False), (True, True)]), seen


def test_sweep_mode_is_complete_on_its_field_only():
    # the refined Swan zeros below the root are 1, g and g + 1: candidates
    # mode finds all three, sweep mode over F_2 builds only the one in F_2,
    # which is the only point of F_2, so its check probes nothing
    f = poly("t1^-6*t2^3 + t2^-3", F2)
    assert _zeros(f) == [(1, 1), (2, 2), (2, 3)]
    direct = resolve(f, 2)
    over_f2 = resolve(f, 2, SimulationConfig(mode="sweep"))
    over_f4 = resolve(f, 2, SimulationConfig(mode="sweep", sweep_degree=2))
    assert (direct.total, over_f2.total, over_f4.total) == (45, 39, 45)
    assert [c.path for c in _children(over_f2.root)] == ["x/B", "x/A",
                                                       "x/A@v=1"]
    assert tree_as_dict(over_f4.root) == tree_as_dict(direct.root)


# ---------------------------------------------------------------------------
# exact local functions against the budgeted series reference
# ---------------------------------------------------------------------------

ORACLE_FIELDS = (F2, F3, field(2, 2), F5, field(3, 2))


def _oracle_inputs(rng, count):
    """Seeded polynomials with a t2-pole, each with a nonzero shift, over
    F_2, F_3, F_4, F_5 and F_9 in turn."""
    for index in range(count):
        ctx = ORACLE_FIELDS[index % len(ORACLE_FIELDS)]
        f = random_polynomial(rng, ctx, max_terms=4, exp_bound=4)
        pole = (rng.randint(-4, 4), -rng.randint(1, 4))
        f = f + LaurentPolynomial.monomial(
            ctx.from_encoding(rng.randrange(1, ctx.order)), *pole)
        yield f, ctx.from_encoding(rng.randrange(1, ctx.order))


def _local_nodes(f, shift, budget):
    """(exact node, its series reference, branches): the translation of f
    by shift and its two chart images, as wildram and as the reference
    at the budget build them."""
    exact = translate(f, shift)
    series = ref.translate(f, shift, budget)
    yield exact, series, 1
    yield (blowup_substitute(exact, "A"), ref.blowup_substitute(series, "A"),
           1)
    yield (blowup_substitute(exact, "B"), ref.blowup_substitute(series, "B"),
           2)


def test_exact_translation_matches_the_series_reference():
    # the exact P / V^p has, wherever the reference at budget 16 or 64
    # does not raise, its coefficients, its staircase, the node fields of
    # its analysis and the conductor triple of its representative; a
    # function read without its denominator, a corner coefficient over
    # V(0, 0) in place of V(0, 0)^p, or a reduction not lifted by V^p
    # fails here
    rng = random.Random(27)
    compared = Counter()
    for f, shift in _oracle_inputs(rng, 100):
        for budget in (16, 64):
            for exact, series, branches in _local_nodes(f, shift, budget):
                for e in ref.certified(series):
                    assert exact.coefficient(*e) == series.coefficient(*e)
                try:
                    fields, swans = ref.node_fields(series, branches)
                except PrecisionLossError:
                    compared["raised"] += 1
                    continue
                info = blowup._analyse(exact, branches, None, "x")
                assert pole_staircase(exact) == ref.pole_staircase(series)
                assert info.fields == fields, (f, shift, budget)
                assert blowup.conductors(info.representative.g,
                                         branches) == swans
                compared[fields["reductions"] > 0,
                         fields["constant_added"]] += 1
    assert all(compared[key] >= 10 for key in [
        (False, False), (False, True), (True, False), (True, True)]), compared
    assert compared["raised"] < sum(compared.values()) / 2, compared


def test_the_depth_89_input_resolves_in_one_round():
    # the input once needed five doublings of the series budget; its
    # denominators grow with the tree, and it still resolves in one round
    # at the default recursion limit
    f = poly("t1^-200*t2 + t2^-3", F2)
    result = resolve(f, 2, SimulationConfig(depth_cap=256))
    assert (result.total, result.depth) == (1325, 89)
    assert sum(1 for _ in result.root.nodes()) == 180
    assert result.precision_escalations == 0
