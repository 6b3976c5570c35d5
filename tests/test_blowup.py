import json
import pathlib
import random
from collections import Counter

import pytest

import series_reference as ref
from wildram import blowup, laurent
from wildram.blowup import (CrossCheckError, DepthCapError, SimulationConfig,
                            exceptional_candidates,
                            leading_exceptional_column, resolve,
                            simulation_as_dict, tree_as_dict, tree_as_dot)
from wildram.corpus import random_polynomial
from wildram.fields import field, find_roots
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
    assert swept.root.signature() == resolve(f, 2).root.signature()


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
        return blowup._minimal_points(roots + real(chart))
    return candidates


def test_a_clean_candidate_fails_the_refined_swan_check(monkeypatch):
    # candidates mode probes only refined Swan zeros, so a probe that
    # comes out clean means the locator and the node build disagree
    f = poly("t1^-2*t2 + t1^-3*t2^2", F2)
    monkeypatch.setattr(blowup, "exceptional_candidates",
                        _with_simple_roots(exceptional_candidates))
    with pytest.raises(CrossCheckError, match="x/A@v=1: a refined Swan"):
        resolve(f, 2)
    # sweep mode drops the clean probe v = 1, then finds it among the zeros
    with pytest.raises(CrossCheckError, match=r"points \[\], refined Swan "
                                              r"zeros \[\(1, 1\)\]"):
        resolve(f, 2, SimulationConfig(mode="sweep"))


def test_sweep_mode_checks_its_points_against_the_refined_swan_zeros(
        monkeypatch):
    # over F_3 the pole order 3 is divisible by p and c = v + v^2, so the
    # only zero is the root v = 1 of c' = 1 + 2v; a locator that drops
    # the roots of c' leaves a non-clean sweep point unexplained
    f = poly("t1^-4*t2 + t1^-5*t2^2", F3)
    real = exceptional_candidates

    def without_derivative_roots(chart):
        pole, _ = leading_exceptional_column(chart)
        return [] if pole > 0 and pole % chart.ctx.p == 0 else real(chart)

    monkeypatch.setattr(blowup, "exceptional_candidates",
                        without_derivative_roots)
    with pytest.raises(CrossCheckError, match=r"points \[\(1, 1\)\], "
                                              r"refined Swan zeros \[\]"):
        resolve(f, 2, SimulationConfig(mode="sweep"))


def test_the_sweep_check_tells_points_of_different_fields_apart(monkeypatch):
    # the zeros g and g + 1 of F_4 print like g and g + 1 of F_16, the
    # sweep field here; a locator that names the F_16 points must fail
    f = poly("t1^-1 + t1^-3*t2^2 + t1^-5*t2^4", F2)
    sweep = SimulationConfig(mode="sweep", sweep_degree=4)
    assert resolve(f, 2, sweep).total == 18
    f16, real = field(2, 4), exceptional_candidates

    def in_f16(chart):
        return [f16.from_encoding(x.encoding()) for x in real(chart)]

    monkeypatch.setattr(blowup, "exceptional_candidates", in_f16)
    with pytest.raises(CrossCheckError, match=r"zeros \[\(4, 2\), \(4, 3\)\]"):
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
    assert direct.root.signature() == swept.root.signature()
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
        assert swept.root.signature() == direct.root.signature()
        for flag in RUN_FLAGS:
            assert getattr(swept, flag) == getattr(direct, flag), flag


def test_sweep_mode_sweeps_one_field_per_run(monkeypatch):
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


def test_truncation_escalates_and_stabilizes():
    # the input that escalated under a series budget resolves in one round
    # to the tree the budget rounds stabilized on (the golden file), and
    # the off-origin probes it analyses are local functions P / V^p
    f = poly(ESCALATING, F2)
    memo = {}
    result = resolve(f, 2, memo=memo)
    assert result.precision_escalations == 0
    assert result.total == 9
    assert result.total <= ramification_bound(good_representative(f).staircase, 2)
    golden = (GOLDEN / "simulate_f2_escalates.txt").read_text(encoding="utf-8")
    assert simulation_as_dict(result) == json.loads(golden.split("\n", 1)[1])
    assert any(g.denominator is not None for g, _, _ in memo)


def test_escalation_rounds_reduce_each_exact_polynomial_once(monkeypatch):
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
    assert again.root.signature() == result.root.signature()
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
    # the memo is keyed by the sweep field and the branches as well as the
    # polynomial, so neither call reads an analysis made for the other
    solo = [simulation_as_dict(resolve(poly(text, F2), branches, config))
            for text, branches, config in calls]
    assert solo[0] != solo[1]
    for order in (calls, calls[::-1]):
        memo = {}
        shared = [simulation_as_dict(resolve(poly(text, F2), branches, config,
                                             memo=memo))
                  for text, branches, config in order]
        assert shared == (solo if order is calls else solo[::-1])


def test_a_shared_memo_analyses_each_exact_polynomial_once(monkeypatch):
    # every node polynomial is a memo key, the translated probes too, so a
    # second call on one memo analyses nothing
    analysed = []
    original = blowup._analyse

    def recorded(g, branches, path):
        analysed.append((g, branches))
        return original(g, branches, path)

    monkeypatch.setattr(blowup, "_analyse", recorded)
    f = poly(ESCALATING, F2)
    memo = {}
    first = resolve(f, 2, memo=memo)
    count = len(analysed)
    assert count == len(set(analysed)) == len(memo)
    again = resolve(f, 2, memo=memo)
    assert again.root.signature() == first.root.signature()
    assert len(analysed) == count


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
    real = laurent._corners

    def without_leftmost(f):
        return sorted(real(f))[1:]

    monkeypatch.setattr(laurent, "_corners", without_leftmost)
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


def test_orbit_probes_match_probing_every_point(monkeypatch):
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
    by_point = [simulation_as_dict(resolve(f, 2, config))
                for f, config in corpus]
    assert by_orbit == by_point
    assert orbit_translations < len(calls) - orbit_translations
    off_origin = [config.mode for (_, config), out in zip(corpus, by_point)
                  if out["off_origin_nonclean"]]
    assert len(off_origin) >= 10 and set(off_origin) == {"candidates", "sweep"}


def test_orbits_are_taken_under_the_frobenius_of_the_chart_field(monkeypatch):
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
    resolve(f, 2, SimulationConfig(mode="sweep", sweep_degree=2))
    assert by_orbit < len(calls) - by_orbit


def test_sweep_points_are_listed_once_per_call(monkeypatch):
    # the points do not depend on the node, and their orbits depend only on
    # the field order of the chart: F_2 pairs g with g + 1, F_4 does not
    listed = []
    original = blowup._minimal_points

    def counted(elements):
        elements = list(elements)
        listed.append(elements[-1].ctx)
        return original(elements)

    monkeypatch.setattr(blowup, "_minimal_points", counted)
    f4 = field(2, 2)
    call = blowup._Call(32, f4, {})
    over_f2 = poly("t1^-1", F2)
    for chart, orbits in [(over_f2, [0, 1, 1]),
                          (over_f2.embed_into(f4), [0, 1, 2]),
                          (over_f2, [0, 1, 1])]:
        assert call.off_origin_points(chart)[1] == orbits
    assert listed == [f4]
    del listed[:]
    result = resolve(poly("t1^-6*t2^3 + t2^-3", F2), 2,
                     SimulationConfig(mode="sweep", sweep_degree=2))
    assert sum(not n.clean for n in result.root.nodes()) > 1
    assert listed == [f4]


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
        assert direct.root.signature() == swept.root.signature()
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
    for (g, branches, _), info in memo.items():
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
    # mode finds all three, sweep mode over F_2 only the one in F_2, and
    # its check compares with the zeros in F_2 alone
    f = poly("t1^-6*t2^3 + t2^-3", F2)
    assert _zeros(f) == [(1, 1), (2, 2), (2, 3)]
    direct = resolve(f, 2)
    over_f2 = resolve(f, 2, SimulationConfig(mode="sweep"))
    over_f4 = resolve(f, 2, SimulationConfig(mode="sweep", sweep_degree=2))
    assert (direct.total, over_f2.total, over_f4.total) == (45, 39, 45)
    assert [c.path for c in over_f2.root.children] == ["x/B", "x/A",
                                                       "x/A@v=1"]
    assert over_f4.root.signature() == direct.root.signature()


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
                info = blowup._analyse(exact, branches, "x")
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
