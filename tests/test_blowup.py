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
from wildram.fields import field
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


@pytest.mark.parametrize("name", ["sweep_degree", "depth_cap",
                                  "series_terms"])
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


def test_candidate_points_from_leading_coefficient():
    # leading coefficient along the exceptional curve is v^2 + v
    f = poly("t1^-2*t2 + t1^-3*t2^2", F2)
    chart = blowup_substitute(good_representative(f).g, "A")
    candidates = exceptional_candidates(chart)
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


def test_escalation_cap_raises_once_spent(monkeypatch):
    # the input needs one doubling of the series budget: with no doubling
    # allowed resolve gives up, with one it settles
    f = poly(ESCALATING, F2)
    monkeypatch.setattr(blowup, "MAX_ESCALATIONS", 0)
    with pytest.raises(blowup.EscalationError, match="after 0 doublings"):
        resolve(f, 2)
    monkeypatch.setattr(blowup, "MAX_ESCALATIONS", 1)
    result = resolve(f, 2)
    assert result.precision_escalations == 1
    assert result.total == 9


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
    again = resolve(f, 2, memo=memo)
    assert again.root.signature() == first.root.signature()
    # the second call analyses only its truncated probes
    assert all(not g.is_exact for g, _ in analysed[count:])
    assert 0 < len(analysed) - count < count


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
    # point per orbit of v -> v^q gives the tree, the flags and the
    # escalation count of probing every point, in both modes
    corpus = _orbit_corpus(2, 90)
    calls = _counting_translate(monkeypatch)
    by_orbit = [simulation_as_dict(resolve(f, 2, config))
                for f, config in corpus]
    orbit_translations = len(calls)
    monkeypatch.setattr(blowup, "_frobenius_orbits",
                        _every_point_its_own_orbit)
    by_point = [simulation_as_dict(resolve(f, 2, config))
                for f, config in corpus]
    # the dicts carry precision_escalations
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
    # the leading coefficient v^2 + v + 1 has its roots in F_4 only
    f = poly("t1^-1 + t1^-2*t2 + t1^-3*t2^2", F2)
    chart = blowup_substitute(good_representative(f).g, "A")
    points = exceptional_candidates(chart)
    assert [(c.ctx.degree, c.encoding()) for c in points] == [(2, 2), (2, 3)]


def test_candidates_find_the_roots_of_an_irreducible_septic_column():
    # the exceptional leading column v^7 + v + 1 is irreducible over F_2,
    # so its seven roots lie in F_128 and in no smaller extension
    f = poly("t1^-10*t2^7 + t1^-4*t2 + t1^-3", F2)
    chart = blowup_substitute(good_representative(f).g, "A")
    points = exceptional_candidates(chart)
    assert [c.ctx for c in points] == [field(2, 7)] * 7
    result = resolve(f, 2)
    assert result.total == 49 and not result.partial_roots


def test_candidates_search_a_column_whose_roots_need_f_8192(monkeypatch):
    # a degree-13 leading column over F_2: its roots lie in F_8192, above
    # the table cap, where the equal-degree split finds one of them and the
    # others are its powers r^2, r^4, ...; they form one Frobenius orbit,
    # probed through its first point
    probed = []
    original = blowup.translate

    def recorded(f, point, budget):
        probed.append(point.ctx)
        return original(f, point, budget)

    monkeypatch.setattr(blowup, "translate", recorded)
    f = poly("t1^-16*t2^13 + t1^-7*t2^4 + t1^-6*t2^3 + t1^-4*t2 + t1^-3",
             F2)
    assert resolve(f, 2).total == 169
    assert probed == [field(2, 13)]


def test_candidates_search_no_constant(monkeypatch):
    # a map of one term c*v^n has no nonzero root, so no root search runs
    # on it; this input meets two exceptional columns of one term, which
    # used to reach find_roots as constants
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
    assert searched == [2, 2, 3]


def test_derivative_rule_finds_cascade_point():
    # over F_3 with leading coefficient v + v^2: v = 1 is not a root
    # (L(1) = 2) but kills the derivative, and after the corner-reduction
    # cascade the point is genuinely non-clean; only the derivative rule
    # can propose it
    f = poly("t1^-4*t2 + t1^-5*t2^2", F3)
    chart = blowup_substitute(good_representative(f).g, "A")
    candidates = exceptional_candidates(chart)
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
