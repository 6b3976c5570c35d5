import dataclasses
import json
import sys

import pytest

from conftest import max_tail_recursion
from wildram import blowup, cli, corpus, reduction, report
from wildram.blowup import CrossCheckError, resolve
from wildram.cli import main
from wildram.corpus import run_corpus
from wildram.fields import field
from wildram.laurent import LaurentPolynomial, pole_staircase
from wildram.parsing import (ParseError, format_polynomial, parse_field,
                             parse_polynomial, polynomial_as_triples)
from wildram.report import InputSpec, build_report

F3 = field(3)
F5 = field(5)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_field_forms():
    assert parse_field("2^1") == field(2)
    assert parse_field("3^2") == field(3, 2)
    assert parse_field("5") == field(5)
    with pytest.raises(ParseError):
        parse_field("six")


def test_parse_monomial():
    f = parse_polynomial("t1^-2*t2", F3)
    assert set(f.terms) == {(-2, 1)}
    assert f.terms[(-2, 1)] == F3.one()


def test_parse_two_terms():
    f = parse_polynomial("2*t1^-3 + t2^-2", F5)
    assert f.terms[(-3, 0)] == F5.element(2)
    assert f.terms[(0, -2)] == F5.one()


def test_parse_like_terms_cancel():
    assert not parse_polynomial("t1^-1 + 4*t1^-1", F5)
    # a zero term adds no key and a cancelled key is deleted, so the term
    # order is that of first nonzero appearance after the last cancellation
    assert list(parse_polynomial("0*t1 + t2 + t1", F5).terms) == [(0, 1), (1, 0)]
    assert list(parse_polynomial("t1 + t2 - t1 + t1", F5).terms) == [(0, 1), (1, 0)]


def test_parse_generator_coefficients():
    ctx = field(2, 2)
    f = parse_polynomial("g*t2^-1 + g^2*t2^-1", ctx)
    g = ctx.gen()
    assert f.terms[(0, -1)] == g + g * g


def test_parse_factor_order_free():
    assert (parse_polynomial("t2^3*2*t1^-1", F5)
            == parse_polynomial("2*t1^-1*t2^3", F5))


def test_parse_whitespace_and_signs():
    f = parse_polynomial(" - t1 ^ -2 + 2 ", F3)
    assert f.terms[(-2, 0)] == F3.element(2)
    assert f.terms[(0, 0)] == F3.element(2)


def test_parse_zero_literal():
    assert not parse_polynomial("0", F3)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("t1^-2 & t2", F3)
    assert err.value.position == 6
    with pytest.raises(ParseError):
        parse_polynomial("g*t1", F3)           # no generator over F_3
    with pytest.raises(ParseError):
        parse_polynomial("t1^9999999", F3)     # exponent cap
    # the cap holds for the sum of a term's exponents too, at the factor
    # whose exponent makes the sum cross it
    for text, position in [("t1^1000000*t1^1000000*t1^1000000", 11),
                           ("t2^-1000000*t1*t2^-1", 15),
                           ("1 + t2^999999*t2*t2^2", 17)]:
        with pytest.raises(ParseError, match="beyond the cap") as err:
            parse_polynomial(text, F3)
        assert err.value.position == position, text
    assert parse_polynomial("t1^1000000*t1^-1000000*t1^1000000",
                            F3).terms == {(1000000, 0): F3.one()}
    with pytest.raises(ParseError):
        parse_polynomial("t1 t2", F3)          # missing *
    with pytest.raises(ParseError):
        parse_polynomial("", F3)
    for text, position in [
            ("t1*+t2", 3),      # an operator after "*" does not end the term
            ("t1*-t2", 3),
            ("2*-t1", 2),
            ("t1^2*+1", 5),
            ("t1**t2", 3),      # the second "*" is where a factor is due
            ("*t1", 0),
            ("t1*", 3),         # the end of the text where a factor is due
            ("t1 +", 4),
            ("-", 1),
            ("t1^", 3),
            ("t1^-+2", 4),
            ("t1^2^3", 4),
            ("  ", 2)]:
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, F3)
        assert err.value.position == position, text


def test_print_parse_round_trip():
    import random
    from wildram.corpus import random_polynomial
    rng = random.Random(3)
    printed_g2 = False
    for ctx in (F3, field(2, 2), F5, field(2, 3)):
        for _ in range(80):
            f = random_polynomial(rng, ctx, max_terms=5, exp_bound=5)
            text = format_polynomial(f)
            printed_g2 |= "g^2" in text
            assert parse_polynomial(text, ctx) == f
    assert printed_g2


def test_triples_are_sorted():
    f = parse_polynomial("t2^-2 + t1^-3", F5)
    assert polynomial_as_triples(f) == [[-3, 0, [1]], [0, -2, [1]]]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_worked_example():
    report = build_report(InputSpec(field="3^1", branches=2, expr="t1^-2*t2"))
    assert report.passed
    data = report.data
    assert data["recursive_total"] == 2
    assert data["closed_form"] == 2
    assert data["bound"] == 2
    assert data["simulation"]["r_x"] == 2
    assert data["swans"] == {"t1": 2, "t2": 0, "E": 1}
    assert report.verdicts["simulator_vs_recursion"]["classification"] == "match"


def test_report_clean_one_branch():
    report = build_report(InputSpec(field="5^1", branches=1, expr="t1^-1"))
    assert report.passed
    assert report.data["clean"]
    assert report.data["recursive_total"] == 0
    assert report.data["simulation"]["r_x"] == 0


def test_report_trivial():
    report = build_report(InputSpec(field="3^1", branches=2, expr="0"))
    assert report.passed
    assert report.data["recursive_total"] == 0
    assert report.data["swans"] == {"t1": 0, "t2": 0, "E": 0}


@pytest.mark.parametrize("branches, expr", [(1.0, "t1^-2"), (True, "t1^-2"),
                                            (2.0, "t1^-2*t2"),
                                            (1, "t1^-2*t2^-1")])
def test_report_refuses_a_bad_point_at_the_parse_stage(monkeypatch, branches,
                                                       expr):
    # the check resolve makes, made before the conductors run
    def no_reduction(f, *args, **kwargs):
        raise AssertionError("the input reached the reduction")

    monkeypatch.setattr(blowup, "good_representative", no_reduction)
    monkeypatch.setattr(report, "conductors", no_reduction)
    with pytest.raises(report.StageError) as caught:
        build_report(InputSpec(field="3", branches=branches, expr=expr))
    assert caught.value.stage == "parse"
    assert isinstance(caught.value.original, ValueError)


def test_report_nongood_is_classified_not_failed():
    report = build_report(InputSpec(field="2^1", branches=2,
                                    expr="t1^-2*t2 + t1^-4*t2^3"))
    assert report.passed
    verdict = report.verdicts["simulator_vs_recursion"]
    assert verdict["classification"] == "discrepancy-nongood"
    assert not verdict["good_regime"]


# ROADMAP item 11: type I over F_3, t1^-a*t2^e1 + t1^-a + t1^-b*t2^e2, where
# the simulated r_x exceeds ramification_bound; the last field is the
# recursion's total.  These eight are every such failure with a <= 4,
# b <= 8 and e1 < e2 <= 6; the last input is a box input that reduces to
# the first.
BOUND_FAMILY = [
    ("t1^-1*t2^2 + t1^-1 + t1^-2*t2^3", 5, 4, 2),
    ("t1^-2*t2^2 + t1^-2 + t1^-4*t2^3", 10, 8, 4),
    ("t1^-3*t2^2 + t1^-3 + t1^-5*t2^3", 11, 10, 8),
    ("t1^-4*t2^2 + t1^-4 + t1^-8*t2^3", 20, 16, 8),
    ("t1^-1*t2^4 + t1^-1 + t1^-2*t2^6", 11, 10, 5),
    ("t1^-2*t2^4 + t1^-2 + t1^-4*t2^6", 22, 20, 10),
    ("t1^-3*t2^4 + t1^-3 + t1^-5*t2^6", 26, 25, 20),
    ("t1^-4*t2^4 + t1^-4 + t1^-8*t2^6", 44, 40, 20),
    ("t1^-1*t2^2 + t1^-2*t2^3 + t1^-3", 5, 4, 2),
]


def _bound_verdict(expr):
    return build_report(InputSpec(field="3", branches=1, expr=expr)).verdicts[
        "bound_holds"]


@pytest.mark.parametrize("expr, r_x, bound, recursive", BOUND_FAMILY)
def test_bound_family_values(expr, r_x, bound, recursive):
    verdict = _bound_verdict(expr)
    assert (verdict["r_x"], verdict["bound"], verdict["recursive"]) == (
        r_x, bound, recursive)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11")
@pytest.mark.parametrize("expr", [case[0] for case in BOUND_FAMILY])
def test_bound_holds_on_the_bound_family(expr):
    assert _bound_verdict(expr)["pass"]


def test_report_materializes_the_witness_once(monkeypatch):
    calls = []
    original = reduction.artin_schreier_root

    def counted(value):
        calls.append(value)
        return original(value)

    monkeypatch.setattr(reduction, "artin_schreier_root", counted)
    report = build_report(InputSpec(field="2^1", branches=2, expr="t1^-2*t2"))
    assert len(calls) == 1
    rep = report.data["good_representative"]
    assert (rep["witness"], rep["witness_field"]) == ("g", "GF(2^2)")


def _record_reductions(monkeypatch):
    """Wrap every binding of good_representative in wildram; the returned
    list receives an (argument, result) pair per call."""
    calls = []
    original = reduction.good_representative

    def recorded(f, *args, **kwargs):
        rep = original(f, *args, **kwargs)
        calls.append((f, rep))
        return rep

    for name, module in sorted(sys.modules.items()):
        if (name.startswith("wildram")
                and getattr(module, "good_representative", None) is original):
            monkeypatch.setattr(module, "good_representative", recorded)
    return calls


def test_report_reduces_the_input_and_the_perturbation_once(monkeypatch):
    # the report reads its reduction from the simulator's root analysis
    calls = _record_reductions(monkeypatch)
    simulated = []
    original = report.resolve

    def recorded(f, branches, config=None, *, memo=None):
        simulated.append(f)
        return original(f, branches, config, memo=memo)

    monkeypatch.setattr(report, "resolve", recorded)
    result = build_report(InputSpec(field="2^1", branches=2, seed=3,
                                    expr="t1^-2*t2 + t1^-4*t2^3"))
    assert result.passed
    assert len(simulated) == 2      # the input and its perturbation
    assert [sum(arg is f for arg, _ in calls) for f in simulated] == [1, 1]


def _record_report_work(monkeypatch):
    """Per ``resolve`` call of a report, the (polynomial, branches) pairs
    its nodes were analysed for, and the staircases the report ran the
    recursion on."""
    analysed, recursed = [], []
    original_resolve, original_analyse = report.resolve, blowup._analyse
    original_recursive = report.ramification_recursive

    def counted_resolve(*args, **kwargs):
        analysed.append([])
        return original_resolve(*args, **kwargs)

    def counted_analyse(g, branches, path):
        analysed[-1].append((g, branches))
        return original_analyse(g, branches, path)

    def counted_recursive(stair, branches):
        recursed.append(stair)
        return original_recursive(stair, branches)

    monkeypatch.setattr(report, "resolve", counted_resolve)
    monkeypatch.setattr(blowup, "_analyse", counted_analyse)
    monkeypatch.setattr(report, "ramification_recursive", counted_recursive)
    return analysed, recursed


def _separate_memos(monkeypatch):
    original = report.resolve

    def alone(f, branches, config=None, *, memo=None):
        return original(f, branches, config)

    monkeypatch.setattr(report, "resolve", alone)


# inputs whose perturbation reduces to the input's good representative:
# one without translated probes, one whose probes are local functions
# P / V^p (and once needed a doubled series budget)
SAME_REPRESENTATIVE = [
    InputSpec(field="2", branches=2, seed=1, expr="t1^-2*t2 + t1^-4*t2^3"),
    InputSpec(field="2", branches=2, seed=2,
              expr="t1*t2^-4 + 1 + t1^-1*t2^-4 + t1^-3*t2^-2"),
]


@pytest.mark.parametrize("spec", SAME_REPRESENTATIVE)
def test_perturbed_rerun_reuses_the_main_runs_work(monkeypatch, spec):
    with monkeypatch.context() as patch:
        _separate_memos(patch)
        alone = build_report(spec).to_dict()
    analysed, recursed = _record_report_work(monkeypatch)
    result = build_report(spec)
    assert result.to_dict() == alone
    assert result.passed
    main, perturbed = analysed
    # the perturbed run analyses its own root and nothing the main run did
    assert perturbed and not set(perturbed) & set(main)
    assert len(perturbed) == len(set(perturbed)) < len(main)
    # one staircase, so one recursion
    assert [list(map(list, s)) for s in recursed] == [
        result.data["staircase"]]


def test_perturbed_rerun_recurses_on_its_own_staircase(monkeypatch):
    # a known representative_independence failure: the perturbation leaves
    # a non-essential corner (1, 2) in the good representative's staircase
    spec = InputSpec(field="2", branches=1, seed=1868550697,
                     expr="t1^-4*t2^3")
    _, recursed = _record_report_work(monkeypatch)
    result = build_report(spec)
    assert not result.verdicts["representative_independence"]["pass"]
    assert [list(map(list, s)) for s in recursed] == [
        [[0, 0], [4, 3]], [[0, 0], [1, 2], [4, 3]]]


@pytest.mark.parametrize("simulate", [False, True])
def test_corpus_reduces_each_input_once(monkeypatch, simulate):
    calls = _record_reductions(monkeypatch)
    inputs = []
    original = corpus.random_polynomial

    def recorded(rng, ctx, *args, **kwargs):
        f = original(rng, ctx, *args, **kwargs)
        if not args and not kwargs:     # an input, not a perturbation
            inputs.append(f)
        return f

    monkeypatch.setattr(corpus, "random_polynomial", recorded)
    summary = run_corpus(1, 30, "laurent", simulate=simulate)
    assert summary["all_pass"]
    assert len(inputs) == 30
    for f in inputs:
        # the idempotence check reduces the representative again only when
        # it differs from f
        assert sum(arg is f for arg, _ in calls) == 1


def test_reports_are_deterministic():
    spec = InputSpec(field="3^1", branches=2, expr="t1^-2*t2 + t2^-1", seed=5)
    a = json.dumps(build_report(spec).to_dict(), sort_keys=True)
    b = json.dumps(build_report(spec).to_dict(), sort_keys=True)
    assert a == b


# ---------------------------------------------------------------------------
# corpus runner
# ---------------------------------------------------------------------------

def test_corpus_deterministic():
    a = json.dumps(run_corpus(1, 50, "staircase"), sort_keys=True)
    b = json.dumps(run_corpus(1, 50, "staircase"), sort_keys=True)
    assert a == b


def test_corpus_witness_identity_uses_the_constant_root(monkeypatch):
    # the check materializes the Artin-Schreier root of the constant part,
    # which GoodRepresentative.verify never sees: a wrong root must fail it
    summary = run_corpus(1, 30, "laurent")
    assert summary["checks"]["witness_identity"]["fail"] == 0
    monkeypatch.setattr(reduction, "artin_schreier_root",
                        lambda value: value.ctx.zero())
    summary = run_corpus(1, 30, "laurent")
    assert summary["checks"]["witness_identity"]["fail"] > 0
    assert summary["checks"]["no_exception"]["fail"] == 0


def _first_corner_only(rep):
    """rep with its first corner reduction (the witness term of the largest
    t1 pole) kept and the others undone."""
    if rep.reductions < 2:
        return rep
    _, *rest = sorted(rep.witness.terms.items())
    undone = LaurentPolynomial(rep.witness.ctx, dict(rest))
    g = rep.g + reduction.artin_schreier_map(undone)
    return dataclasses.replace(rep, g=g, witness=rep.witness - undone,
                               staircase=pole_staircase(g), reductions=1)


def test_corpus_idempotent_catches_a_partial_reduction(monkeypatch):
    # a reduction that keeps its first corner reduction (the witness term
    # of the largest t1 pole) and undoes the others leaves a g that a
    # second reduction changes; inputs the reduction left as they were
    # are not checked
    summary = run_corpus(1, 30, "laurent")
    assert summary["checks"]["idempotent"]["pass"] < 30
    assert summary["checks"]["idempotent"]["fail"] == 0
    real = reduction.good_representative
    monkeypatch.setattr(corpus, "good_representative",
                        lambda f: _first_corner_only(real(f)))
    summary = run_corpus(1, 30, "laurent")
    assert summary["checks"]["idempotent"]["fail"] > 0
    assert summary["checks"]["witness_identity"]["fail"] == 0
    assert summary["checks"]["no_exception"]["fail"] == 0


@pytest.mark.parametrize("expr, fld", [
    ("t1^4*t2^-2 + t1^2*t2^-2 + t2^4 + t1^-4*t2^-1", "2"),
    ("t1^2*t2^-4 + t1^-4*t2^-2", "2"),
    ("2*t1*t2^2 + 2*t1^-2*t2^3 + t1^-3*t2^3 + t1^-3*t2^-3", "3"),
    ("2*t1^4*t2 + t2^-3 + t1^-3", "3"),
])
def test_corpus_checks_pass_on_two_corner_reductions(expr, fld):
    # the random corpus seldom draws an input that reduces two corners;
    # on each of these fixed ones the reduction removes two corners that
    # are not powers of one another, every check passes, idempotence is
    # checked, and keeping only the first reduction fails it
    ctx = parse_field(fld)
    f = parse_polynomial(expr, ctx)
    h = parse_polynomial("t1^-2*t2 + t2^-1", ctx)
    rep = reduction.good_representative(f)
    assert rep.reductions == 2
    (m1, n1), (m2, n2) = rep.witness.terms
    assert m1 * n2 != m2 * n1
    checks = corpus._poly_checks(f, rep, h)
    assert "idempotent" in checks
    assert all(checks.values()), checks
    partial = corpus._poly_checks(f, _first_corner_only(rep), h)
    assert partial["idempotent"] is False
    assert partial["witness_identity"] is True


def test_corpus_mutant_finds_the_counterexample():
    with max_tail_recursion():
        summary = run_corpus(1, 300, "staircase")
    assert not summary["all_pass"]
    bad = summary["checks"]["closed_form_type_2"]
    assert bad["fail"] > 0
    # minimization drives some witness down to a two-point staircase
    assert any(len(w) <= 2 for w in bad["counterexamples"])


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------

def test_cli_report_exit_zero(capsys):
    code = main(["report", "t1^-2*t2", "--field", "3", "--type", "II"])
    out = capsys.readouterr().out
    assert code == 0
    assert "blow-up r_x  2" in out


def _conductors_off_by_one(monkeypatch, module):
    """Make `module` read Sw(t1) one too high."""
    real = module.conductors

    def off_by_one(f, branches):
        sw1, sw2, swe = real(f, branches)
        return sw1 + 1, sw2, swe

    monkeypatch.setattr(module, "conductors", off_by_one)


def test_failed_cross_check_raises_and_exits_two(monkeypatch, capsys):
    _conductors_off_by_one(monkeypatch, blowup)
    with pytest.raises(CrossCheckError, match=r"conductors give 3 \+ 0 - 1"):
        resolve(parse_polynomial("t1^-2*t2", F3), 2)
    code = main(["report", "t1^-2*t2", "--field", "3"])
    assert code == 2
    assert "in stage simulation" in capsys.readouterr().err
    # simulate has no stages: the error itself is the one line
    code = main(["simulate", "t1^-2*t2", "--field", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_report_verdicts_fail_when_the_conductors_disagree(monkeypatch,
                                                            capsys):
    _conductors_off_by_one(monkeypatch, report)
    result = build_report(InputSpec(field="3^1", branches=2, expr="t1^-2*t2"))
    assert not result.verdicts["drop_identity"]["pass"]
    assert not result.verdicts["swan_matches_staircase_ends"]["pass"]
    assert not result.passed
    assert main(["report", "t1^-2*t2", "--field", "3"]) == 2
    assert "FAIL  drop_identity" in capsys.readouterr().out


def test_cli_report_json(capsys):
    code = main(["report", "t1^-2*t2", "--field", "3", "--type", "II", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["pass"] is True
    assert payload["report"]["simulation"]["r_x"] == 2


def test_cli_simulate_with_dot(tmp_path, capsys):
    dot = tmp_path / "tree.dot"
    code = main(["simulate", "t1^-2*t2", "--field", "2", "--type", "II",
                 "--dot", str(dot)])
    assert code == 0
    assert dot.read_text().startswith("digraph")
    assert "r_x = 2" in capsys.readouterr().out


def test_cli_simulate_without_flags_uses_the_config_defaults(monkeypatch):
    seen = []

    def recorded(f, branches, config):
        seen.append(config)
        return resolve(f, branches, config)

    monkeypatch.setattr(cli, "resolve", recorded)
    assert main(["simulate", "t1^-2*t2"]) == 0
    assert seen == [blowup.SimulationConfig()]


@pytest.mark.parametrize("expr, good, off_origin, repair", [
    ("t1^-2*t2", True, False, False),
    ("t1^-2*t2 + t1^-4*t2^3", False, True, False),
    ("t1^2*t2^-3 + t2^-1", False, True, True),
])
def test_cli_simulate_json_flags(capsys, expr, good, off_origin, repair):
    code = main(["simulate", expr, "--field", "2", "--type", "II", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["good_regime"] is good
    assert payload["off_origin_nonclean"] is off_origin
    assert payload["nonroot_repair"] is repair


def test_cli_corpus(capsys):
    code = main(["corpus", "--seed", "1", "--count", "40", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["all_pass"] is True


def test_cli_corpus_mutant_exit_two(capsys):
    with max_tail_recursion():
        code = main(["corpus", "--seed", "1", "--count", "200"])
    assert code == 2
    assert "FAILURES FOUND" in capsys.readouterr().out


def test_cli_usage_errors_exit_one(capsys):
    # exit 2 is a failed verdict; a command line that runs nothing is not
    with pytest.raises(SystemExit) as missing:
        main(["report"])
    assert missing.value.code == 1
    with pytest.raises(SystemExit) as removed:
        main(["corpus", "--jset-rule", "max_tail"])
    assert removed.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(SystemExit) as helped:
        main(["corpus", "--help"])
    assert helped.value.code == 0


def test_cli_euler(tmp_path, capsys):
    cfg = tmp_path / "surface.json"
    cfg.write_text(json.dumps({
        "components": [{"name": "L", "sw": 2}],
        "intersections": [[1]],
        "klog": [-3],
        "r_sum": 0,
    }))
    code = main(["euler", str(cfg)])
    assert code == 0
    assert "delta = -2" in capsys.readouterr().out


@pytest.mark.parametrize("data, message", [
    ({"components": [{"name": "L", "sw": 2.9}], "intersections": [[1]],
      "klog": [-3], "r_sum": 0}, "cannot be interpreted as an integer"),
    ({"components": [{"name": "L", "sw": 2}], "intersections": [[1]],
      "klog": [-3], "r_sum": 0.5}, "cannot be interpreted as an integer"),
    ({"components": [{"name": "L", "sw": 2}], "intersections": [[1]]},
     "lacks the key 'klog'"),
    ([{"name": "L", "sw": 2}], "malformed surface config"),
    ({"components": [{"name": "L", "sw": True}], "intersections": [[1]],
      "klog": [-3], "r_sum": 0}, "True is a bool"),
])
def test_cli_euler_rejects_a_malformed_config(tmp_path, capsys, data,
                                              message):
    # no number is truncated and no shape error is a traceback: one error
    # line and exit 1
    cfg = tmp_path / "surface.json"
    cfg.write_text(json.dumps(data))
    code = main(["euler", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def test_cli_operational_error(capsys):
    code = main(["report", "t1^&", "--field", "3"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_simulate_resource_caps_exit_one(capsys):
    # the depth cap is an operational failure: one error line and exit 1,
    # as report gives for the same input, not a traceback; the removed
    # series budget option is a usage error, exit 1 too
    code = main(["simulate", "t1^-200*t2 + t2^-3", "--field", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: depth cap exceeded at x/")
    assert captured.err.count("\n") == 1
    with pytest.raises(SystemExit) as removed:
        main(["simulate", "t1^-2*t2", "--field", "3", "--series-terms", "16"])
    assert removed.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_type1_rejects_t2_poles(capsys):
    code = main(["report", "t2^-1", "--field", "3", "--type", "I"])
    assert code == 1


def test_cli_euler_json(tmp_path, capsys):
    cfg = tmp_path / "surface.json"
    cfg.write_text(json.dumps({
        "components": [{"name": "L1", "sw": 1}, {"name": "L2", "sw": 1}],
        "intersections": [[0, 1], [1, 0]],
        "klog": [0, 0],
        "r_sum": 2,
    }))
    code = main(["euler", str(cfg), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["delta"] == 0
