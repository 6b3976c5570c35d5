"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Run from the root of the repository.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stratify  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    first = inputs.generate(name, 7)
    again = inputs.generate(name, 7)
    other = inputs.generate(name, 8)
    assert first == again
    assert inputs.input_digest(first) == inputs.input_digest(again)
    assert inputs.input_digest(first) != inputs.input_digest(other)
    assert len(first) == len(other)


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_every_batch_holds_the_fixed_inputs_and_stratum_quotas(name):
    labels = inputs.load_strata()[name]
    batch = inputs.generate(name, 3)
    fixed = inputs.fixed_inputs(name)
    assert [{k: v for k, v in item.items() if k != "id"}
            for item in batch[:len(fixed)]] == fixed
    drawn = sum(inputs.quotas(labels, inputs.WORKLOADS[name][3]).values())
    assert len(batch) == len(fixed) + drawn


def test_known_defect_reproducers_are_present():
    defects = {item["known_defect"]
               for name in inputs.WORKLOADS
               for item in inputs.fixed_inputs(name)}
    assert defects == {None, "depth-cap", "mode-dependent-good-regime",
                       "recursion-limit"}


def test_stratum_labels_rank_successes_and_mark_failures():
    costs = [float(i) for i in range(101)]
    failed = [i == 5 for i in range(101)]
    labels = stratify.stratum_labels(costs, failed, (0.5, 0.9))
    assert labels[5] == inputs.FAILED
    assert labels[0] == "0" and labels[100] == "2"
    assert labels.count("0") == 50 and labels.count("2") == 10
    whole = stratify.stratum_labels(costs, failed, (0.5, 0.9), whole_top=True)
    assert whole.count(inputs.WHOLE) == 10
    assert inputs.quotas(whole, 50)[inputs.WHOLE] == 10


def test_failed_inputs_rank_slowest():
    times = [0.001 * i for i in range(1, 31)]
    failed = [i == 0 for i in range(30)]
    p50, tail, percentile = run.latency_metrics(times, failed)
    assert tail == pytest.approx(0.021)
    assert percentile == pytest.approx(100 * 20 / 30)
    assert p50 == pytest.approx(0.0165)
    with pytest.raises(run.BenchmarkError):
        run.latency_metrics(times, [i < 11 for i in range(30)])


def _traced_counts(workload, items, prepared):
    recorder = spans.Recorder()
    recorder.install()
    try:
        _, digests, _ = run.run_pass(workload, items, prepared,
                                     recorder=recorder)
    finally:
        recorder.uninstall()
    counts = dict(recorder.counts)
    counts.update(("calls:" + k, v) for k, v in recorder.calls().items())
    return counts, digests


@pytest.mark.parametrize("name,count", [("report-mixed", 40),
                                        ("sweep-ext", 12),
                                        ("staircase-deep", 40)])
def test_per_layer_counts_repeat_exactly(name, count):
    workload = workloads.WORKLOADS[name]
    items = inputs.generate(name, 1)[:count]
    prepared = [workload.prepare(item) for item in items]
    _, reference, _ = run.run_pass(workload, items, prepared)
    first, traced = _traced_counts(workload, items, prepared)
    second, _ = _traced_counts(workload, items, prepared)
    assert first == second
    assert traced == reference
    for span in workload.expected_spans:
        assert first.get("calls:" + span, 0) > 0, span


def test_uninstall_restores_every_binding():
    import wildram.blowup
    import wildram.fields
    originals = (wildram.blowup.translate, wildram.fields.FieldElement.__mul__)
    recorder = spans.Recorder()
    recorder.install()
    assert wildram.blowup.translate is not originals[0]
    recorder.uninstall()
    assert (wildram.blowup.translate,
            wildram.fields.FieldElement.__mul__) == originals


def test_self_time_excludes_child_spans():
    recorder = spans.Recorder()
    recorder.spans = [["outer", 0.0, 10.0, -1, 0],
                      ["inner", 2.0, 5.0, 0, 0],
                      ["inner", 6.0, 7.0, 0, 0]]
    self_s = recorder.self_times()
    assert math.isclose(self_s["outer"], 6.0)
    assert math.isclose(self_s["inner"], 4.0)
