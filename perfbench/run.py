"""wildram benchmark: one workload, one seed, a closed loop with one caller.

    python3 perfbench/run.py --workload report-mixed --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run generates its inputs from the seed (see ``inputs.py``) and times
passes over them until the time is up.  The first pass also checks every
output, and every later pass must reproduce its outputs exactly.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and the metrics are the per-layer counts and self times, plus
the tracing overhead.  The lines before it, starting with ``#``, give the
environment, the input and output digests, the tail percentile, the
failures and every metric in words.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

TAIL_BEYOND = 10      # samples beyond the reported tail percentile
MIN_PASSES = 3        # timed passes per run, at the least
SETUP_REPEATS = 11    # timed set-up launches per run, spread over its passes
SPANS_DIR = ".perfbench_out"
PROBE_EVERY_S = 0.2   # interval between reference probes in a timed pass
PROBE_WINDOW_S = 0.5  # probes within this distance set an input's speed
# the reference probe's time on the 2-vCPU Xeon VM the benchmark was
# defined on, when nothing else ran on its core
PROBE_NOMINAL_S = 0.0015
# the reference launch's time (SETUP_REFERENCE_CODE) on that VM, at its
# fastest
SETUP_REFERENCE_NOMINAL_S = 0.07

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402
import spans  # noqa: E402

SETUP_CODE = """\
import json, sys
sys.path.insert(0, "src")
import wildram
for p, k in json.loads(sys.argv[1]):
    wildram.field(p, k)
"""
# the standard modules wildram imports, and nothing of wildram
SETUP_REFERENCE_CODE = ("import argparse, dataclasses, functools, json, math, "
                        "random, re")


class BenchmarkError(RuntimeError):
    """The run cannot produce a valid result."""


# what a run measured: metrics by name as (value, unit), `#` notes,
# whether every pass reproduced the reference digests, the number of
# passes, and per input the reference digest and failure kind
Outcome = collections.namedtuple(
    "Outcome", "metrics notes consistent passes reference kinds")


def reference_probe():
    """Time a fixed piece of interpreter work (ints, tuples, lists and
    dicts, like the program's own) to see how fast the machine runs this
    process right now."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(4000):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        acc += len([key, i]) + i * i % 11
    return time.perf_counter() - start


class SpeedTrack:
    """Reference probes between the calls of a timed pass.

    Other tenants of a shared machine slow this process down by up to a
    factor of two for seconds to minutes at a time.  Each call's time is
    divided by the machine's slowdown at that moment: the median probe
    time within ``PROBE_WINDOW_S`` of the call, over ``PROBE_NOMINAL_S``.
    """

    def __init__(self):
        self.probes = []    # (clock, probe time)
        self.starts = []    # clock at each call of the current pass

    def before_call(self):
        now = time.perf_counter()
        if not self.probes or now - self.probes[-1][0] >= PROBE_EVERY_S:
            self.probes.append((now, reference_probe()))
            now = time.perf_counter()
        self.starts.append(now)

    def end_pass(self):
        """The slowdown at each call of the pass just ended."""
        self.probes.append((time.perf_counter(), reference_probe()))
        clocks = [t for t, _ in self.probes]
        out = []
        for start in self.starts:
            lo = bisect.bisect_left(clocks, start - PROBE_WINDOW_S)
            hi = bisect.bisect_right(clocks, start + PROBE_WINDOW_S)
            near = [p for _, p in self.probes[lo:hi]] or [self.probes[-1][1]]
            out.append(statistics.median(near) / PROBE_NOMINAL_S)
        self.starts = []
        return out


def _digest(obj):
    return hashlib.sha256(inputs.canonical(obj).encode()).hexdigest()


def _combined(digests):
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def environment(root):
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu_model": platform.machine(), "git_revision": "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        env["git_revision"] = ref
    source = hashlib.sha256()
    for path in sorted((root / "src" / "wildram").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    env["source_digest"] = source.hexdigest()
    return env


class SetupTimer:
    """Wall time for a fresh interpreter to import wildram and build every
    field context the inputs name.

    One untimed launch first writes the bytecode caches.  The timed
    launches are spread evenly over the run's timed passes, between calls,
    so that no single spell of a slow machine decides the median.  Each
    follows a launch of a reference interpreter that imports only the
    standard modules wildram imports.  Other tenants' load moves both
    alike over minutes.  The reference probe does not track it, because
    the child runs on whichever core is free.  So the figure is the median
    launch time over the median reference time, in seconds at the
    reference's nominal time.
    """

    def __init__(self, root, pairs, seconds):
        self.cmds = ([sys.executable, "-I", "-c", SETUP_REFERENCE_CODE],
                     [sys.executable, "-I", "-c", SETUP_CODE, json.dumps(pairs)])
        self.root = root
        self.interval = seconds / SETUP_REPEATS
        self.next_at = None
        self.times = []     # (reference, set-up) per timed launch
        for cmd in self.cmds:
            self._launch(cmd)

    def _launch(self, cmd):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in sleeps of up to 50 ms and
        # the measured times fall on that grid
        subprocess.run(cmd, cwd=self.root, check=True,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    def _measure(self):
        self.times.append(tuple(self._launch(cmd) for cmd in self.cmds))

    def before_call(self):
        now = time.perf_counter()
        if self.next_at is None:
            self.next_at = now + self.interval / 2
        elif now >= self.next_at and len(self.times) < SETUP_REPEATS:
            self._measure()
            self.next_at += self.interval

    def result(self):
        """The scaled set-up time, and the median reference and set-up
        launch times, after the launches the passes left."""
        while len(self.times) < SETUP_REPEATS:
            self._measure()
        reference, setup = (statistics.median(t) for t in zip(*self.times))
        return setup / reference * SETUP_REFERENCE_NOMINAL_S, reference, setup


def prepare(workload, items):
    prepared = [workload.prepare(item) for item in items]
    # keep the collector from scanning the benchmark's own inputs
    gc.collect()
    gc.freeze()
    return prepared


def run_pass(workload, items, prepared, recorder=None, check=False,
             before_call=None):
    """Time one call per input, running ``before_call`` untimed before
    each.  Returns the per-input times, output digests and (when
    ``check``) failure kinds.  A raising input is a failure, never an
    abort."""
    clock = time.perf_counter
    times, digests, failures = [], [], []
    for item, args in zip(items, prepared):
        if recorder is not None:
            recorder.input_id = item["id"]
        if before_call is not None:
            before_call()
        start = clock()
        try:
            result = workload.call(args)
        except Exception as err:  # the input fails; the run goes on
            elapsed = clock() - start
            # the report wraps inner errors with the pipeline stage
            kind = type(getattr(err, "original", err)).__name__
            stage = getattr(err, "stage", None)
            times.append(elapsed)
            digests.append(_digest({"error": kind, "stage": stage}))
            failures.append(kind)
            continue
        times.append(clock() - start)
        digests.append(_digest(workload.output(result)))
        failures.append(workload.check(item, args, result) if check else None)
    return times, digests, failures


def _timed_passes(seconds, one_pass, minimum):
    """Run ``one_pass(index)`` ``minimum`` times, then again while another
    pass of the last one's length still fits in the time."""
    results = []
    started = time.perf_counter()
    while True:
        before = time.perf_counter()
        results.append(one_pass(len(results)))
        took = time.perf_counter() - before
        if (len(results) >= minimum
                and time.perf_counter() - started + took > seconds):
            return results


def latency_metrics(per_input, failed):
    """p50 and tail over per-input latencies; a failed input ranks as
    slower than every success."""
    ranked = sorted(math.inf if bad else t for t, bad in zip(per_input, failed))
    n = len(ranked)
    if n <= TAIL_BEYOND:
        raise BenchmarkError(f"{n} inputs leave no tail percentile with "
                             f"{TAIL_BEYOND} samples beyond it")
    p50 = statistics.median(ranked)
    tail = ranked[n - 1 - TAIL_BEYOND]
    if math.isinf(p50) or math.isinf(tail):
        raise BenchmarkError("the median or tail latency falls on failed inputs")
    return p50, tail, 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(workload, items, seconds, root):
    """Timed passes; the first also checks every output and fixes the
    reference digests.  Each input's latency is its median over the
    passes of the call time divided by the machine's slowdown; the median
    keeps the first pass's cold caches out.  The set-up launches run
    between the calls."""
    setup = SetupTimer(root, workload.fields(items), seconds)
    prepared = prepare(workload, items)
    speed = SpeedTrack()

    def before_call():
        setup.before_call()
        speed.before_call()

    def one_pass(index):
        result = run_pass(workload, items, prepared, check=index == 0,
                          before_call=before_call)
        return result + (speed.end_pass(),)

    passes = _timed_passes(seconds, one_pass, MIN_PASSES)
    _, reference, kinds, _ = passes[0]
    consistent = all(p[1] == reference for p in passes)
    failed = [kind is not None for kind in kinds]
    raw = [statistics.median(times)
           for times in zip(*(p[0] for p in passes))]
    scaled = [statistics.median(t / s for t, s in zip(times, slowdowns))
              for times, slowdowns in zip(zip(*(p[0] for p in passes)),
                                          zip(*(p[3] for p in passes)))]
    slowdown = statistics.median(s for p in passes for s in p[3])

    def figures(per_input):
        # failed inputs take time but complete nothing
        ops = (len(items) - sum(failed)) / sum(per_input)
        p50, tail, percentile = latency_metrics(per_input, failed)
        return ops, 1e3 * p50, 1e3 * tail, percentile

    ops, p50, tail, percentile = figures(scaled)
    raw_ops, raw_p50, raw_tail, _ = figures(raw)
    setup_s, reference_s, raw_setup_s = setup.result()
    metrics = {
        "ops_per_s": (ops, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "failed_frac": (sum(failed) / len(items), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    notes = [f"passes {len(passes)}, inputs per pass {len(items)}",
             f"latency_tail_ms is p{percentile:.2f} over {len(items)} "
             f"per-input latencies ({TAIL_BEYOND} samples beyond it)",
             f"machine slowdown {slowdown:.3f} (median probe "
             f"{1e3 * slowdown * PROBE_NOMINAL_S:.3f} ms, nominal "
             f"{1e3 * PROBE_NOMINAL_S:.3f} ms)",
             f"unscaled: ops_per_s {raw_ops:.6g} 1/s, latency_p50_ms "
             f"{raw_p50:.6g} ms, latency_tail_ms {raw_tail:.6g} ms, "
             f"setup_s {raw_setup_s:.6g} s (reference launch "
             f"{reference_s:.6g} s, nominal {SETUP_REFERENCE_NOMINAL_S} s)"]
    return Outcome(metrics, notes, consistent, len(passes), reference, kinds)


LAYER_METRICS = (
    # (name, unit, source): source is ("count", key), ("calls", span),
    # ("self", span) or ("frac", numerator count, denominator)
    ("fields.mul_calls", "count", ("count", "fields.mul_calls")),
    ("fields.inverse_calls", "count", ("count", "fields.inverse_calls")),
    ("fields.context_builds", "count", ("cold", "fields.context_builds")),
    ("fields.find_roots_calls", "count", ("calls", "fields.find_roots")),
    ("fields.find_roots_self_s", "s", ("self", "fields.find_roots")),
    ("fields.partial_root_frac", "ratio",
     ("frac", "fields.partial_roots", ("calls", "fields.find_roots"))),
    ("laurent.translate_calls", "count", ("calls", "laurent.translate")),
    ("laurent.translate_self_s", "s", ("self", "laurent.translate")),
    ("laurent.translate_terms_out", "count",
     ("count", "laurent.translate_terms_out")),
    ("laurent.pole_staircase_calls", "count",
     ("calls", "laurent.pole_staircase")),
    ("laurent.pole_staircase_self_s", "s", ("self", "laurent.pole_staircase")),
    ("laurent.mul_calls", "count", ("count", "laurent.mul_calls")),
    ("laurent.precision_loss_raised", "count",
     ("count", "laurent.precision_loss_raised")),
    ("reduction.good_representative_calls", "count",
     ("calls", "reduction.good_representative")),
    ("reduction.good_representative_self_s", "s",
     ("self", "reduction.good_representative")),
    ("reduction.corner_reductions", "count",
     ("count", "reduction.corner_reductions")),
    ("reduction.swan_calls", "count", ("calls", "reduction.swan")),
    ("reduction.swan_self_s", "s", ("self", "reduction.swan")),
    ("staircase.recursive_calls", "count", ("calls", "staircase.recursive")),
    ("staircase.recursion_steps", "count",
     ("count", "staircase.recursion_steps")),
    ("staircase.recursive_self_s", "s", ("self", "staircase.recursive")),
    ("staircase.closed_form_self_s", "s", ("self", "staircase.closed_form")),
    ("staircase.hull_self_s", "s", ("self", "staircase.hull")),
    ("blowup.resolve_calls", "count", ("calls", "blowup.resolve")),
    ("blowup.resolve_self_s", "s", ("self", "blowup.resolve")),
    ("blowup.tree_nodes", "count", ("count", "blowup.tree_nodes")),
    ("blowup.offorigin_probes", "count", ("count", "blowup.offorigin_probes")),
    ("blowup.probe_keep_frac", "ratio",
     ("frac", "blowup.offorigin_kept", ("count", "blowup.offorigin_probes"))),
    ("blowup.escalations", "count", ("count", "blowup.escalations")),
    ("report.build_self_s", "s", ("self", "report.build")),
    ("parsing.parse_self_s", "s", ("self", "parsing.parse")),
)


def per_layer(workload, items, seconds, root, seed):
    """A cold warm-up pass that checks every output, then untraced and
    traced passes in turn, at least two pairs.  Counts come from the
    traced passes and must repeat exactly; self times and the tracing
    overhead are scaled by the machine's slowdown, per pass, and their
    medians over the pairs."""
    # later passes find every field context cached, so the context builds
    # are counted over the input preparation (which parses the fields on
    # some workloads) and the cold pass
    cold = spans.Recorder()
    cold.install(spans=False, counters=("fields.context_builds",))
    try:
        prepared = prepare(workload, items)
        _, reference, kinds = run_pass(workload, items, prepared, check=True)
    finally:
        cold.uninstall()
    recorder = spans.Recorder()
    speed = SpeedTrack()
    Pair = collections.namedtuple(
        "Pair", "plain traced counts self_s spans overhead")

    def scaled(times):
        slowdowns = speed.end_pass()
        return sum(t / s for t, s in zip(times, slowdowns)), slowdowns

    def pair(_):
        times, plain, _ = run_pass(workload, items, prepared,
                                   before_call=speed.before_call)
        plain_s, _ = scaled(times)
        recorder.reset()
        recorder.install()
        try:
            times, traced, _ = run_pass(workload, items, prepared,
                                        recorder=recorder,
                                        before_call=speed.before_call)
        finally:
            recorder.uninstall()
        traced_s, slowdowns = scaled(times)
        slowdown = statistics.median(slowdowns)
        counts = dict(recorder.counts)
        counts.update(("calls:" + k, v) for k, v in recorder.calls().items())
        self_s = {name: t / slowdown
                  for name, t in recorder.self_times().items()}
        return Pair(plain, traced, counts, self_s, recorder.spans,
                    traced_s - plain_s)

    # two pairs at the least, so the counts of two traced passes compare
    pairs = _timed_passes(seconds, pair, 2)
    consistent = all(p.plain == reference and p.traced == reference
                     for p in pairs)
    counts = pairs[0].counts
    repeatable = all(p.counts == counts for p in pairs)
    self_s = {name: statistics.median(p.self_s.get(name, 0.0) for p in pairs)
              for name in spans.SPANS}

    def value(source):
        kind = source[0]
        if kind == "count":
            return counts.get(source[1], 0)
        if kind == "cold":
            return cold.counts.get(source[1], 0)
        if kind == "calls":
            return counts.get("calls:" + source[1], 0)
        if kind == "self":
            return self_s[source[1]]
        denominator = value(source[2])
        return counts.get(source[1], 0) / denominator if denominator else 0.0

    metrics = {name: (value(source), unit)
               for name, unit, source in LAYER_METRICS}
    metrics["trace.overhead_s"] = (
        statistics.median(p.overhead for p in pairs), "s")

    missing = [name for name in workload.expected_spans
               if not counts.get("calls:" + name)]
    missing += [name for name in workload.expected_counts
                if not counts.get(name)]
    if missing:
        raise BenchmarkError(f"expected spans recorded no calls on "
                             f"{workload.name}: {', '.join(missing)}")

    out_dir = root / SPANS_DIR
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{workload.name}-seed{seed}.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "input"],
                   "spans": pairs[-1].spans}, fh, separators=(",", ":"))
    notes = [f"traced pairs {len(pairs)}, inputs per pass {len(items)}",
             "counts repeat exactly across traced passes: "
             f"{'yes' if repeatable else 'NO'}",
             f"expected spans all recorded calls: "
             f"{', '.join(workload.expected_spans) or '(none)'}"]
    return Outcome(metrics, notes, consistent and repeatable, 2 * len(pairs),
                   reference, kinds)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    package = root / "src" / "wildram" / "__init__.py"
    if not package.is_file():
        print(f"error: no wildram sources at {package.parent}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import wildram
    import workloads
    if Path(wildram.__file__).resolve() != package.resolve():
        print(f"error: imported wildram from {wildram.__file__}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    items = inputs.generate(workload.name, args.seed)
    try:
        if args.trace == 0:
            outcome = end_to_end(workload, items, args.seconds, root)
        else:
            outcome = per_layer(workload, items, args.seconds, root,
                                args.seed)
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    metrics, notes, consistent, passes, reference, kinds = outcome
    failed = [kind is not None for kind in kinds]
    unexpected = sorted({k for k in kinds if k is not None}
                        - workload.known_failures)

    print("# environment " + json.dumps(environment(root), sort_keys=True))
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}")
    print(f"# input digest {inputs.input_digest(items)}")
    print(f"# output digest {_combined(reference)}")
    for note in notes:
        print("# " + note)
    by_kind = {}
    for item, kind in zip(items, kinds):
        if kind is not None:
            by_kind.setdefault(kind, []).append(item["id"])
    for kind, ids in sorted(by_kind.items()):
        print(f"# failed {len(ids)} x {kind}: ids {ids[:20]}")
    for item, kind, digest in zip(items, kinds, reference):
        if item["known_defect"]:
            print(f"# known defect {item['known_defect']} (id {item['id']}): "
                  f"{kind or 'no failure'}, output digest {digest[:16]}")
    if unexpected:
        print(f"# UNEXPECTED failure kinds: {', '.join(unexpected)}")
    if not consistent:
        print("# OUTPUTS DIFFER between passes")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")

    if args.trace == 0:
        reported = {name: metrics[name] for name in
                    ("ops_per_s", "latency_p50_ms", "latency_tail_ms",
                     "setup_s", "peak_rss_mb")}
    else:
        reported = metrics
    result = {
        "correct": consistent and not unexpected,
        "attempted": len(items) * passes,
        "failed": sum(failed) * passes,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
