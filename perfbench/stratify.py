"""Measure the cost stratum of every population input and write
``strata.json``.

    python3 perfbench/stratify.py

Run from the root of a checkout.  Each population input is timed over one
warm-up and four timed passes, its times divided by the machine's
slowdown as in ``run.py``, and ranked by its fastest pass.  Inputs that
fail (raise, fail a verdict or a cross-check) get the stratum ``f``; the
others get a digit by their cost rank among the successes, cut at the
workload's percentiles in ``CUTS``.  With ``WHOLE_TOP`` the inputs above
the last cut get the stratum ``w`` instead, which every batch takes whole.

The cuts put a stratum boundary at the tail latency's rank: ten samples
lie beyond the tail, the failing inputs rank beyond every success, and
the quotas of the strata above the boundary fill the rest, so every seed
reads the tail at the same point of the cost profile.  ``staircase-deep``
has two failing inputs per batch (the fixed reproducer and one drawn from
``f``) and eight drawn inputs above its last cut; ``sweep-ext`` has none
and ten.  In ``report-mixed`` eight inputs per batch fail, so its tail is
the third slowest success, and the five slowest successes of its
population are taken whole to pin it.

The strata belong to the benchmark's definition: they fix the cost
profile every seed draws, so they are measured once, when the benchmark
is defined, and a change that claims a speed-up must not regenerate them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run  # also puts this directory on sys.path
import inputs

# workload -> percentile cuts over the successes' cost ranks
TIMED_PASSES = 4
CUTS = {
    "report-mixed": (0.5, 0.75, 0.9, 0.95, 0.98, 0.995, 0.998),
    "sweep-ext": (0.5, 0.75, 0.8875, 0.95, 0.985, 0.992),
    "staircase-deep": (0.5, 0.75, 0.9, 0.95, 0.975, 0.9838),
}
WHOLE_TOP = {"report-mixed"}


def stratum_labels(costs, failed, cuts, whole_top=False):
    """One label per input: ``f`` for failures, else the number of cuts
    its cost rank among the successes reaches, or ``w`` above the last
    cut when ``whole_top``."""
    ok = sorted((cost, index) for index, (cost, bad)
                in enumerate(zip(costs, failed)) if not bad)
    labels = [inputs.FAILED] * len(costs)
    for rank, (_, index) in enumerate(ok):
        stratum = sum(rank >= cut * len(ok) for cut in cuts)
        labels[index] = (inputs.WHOLE if whole_top and stratum == len(cuts)
                         else str(stratum))
    return "".join(labels)


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads

    data = {}
    for name in sorted(inputs.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        items = inputs.population(name)
        for index, item in enumerate(items):
            item["id"] = index
        prepared = [workload.prepare(item) for item in items]
        _, _, kinds = run.run_pass(workload, items, prepared, check=True)
        speed = run.SpeedTrack()
        timed = []
        for _ in range(TIMED_PASSES):
            times = run.run_pass(workload, items, prepared,
                                 before_call=speed.before_call)[0]
            timed.append([t / s for t, s in zip(times, speed.end_pass())])
        costs = [min(times) for times in zip(*timed)]
        failed = [kind is not None for kind in kinds]
        data[name] = stratum_labels(costs, failed, CUTS[name],
                                    name in WHOLE_TOP)
        counts = {label: data[name].count(label)
                  for label in sorted(set(data[name]))}
        kinds_seen = sorted({k for k in kinds if k is not None})
        print(f"{name}: {len(items)} inputs, {sum(costs):.1f} s per pass, "
              f"strata {counts}, failure kinds {kinds_seen}")
    with open(inputs.STRATA_FILE, "w") as fh:
        json.dump({"labels": data}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
