"""Seeded inputs for the benchmark workloads.

The generator lives here, not in ``wildram.corpus``, so that a change to
the program cannot change the inputs it is measured on.  Every input is a
plain JSON-serializable dict; ``input_digest`` hashes the canonical JSON
of a whole workload so two commits can show they ran identical inputs.

Each workload draws its inputs from a fixed population (generated from a
constant master seed) by stratified sampling: ``strata.json`` assigns
every population member a cost stratum, measured once when the benchmark
was defined (see ``stratify.py``), and the run's ``--seed`` picks a fixed
quota from each stratum.  The cost of these workloads is heavy-tailed, so
a plain random sample would change the measured figures from seed to
seed more than any bound could tolerate; with fixed quotas every seed
runs different inputs with the same cost profile.  Inputs that failed
when the strata were measured form a stratum of their own, so every
batch also holds the same number of them.

Inputs flagged with ``known_defect`` reproduce defects recorded in the
roadmap.  They are attempted in every batch and never filtered out.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

STRATA_FILE = Path(__file__).with_name("strata.json")
MASTER_SEED = 20150701

REPORT_FIELDS = ("2", "3", "5", "2^2", "3^2")
# (base field spec, sweep degree, exponent bound): sweeps over F_8, F_9,
# F_16 and F_25.  Every probe of the larger sweeps runs a full reduction,
# so their inputs get smaller exponents.
SWEEP_FIELDS = (("2", 3, 3), ("3", 2, 3), ("2", 4, 2), ("5", 2, 2))

README_EXAMPLES = (
    ("3", 2, "t1^-2*t2"),
    ("2", 2, "t1^-2*t2 + t1^-4*t2^3"),
    ("2^2", 2, "g*t1^-3*t2 + g^2*t2^-1 + 1"),
)
# the fixed inputs of acceptance criterion 9, swept over F_8
CRITERION_9_FIXED = (
    ("2", 2, "t1^-2*t2 + t1^-4*t2^3"),
    ("2", 2, "t1^-2*t2 + t1^-3*t2^2"),
)
DEPTH_CAP = ("2", 2, "t1^-200*t2 + t2^-3")
MODE_DEPENDENT_GOOD_REGIME = ("3", 2, "t1^-9*t2^2 + t1^-2*t2^-7 + t1^-4*t2^-1")
# the pole staircase of t1^-2001*t2^2000 + 1 on one branch
DEEP_RECURSION = ((0, 0), (2001, 2000))


def field_size(spec):
    """(p, k) of a field spec "p" or "p^k"."""
    p, _, k = spec.partition("^")
    return int(p), int(k or 1)


def _format_term(coeffs, m, n):
    """One printed piece per nonzero basis component; the wildram grammar
    adds like terms back together."""
    pieces = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        factors = [str(c)]
        if i:
            factors.append("g" if i == 1 else f"g^{i}")
        if m:
            factors.append(f"t1^{m}")
        if n:
            factors.append(f"t2^{n}")
        pieces.append("*".join(factors))
    return pieces


def _corner_count(exponents):
    """Minimal exponent pairs under the componentwise order: the corners
    of the pole staircase before any reduction."""
    return sum(1 for e in exponents
               if not any(f != e and f[0] <= e[0] and f[1] <= e[1]
                          for f in exponents))


def _random_terms(rng, p, k, branches, max_terms, exp_bound):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = rng.randint(-exp_bound, exp_bound)
        n = rng.randint(0 if branches == 1 else -exp_bound, exp_bound)
        coeffs = [0] * k
        while not any(coeffs):
            coeffs = [rng.randrange(p) for _ in range(k)]
        terms[(m, n)] = coeffs
    return terms


def _random_expr(rng, spec, branches, max_terms, exp_bound, sweepable=False):
    """A random Laurent polynomial as an expression string.  Type I (one
    branch) inputs get no t2 poles.  A ``sweepable`` input is redrawn
    until it has a t1-pole and two staircase corners, so that its root is
    blown up."""
    p, k = field_size(spec)
    terms = _random_terms(rng, p, k, branches, max_terms, exp_bound)
    while sweepable and (_corner_count(list(terms)) < 2
                         or all(m >= 0 for m, _ in terms)):
        terms = _random_terms(rng, p, k, branches, max_terms, exp_bound)
    pieces = []
    for (m, n) in sorted(terms):
        pieces.extend(_format_term(terms[(m, n)], m, n))
    return " + ".join(pieces)


# ---------------------------------------------------------------------------
# populations and fixed inputs, per workload
# ---------------------------------------------------------------------------

def _report_population(rng, count):
    out = []
    for index in range(count):
        spec = REPORT_FIELDS[index % len(REPORT_FIELDS)]
        branches = 2 if (index // len(REPORT_FIELDS)) % 2 == 0 else 1
        out.append({"field": spec, "branches": branches,
                    "expr": _random_expr(rng, spec, branches, max_terms=4,
                                         exp_bound=4),
                    "seed": rng.randrange(2 ** 31), "known_defect": None})
    return out


def _report_fixed():
    out = [{"field": spec, "branches": branches, "expr": expr, "seed": 0,
            "known_defect": None}
           for spec, branches, expr in README_EXAMPLES]
    spec, branches, expr = DEPTH_CAP
    out.append({"field": spec, "branches": branches, "expr": expr, "seed": 0,
                "known_defect": "depth-cap"})
    return out


def _sweep_population(rng, count):
    out = []
    for index in range(count):
        spec, degree, exp_bound = SWEEP_FIELDS[index % len(SWEEP_FIELDS)]
        out.append({"field": spec, "branches": 2,
                    "expr": _random_expr(rng, spec, 2, max_terms=2,
                                         exp_bound=exp_bound, sweepable=True),
                    "sweep_degree": degree, "known_defect": None})
    return out


def _sweep_fixed():
    out = [{"field": spec, "branches": branches, "expr": expr,
            "sweep_degree": 3, "known_defect": None}
           for spec, branches, expr in CRITERION_9_FIXED]
    spec, branches, expr = MODE_DEPENDENT_GOOD_REGIME
    out.append({"field": spec, "branches": branches, "expr": expr,
                "sweep_degree": 2,
                "known_defect": "mode-dependent-good-regime"})
    return out


def _crossing_staircase(rng, segments, coord_bound):
    """Both coordinates strictly increasing, shifted so some vertex lies
    in the quadrant a >= 0, b <= 0 (the reduced-representative shape at a
    crossing)."""
    half = coord_bound // 2
    aa = sorted(rng.sample(range(-half, half + 1), segments))
    bb = sorted(rng.sample(range(-half, half + 1), segments))
    pivot = rng.randrange(segments)
    shift_a = rng.randint(0, half) - aa[pivot]
    shift_b = rng.randint(-half, 0) - bb[pivot]
    return [(a + shift_a, b + shift_b) for a, b in zip(aa, bb)]


def _branch_staircase(rng, segments, coord_bound):
    """The one-branch shape: b_0 = 0, a_0 >= 0, no t2 poles."""
    heights = [0] + sorted(rng.sample(range(1, coord_bound + 1), segments - 1))
    return list(zip(sorted(rng.sample(range(coord_bound + 1), segments)),
                    heights))


def _thin_staircase(rng, segments, coord_bound):
    """Long and thin: unit steps in b and wide steps in a, on one
    branch."""
    a = rng.randint(0, 10)
    points = [(a, 0)]
    for b in range(1, segments):
        a += rng.randint(1, max(1, 2 * coord_bound // segments))
        points.append((a, b))
    return points


# (maker, branches, segment range, coordinate bound).  The recursion
# depth of a staircase grows with its coordinate spread; at spreads in the
# low thousands some random staircases exceed Python's default recursion
# limit.  They stay in the population and fail like the fixed reproducer.
STAIRCASE_SHAPES = (
    (_crossing_staircase, 2, (20, 80), 2000),
    (_branch_staircase, 1, (20, 80), 2000),
    (_thin_staircase, 1, (25, 80), 2000),
)


def _staircase_population(rng, count):
    out = []
    for index in range(count):
        maker, branches, segments, bound = STAIRCASE_SHAPES[
            index % len(STAIRCASE_SHAPES)]
        points = maker(rng, rng.randint(*segments), bound)
        out.append({"points": [list(pt) for pt in points],
                    "branches": branches, "known_defect": None})
    return out


def _staircase_fixed():
    return [{"points": [list(pt) for pt in DEEP_RECURSION], "branches": 1,
             "known_defect": "recursion-limit"}]


# workload -> (population generator, population size, fixed inputs,
#              inputs drawn per run)
WORKLOADS = {
    "report-mixed": (_report_population, 3000, _report_fixed, 600),
    "sweep-ext": (_sweep_population, 400, _sweep_fixed, 80),
    "staircase-deep": (_staircase_population, 3000, _staircase_fixed, 500),
}


def population(workload):
    make, size, _, _ = WORKLOADS[workload]
    return make(random.Random(f"{workload}/population/{MASTER_SEED}"), size)


def fixed_inputs(workload):
    return WORKLOADS[workload][2]()


def load_strata():
    with open(STRATA_FILE) as fh:
        return json.load(fh)["labels"]


FAILED = "f"   # stratum of the inputs that failed when strata were measured
WHOLE = "w"    # stratum that every batch takes whole


def quotas(labels, draw):
    """Inputs drawn from each stratum: all of the ``w`` stratum, from the
    others a share proportional to its size, rounded, at least one."""
    sizes = {}
    for label in labels:
        sizes[label] = sizes.get(label, 0) + 1
    return {label: size if label == WHOLE
            else max(1, round(draw * size / len(labels)))
            for label, size in sorted(sizes.items())}


def generate(workload, seed):
    """The inputs of one run: the fixed inputs, then a seeded stratified
    sample of the population in seeded order.  Ids are positions."""
    _, size, _, draw = WORKLOADS[workload]
    labels = load_strata()[workload]
    if len(labels) != size:
        raise ValueError(f"strata for {workload} cover {len(labels)} inputs, "
                         f"the population has {size}")
    pool = population(workload)
    rng = random.Random(f"{workload}/{seed}")
    members = {}
    for index, label in enumerate(labels):
        members.setdefault(label, []).append(index)
    chosen = []
    for label, quota in quotas(labels, draw).items():
        chosen.extend(rng.sample(members[label], quota))
    rng.shuffle(chosen)
    out = fixed_inputs(workload) + [pool[index] for index in chosen]
    for index, item in enumerate(out):
        item["id"] = index
    return out


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def input_digest(inputs):
    h = hashlib.sha256()
    for item in inputs:
        h.update(canonical(item).encode())
        h.update(b"\n")
    return h.hexdigest()
