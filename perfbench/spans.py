"""Span recorder for the traced run.

``Recorder.install`` wraps the public functions of each wildram layer at
every module that binds them (``from .x import y`` copies the function
into the importing module, so each of those bindings is replaced), and
wraps a few hot methods as bare counters.  A span records its name,
start, end, parent span and input id; spans stay in memory until the run
writes them out.  ``uninstall`` restores every original binding, so the
untraced passes run the program unchanged.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# span name -> the (module, function) bindings it wraps
SPANS = {
    "fields.find_roots": (("wildram.fields", "find_roots"),),
    "laurent.translate": (("wildram.laurent", "translate"),),
    "laurent.pole_staircase": (("wildram.laurent", "pole_staircase"),),
    "reduction.good_representative": (("wildram.reduction",
                                       "good_representative"),),
    "reduction.swan": (("wildram.reduction", "swan_conductor"),),
    "staircase.recursive": (("wildram.staircase", "ramification_recursive"),),
    "staircase.closed_form": (("wildram.staircase",
                               "ramification_closed_form"),),
    "staircase.hull": (("wildram.staircase", "essential_vertices"),),
    "blowup.resolve": (("wildram.blowup", "resolve"),),
    "report.build": (("wildram.report", "build_report"),),
    "parsing.parse": (("wildram.parsing", "parse_polynomial"),
                      ("wildram.parsing", "parse_field")),
}

# counter name -> the (module, class, method) bindings it counts; these
# run too often for a span each
COUNTERS = {
    "fields.mul_calls": (("wildram.fields", "FieldElement", "__mul__"),
                         ("wildram.fields", "FieldElement", "__rmul__")),
    "fields.inverse_calls": (("wildram.fields", "FieldElement", "inverse"),),
    "fields.context_builds": (("wildram.fields", "FieldContext", "__init__"),),
    "laurent.mul_calls": (("wildram.laurent", "LaurentPolynomial", "__mul__"),),
    "laurent.precision_loss_raised": (("wildram.laurent", "PrecisionLossError",
                                       "__init__"),),
}


class MissedBindingError(RuntimeError):
    """A wildram module still binds an unwrapped original."""


def _on_find_roots(rec, result):
    rec.counts["fields.partial_roots"] += bool(result.partial)


def _on_translate(rec, result):
    rec.counts["laurent.translate_terms_out"] += len(result.terms)
    # resolve translates once per off-origin probe
    if any(rec.spans[i][0] == "blowup.resolve" for i in rec.open):
        rec.counts["blowup.offorigin_probes"] += 1


def _on_good_representative(rec, result):
    rec.counts["reduction.corner_reductions"] += result.reductions


def _on_recursive(rec, result):
    rec.counts["staircase.recursion_steps"] += len(result.steps)


def _on_resolve(rec, result):
    for node in result.root.nodes():
        rec.counts["blowup.tree_nodes"] += 1
        if node.path.rsplit("/", 1)[-1].startswith("A@v="):
            rec.counts["blowup.offorigin_kept"] += 1
    rec.counts["blowup.escalations"] += result.precision_escalations


HOOKS = {
    "fields.find_roots": _on_find_roots,
    "laurent.translate": _on_translate,
    "reduction.good_representative": _on_good_representative,
    "staircase.recursive": _on_recursive,
    "blowup.resolve": _on_resolve,
}


class Recorder:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1, input id]
        self.counts = Counter()
        self.open = []      # indices of the spans currently running
        self.input_id = None
        self._patches = []  # (owner, attribute, original)

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self.open = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0,
                      self.open[-1] if self.open else -1, self.input_id]
            self.spans.append(record)
            self.open.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                self.open.pop()
            if hook is not None:
                hook(self, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, spans=True, counters=tuple(COUNTERS)):
        """Wrap the span functions (if ``spans``) and the named counters."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None
                   and (name == "wildram" or name.startswith("wildram."))]
        for name in (SPANS if spans else ()):
            for module_name, attr in SPANS[name]:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._span(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
                self._check_no_binding(modules, original, attr)
        for name in counters:
            for module_name, cls_name, attr in COUNTERS[name]:
                cls = getattr(sys.modules[module_name], cls_name)
                self._patch(cls, attr, self._counter(name, vars(cls)[attr]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @staticmethod
    def _check_no_binding(modules, original, attr):
        for mod in modules:
            for key, value in vars(mod).items():
                if value is original:
                    raise MissedBindingError(
                        f"{mod.__name__}.{key} still binds the unwrapped {attr}")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ------------------------------------------------------------

    def calls(self):
        return Counter(record[0] for record in self.spans)

    def self_times(self):
        """Per span name: total duration minus the time its direct child
        spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] += (end - start) - child
        return out
