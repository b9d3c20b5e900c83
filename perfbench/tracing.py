"""Per-layer tracing from outside the package.

The tracer replaces each target function, by name, in every loaded
``kostant`` module that binds it, records nested spans around the calls and
puts every original back on ``uninstall``. A layer's self time is its span
time minus the time of the spans nested directly inside it.

A target that a later version of the package no longer has is listed in
``missing`` and its metrics are left out, never reported as zero.

Kept spans are capped at MAX_SPANS. Past the cap a span with no children is
folded into a (parent span, name) tally of count and seconds, so the hottest
leaves (one shifted action per group element) cost a dict update each.
"""

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

MAX_SPANS = 20000

# (metric prefix, module, attribute, how). "span" times every call, "count"
# only counts calls into the metric named by the prefix, "iter" counts the
# items drawn from the returned iterator. "Class.method" patches the class.
TARGETS = (
    ("weyl.enumerate_all.elements", "kostant.weyl", "enumerate_all", "iter"),
    ("weyl.shifted_action", "kostant.weyl", "shifted_action", "span"),
    ("weyl.apply.calls", "kostant.weyl", "apply", "count"),
    ("weyl.from_nonconsecutive_letters.calls", "kostant.weyl",
     "from_nonconsecutive_letters", "count"),
    ("weights.Weight.created", "kostant.weights", "Weight.__init__", "count"),
    ("alternation.alt_set_bruteforce", "kostant.alternation", "alt_set_bruteforce", "span"),
    ("alternation.alt_set_characterized", "kostant.alternation", "alt_set_characterized",
     "span"),
    ("partition.kostant_q", "kostant.partition", "kostant_q", "span"),
    ("combinatorics.nonconsecutive_subsets", "kostant.combinatorics",
     "nonconsecutive_subsets", "span"),
    ("multiplicity.q_multiplicity_closed", "kostant.multiplicity", "q_multiplicity_closed",
     "span"),
    ("multiplicity.q_multiplicity", "kostant.multiplicity", "q_multiplicity", "span"),
    ("cli.run", "kostant.cli", "run", "span"),
)


# Counters read off a span's return value: metric suffix and how to count.
RESULT_COUNTS = {
    "alternation.alt_set_bruteforce": ("kept", len),
    "alternation.alt_set_characterized": ("elements", len),
    "partition.kostant_q": ("zero", lambda poly: int(not poly)),
    "combinatorics.nonconsecutive_subsets": ("items", len),
    "multiplicity.q_multiplicity": ("terms", lambda report: report.term_count),
}


class Tracer:
    """Spans and counters for TARGETS; install() wraps them, uninstall() restores."""

    def __init__(self, targets=TARGETS, max_spans=MAX_SPANS):
        self.targets = targets
        self.max_spans = max_spans
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.spans = []  # (id, parent id, name, start, end), up to max_spans
        self.folded = defaultdict(lambda: [0, 0.0])  # (parent id, name) -> [count, s]
        self.n_spans = 0
        self.missing = []
        self._stack = []  # [name, start, child seconds, id, has children]
        self._patches = []  # (owner, attribute, original)
        self._t0 = time.perf_counter()

    def _enter(self, name):
        self.n_spans += 1
        if self._stack:
            self._stack[-1][4] = True
        self._stack.append([name, time.perf_counter(), 0.0, self.n_spans, False])

    def _exit(self):
        end = time.perf_counter()
        name, start, child_s, span_id, has_children = self._stack.pop()
        dur = end - start
        self.counts[name + ".calls"] += 1
        self.self_s[name] += dur - child_s
        parent_id = 0
        if self._stack:
            self._stack[-1][2] += dur
            parent_id = self._stack[-1][3]
        if has_children or len(self.spans) < self.max_spans:
            self.spans.append((span_id, parent_id, name, start - self._t0, end - self._t0))
        else:
            tally = self.folded[(parent_id, name)]
            tally[0] += 1
            tally[1] += dur

    def _wrap(self, name, fn, how):
        counts = self.counts
        if how == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        if how == "iter":
            stack = self._stack

            def drain(it, owner):
                for item in it:
                    counts[name] += 1
                    if owner:
                        counts[owner] += 1
                    yield item

            @functools.wraps(fn)
            def iterated(*args, **kwargs):
                # The items are drawn after the call returns, inside the span
                # that made it; credit them to that span as visited.
                owner = stack[-1][0] + ".visited" if stack else None
                return drain(fn(*args, **kwargs), owner)

            return iterated
        enter, exit_ = self._enter, self._exit
        out_bytes = name == "cli.run"
        suffix, count = RESULT_COUNTS.get(name, (None, None))

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if out_bytes:
                before = sys.stdout.tell()
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if out_bytes:
                counts[name + ".out_bytes"] += sys.stdout.tell() - before
            if count is not None:
                counts[f"{name}.{suffix}"] += count(result)
            return result

        return spanned

    def install(self):
        """Wrap every target in every loaded kostant module that binds it."""
        for module_name in {t[1] for t in self.targets}:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass  # its targets are reported missing below
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "kostant" or n.startswith("kostant."))]
        for name, module_name, attr, how in self.targets:
            owner_name, _, key = attr.rpartition(".")
            owner = sys.modules.get(module_name)
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = vars(owner).get(key) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, how)
            if owner_name:
                bindings = [(owner, key)]
            else:
                bindings = [(mod, k) for mod in modules
                            for k, value in list(vars(mod).items()) if value is original]
            for mod, k in bindings:
                setattr(mod, k, wrapper)
                self._patches.append((mod, k, original))

    def uninstall(self):
        """Put every wrapped name back as it was."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def summary(self, factor=1.0):
        """Per-layer metrics of the present targets; times scaled by `factor`."""
        c = self.counts
        out = {"trace.spans": self.n_spans}
        for name, _, _, how in self.targets:
            if name in self.missing:
                continue
            if how != "span":
                out[name] = c[name]
                continue
            calls = c[name + ".calls"]
            self_ms = self.self_s[name] * factor * 1e3
            out[name + ".calls"] = calls
            out[name + ".self_ms"] = self_ms
            out[name + ".us_per_call"] = self_ms * 1e3 / calls if calls else 0.0
            if name in RESULT_COUNTS:
                suffix = RESULT_COUNTS[name][0]
                out[f"{name}.{suffix}"] = c[f"{name}.{suffix}"]
            if name == "cli.run":
                out[name + ".out_bytes"] = c[name + ".out_bytes"]
        brute = "alternation.alt_set_bruteforce"
        if brute not in self.missing:
            visited = c[brute + ".visited"]
            out[brute + ".kept_frac"] = c[brute + ".kept"] / visited if visited else 0.0
        q = "partition.kostant_q"
        if q not in self.missing:
            out[q + ".zero_frac"] = c[q + ".zero"] / c[q + ".calls"] if c[q + ".calls"] else 0.0
        return out

    def write(self, path):
        """Write the kept spans and the folded tallies as JSON."""
        doc = {
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
            "folded": [[p, n, k, s] for (p, n), (k, s) in self.folded.items()],
            "spans_total": self.n_spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
