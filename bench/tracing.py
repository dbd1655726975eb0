"""Per-layer tracing for the benchmark, installed from outside the library.

Each traced function is replaced by a wrapper in every finsemi module that
holds a binding to it: `from .x import f` copies the binding, so patching
only the defining module would miss the calls made through the copies.

Span functions record a span per call (name, start, end, parent span);
count functions, the hot inner ones, only count calls.  A layer's self
time is its spans' duration minus the part covered by child spans.  Spans
stay in memory, up to SPAN_CAP of them, and are written out when the run
ends; self times and counts are aggregated over every call, kept or not.
A traced run installs the wrappers before set-up, so its per-layer
metrics include set-up: the corpus enumeration and one warm-up visit of
every workload's decisions.
"""

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

SPAN_CAP = 300_000

# (module, attribute, metric prefix, mode).  Green's relations are traced
# at the computation, not at the cached accessor, so `calls` counts
# computations.
TARGETS = [
    ("semigroups", "_compute_green", "semigroups.green", "span"),
    ("semigroups", "quotient", "semigroups.quotient", "span"),
    ("semigroups", "local_monoid", "semigroups.local_monoid", "span"),
    ("semigroups", "canonical_table", "semigroups.canonical_table", "span"),
    ("malcev", "mu_z", "malcev.mu_z", "span"),
    ("malcev", "malcev_member", "malcev.malcev_member", "span"),
    ("malcev", "locality_commutation_check",
     "malcev.locality_commutation_check", "span"),
    ("terms", "satisfies", "terms.satisfies", "span"),
    ("terms", "evaluate", "terms.evaluate", "count"),
    ("terms", "prefix_word", "terms.prefix_word", "count"),
    ("dk", "vdk_satisfies", "dk.vdk_satisfies", "span"),
    ("dk", "phi_k_term", "dk.phi_k_term", "span"),
    ("dk", "phi_k", "dk.phi_k", "count"),
    ("pseudovarieties", "word_problem_equal",
     "pseudovarieties.word_problem_equal", "span"),
    ("pseudovarieties", "member", "pseudovarieties.member", "span"),
    ("pseudovarieties", "proves_equal_over_S",
     "pseudovarieties.proves_equal_over_S", "span"),
    ("pseudovarieties", "canon", "pseudovarieties.canon", "count"),
    ("pseudovarieties", "refute_over_models",
     "pseudovarieties.refute_over_models", "span"),
    ("factorization", "ilbf2", "factorization.ilbf2", "span"),
    ("factorization", "ilbf_term", "factorization.ilbf_term", "span"),
    ("factorization", "r_equal", "factorization.r_equal", "span"),
    ("factorization", "term_signature", "factorization.term_signature", "count"),
    ("corpus", "enumerate_semigroups", "corpus.enumerate_semigroups", "span"),
    ("languages", "parse_regex", "languages.parse_regex", "span"),
    ("languages", "syntactic_semigroup", "languages.syntactic_semigroup", "span"),
]

# The per-layer metrics a traced run reports, as BENCHMARK.json names them.
PER_LAYER = [m["name"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]]


def _finsemi_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "finsemi" or name.startswith("finsemi."))]


class Tracer:
    """Span and count recorder.  `active` is cleared while the benchmark
    runs its own oracle checks, so that they do not count as layer work."""

    def __init__(self):
        self.active = True
        self.names = []
        self.name_index = {}
        self.calls = []
        self.self_s = []
        self.distinct = {}  # metric prefix -> set of keys
        self.hits = {}  # metric prefix -> count of calls with a marked result
        self.stack = []  # per open span: [span id, start, child time]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.originals = []  # (module, attribute, original) to restore

    def _index(self, name):
        idx = self.name_index.get(name)
        if idx is None:
            idx = self.name_index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return idx

    def span(self, name):
        """Context manager recording one span, for the benchmark's own
        decision boundaries."""
        return _Span(self, self._index(name))

    def _enter(self, idx):
        start = perf_counter()
        sid = -1
        if len(self.span_start) < SPAN_CAP:
            sid = len(self.span_start)
            self.span_name.append(idx)
            self.span_parent.append(self.stack[-1][0] if self.stack else -1)
            self.span_start.append(start)
            self.span_end.append(0.0)
        else:
            self.dropped += 1
        self.stack.append([sid, start, 0.0])

    def _exit(self, idx):
        end = perf_counter()
        sid, start, child = self.stack.pop()
        dur = end - start
        self.calls[idx] += 1
        self.self_s[idx] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if sid >= 0:
            self.span_end[sid] = end

    def _wrap(self, prefix, mode, fn):
        idx = self._index(prefix)
        calls = self.calls
        tracer = self

        if mode == "count":
            def counted(*args, **kwargs):
                if tracer.active:
                    calls[idx] += 1
                return fn(*args, **kwargs)
            return counted

        mark = _MARKS.get(prefix)
        distinct_key = _DISTINCT.get(prefix)
        if distinct_key is not None:
            self.distinct[prefix] = set()
        if mark is not None:
            self.hits[prefix] = 0

        def spanned(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(idx)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if distinct_key is not None:
                tracer.distinct[prefix].add(distinct_key(args))
            if mark is not None and mark(res):
                tracer.hits[prefix] += 1
            return res
        return spanned

    def install(self):
        """Wrap every target at every finsemi binding of it."""
        import finsemi  # noqa: F401  (loads every submodule)
        modules = _finsemi_modules()
        for mod_name, attr, prefix, mode in TARGETS:
            home = sys.modules[f"finsemi.{mod_name}"]
            fn = getattr(home, attr)
            wrapper = self._wrap(prefix, mode, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self.originals.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, fn in reversed(self.originals):
            setattr(mod, key, fn)
        self.originals.clear()

    def value(self, name):
        """Aggregate of one per-layer metric, by its BENCHMARK.json name."""
        prefix, _, field = name.rpartition(".")
        if field.startswith("distinct_"):
            return len(self.distinct[prefix])
        i = self.name_index[prefix]
        if field == "calls":
            return self.calls[i]
        if field == "self_s":
            return self.self_s[i]
        # a share of calls with a marked result
        return self.hits[prefix] / self.calls[i] if self.calls[i] else 0.0

    def write_spans(self, path):
        """Write the kept spans as JSON: names, then one
        [name index, parent span, start, end] row per span."""
        rows = [[self.span_name[i], self.span_parent[i],
                 round(self.span_start[i], 7), round(self.span_end[i], 7)]
                for i in range(len(self.span_start))]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "dropped": self.dropped,
                       "spans": rows}, fh, separators=(",", ":"))


class _Span:
    def __init__(self, tracer, idx):
        self.tracer = tracer
        self.idx = idx

    def __enter__(self):
        self.tracer._enter(self.idx)

    def __exit__(self, *exc):
        self.tracer._exit(self.idx)
        return False


# Extra per-call statistics for some spans.
_DISTINCT = {
    "semigroups.green": lambda args: args[0].table,
    "malcev.mu_z": lambda args: (args[0].table, args[1]),
}
_MARKS = {
    "pseudovarieties.proves_equal_over_S": lambda res: res.proved,
    "factorization.ilbf_term": lambda res: res.outcome == "unknown",
}
