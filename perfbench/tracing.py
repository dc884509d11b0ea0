"""Layer tracing for the benchmark: spans around calls into braidfact.

The tracer replaces module attributes with timing wrappers, under the name
each calling module imported the function as (``braidfact.braid._kernel_normal_form``,
``braidfact.factorization.normalized``, ``braidfact.cli.search_factorization``,
...).  No code under ``src/`` changes.  Each call records one span: name,
start, end and the span that was open when it began.  Spans live in flat
arrays while the batch runs; at exit they are written to a file and every
layer's self time is derived from them (a span's duration minus the time
its child spans cover).

Bindings that do not exist are skipped, so the tracer keeps working when a
later version of the library renames or deletes a private function; the
metrics that depend on it then read 0.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from collections import defaultdict

# Value-layer functions of braidfact.braid, wrapped in every module that
# imported them.  braid's own bindings are wrapped too, so calls made by the
# conjugacy code inside braid are attributed to the value layer.
VALUE_FUNCS = ("canonical_form", "normalized", "equals", "enumerate_braids")
VALUE_MODULES = ("braid", "factorization", "equivalence", "complement", "cli")


# Counter hooks: called with (counters, call arguments, result).
def _count_kernel(c, args, result):
    c["kernel.letters"] += len(args[1])


def _count_conjugacy(c, args, result):
    c["braid.conjugacy.work"] += result.work


def _count_search(c, args, result):
    c["search.found"] += result is not None


def _count_decide(c, args, result):
    c["equivalence.decide.states"] += result.states
    c["decide.conclusive"] += result.outcome != "inconclusive"


def _count_zvk(c, args, result):
    c["complement.zvk.relator_letters"] += sum(len(r) for r in result.relators)


def _count_order(c, args, result):
    c["complement.order.unknown"] += result is None


def _count_homs(c, args, result):
    c["complement.homs.found"] += len(result)


# (module, attribute, span name, counter hook or None)
ALGORITHM_WRAPS = (
    ("braid", "_kernel_normal_form", "kernel.normal_form", _count_kernel),
    ("braid", "conjugacy_test", "braid.conjugacy", _count_conjugacy),
    ("cli", "search_factorization", "factorization.search", _count_search),
    ("equivalence", "hurwitz_move", "factorization.hurwitz_move", None),
    ("cli", "hurwitz_move", "factorization.hurwitz_move", None),
    ("factorization", "validate", "factorization.validate", None),
    ("equivalence", "validate", "factorization.validate", None),
    ("complement", "validate", "factorization.validate", None),
    ("cli", "validate", "factorization.validate", None),
    ("equivalence", "decide_equivalence", "equivalence.decide", _count_decide),
    ("cli", "decide_equivalence", "equivalence.decide", _count_decide),
    ("cli", "zvk_presentation", "complement.zvk", _count_zvk),
    ("cli", "simplify", "complement.simplify", None),
    ("cli", "group_order", "complement.order", _count_order),
    ("cli", "enumerate_homs", "complement.homs", _count_homs),
    ("cli", "main", "cli.main", None),
)

# Per-layer metrics, in the order BENCHMARK.json lists them, with units.
LAYER_METRICS = (
    ("kernel.calls", "count"),
    ("kernel.letters", "count"),
    ("kernel.self_s", "s"),
    ("kernel.share", "ratio"),
    ("braid.nf_lookups", "count"),
    ("braid.nf_cache_hit_ratio", "ratio"),
    ("braid.self_s", "s"),
    ("braid.conjugacy.calls", "count"),
    ("braid.conjugacy.work", "count"),
    ("braid.conjugacy.self_s", "s"),
    ("factorization.search.calls", "count"),
    ("factorization.search.self_s", "s"),
    ("factorization.search.found_ratio", "ratio"),
    ("factorization.hurwitz_move.calls", "count"),
    ("factorization.hurwitz_move.self_s", "s"),
    ("factorization.validate.calls", "count"),
    ("equivalence.decide.calls", "count"),
    ("equivalence.decide.states", "count"),
    ("equivalence.decide.self_s", "s"),
    ("equivalence.conclusive_ratio", "ratio"),
    ("complement.zvk.self_s", "s"),
    ("complement.zvk.relator_letters", "count"),
    ("complement.simplify.self_s", "s"),
    ("complement.order.self_s", "s"),
    ("complement.order.unknown", "count"),
    ("complement.homs.self_s", "s"),
    ("complement.homs.found", "count"),
    ("cli.self_s", "s"),
    ("cli.calls", "count"),
    ("trace_overhead_s", "s"),
)


class Tracer:
    """Records spans and counters for calls into braidfact's layers.

    Use as a context manager: wrappers are installed on entry and the
    original attributes restored on exit.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name` and return its result."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def _wrap(self, fn, name: str, hook):
        nid = self._name_id(name)
        calls_key = name + ".calls"
        counters = self.counters
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            counters[calls_key] += 1
            if hook is not None:
                hook(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_only(self, fn, key: str):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation --------------------------------------------------

    def _replace(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def __enter__(self):
        mods = {m: importlib.import_module("braidfact." + m) for m in VALUE_MODULES}
        for m in VALUE_MODULES:
            for attr in VALUE_FUNCS:
                fn = getattr(mods[m], attr, None)
                if fn is not None:
                    self._replace(mods[m], attr, self._wrap(fn, "braid." + attr, None))
        for m, attr, name, hook in ALGORITHM_WRAPS:
            fn = getattr(mods[m], attr, None)
            if fn is not None:
                self._replace(mods[m], attr, self._wrap(fn, name, hook))
        lookup = getattr(mods["braid"], "_cached_nf", None)
        if lookup is not None:
            self._replace(mods["braid"], "_cached_nf", self._count_only(lookup, "braid.nf_lookups"))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    # -- results -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus time covered by children."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: 0.0 for name in self.names}
        names, name_of = self.names, self.name_of
        for i in range(n):
            out[names[name_of[i]]] += end[i] - start[i] - child[i]
        return out

    def write_spans(self, path) -> None:
        """Write every span as `name<TAB>start_s<TAB>end_s<TAB>parent` (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# name\tstart_s\tend_s\tparent_index\n")
            names, name_of = self.names, self.name_of
            for i in range(len(self.start)):
                fh.write(
                    f"{names[name_of[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n"
                )

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """The per-layer metrics of LAYER_METRICS, except trace_overhead_s."""
        st = self.self_times()
        c = self.counters

        def calls(name):
            return c[name + ".calls"]

        def self_s(*names):
            return sum(st.get(n, 0.0) for n in names)

        value_spans = ["braid." + f for f in VALUE_FUNCS]
        kernel_calls = calls("kernel.normal_form")
        lookups = c["braid.nf_lookups"]
        searches = calls("factorization.search")
        decides = calls("equivalence.decide")
        kernel_self = self_s("kernel.normal_form")
        return {
            "kernel.calls": kernel_calls,
            "kernel.letters": c["kernel.letters"],
            "kernel.self_s": kernel_self,
            "kernel.share": kernel_self / wall_s if wall_s > 0 else 0.0,
            "braid.nf_lookups": lookups,
            "braid.nf_cache_hit_ratio": 1 - kernel_calls / lookups if lookups else 0.0,
            "braid.self_s": self_s(*value_spans),
            "braid.conjugacy.calls": calls("braid.conjugacy"),
            "braid.conjugacy.work": c["braid.conjugacy.work"],
            "braid.conjugacy.self_s": self_s("braid.conjugacy"),
            "factorization.search.calls": searches,
            "factorization.search.self_s": self_s("factorization.search"),
            "factorization.search.found_ratio": c["search.found"] / searches if searches else 0.0,
            "factorization.hurwitz_move.calls": calls("factorization.hurwitz_move"),
            "factorization.hurwitz_move.self_s": self_s("factorization.hurwitz_move"),
            "factorization.validate.calls": calls("factorization.validate"),
            "equivalence.decide.calls": decides,
            "equivalence.decide.states": c["equivalence.decide.states"],
            "equivalence.decide.self_s": self_s("equivalence.decide"),
            "equivalence.conclusive_ratio": c["decide.conclusive"] / decides if decides else 0.0,
            "complement.zvk.self_s": self_s("complement.zvk"),
            "complement.zvk.relator_letters": c["complement.zvk.relator_letters"],
            "complement.simplify.self_s": self_s("complement.simplify"),
            "complement.order.self_s": self_s("complement.order"),
            "complement.order.unknown": c["complement.order.unknown"],
            "complement.homs.self_s": self_s("complement.homs"),
            "complement.homs.found": c["complement.homs.found"],
            "cli.self_s": self_s("cli.main"),
            "cli.calls": calls("cli.main"),
        }
