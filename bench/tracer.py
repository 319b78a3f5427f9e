"""Outside-in span tracer for the benchmark's traced run.

The tracer changes no engine code.  It wraps the engine's public functions
and methods from outside and rebinds every module binding that refers to
them: ``containment``, ``derivative`` and ``regexalg`` hold their own
``from .x import`` references, so patching only the defining module would
miss their calls.

A call that enters a layer from another layer (or from the harness) opens
a span: name, start, end and parent, kept in flat arrays in memory and
written out when the run ends.  A call that stays inside its caller's
layer, such as the recursion of ``deriv_symbol``, is only counted, except
for ``shortest_word``, which always gets its own span so that its
inclusive time and the derivatives taken under it can be reported.  A
layer's self time is the duration of its spans minus the time covered by
their child spans.

Tracing costs a wrapper call per engine call, so untraced numbers never
come from a traced pass; ``trace.overhead_frac`` reports the cost.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

ALPHABET_OPS = (
    "bottom", "top", "union", "intersect", "complement", "is_empty", "contains",
    "pick_witness", "symbol_key", "class_set", "is_equal", "is_subset", "word_of",
    "format_word", "format_set", "from_chars", "members", "finite", "cofinite",
)
REGEX_OPS = ALPHABET_OPS + ("set_of", "_decide")
SPAN_ARRAYS = (("name", "H"), ("parent", "i"), ("start", "d"), ("end", "d"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.spans = {field: array(code) for field, code in SPAN_ARRAYS}
        self.stack: list[tuple[int, str]] = []  # (span index, layer) of open spans
        self.hits: Counter = Counter()  # memo probes per layer
        self.misses: Counter = Counter()
        self.partitions = [0, 0]  # classes and partitions handed across layers
        self.visited = 0
        self.max_depth = 0
        self.in_search = 0  # open shortest_word spans
        self.search_derivs = 0
        self.sizes: Counter = Counter()  # builder table and cache sizes at retirement
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[tuple[object, str], object] = {}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Rebind every engine entry point to its wrapper; undone by ``uninstall``."""
        from symre import alphabet, containment, derivative, nextlit, regexalg, syntax

        for module, names in (
            (nextlit, ("next_literals", "next_of_ineq", "join", "left_join", "meet")),
            (derivative, ("deriv_symbol", "deriv_literal", "deriv_word", "pos_deriv", "neg_deriv")),
            (containment, ("shortest_word", "membership")),
        ):
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrapper(module, name, original)
                for m in [m for key, m in sys.modules.items() if key.split(".")[0] == "symre"]:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._saved.append((m, attr, value))
                            setattr(m, attr, wrapper)
        for cls, names in (
            (syntax.ExprBuilder, ("parse",)),
            (containment.Checker, ("check", "equivalent")),
            (regexalg.RegexAlgebra, REGEX_OPS),
            (alphabet.Algebra, ALPHABET_OPS),
            (alphabet.BitsetAlgebra, ALPHABET_OPS),
            (alphabet.IntervalAlgebra, ALPHABET_OPS),
            (alphabet.FiniteCofiniteAlgebra, ALPHABET_OPS),
        ):
            for name in names:
                if name in vars(cls):
                    original = vars(cls)[name]
                    self._saved.append((cls, name, original))
                    setattr(cls, name, self._wrapper(cls, name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _wrapper(self, owner, name: str, fn):
        key = (owner, name)
        if key not in self._wrappers:
            module = fn.__module__.rsplit(".", 1)[-1]
            label = f"{module}.{name}" if isinstance(owner, type(sys)) else f"{module}.{owner.__name__}.{name}"
            self._wrappers[key] = self._wrap(fn, module, label)
        return self._wrappers[key]

    def _wrap(self, fn, layer: str, label: str):
        nid = len(self.names)
        self.names.append(label)
        self.layers.append(layer)
        self.calls.append(0)
        calls, stack, perf = self.calls, self.stack, time.perf_counter
        names, parents, starts, ends = (self.spans[f] for f, _ in SPAN_ARRAYS)
        cache = {"deriv_symbol": "deriv_cache", "pos_deriv": "deriv_cache",
                 "neg_deriv": "deriv_cache", "next_literals": "next_cache"}.get(fn.__name__)
        partition = fn.__name__ in ("next_literals", "next_of_ineq")
        search = fn.__name__ == "shortest_word"
        is_check = label == "containment.Checker.check"
        counts_search = fn.__name__ == "deriv_symbol"
        tracer = self

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            if counts_search and tracer.in_search:
                tracer.search_derivs += 1
            if cache:
                before = len(getattr(args[0], cache))
            if stack and stack[-1][1] == layer and not search:
                out = fn(*args, **kwargs)
            else:
                idx = len(names)
                names.append(nid)
                parents.append(stack[-1][0] if stack else -1)
                starts.append(0.0)
                ends.append(0.0)
                stack.append((idx, layer))
                tracer.in_search += search
                t0 = perf()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    ends[idx] = perf()
                    starts[idx] = t0
                    stack.pop()
                    tracer.in_search -= search
                if partition:
                    tracer.partitions[0] += len(out)
                    tracer.partitions[1] += 1
            if cache:
                if len(getattr(args[0], cache)) == before:
                    tracer.hits[layer] += 1
                else:
                    tracer.misses[layer] += 1
            if is_check:
                tracer.visited += out.stats.visited
                tracer.max_depth = max(tracer.max_depth, out.stats.max_depth)
            return out

        return wrapper

    # -- builder statistics --------------------------------------------------

    def retire(self, builder) -> None:
        """Record the table and cache sizes of a builder the harness is done with."""
        from symre import FiniteCofiniteAlgebra, RegexAlgebra

        alg = builder.algebra
        self.sizes["table_nodes"] += len(builder._table)
        self.sizes["deriv_entries"] += len(builder.deriv_cache)
        self.sizes["next_entries"] += len(builder.next_cache)
        if isinstance(alg, FiniteCofiniteAlgebra):
            self.sizes["scan_steps"] += alg.scan_steps
        if isinstance(alg, RegexAlgebra):
            self.retire(alg.inner)

    # -- results -------------------------------------------------------------

    def layer_times(self) -> tuple[Counter, Counter]:
        """Self time per layer, and inclusive time of the outermost spans.

        The second result sums, over spans of the containment layer and over
        ``shortest_word`` spans, only those with no span of the same kind
        open above them, so nested checks are not counted twice.  Parents
        precede their children in the span arrays, so one forward sweep
        suffices.
        """
        names, parents, starts, ends = (self.spans[f] for f, _ in SPAN_ARRAYS)
        n = len(names)
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        kinds = {"containment": 1, "containment.shortest_word": 2}
        kind_of = [
            (kinds["containment"] if layer == "containment" else 0) | kinds.get(label, 0)
            for label, layer in zip(self.names, self.layers)
        ]
        self_time: Counter = Counter()
        outer: Counter = Counter()
        inside = bytearray(n)  # kinds of the spans open above and at each span
        for i in range(n):
            nid = names[i]
            duration = ends[i] - starts[i]
            self_time[self.layers[nid]] += duration - child[i]
            p = parents[i]
            above = inside[p] if p >= 0 else 0
            for key, bit in kinds.items():
                if kind_of[nid] & bit and not above & bit:
                    outer[key] += duration
            inside[i] = above | kind_of[nid]
        return self_time, outer

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, per traced pass."""
        self_time, outer = self.layer_times()
        calls = Counter()
        for label, layer, count in zip(self.names, self.layers, self.calls):
            calls[label] += count
            calls[layer] += count

        def ratio(layer):
            probes = self.hits[layer] + self.misses[layer]
            return self.hits[layer] / probes if probes else 0.0

        per = 1.0 / passes
        return {
            "syntax.parse_s": self_time["syntax"] * per,
            "syntax.parse_calls": calls["syntax.ExprBuilder.parse"] * per,
            "syntax.table_nodes": self.sizes["table_nodes"] * per,
            "containment.shortest_word.calls": calls["containment.shortest_word"] * per,
            "containment.shortest_word.s": outer["containment.shortest_word"] * per,
            "containment.shortest_word.deriv_calls": self.search_derivs * per,
            "containment.visited_pairs": self.visited * per,
            "containment.max_depth": float(self.max_depth),
            "containment.self_s": self_time["containment"] * per,
            "containment.us_per_pair": (
                outer["containment"] / self.visited * 1e6 if self.visited else 0.0
            ),
            "derivative.calls": calls["derivative"] * per,
            "derivative.self_s": self_time["derivative"] * per,
            "derivative.cache_hit_ratio": ratio("derivative"),
            "derivative.cache_entries": self.sizes["deriv_entries"] * per,
            "nextlit.calls": calls["nextlit"] * per,
            "nextlit.self_s": self_time["nextlit"] * per,
            "nextlit.cache_hit_ratio": ratio("nextlit"),
            "nextlit.cache_entries": self.sizes["next_entries"] * per,
            "nextlit.mean_classes": (
                self.partitions[0] / self.partitions[1] if self.partitions[1] else 0.0
            ),
            "alphabet.ops": calls["alphabet"] * per,
            "alphabet.self_s": self_time["alphabet"] * per,
            "alphabet.scan_steps": self.sizes["scan_steps"] * per,
            "regexalg.inner_checks": calls["regexalg.RegexAlgebra._decide"] * per,
            "regexalg.self_s": self_time["regexalg"] * per,
        }

    def write(self, path: Path) -> None:
        """Write the spans: one JSON header line, then the raw arrays in order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "layers": self.layers,
            "count": len(self.spans["name"]),
            "arrays": [[field, code] for field, code in SPAN_ARRAYS],
            "clock": "time.perf_counter seconds",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in SPAN_ARRAYS:
                self.spans[field].tofile(fh)


def read_spans(path: Path) -> tuple[dict, dict[str, array]]:
    """Read a span file written by ``Tracer.write``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for field, code in header["arrays"]:
            arrays[field] = array(code)
            arrays[field].fromfile(fh, header["count"])
    return header, arrays
