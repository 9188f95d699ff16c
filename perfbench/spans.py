"""Span tracing of wdrd from outside the package.

`Tracer.install` replaces wdrd's public entry points with timing wrappers in
every wdrd module that holds them, so a call is caught wherever the caller
looks the function up: `search` reaches the kernel through
`wdrd.kernel.search_run`, and `canonical_form` through its own module
global.  `Digraph` methods are wrapped on the class.  No file of the package
is changed, and `uninstall` puts every original back.

Each span is (id, parent, layer, name, start, end, pid, counts).  Ids are
"<pid>.<seq>", so spans from forked pool workers stay unique; a worker
inherits the span stack at fork time, so its kernel spans point at the pool
span that forked it.  Workers append their spans to a spool file per pid,
which `collect` reads back; the parent keeps its own in memory.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path

# layer -> (defining module, public names); "Digraph." names are methods.
LAYERS = {
    "kernel": ("wdrd.kernel", ("search_run",)),
    "search": ("wdrd.search", ("search_commutative_wdrd",)),
    "canon": ("wdrd.canon", ("canonical_form", "canonical_digraph",
                             "canonical_permutation", "are_isomorphic")),
    "analysis": ("wdrd.analysis", ("wdrd_report", "type_set",
                                   "verify_local_counts", "arc_purity",
                                   "mu_case", "classify_common_neighbour")),
    "scheme": ("wdrd.scheme", ("attached_partition", "distance_partition",
                               "verify_association_scheme", "is_commutative",
                               "is_symmetric_scheme", "is_primitive",
                               "check_intersection_identities",
                               "intersection_matrix", "matrices_commute",
                               "scheme_table")),
    "digraph": ("wdrd.digraph", ("parse_dgf", "format_dgf",
                                 "Digraph.from_arcs", "Digraph.from_out_masks",
                                 "Digraph.reverse", "Digraph.is_strongly_connected",
                                 "Digraph.distance_matrix",
                                 "Digraph.two_way_distance_set",
                                 "Digraph.underlying_graph",
                                 "Digraph.common_neighbours")),
    "structure": ("wdrd.structure", ("verify_neighbourhood_structure",
                                     "mu_graph_property", "y_sets",
                                     "subset_swap")),
    "generators": ("wdrd.generators", ("johnson", "folded_johnson",
                                       "cayley_cyclic", "complete_graph",
                                       "intersection_array", "predicted_array")),
    "cli": ("wdrd.cli", ("run",)),
}

ITERATION = ("bench", "iteration")


def _kernel_counts(result) -> dict:
    counts = {k: v for k, v in result.items() if isinstance(v, int)}
    counts["survivors"] = len(result.get("survivors", ()))
    return counts


def _form_counts(result) -> dict:
    return {"form": result.hex()}


def _scheme_counts(result) -> dict:
    return {"valid": int(type(result).__name__ == "AssociationScheme")}


# what a span keeps from a return value, for the counters computed from it
OBSERVE = {
    ("kernel", "search_run"): _kernel_counts,
    ("canon", "canonical_form"): _form_counts,
    ("scheme", "verify_association_scheme"): _scheme_counts,
}


class Tracer:
    """Records spans around wdrd's entry points while `on` is set."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.pid = os.getpid()
        self.on = False
        self.spans: list[tuple] = []
        self._stack: list[str] = []
        self._seq = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self) -> tuple[str, str | None, float]:
        self._seq += 1
        sid = f"{os.getpid()}.{self._seq}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid, parent, layer, name, start, counts=None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span = (sid, parent, layer, name, start, end, os.getpid(), counts)
        if os.getpid() == self.pid:
            self.spans.append(span)
        else:
            with open(self.spool / f"{os.getpid()}.jsonl", "a") as fh:
                fh.write(json.dumps(span) + "\n")

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """Records one span of the benchmark's own around the block."""
        sid, parent, start = self._open()
        try:
            yield
        finally:
            self._close(sid, parent, layer, name, start)

    def wrap(self, layer: str, name: str, fn):
        tracer = self
        observe = OBSERVE.get((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            sid, parent, start = tracer._open()
            counts = None
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    counts = observe(result)
                return result
            finally:
                tracer._close(sid, parent, layer, name, start, counts)

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import wdrd.search
        from wdrd.digraph import Digraph

        originals = {}
        for layer, (modname, names) in LAYERS.items():
            module = sys.modules[modname]
            for name in names:
                if name.startswith("Digraph."):
                    attr = name.split(".", 1)[1]
                    raw = Digraph.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(layer, name, raw.__func__))
                    else:
                        new = self.wrap(layer, name, raw)
                    self._set(Digraph, attr, new)
                else:
                    fn = getattr(module, name)
                    originals[id(fn)] = (fn, self.wrap(layer, name, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "wdrd" and not modname.startswith("wdrd."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        self._set(wdrd.search, "ProcessPoolExecutor",
                  self._pool_class(wdrd.search.ProcessPoolExecutor))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """Records the pool's lifetime as a `search` span."""

            def __enter__(self):
                self._span = tracer._open() if tracer.on else None
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    if self._span is not None:
                        sid, parent, start = self._span
                        tracer._close(sid, parent, "search", "pool", start)

        return TracedPool

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def collect(self) -> list[tuple]:
        """All spans so far, the workers' spool files included."""
        for path in sorted(self.spool.glob("*.jsonl")):
            with open(path) as fh:
                self.spans.extend(tuple(json.loads(line)) for line in fh)
            path.unlink()
        return self.spans


# -- per-layer metrics ------------------------------------------------------

def _self_time(span, children) -> float:
    """Duration minus the part of it that child spans cover."""
    start, end = span[4], span[5]
    covered = 0.0
    reach = start
    for c in sorted(children, key=lambda s: s[4]):
        lo, hi = max(c[4], reach), min(c[5], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return end - start - covered


class _Tree:
    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children: dict[str, list] = {}
        for s in spans:
            self.children.setdefault(s[1], []).append(s)

    def outermost(self, layer):
        """Spans of `layer` with no ancestor of the same layer."""
        out = []
        for s in self.spans:
            if s[2] != layer:
                continue
            p = self.by_id.get(s[1])
            while p is not None and p[2] != layer:
                p = self.by_id.get(p[1])
            if p is None:
                out.append(s)
        return out

    def self_time(self, spans) -> float:
        return sum(_self_time(s, self.children.get(s[0], ())) for s in spans)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def iteration_metrics(spans) -> dict:
    """Per-layer metrics of one iteration's spans."""
    tree = _Tree(spans)
    m: dict[str, float] = {}
    for layer in ("canon", "analysis", "scheme", "digraph", "structure"):
        outer = tree.outermost(layer)
        m[f"{layer}.busy_s"] = sum(s[5] - s[4] for s in outer)
        m[f"{layer}.calls"] = len(outer)

    kernel = [s for s in spans if s[2] == "kernel"]
    total = {}
    for s in kernel:
        for k, v in (s[7] or {}).items():
            total[k] = total.get(k, 0) + v
    busy = sum(s[5] - s[4] for s in kernel)
    examined = total.get("examined", 0)
    skipped = sum(v for k, v in total.items() if k.startswith("skipped"))
    m["kernel.busy_s"] = busy
    m["kernel.calls"] = len(kernel)
    m["kernel.leaves_per_s"] = _ratio(examined, busy)
    m["kernel.leaves_examined"] = examined
    m["kernel.leaves_skipped"] = skipped
    m["kernel.examined_share"] = _ratio(examined, examined + skipped)
    m["kernel.survivors"] = total.get("survivors", 0)
    for k in ("symmetric", "not_strongly_connected", "axiom"):
        m[f"kernel.reject.{k}"] = total.get(k, 0)
    m["kernel.noncommutative"] = total.get("noncommutative", 0)

    searches = [s for s in spans if s[2:4] == ("search", "search_commutative_wdrd")]
    pools = [s for s in spans if s[2:4] == ("search", "pool")]
    m["search.self_s"] = tree.self_time(searches)
    m["search.pool_s"] = tree.self_time(pools)
    m["search.branches"] = _ratio(len(kernel), len(searches))
    durations = [s[5] - s[4] for s in kernel]
    m["search.branch_imbalance"] = (
        max(durations) / statistics.mean(durations) if durations else 0.0)
    m["cli.self_s"] = tree.self_time([s for s in spans if s[2] == "cli"])

    forms = [s[7]["form"] for s in spans
             if s[2:4] == ("canon", "canonical_form") and s[7]]
    m["canon.dedupe_ratio"] = _ratio(len(set(forms)), len(forms))
    verdicts = [s[7]["valid"] for s in spans
                if s[2:4] == ("scheme", "verify_association_scheme") and s[7]]
    m["scheme.valid_ratio"] = _ratio(sum(verdicts), len(verdicts))
    return m


def layer_metrics(spans, setup_window) -> dict:
    """Medians over iterations of the per-iteration metrics, plus the
    generator time of the set-up phase in `setup_window` (start, end)."""
    iterations = [s for s in spans if s[2:4] == ITERATION]
    per_iter = []
    for it in iterations:
        inside = [s for s in spans if s is not it
                  and it[4] <= s[4] and s[5] <= it[5]]
        per_iter.append(iteration_metrics(inside))
    out = {k: statistics.median(d[k] for d in per_iter) for k in per_iter[0]}
    lo, hi = setup_window
    setup = _Tree([s for s in spans if lo <= s[4] and s[5] <= hi])
    out["generators.busy_s"] = sum(
        s[5] - s[4] for s in setup.outermost("generators"))
    return out
