"""Layer spans recorded from outside temponet.

The tracer replaces public functions in the module namespaces where
``temponet.pipeline``, ``temponet.assembler``, ``temponet.transition`` and
``temponet.lifecycle`` bind them (plus ``Snapshot.validate``) with timing
wrappers, and restores the originals afterwards.  No code inside
``src/temponet`` changes, and untraced runs call the original functions.

Every wrapped call becomes a span ``(name, start, end, parent)`` kept in
memory.  ``lifecycle.jaccard`` runs hundreds of thousands of times per run on
tiny sets, so it is a *leaf*: its calls are counted and timed in aggregate
and charged to the enclosing span instead of becoming spans of their own.
Counts come from return values (links and repairs of ``wire_*``, moves from
the ``taboo_search`` trace list, the pool winner from the VIs).
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter

import temponet
from temponet import assembler, lifecycle, pipeline, transition

# seed_pool returns its members in this order (transition.seed_pool)
POOL_HEURISTICS = ("mi_greedy", "sorted_residual", "max_chunk", "northwest", "proportional_fill")


class Tracer:
    """In-memory span recorder with install/remove of the module wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.leaf_time: list[float] = []  # leaf seconds charged to each span
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.counts: dict[str, float] = defaultdict(float)
        self.raised: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.leaf_time.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A span the benchmark makes itself (the flow workload's transitions)."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _span(self, name, fn, on_return=None, prepare=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.raised[name] += 1
                raise
            finally:
                tracer._close(sid)
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        return traced

    def _leaf(self, name, fn):
        tracer = self
        agg = self.leaves[name]

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                agg[0] += 1
                agg[1] += dt
                if tracer._stack:
                    tracer.leaf_time[tracer._stack[-1]] += dt

        return timed

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr, name, **hooks):
        self._patch(owner, attr, self._span(name, getattr(owner, attr), **hooks))

    def leaf(self, owner, attr, name):
        self._patch(owner, attr, self._leaf(name, getattr(owner, attr)))

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        counts = self.counts

        def wired(result, args, kwargs):
            links, repairs = result
            counts["wire_links"] += len(links)
            counts["wire_repairs"] += repairs

        def assembled(result, args, kwargs):
            counts["snapshots"] += 1

        def pooled(result, args, kwargs):
            vis = [transition.variation_of_information(u) for u in result]
            winner = min(range(len(vis)), key=lambda i: (vis[i], i))
            counts[f"pool_wins.{POOL_HEURISTICS[winner]}"] += 1

        def with_trace(args, kwargs):
            if kwargs.get("trace") is None and len(args) < 5:
                kwargs = dict(kwargs, trace=[])
            return args, kwargs

        def searched(result, args, kwargs):
            trace = kwargs.get("trace") if "trace" in kwargs else args[4]
            counts["taboo_moves"] += trace[-1][0] if trace else 0
            seed = args[1] if len(args) > 1 else kwargs.get("seed")
            if seed is not None:
                counts["vi_gain"] += transition.variation_of_information(
                    seed
                ) - transition.variation_of_information(result)

        for owner in (pipeline, assembler):
            self.span(owner, "check_graphable", "graphability.check")
        p = pipeline
        self.span(p, "run", "pipeline.run")
        self.span(p, "load_sequences", "sequences.load")
        self.span(p, "plan_transition", "pipeline.plan_transition")
        self.span(p, "assemble_snapshot", "assembler.assemble", on_return=assembled)
        self.span(p, "build_flow_system", "transition.build")
        self.span(p, "seed_pool", "transition.seed_pool", on_return=pooled)
        self.span(p, "kernel_basis", "transition.kernel_basis")
        self.span(p, "taboo_search", "transition.taboo", on_return=searched, prepare=with_trace)
        self.span(p, "materialize_flow", "transition.materialize")
        self.span(p, "classify_events", "lifecycle.classify")
        self.span(p, "assortativity_details", "metrics.assortativity")
        self.span(p, "modularity", "metrics.modularity")
        self.span(p, "temporal_degree_correlation_details", "metrics.temporal_corr")
        self.span(p, "export_temporal_csv", "output.export")
        self.span(p, "write_report", "output.report")
        self.leaf(p, "jaccard", "lifecycle.jaccard")
        a = assembler
        self.span(a, "assign_nodes", "assembler.assign")
        self.span(a, "repair_intra_parity", "assembler.parity")
        self.span(a, "wire_intra", "assembler.wire_intra", on_return=wired)
        self.span(a, "wire_inter", "assembler.wire_inter", on_return=wired)
        self.span(a, "check_connectivity", "assembler.connectivity")
        self.span(a.Snapshot, "validate", "assembler.validate")
        t = transition
        self.span(t, "mi_greedy", "transition.mi_greedy")
        self.span(t, "sorted_residual_greedy", "transition.sorted_residual")
        self.span(t, "max_chunk_greedy", "transition.max_chunk")
        self.span(t, "northwest_sorted", "transition.northwest")
        self.span(t, "proportional_fill", "transition.proportional_fill")
        self.leaf(lifecycle, "jaccard", "lifecycle.jaccard")

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived numbers ----------------------------------------------------

    def busy(self) -> dict[str, float]:
        """Inclusive seconds per span name (leaves: their aggregate time)."""
        out: dict[str, float] = defaultdict(float)
        for name, a, b in zip(self.names, self.start, self.end):
            out[name] += b - a
        for name, (_, secs) in self.leaves.items():
            out[name] += secs
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name in self.names:
            out[name] += 1
        for name, (n, _) in self.leaves.items():
            out[name] += n
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Seconds per name outside every child span and leaf call."""
        child = [0.0] * len(self.names)
        for sid, par in enumerate(self.parent):
            if par >= 0:
                child[par] += self.end[sid] - self.start[sid]
        out: dict[str, float] = defaultdict(float)
        for sid, name in enumerate(self.names):
            out[name] += self.end[sid] - self.start[sid] - child[sid] - self.leaf_time[sid]
        for name, (_, secs) in self.leaves.items():
            out[name] += secs
        return dict(out)

    def dump(self, path, wall_s: float) -> None:
        """Write every span plus the derived self times as JSON."""
        doc = {
            "temponet_version": temponet.__version__,
            "wall_s": wall_s,
            "spans": [
                [n, a, b, p] for n, a, b, p in zip(self.names, self.start, self.end, self.parent)
            ],
            "leaves": {name: {"calls": n, "seconds": s} for name, (n, s) in self.leaves.items()},
            "self_s": self.self_times(),
            "busy_s": self.busy(),
            "counts": dict(self.counts),
            "raised": dict(self.raised),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

