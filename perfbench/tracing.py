"""In-memory span tracing around the program's layer boundaries.

The tracer wraps public functions of ``core``, ``engine``, ``analysis``
and ``library`` from the outside (the program itself is not edited)
and records one span per call: name, start, end, its own id and the id
of the enclosing span.  Spans stay in memory and are written out once,
when the run ends.

Pool workers forked by the library builder inherit the wrapped
functions.  Each worker flushes its spans and counters to a file in
the trace directory when a grid cell finishes, and :meth:`Tracer.collect`
merges those files into the parent's spans before the run reports.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

from .common import percentile, ratio

#: (name, start_ns, end_ns, span_id, parent_id); ids are "pid.seq".
Span = Tuple[str, int, int, str, Optional[str]]


class Tracer:
    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._seq = 0
        self._tls = threading.local()
        self._undo: List[Tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child keeps the open-span stack (its spans nest under the
        # parent's open span) but none of the parent's finished spans.
        self.pid = os.getpid()
        self.spans = []
        self.counters = defaultdict(float)

    def _stack(self) -> List[str]:
        try:
            return self._tls.stack
        except AttributeError:
            self._tls.stack = []
            return self._tls.stack

    # ------------------------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``after(args, kwargs, result)`` runs inside the span's process
        once the call returns (used to read the program's counters).
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            tracer._seq += 1
            sid = f"{tracer.pid}.{tracer._seq}"
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.spans.append((name, start, end, sid, parent))
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] += value

    # ------------------------------------------------------------------
    def flush_worker(self) -> None:
        """Hand a forked worker's spans and counters to the parent."""
        if self.pid == self.root_pid or not (self.spans or self.counters):
            return
        path = os.path.join(self.directory, f"worker-{self.pid}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps({
                "spans": self.spans, "counters": dict(self.counters),
            }) + "\n")
        self.spans = []
        self.counters = defaultdict(float)

    def collect(self) -> None:
        """Merge every flushed worker file into this process's spans."""
        for entry in sorted(os.listdir(self.directory)):
            if not entry.startswith("worker-"):
                continue
            path = os.path.join(self.directory, entry)
            with open(path) as fh:
                for line in fh:
                    chunk = json.loads(line)
                    self.spans.extend(tuple(s) for s in chunk["spans"])
                    for key, value in chunk["counters"].items():
                        self.counters[key] += value
            os.remove(path)

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for name, start, end, sid, parent in self.spans:
                fh.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "id": sid, "parent": parent,
                }) + "\n")

    # ------------------------------------------------------------------
    def total_ms(self, name: str) -> float:
        return sum(e - s for n, s, e, _, _ in self.spans if n == name) / 1e6

    def calls(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def child_ms(self, parent_name: str,
                 child_names: Optional[Tuple[str, ...]] = None) -> float:
        """Time of the direct children of ``parent_name`` spans."""
        parents = {sid for n, _, _, sid, _ in self.spans if n == parent_name}
        return sum(
            e - s for n, s, e, _, p in self.spans
            if p in parents and (child_names is None or n in child_names)
        ) / 1e6


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (the span vocabulary)."""
    from repro.analysis import sweep
    from repro.core import chromosome, evolution
    from repro.engine import evaluator, kernels, native
    from repro.library import builder, store
    from repro.obs import catalog

    def read_engine_counters(args, kwargs, result) -> None:
        # evolve(seed, evaluator, ...): the objective's own counters.
        objective = args[1] if len(args) > 1 else kwargs["evaluator"]
        stats = getattr(objective, "stats", None)
        if stats is None:
            return
        s = stats()
        tracer.add("engine.cache_hits", s["cache"]["hits"])
        tracer.add("engine.cache_misses", s["cache"]["misses"])
        tracer.add("engine.batch_evals", s["batch"]["evals"])
        tracer.add("engine.batch_dedup", s["batch"]["dedup"])
        tracer.add("core.generations", result.generations)
        tracer.add("core.evaluations", result.evaluations)
        tracer.add("core.lam", result.generations * _lam(args, kwargs))

    def count_candidates(args, kwargs, result) -> None:
        tracer.add("engine.candidates", len(args[1]))

    compile_ns = catalog.ENGINE_COMPILE_NS

    def evolve_with_compile_delta(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            before = compile_ns.total()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add("engine.compile_ns", compile_ns.total() - before)
        return run

    def flush_after_cell(args, kwargs, result) -> None:
        tracer.flush_worker()

    tracer.wrap(evolution, "evolve", "evolve.run", after=read_engine_counters)
    evolution.evolve = evolve_with_compile_delta(evolution.evolve)
    # sweep imported the name; point it at the same wrapper.
    tracer._undo.append((sweep, "evolve", sweep.evolve))
    sweep.evolve = evolution.evolve
    tracer.wrap(evolution, "mutate", "core.mutate")
    tracer.wrap(chromosome.Chromosome, "active_gene_positions",
                "core.active_set")
    mixin = evaluator._EngineEvalMixin
    tracer.wrap(mixin, "evaluate_batch", "engine.evaluate_batch",
                after=count_candidates)
    tracer.wrap(mixin, "evaluate", "engine.evaluate")
    tracer.wrap(native.NativeLib, "eval_batch", "engine.kernel")
    tracer.wrap(evaluator._Runtime, "execute_lane_stats", "engine.kernel")
    tracer.wrap(kernels, "run_program_batch", "engine.kernel")
    tracer.wrap(sweep, "_front_task", "analysis.cell",
                after=flush_after_cell)
    tracer.wrap(builder, "build_library", "library.build")
    tracer.wrap(builder, "characterize_record", "library.characterize")
    tracer.wrap(store.DesignStore, "add", "library.store_add")
    tracer.wrap(store.DesignStore, "mark_cell", "library.mark_cell")


def _lam(args, kwargs) -> int:
    from repro.core.evolution import EvolutionConfig

    config = args[3] if len(args) > 3 else kwargs.get("config")
    return (config or EvolutionConfig()).lam


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The core/engine/library span figures of a traced run."""
    c = tracer.counters
    evolve_ms = tracer.total_ms("evolve.run")
    covered = tracer.child_ms(
        "evolve.run", ("core.mutate", "core.active_set",
                       "engine.evaluate_batch"),
    )
    batch_ms = tracer.total_ms("engine.evaluate_batch")
    kernel_in_batch = tracer.child_ms("engine.evaluate_batch",
                                      ("engine.kernel",))
    compile_ms = c["engine.compile_ns"] / 1e6
    # Cell spans are DesignPoint.wall_s as the pool worker measures it.
    cell_s = [(e - s) / 1e9 for n, s, e, _, _ in tracer.spans
              if n == "analysis.cell"]
    build_s = tracer.total_ms("library.build") / 1e3
    workers = os.cpu_count() or 1  # the builder's default pool width
    lookups = c["engine.cache_hits"] + c["engine.cache_misses"]
    return {
        "core.mutate.calls": tracer.calls("core.mutate"),
        "core.mutate.ms": tracer.total_ms("core.mutate"),
        "core.active_set.calls": tracer.calls("core.active_set"),
        "core.active_set.ms": tracer.total_ms("core.active_set"),
        "core.select.ms": evolve_ms - tracer.child_ms("evolve.run"),
        "core.neutral_skip_ratio": (
            1.0 - ratio(c["core.evaluations"], c["core.lam"])
            if c["core.lam"] else 0.0
        ),
        "core.evolve_span_coverage": ratio(covered, evolve_ms),
        "engine.evaluate_batch.calls": tracer.calls("engine.evaluate_batch"),
        "engine.evaluate_batch.ms": batch_ms,
        "engine.lanes": c["engine.batch_evals"],
        "engine.compile.ms": compile_ms,
        "engine.kernel.calls": tracer.calls("engine.kernel"),
        "engine.kernel.ms": tracer.total_ms("engine.kernel"),
        "engine.reduce.ms": (
            max(0.0, batch_ms - compile_ms - kernel_in_batch)
            if batch_ms else 0.0
        ),
        "engine.cache_hit_ratio": ratio(c["engine.cache_hits"], lookups),
        "engine.dedup_ratio": ratio(
            c["engine.batch_dedup"], c["engine.candidates"]
        ),
        "analysis.cell_s.p50": percentile(cell_s, 50),
        "analysis.cell_s.max": max(cell_s, default=0.0),
        "analysis.pool.busy_ratio": ratio(sum(cell_s), build_s * workers),
        "library.characterize.calls": tracer.calls("library.characterize"),
        "library.characterize.ms": tracer.total_ms("library.characterize"),
        "library.store_add.calls": tracer.calls("library.store_add"),
        "library.store_add.ms": tracer.total_ms("library.store_add"),
        "library.mark_cell.ms": tracer.total_ms("library.mark_cell"),
        "trace.spans": len(tracer.spans),
    }
