"""Shared plumbing of the benchmark: checkout layout, environment,
host fingerprint, statistics and the result line.

Everything the benchmark and the program under test write lands in
``.perfbench/`` inside the checkout: the native engine caches its
compiled kernel under ``$HOME/.cache`` and the metrics slab and
SQLite temporaries go to ``$TMPDIR``, so both are pointed there.  No
``REPRO_*`` variable is set: the program runs with its defaults.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from typing import Dict, Iterable, List, Optional, Sequence

PKG = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PKG)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

#: Variables the benchmark sets for itself and its child processes.
SET_BY_BENCHMARK = ("HOME", "TMPDIR", "PYTHONPATH")

#: The ``REPRO_*`` variables the benchmark was started with, taken when
#: this module is first imported, before ``prepare_environment``.
REPRO_ENV_AT_START = {
    k: v for k, v in os.environ.items() if k.startswith("REPRO_")
}

#: Every metric the benchmark can print, with its unit.  The self-test
#: checks this table against BENCHMARK.json.
UNITS: Dict[str, str] = {
    # end to end
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "result_area_um2": "um2",
    # core
    "core.mutate.calls": "count",
    "core.mutate.ms": "ms",
    "core.active_set.calls": "count",
    "core.active_set.ms": "ms",
    "core.select.ms": "ms",
    "core.neutral_skip_ratio": "ratio",
    "core.evolve_span_coverage": "ratio",
    # engine
    "engine.evaluate_batch.calls": "count",
    "engine.evaluate_batch.ms": "ms",
    "engine.lanes": "count",
    "engine.compile.ms": "ms",
    "engine.kernel.calls": "count",
    "engine.kernel.ms": "ms",
    "engine.reduce.ms": "ms",
    "engine.cache_hit_ratio": "ratio",
    "engine.dedup_ratio": "ratio",
    # analysis
    "analysis.cell_s.p50": "s",
    "analysis.cell_s.max": "s",
    "analysis.pool.busy_ratio": "ratio",
    # library
    "library.characterize.calls": "count",
    "library.characterize.ms": "ms",
    "library.store_add.calls": "count",
    "library.store_add.ms": "ms",
    "library.mark_cell.ms": "ms",
    "library.admitted": "count",
    "library.dominated": "count",
    "library.pruned": "count",
    # serve
    "serve.route.front.p50_ms": "ms",
    "serve.route.front.p99_ms": "ms",
    "serve.route.best.p50_ms": "ms",
    "serve.route.best.p99_ms": "ms",
    "serve.route.design.p50_ms": "ms",
    "serve.route.design.p99_ms": "ms",
    "serve.route.stats.p50_ms": "ms",
    "serve.route.stats.p99_ms": "ms",
    "serve.write_lag_ms": "ms",
    "serve.wire_hit_ratio": "ratio",
    "serve.response_cache_hit_ratio": "ratio",
    "serve.dispatch": "count",
    "serve.snapshot_rebuilds": "count",
    "serve.not_modified": "count",
    "serve.cpu_us_per_req": "us",
    # the traced run itself
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

END_TO_END = (
    "setup_s", "peak_rss_mb", "throughput_per_s", "p50_ms", "p99_ms",
    "result_area_um2",
)
PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)


def checkout_ok() -> bool:
    """Whether the program's sources are present next to the benchmark."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def prepare_environment() -> None:
    """Point every file the program writes at ``.perfbench/``.

    Must run before ``repro`` is imported.  Child processes (the server
    and the load generator) inherit the same environment.
    """
    home = os.path.join(STATE, "home")
    tmp = os.path.join(STATE, "tmp")
    os.makedirs(home, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    os.environ["HOME"] = home
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def run_dir(workload: str) -> str:
    """A fresh private directory for one run's stores and logs."""
    base = os.path.join(STATE, "runs")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{workload}-", dir=base)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def fingerprint() -> Dict[str, object]:
    """Host and configuration the numbers were measured under."""
    import numpy

    from repro.engine import native

    lib = native.native_lib()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "engine_backend": "native" if lib is not None else "numpy",
        "omp_compiled": bool(lib is not None and lib.omp_compiled()),
        "omp_threads": native.omp_threads(),
        "native_library": os.path.basename(lib.path) if lib else None,
        "native_host_tag": hashlib.blake2b(
            native._host_tag().encode(), digest_size=8
        ).hexdigest(),
        "repro_env": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith("REPRO_")
        },
        "repro_env_set_by_benchmark": repro_env_set_by_benchmark(),
        "env_set_by_benchmark": list(SET_BY_BENCHMARK),
    }


def repro_env_set_by_benchmark() -> List[str]:
    """``REPRO_*`` variables added, changed or removed since start-up."""
    now = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    return sorted(
        k for k in set(now) | set(REPRO_ENV_AT_START)
        if now.get(k) != REPRO_ENV_AT_START.get(k)
    )


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process (or of any waited child)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        peak = max(peak, children.ru_maxrss)
    return peak / 1024.0


#: A measured interval counts as disturbed when the hypervisor gave to
#: other guests more than this share of the CPU time this guest wanted.
STEAL_LIMIT = 0.1


def _cpu_ticks(cpu: Optional[int] = None) -> tuple:
    """(busy, steal) clock ticks from ``/proc/stat``.

    Of all CPUs, or of CPU ``cpu`` alone.  Busy is user + nice + system
    + irq + softirq: the CPU time the guest ran.  Both are 0 when
    ``/proc/stat`` cannot be read.
    """
    label = "cpu" if cpu is None else f"cpu{cpu}"
    fields = []
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                parts = line.split()
                if parts and parts[0] == label:
                    fields = [int(f) for f in parts[1:9]]
                    break
    except (OSError, ValueError):
        return 0, 0
    if len(fields) < 8:
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests (0 if unknown)."""
    return _cpu_ticks()[1] / os.sysconf("SC_CLK_TCK")


class StealMeter:
    """Share of the guest's wanted CPU time taken by other guests.

    The share is stolen / (busy + stolen) over one interval, so it does
    not depend on how many CPUs the program keeps busy: an idle CPU
    accrues no steal and adds nothing to either side.  ``cpu`` limits
    the meter to one CPU.
    """

    def __init__(self, cpu: Optional[int] = None) -> None:
        self.cpu = cpu
        self.busy, self.steal = _cpu_ticks(cpu)

    def share(self) -> float:
        busy, steal = _cpu_ticks(self.cpu)
        stolen = steal - self.steal
        return ratio(stolen, busy - self.busy + stolen)


def undisturbed(samples: Sequence, shares: Sequence[float]) -> list:
    """The samples measured while other guests left the CPUs alone.

    Host contention from other virtual machines comes in episodes of
    seconds and says nothing about the program, so figures are taken
    over the samples (operations or time windows) whose steal share is
    at most ``STEAL_LIMIT``.  When fewer than half qualify, the half
    with the lowest share is kept instead.  Samples stay in their
    original order.
    """
    order = sorted(range(len(samples)), key=lambda i: shares[i])
    clean = [i for i in order if shares[i] <= STEAL_LIMIT]
    keep = max(len(clean), (len(samples) + 1) // 2)
    return [samples[i] for i in sorted(order[:keep])]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]); 0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def noop() -> None:
    """Default of the workloads' ``begin``/``end`` tracing hooks."""


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Outcome:
    """What one run measured and how many of its operations failed."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Per-layer figures the workload measures itself (client-side
        #: latencies, the program's own counters); spans add the rest.
        self.layers: Dict[str, float] = {}
        self.details: Dict[str, object] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def result(self, names: Iterable[str]) -> Dict[str, object]:
        """The result object for the given metric names (all required)."""
        missing = [n for n in names if n not in self.values]
        if missing:
            raise KeyError(f"metrics not measured: {missing}")
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                n: {"value": float(self.values[n]), "unit": UNITS[n]}
                for n in names
            },
        }


def write_record(name: str, record: Dict[str, object]) -> str:
    """Keep a full record of the run (fingerprint, details) on disk."""
    base = os.path.join(STATE, "records")
    os.makedirs(base, exist_ok=True)
    path = os.path.join(base, name + ".json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    return path
