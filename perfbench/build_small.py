"""Workload ``build-small``: back-to-back design-library builds.

One operation is one ``build_library`` run into a fresh store over the
grid ``multiplier,adder`` x ``wmed,med`` x widths ``4,5`` x
``THRESHOLDS`` with uniform operands, the builder's default pool width
and engine.  The generation budget per cell is sized here
(``GENERATIONS``) so that many builds fit in one run: each build
starts one process pool per width, and whether the pool's OpenMP
teams contend is decided per pool, so a run needs many pools to give
a steady figure.  Build ``k``
uses ``BuildSpec.seed = seed * 1000 + k``.

Reported on this workload:

* ``throughput_per_s``: grid cells per second over all builds;
* ``p50_ms`` / ``p99_ms``: latency of one build;
* ``throughput_per_s`` and the latencies skip builds disturbed by other
  guests of the host (see ``common.undisturbed``; with about 33 builds
  per run, ``p99_ms`` is the slowest kept one);
* ``result_area_um2``: mean area of the rows the first build stored, a
  pure function of the seed;
* ``peak_rss_mb``: the larger of the builder's and any pool worker's;
* ``setup_s``: median of ``SETUP_REPEATS`` cold starts of a builder:
  a fresh interpreter imports the library builder and creates an empty
  store, the set-up ``repro library build`` pays before its first cell.

Every stored row of every build is checked afterwards: re-running
``characterize_record`` on its chromosome must reproduce the row
bit for bit.
"""

from __future__ import annotations

import os
import sqlite3
import subprocess
import sys
from time import perf_counter

from . import common

COMPONENTS = ("multiplier", "adder")
METRICS = ("wmed", "med")
WIDTHS = (4, 5)
THRESHOLDS = (1.0, 5.0)
GENERATIONS = 20
SETUP_REPEATS = 7
SETUP_SCRIPT = (
    "import sys\n"
    "import repro.library.builder\n"
    "from repro.library.store import DesignStore\n"
    "DesignStore(sys.argv[1])\n"
)


def _verify(path: str, spec, out: common.Outcome, k: int) -> None:
    from repro.core.serialization import chromosome_from_string
    from repro.errors.distributions import distribution_from_spec
    from repro.library.builder import characterize_record
    from repro.library.store import DesignStore

    rows = DesignStore(path).select()
    if not rows:
        out.fail(f"build {k}: store is empty")
    for row in rows:
        again = characterize_record(
            chromosome_from_string(row.chromosome),
            row.component,
            row.width,
            distribution_from_spec(spec.dist, row.width, spec.signed),
            row.metric,
            threshold_percent=row.threshold_percent,
            name=row.name,
            seed_key=row.seed_key,
            generations=row.generations,
            evaluations=row.evaluations,
        )
        if again != row:
            out.fail(f"build {k}: row {row.design_id[:12]} "
                     f"({row.component}/{row.metric}/w{row.width}) does "
                     "not re-characterize to the stored values")
            return


def run(seed: int, seconds: float, tiny: bool = False,
        corrupt: bool = False, begin=common.noop,
        end=common.noop) -> common.Outcome:
    from repro.library import builder
    from repro.library.store import DesignStore
    from repro.obs import catalog

    out = common.Outcome()
    workdir = common.run_dir("build")
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            t0 = perf_counter()
            subprocess.run(
                [sys.executable, "-c", SETUP_SCRIPT,
                 os.path.join(workdir, f"setup-{i}.db")],
                check=True, cwd=common.ROOT,
            )
            setup_times.append(perf_counter() - t0)

        def spec_for(k: int) -> builder.BuildSpec:
            return builder.BuildSpec(
                components=COMPONENTS,
                metrics=METRICS,
                widths=WIDTHS[:1] if tiny else WIDTHS,
                thresholds_percent=THRESHOLDS,
                dist="uniform",
                generations=5 if tiny else GENERATIONS,
                seed=seed * 1000 + k,
            )

        begin()
        pruned_before = catalog.STORE_PRUNED.total()
        builds = []
        shares = []
        start = perf_counter()
        try:
            while not builds or perf_counter() - start < seconds:
                k = len(builds)
                path = os.path.join(workdir, f"build-{k}.db")
                store = DesignStore(path)
                steal = common.StealMeter()
                t0 = perf_counter()
                report = builder.build_library(store, spec_for(k))
                builds.append((path, report, perf_counter() - t0))
                shares.append(steal.share())
        finally:
            end()
        pruned = catalog.STORE_PRUNED.total() - pruned_before

        if corrupt:
            conn = sqlite3.connect(builds[0][0])
            with conn:
                conn.execute(
                    "UPDATE designs SET area = area + 1.0 WHERE rowid = "
                    "(SELECT MIN(rowid) FROM designs)"
                )
            conn.close()
        for k, (path, report, _) in enumerate(builds):
            out.attempted += 1
            if report.cells_run != report.cells_total:
                out.fail(f"build {k}: ran {report.cells_run} of "
                         f"{report.cells_total} cells")
                continue
            _verify(path, spec_for(k), out, k)

        first_rows = DesignStore(builds[0][0]).select()
        cells = sum(r.cells_run for _, r, _ in builds)
        walls = [w for _, _, w in builds]
        timed = common.undisturbed(builds, shares)
        timed_walls = [w for _, _, w in timed]
        out.values.update({
            "setup_s": common.median(setup_times),
            "peak_rss_mb": common.peak_rss_mb(include_children=True),
            "throughput_per_s": (
                sum(r.cells_run for _, r, _ in timed) / sum(timed_walls)
            ),
            "p50_ms": common.percentile(timed_walls, 50) * 1e3,
            "p99_ms": common.percentile(timed_walls, 99) * 1e3,
            "result_area_um2": (
                sum(r.area for r in first_rows) / len(first_rows)
                if first_rows else 0.0
            ),
        })
        out.layers.update({
            "library.admitted": sum(r.added for _, r, _ in builds),
            "library.dominated": sum(r.dominated for _, r, _ in builds),
            "library.pruned": pruned,
        })
        out.details.update({
            "builds": len(builds),
            "cells": cells,
            "build_wall_s": walls,
            "build_steal_share": shares,
            "builds_timed": len(timed),
            "reports": [str(r) for _, r, _ in builds],
            "setup_samples_s": setup_times,
        })
        return out
    finally:
        common.remove_dir(workdir)
