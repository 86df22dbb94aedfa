"""Workload ``serve-mixed``: reads under writes against ``repro serve``.

Set-up builds a design store from seeded mutants of the exact
multipliers and adders (widths 4-6, metrics ``wmed`` and ``med``,
uniform operands), each row characterized by the library's own
``characterize_record`` and admitted by ``DesignStore.add``.  It also
prepares the writer's reserve rows, the request plan and the ETags
clients start from, then starts ``python3 -m repro serve --db STORE``
with the CLI defaults and waits for ``/healthz``.

The run has two sides:

* **Readers**: ``loadgen.py``, one single-threaded process driving
  ``CONNECTIONS`` keep-alive connection in a closed loop.  The server
  and the load generator share one CPU (``serving_cpu``).
  The plan mixes ``/v1/front`` and ``/v1/best`` (a hot head of repeated
  targets and a long tail of distinct error budgets, so both wire-cache
  hits and full dispatches occur), ``/v1/designs/{id}`` in ``json`` and
  ``verilog``, and ``/v1/stats``; about a tenth of the reads are
  ``If-None-Match`` revalidations.
* **Writer**: a thread of this process adds reserve rows through
  ``DesignStore.add`` on an open-loop schedule of ``WRITE_RATE`` rows
  per second and reads each new row back over HTTP.  The reserve is
  replayed on a copy of the store during set-up and only rows the
  store admits are kept, so every write is an insertion.

Reported on this workload: ``throughput_per_s`` is completed requests
per second, ``p50_ms`` and ``p99_ms`` the median and 99th percentile of
request latency.  All three pool the requests of the ``WINDOWS`` equal
slices of the run in which other guests of the host left the serving
CPU undisturbed (see ``common.undisturbed``).  ``peak_rss_mb`` is the
server's peak resident set, ``result_area_um2`` the mean area of the
designs ``/v1/best`` serves for every group at the ``CHECK_BUDGETS``
error budgets once the writer has stopped, and ``setup_s`` the median
of ``SETUP_REPEATS`` full set-ups.

Failures: any response other than 2xx/304, any socket error, a read
after a write that does not see the write, and, after the writer
stops, any fixed-target body that differs from what
``repro.library.query`` and ``record_to_json`` give for the store.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import shutil
import socket
import subprocess
import sys
import threading
import time
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from . import common

COMPONENTS = ("multiplier", "adder")
WIDTHS = (4, 5, 6)
METRICS = ("wmed", "med")
MUTANTS_PER_GROUP = 16
#: Rows per second the writer adds: the rate at which the repo's only
#: writer, ``build_library``, admits rows at its default budget.  Six
#: default builds of the ``build-small`` grid (2000 generations per
#: cell, default pool and engine, 16 rows each) on a 2-vCPU host
#: admitted 0.186-0.510 rows/s, median 0.24.
WRITE_RATE = 0.24
#: Reader connections.  The server is one Python process whose handler
#: threads share one interpreter lock.  With two connections on a
#: 2-vCPU host, a request that found the other connection's thread
#: holding the lock waited for the lock's 5 ms switch interval, so
#: ``p99_ms`` (2.9-4.6 ms) measured lock hand-over under host load,
#: not the cost of a request, and two sets of ten runs of the same code
#: differed by 58 %.  One connection stays within ``nproc``.  With one
#: connection in a closed loop the server and the load generator take
#: turns, so both run on one CPU (``serving_cpu``): a request then never
#: waits for the other CPU to be woken, or to be given back by the
#: hypervisor, which made p50 triple in runs with heavy steal.
CONNECTIONS = 1
PLAN_REQUESTS = 60000
# The read mix below is assumed, not taken from measured traffic: 10 %
# If-None-Match revalidations, 35 % /v1/front, 30 % /v1/best (each half
# hot targets, half distinct tail budgets drawn uniformly from
# 0.01-30 %), 17 % /v1/designs and 8 % /v1/stats.
CHECK_BUDGETS = (1.0, 5.0)
WINDOWS = 30
SETUP_REPEATS = 3
BUDGETS = (None, 0.5, 1.0, 2.0, 5.0)

GROUPS = [(c, w, m) for c in COMPONENTS for w in WIDTHS for m in METRICS]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _mutant_records(rng, count_per_group: int, groups, salt: int):
    """Characterized seeded mutants of each group's exact circuit."""
    from repro.core.components import get_component
    from repro.core.mutation import mutate
    from repro.core.seeding import netlist_to_chromosome, params_for_netlist
    from repro.errors.distributions import distribution_from_spec
    from repro.library.builder import characterize_record

    records = []
    for component, width, metric in groups:
        netlist = get_component(component).build_seed(width, False)
        exact = netlist_to_chromosome(
            netlist, params_for_netlist(netlist, extra_columns=20)
        )
        dist = distribution_from_spec("uniform", width, False)
        for j in range(count_per_group):
            chromosome = exact
            for _ in range(j % 8 if salt == 0 else 1 + (j % 8)):
                chromosome, _ = mutate(chromosome, 5, rng)
            records.append(characterize_record(
                chromosome, component, width, dist, metric,
                threshold_percent=100.0, name=f"mutant-{salt}-{j}",
                seed_key="serve-mixed",
            ))
    return records


def _url(route: str, group, budget: Optional[float]) -> str:
    component, width, metric = group
    url = (f"/v1/{route}?component={component}&width={width}"
           f"&metric={metric}")
    if budget is not None:
        url += f"&max_error_percent={budget}"
    return url


def _plan(rng, design_ids: List[str]) -> Tuple[list, list, list]:
    """Request mix, hot targets and the fixed check targets.

    Hot targets and tail budgets cover every group in turn, so the mix
    costs about the same whatever the seed.
    """
    hot = {
        route: [
            _url(route, group, BUDGETS[int(rng.integers(len(BUDGETS)))])
            for group in GROUPS
        ]
        for route in ("front", "best")
    }
    turn = itertools.count()

    def tail(route: str) -> str:
        group = GROUPS[next(turn) % len(GROUPS)]
        return _url(route, group, round(float(rng.uniform(0.01, 30.0)), 4))

    requests = []
    for _ in range(PLAN_REQUESTS):
        u = float(rng.random())
        if u < 0.10:
            targets = hot["front" if u < 0.05 else "best"]
            target = targets[int(rng.integers(len(targets)))]
            requests.append(("revalidate", target, True))
        elif u < 0.75:
            route = "front" if u < 0.45 else "best"
            if rng.random() < 0.5:
                target = hot[route][int(rng.integers(len(GROUPS)))]
            else:
                target = tail(route)
            requests.append((route, target, False))
        elif u < 0.92:
            design_id = design_ids[int(rng.integers(len(design_ids)))]
            fmt = ("json", "verilog")[int(rng.integers(2))]
            requests.append(
                ("design", f"/v1/designs/{design_id}?format={fmt}", False)
            )
        else:
            requests.append(("stats", "/v1/stats", False))
    checks = [_url("best", g, b) for g in GROUPS for b in CHECK_BUDGETS]
    checks += hot["front"] + hot["best"]
    checks += [tail("front") for _ in range(4)]
    checks += [tail("best") for _ in range(4)]
    checks += [f"/v1/designs/{d}?format=json" for d in design_ids[:4]]
    checks.append("/v1/stats")
    return requests, hot["front"] + hot["best"], checks


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def serving_cpu() -> int:
    """The one CPU the server and the load generator share."""
    return min(os.sched_getaffinity(0))


def _on_serving_cpu() -> None:
    """Child-side ``preexec_fn``: run on :func:`serving_cpu` only."""
    os.sched_setaffinity(0, {serving_cpu()})


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _get(conn: http.client.HTTPConnection, target: str,
         headers: Optional[Dict[str, str]] = None):
    conn.request("GET", target, headers=headers or {})
    response = conn.getresponse()
    return response.status, response.getheader("ETag"), response.read()


class Server:
    """``repro serve`` as a subprocess with the CLI defaults."""

    def __init__(self, db: str, workdir: str) -> None:
        self.port = _free_port()
        self.log_path = os.path.join(workdir, "server.log")
        self.log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--db", db,
             "--port", str(self.port)],
            stdout=subprocess.DEVNULL, stderr=self.log, cwd=common.ROOT,
            preexec_fn=_on_serving_cpu,
        )
        deadline = time.monotonic() + 60
        while True:
            if self.proc.poll() is not None:
                message = self.tail_log()
                self.stop()
                raise RuntimeError(f"server exited: {message}")
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                  timeout=5)
                status, _, _ = _get(conn, "/healthz")
                conn.close()
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server did not become healthy")
            time.sleep(0.02)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def metrics(self) -> Dict[str, float]:
        """Sum of every sample of each metric on ``/metrics``."""
        conn = self.connect()
        try:
            status, _, body = _get(conn, "/metrics")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        totals: Dict[str, float] = {}
        for line in body.decode().splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            name = name_part.split("{", 1)[0]
            totals[name] = totals.get(name, 0.0) + float(value)
        return totals

    def tail_log(self) -> str:
        self.log.flush()
        with open(self.log_path, "rb") as fh:
            return fh.read()[-2000:].decode(errors="replace")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Setup:
    """Everything one run needs before measuring starts."""

    def __init__(self, seed: int, seconds: float, workdir: str,
                 tiny: bool) -> None:
        import numpy as np

        from repro.library.store import DesignStore

        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        per_group = 4 if tiny else MUTANTS_PER_GROUP
        self.db = os.path.join(workdir, "designs.db")
        store = DesignStore(self.db)
        for record in _mutant_records(rng, per_group, GROUPS, 0):
            store.add(record)

        # Reserve: replay candidates on a copy of the store and keep the
        # ones it admits; a refused add leaves the store unchanged, so
        # the live writer sees the same admissions in the same order.
        self.writes = max(1, int(math.ceil(WRITE_RATE * seconds)))
        replay_path = os.path.join(workdir, "replay.db")
        shutil.copyfile(self.db, replay_path)
        replay = DesignStore(replay_path)
        self.reserve = []
        salt = 1
        while len(self.reserve) < self.writes:
            for record in _mutant_records(rng, 4, GROUPS, salt):
                if replay.add(record) == "added":
                    self.reserve.append(record)
            salt += 1
        self.reserve = self.reserve[:self.writes]
        # Designs that survive every reserve write stay addressable for
        # the whole run; /v1/designs reads pick from them.
        final_ids = {r.design_id for r in replay.select()}
        stable = sorted(
            {r.design_id for r in store.select()} & final_ids
        )
        order = rng.permutation(len(stable))
        self.design_ids = [stable[i] for i in order]
        self.requests, hot, self.checks = _plan(rng, self.design_ids)

        self.server = Server(self.db, workdir)
        self.etags = {}
        conn = self.server.connect()
        try:
            for target in hot:
                status, etag, _ = _get(conn, target)
                if status == 200 and etag:
                    self.etags[target] = etag
        except BaseException:
            self.server.stop()
            raise
        finally:
            conn.close()

    def close(self) -> None:
        self.server.stop()


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
def _writer(setup: Setup, out: common.Outcome, log: dict) -> None:
    """Open-loop writes on a fixed schedule, each read back over HTTP."""
    from repro.library.store import DesignStore

    store = DesignStore(setup.db)
    conn = setup.server.connect()
    lags = log["lag_ms"]
    late = log["late_ms"]
    t0 = perf_counter()
    try:
        for i, record in enumerate(setup.reserve):
            due = t0 + i / WRITE_RATE
            pause = due - perf_counter()
            if pause > 0:
                time.sleep(pause)
            late.append((perf_counter() - due) * 1e3)
            out.attempted += 1
            status = store.add(record)
            log["statuses"][status] = log["statuses"].get(status, 0) + 1
            if status != "added":
                out.fail(f"write {i}: store answered {status!r}")
                continue
            try:
                code, _, body = _get(
                    conn, f"/v1/designs/{record.design_id}?format=json"
                )
            except (OSError, http.client.HTTPException) as exc:
                out.fail(f"read-back {i}: {type(exc).__name__}: {exc}")
                conn.close()
                conn = setup.server.connect()
                continue
            lags.append((perf_counter() - due) * 1e3)
            seen = code == 200 and any(
                d["design_id"] == record.design_id
                and d["component"] == record.component
                and d["width"] == record.width
                and d["metric"] == record.metric
                for d in json.loads(body)["designs"]
            )
            if not seen:
                out.fail(f"read-back {i}: HTTP {code} does not show "
                         f"design {record.design_id[:12]}")
    finally:
        conn.close()


class _WindowSteal(threading.Thread):
    """Hypervisor steal share of the serving CPU in each window."""

    def __init__(self, width: float) -> None:
        super().__init__(daemon=True)
        self.width = width
        self.cpu = serving_cpu()
        self.shares: List[float] = []

    def run(self) -> None:
        start = perf_counter()
        for i in range(WINDOWS):
            meter = common.StealMeter(self.cpu)
            time.sleep(max(0.0, start + (i + 1) * self.width - perf_counter()))
            self.shares.append(meter.share())


def _expected(target: str, db: str):
    """The body the library's query API gives for a check target."""
    from urllib.parse import parse_qs, urlsplit

    from repro.library import query
    from repro.library.store import DesignStore
    from repro.serve.api import record_to_json

    store = DesignStore(db)
    parts = urlsplit(target)
    q = {k: v[0] for k, v in parse_qs(parts.query).items()}
    if parts.path == "/v1/stats":
        return query.stats(store)
    if parts.path.startswith("/v1/designs/"):
        rows = store.select(design_id_prefix=parts.path.rsplit("/", 1)[1])
        return {"count": len(rows),
                "designs": [record_to_json(r) for r in rows]}
    kwargs = {
        "component": q["component"], "width": int(q["width"]),
        "metric": q["metric"],
        "max_error_percent": (
            float(q["max_error_percent"]) if "max_error_percent" in q
            else None
        ),
    }
    if parts.path == "/v1/best":
        record = query.best(store, **kwargs)
        return None if record is None else {"design": record_to_json(record)}
    records = query.front(store, **kwargs)
    return {"count": len(records),
            "designs": [record_to_json(r) for r in records]}


def _check_bodies(setup: Setup, out: common.Outcome,
                  corrupt: bool) -> List[float]:
    """Fixed targets must serve exactly what the query API computes."""
    areas = []
    conn = setup.server.connect()
    try:
        for i, target in enumerate(setup.checks):
            out.attempted += 1
            status, _, body = _get(conn, target)
            if corrupt and i == 0:
                body = body.replace(b"1", b"2", 1)
            expected = _expected(target, setup.db)
            if expected is None:
                if status != 404:
                    out.fail(f"{target}: HTTP {status}, expected 404")
                continue
            try:
                got = json.loads(body) if status == 200 else None
            except ValueError:
                got = None
            if got != json.loads(json.dumps(expected)):
                out.fail(f"{target}: served body differs from the query "
                         f"API (HTTP {status})")
            elif i < len(GROUPS) * len(CHECK_BUDGETS):
                areas.append(got["design"]["area"])
    finally:
        conn.close()
    return areas


def run(seed: int, seconds: float, tiny: bool = False,
        corrupt: bool = False, begin=common.noop,
        end=common.noop) -> common.Outcome:
    from repro.obs import catalog

    out = common.Outcome()
    workdir = common.run_dir("serve")
    setup = None
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            if setup is not None:
                setup.close()
            t0 = perf_counter()
            setup = Setup(seed, seconds, os.path.join(workdir, f"s{i}"),
                          tiny)
            setup_times.append(perf_counter() - t0)

        connections = CONNECTIONS
        plan_path = os.path.join(workdir, "plan.json")
        result_path = os.path.join(workdir, "loadgen.json")
        with open(plan_path, "w") as fh:
            json.dump({
                "port": setup.server.port, "seconds": seconds,
                "connections": connections,
                "requests": setup.requests, "etags": setup.etags,
            }, fh)
        before = setup.server.metrics()
        cpu_before = setup.server.cpu_seconds()
        pruned_before = catalog.STORE_PRUNED.total()
        loadgen = subprocess.Popen(
            [sys.executable, os.path.join(common.PKG, "loadgen.py"),
             plan_path, result_path],
            stdout=subprocess.PIPE, cwd=common.ROOT,
            preexec_fn=_on_serving_cpu,
        )
        write_log = {"lag_ms": [], "late_ms": [], "statuses": {}}
        steal = _WindowSteal(seconds / WINDOWS)
        begin()
        try:
            ready = loadgen.stdout.readline().strip()
            if ready != b"ready":
                raise RuntimeError("load generator did not start")
            steal.start()
            writer = threading.Thread(
                target=_writer, args=(setup, out, write_log)
            )
            writer.start()
            writer.join()
            loadgen.wait(timeout=seconds + 120)
            steal.join()
        finally:
            end()
            if loadgen.poll() is None:
                loadgen.kill()
                loadgen.wait()
            loadgen.stdout.close()
        if loadgen.returncode != 0:
            raise RuntimeError(f"load generator exited {loadgen.returncode}")
        cpu = setup.server.cpu_seconds() - cpu_before
        after = setup.server.metrics()
        pruned = catalog.STORE_PRUNED.total() - pruned_before
        with open(result_path) as fh:
            reads = json.load(fh)

        statuses = reads["statuses"]
        completed = sum(
            n for s, n in statuses.items()
            if s != "error" and (s == "304" or 200 <= int(s) < 300)
        )
        out.attempted += sum(statuses.values())
        for message in reads["failures"]:
            out.fail(message)
        areas = _check_bodies(setup, out, corrupt)
        rss = setup.server.peak_rss_mb()

        def delta(name: str) -> float:
            return after.get(name, 0.0) - before.get(name, 0.0)

        served = delta("repro_http_requests_total")
        samples = reads["latencies_ms"]
        latencies = {r: [ms for ms, _ in v] for r, v in samples.items()}
        width = seconds / WINDOWS
        windows = [[] for _ in range(WINDOWS)]
        for values in samples.values():
            for ms, at in values:
                windows[min(int(at / width), WINDOWS - 1)].append(ms)
        timed = common.undisturbed(windows, steal.shares)
        kept = [v for w in timed for v in w]
        out.values.update({
            "setup_s": common.median(setup_times),
            "peak_rss_mb": rss,
            "throughput_per_s": len(kept) / (width * len(timed)),
            "p50_ms": common.percentile(kept, 50),
            "p99_ms": common.percentile(kept, 99),
            "result_area_um2": sum(areas) / len(areas) if areas else 0.0,
        })
        for route in ("front", "best", "design", "stats"):
            values = latencies.get(route, [])
            out.layers[f"serve.route.{route}.p50_ms"] = common.percentile(
                values, 50)
            out.layers[f"serve.route.{route}.p99_ms"] = common.percentile(
                values, 99)
        cache_hits = delta("repro_serve_response_cache_hits_total")
        cache_misses = delta("repro_serve_response_cache_misses_total")
        out.layers.update({
            "serve.write_lag_ms": common.median(write_log["lag_ms"]),
            "serve.wire_hit_ratio": common.ratio(
                delta("repro_http_wire_hits_total"), served),
            "serve.response_cache_hit_ratio": common.ratio(
                cache_hits, cache_hits + cache_misses),
            "serve.dispatch": delta("repro_http_dispatch_total"),
            "serve.snapshot_rebuilds": delta(
                "repro_serve_snapshot_rebuilds_total"),
            "serve.not_modified": delta("repro_http_not_modified_total"),
            "serve.cpu_us_per_req": common.ratio(cpu * 1e6, served),
            "library.admitted": write_log["statuses"].get("added", 0),
            "library.dominated": write_log["statuses"].get("dominated", 0),
            "library.pruned": pruned,
        })
        out.details.update({
            "unit_of_work": "request",
            "requests": completed,
            "latency_samples": sum(len(w) for w in windows),
            "route_samples": {r: len(v) for r, v in latencies.items()},
            "statuses": statuses,
            "connections": connections,
            "serving_cpu": steal.cpu,
            "writes": len(write_log["late_ms"]),
            "write_rate_per_s": WRITE_RATE,
            "writer_late_ms_max": max(write_log["late_ms"], default=0.0),
            "server_requests": served,
            "window_steal_share": steal.shares,
            "windows_timed": len(timed),
            "setup_samples_s": setup_times,
        })
        return out
    finally:
        if setup is not None:
            setup.close()
        common.remove_dir(workdir)
