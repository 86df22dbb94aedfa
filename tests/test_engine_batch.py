"""Tests for the engine's batched evaluation ABI (PR 6).

The batch path's contract is the same as the engine's overall: *bit
identical* to evaluating sequentially — same compiled programs, same
integer kernels, same reductions — whatever the component, metric,
backend, or brood composition (duplicates, cache hits).  On top of
that sit the batch-specific behaviors: within-batch phenotype dedupe,
the eval-cache lookup that prevents recompiled cache-miss storms, the
single-owner arena guard, the ``REPRO_OMP`` knob (serial by default;
a requested team runs only on the exact-integer reduction), and the
native exact-integer reduction fast path.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.core.components import component_objective, component_names, get_component
from repro.core.evolution import EvolutionConfig, evolve
from repro.core.mutation import mutate
from repro.core.seeding import netlist_to_chromosome, params_for_netlist
from repro.engine import (
    CompiledMultiplierFitness,
    CompiledObjective,
    native_available,
)
from repro.engine import native
from repro.engine.native import native_lib, omp_threads
from repro.errors.distributions import (
    discretized_half_normal,
    paper_d2,
    uniform,
)

BACKENDS = ["numpy"] + (["native"] if native_available() else [])
OMP_BUILD = native_available() and native_lib().omp_compiled()
METRICS = ("wmed", "med", "mred", "error-rate", "worst-case")


def _seed_chromosome(component: str, width: int, extra: int = 8):
    comp = get_component(component)
    net = comp.build_seed(width, comp.resolve_signed(False))
    return netlist_to_chromosome(
        net, params_for_netlist(net, extra_columns=extra)
    )


def _objective(component, width, metric, backend, **kw):
    return CompiledObjective(
        component_objective(component, width, uniform(width), metric=metric),
        backend=backend,
        **kw,
    )


def _brood(component, width, n, seed=11):
    rng = np.random.default_rng(seed)
    c = _seed_chromosome(component, width)
    brood = []
    for _ in range(n):
        c, _ = mutate(c, 6, rng)
        brood.append(c)
    return brood


# ----------------------------------------------------------------------
# Bit-identity: batch vs sequential, across the whole catalog
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("component", component_names())
def test_batch_bit_identical_to_sequential(component, metric, backend):
    width = 3 if component == "mac" else 4
    brood = _brood(component, width, 8)
    brood.append(brood[0])  # in-batch duplicate phenotype
    batch_obj = _objective(component, width, metric, backend)
    seq_obj = _objective(component, width, metric, backend)
    batched = batch_obj.evaluate_batch(brood, 0.05)
    sequential = [seq_obj.evaluate(c, 0.05) for c in brood]
    assert batched == sequential
    # Second pass is fully cache-served and still identical.
    assert batch_obj.evaluate_batch(brood, 0.05) == sequential
    assert batch_obj.cache.stats()["hits"] >= len(brood)


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_identical_across_backends(backend):
    # Cross-backend spot check on the paper's main configuration.
    brood = _brood("multiplier", 4, 6, seed=3)
    ref = _objective("multiplier", 4, "wmed", "numpy")
    obj = _objective("multiplier", 4, "wmed", backend)
    assert obj.evaluate_batch(brood, 0.01) == ref.evaluate_batch(brood, 0.01)


def test_empty_and_singleton_batches():
    obj = _objective("adder", 4, "wmed", "auto")
    assert obj.evaluate_batch([], 0.01) == []
    ch = _seed_chromosome("adder", 4)
    assert obj.evaluate_batch([ch], 0.01) == [obj.evaluate(ch, 0.01)]


# ----------------------------------------------------------------------
# Within-batch dedupe + cache lookup (the miss-storm fix)
# ----------------------------------------------------------------------
def test_batch_dedupes_identical_phenotypes():
    obj = _objective("multiplier", 4, "wmed", "auto")
    ch = _seed_chromosome("multiplier", 4)
    brood = [ch, ch.copy(), ch.copy(), ch.copy()]
    results = obj.evaluate_batch(brood, 0.01)
    assert len(set(results)) == 1
    st = obj.stats()["batch"]
    # One phenotype executed; the other three were deduped in-batch.
    assert st["evals"] == 1
    assert st["dedup"] == 3


def test_batch_serves_cache_before_dispatch():
    obj = _objective("multiplier", 4, "wmed", "auto")
    brood = _brood("multiplier", 4, 5)
    obj.evaluate_batch(brood, 0.01)
    evals_before = obj.stats()["batch"]["evals"]
    obj.evaluate_batch(brood, 0.01)  # all phenotypes already cached
    st = obj.stats()
    assert st["batch"]["evals"] == evals_before
    assert st["cache"]["hits"] >= len(brood)


def test_seeded_evolve_run_has_cache_hits():
    # Regression for the eval-cache miss storm: a short seeded run must
    # produce a nonzero hit rate (neutral drift revisits phenotypes).
    eng = CompiledMultiplierFitness(3, uniform(3))
    seed = _seed_chromosome("multiplier", 3)
    evolve(
        seed, eng, 0.01, EvolutionConfig(generations=400),
        rng=np.random.default_rng(2024),
    )
    stats = eng.stats()["cache"]
    assert stats["hits"] > 0


# ----------------------------------------------------------------------
# Single-owner guard
# ----------------------------------------------------------------------
def test_arena_rejects_cross_thread_use():
    obj = _objective("adder", 4, "wmed", "auto")
    ch = _seed_chromosome("adder", 4)
    obj.evaluate(ch, 0.01)  # builds the runtime on this thread
    caught = []

    def use_from_other_thread():
        try:
            obj.evaluate_batch([ch], 0.01)
        except RuntimeError as exc:
            caught.append(exc)

    t = threading.Thread(target=use_from_other_thread)
    t.start()
    t.join()
    assert len(caught) == 1 and "single-owner" in str(caught[0])
    # The owning thread keeps working.
    assert obj.evaluate(ch, 0.01) == obj.evaluate(ch, 0.01)


# ----------------------------------------------------------------------
# REPRO_OMP knob
# ----------------------------------------------------------------------
def test_repro_omp_off_forces_serial_and_identical_results(monkeypatch):
    brood = _brood("multiplier", 4, 6, seed=9)
    default = _objective("multiplier", 4, "wmed", "auto")
    expected = default.evaluate_batch(brood, 0.01)
    monkeypatch.setenv("REPRO_OMP", "0")
    assert omp_threads() == 1
    serial = _objective("multiplier", 4, "wmed", "auto")
    assert serial.evaluate_batch(brood, 0.01) == expected


def test_omp_threads_always_concrete(monkeypatch):
    # Unset, auto and on all mean the serial schedule: a team is opt-in.
    for raw in ("0", "off", "no", "false", "1", "-3", "junk",
                "auto", "on", "AUTO"):
        monkeypatch.setenv("REPRO_OMP", raw)
        assert omp_threads() == 1
    monkeypatch.delenv("REPRO_OMP")
    assert omp_threads() == 1


@pytest.mark.skipif(not OMP_BUILD, reason="native OpenMP build required")
def test_repro_omp_n_requests_a_team(monkeypatch):
    monkeypatch.setattr(native, "_omp_team_pid", None)
    monkeypatch.setenv("REPRO_OMP", "2")
    assert omp_threads() == 2


def _spy_team_starts(monkeypatch) -> list:
    """Record every native dispatch that starts an OpenMP team."""
    starts = []
    mark = native._mark_omp_team_used

    def spy():
        starts.append(os.getpid())
        mark()

    monkeypatch.setattr(native, "_mark_omp_team_used", spy)
    return starts


@pytest.mark.skipif(not OMP_BUILD, reason="native OpenMP build required")
def test_team_never_runs_on_float_reduce(monkeypatch):
    # D2-weighted WMED reduces through np.dot (BLAS): even with a team
    # requested, the brood takes the chunked serial schedule.
    monkeypatch.setattr(native, "_omp_team_pid", None)
    monkeypatch.setenv("REPRO_OMP", "2")
    objective = component_objective("multiplier", 4, paper_d2(4))
    brood = _brood("multiplier", 4, 8, seed=5)
    batch_obj = CompiledObjective(objective, backend="native")
    seq_obj = CompiledObjective(objective, backend="native")
    assert batch_obj.stats()["fast_reduce"] is None
    batched = batch_obj.evaluate_batch(brood, 0.05)
    assert native._omp_team_pid is None
    assert batched == [seq_obj.evaluate(c, 0.05) for c in brood]


@pytest.mark.skipif(not OMP_BUILD, reason="native OpenMP build required")
def test_team_runs_on_exact_reduce_when_requested(monkeypatch):
    starts = _spy_team_starts(monkeypatch)
    monkeypatch.setenv("REPRO_OMP", "2")
    brood = _brood("multiplier", 4, 8, seed=5)
    batch_obj = _objective("multiplier", 4, "wmed", "native")
    seq_obj = _objective("multiplier", 4, "wmed", "native")
    assert batch_obj.stats()["fast_reduce"] == "wmed"
    batched = batch_obj.evaluate_batch(brood, 0.05)
    assert starts == [os.getpid()]
    assert native._omp_team_pid == os.getpid()
    assert batched == [seq_obj.evaluate(c, 0.05) for c in brood]


@pytest.mark.skipif(not native_available(), reason="native backend required")
def test_default_evolve_starts_no_team(monkeypatch):
    # Guards the serial default: an exact-reduce evolve (the one path a
    # team may take) under default settings never dispatches threaded.
    monkeypatch.setattr(native, "_omp_team_pid", None)
    monkeypatch.delenv("REPRO_OMP", raising=False)
    starts = _spy_team_starts(monkeypatch)
    eng = CompiledMultiplierFitness(4, uniform(4), backend="native")
    evolve(
        _seed_chromosome("multiplier", 4), eng, 0.01,
        EvolutionConfig(generations=50), rng=np.random.default_rng(3),
    )
    assert eng.stats()["batch"]["calls"] > 0
    assert starts == []
    assert native._omp_team_pid is None


# ----------------------------------------------------------------------
# Exact-integer reduction fast path
# ----------------------------------------------------------------------
def test_fast_reduce_eligibility():
    # Uniform weights are one power of two: wmed/med/error-rate/worst-case
    # reduce exactly; mred never does; non-pow2 weights disable the
    # weight-dependent metrics but not med/worst-case.
    for metric, kind in (("wmed", "wmed"), ("med", "med"),
                         ("error-rate", "error-rate"),
                         ("worst-case", "worst-case"), ("mred", None)):
        obj = _objective("multiplier", 4, metric, "auto")
        assert obj.stats()["fast_reduce"] == kind
    skewed = discretized_half_normal(4, sigma=4.0, name="Dh")
    for metric, kind in (("wmed", None), ("error-rate", None),
                         ("med", "med"), ("worst-case", "worst-case")):
        obj = CompiledObjective(
            component_objective("multiplier", 4, skewed, metric=metric)
        )
        assert obj.stats()["fast_reduce"] == kind


@pytest.mark.skipif(not native_available(), reason="native backend required")
def test_reduce_stats_match_materialized_distances():
    # The C integer triple must equal what the float64 distance row
    # implies — exactly, not approximately.
    obj = _objective("multiplier", 4, "wmed", "native", cache_entries=0)
    rt = obj._runtime(_seed_chromosome("multiplier", 4).params)
    for ch in _brood("multiplier", 4, 12, seed=21):
        n_ops = rt.compile(ch.genes)
        rt.execute(n_ops)
        s, nz, mx = rt.reduce_stats(obj.signed)
        err = rt.error(obj.signed, obj._exact32).copy()
        assert s == int(err.sum())
        assert nz == int(np.count_nonzero(err))
        assert mx == int(err.max())
        # And the fast formula reproduces the reference metric exactly.
        assert obj._reduce_error(s, nz, mx) == obj.metric.from_distances(
            err, obj.weights, obj.normalizer, obj.reference
        )
