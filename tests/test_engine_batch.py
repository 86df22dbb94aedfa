"""Tests for the engine's batched evaluation ABI (PR 6).

The batch path's contract is the same as the engine's overall: *bit
identical* to evaluating sequentially — same compiled programs, same
integer kernels, same reductions — whatever the component, metric,
backend, or brood composition (duplicates, cache hits).  On top of
that sit the batch-specific behaviors: within-batch phenotype dedupe,
the eval-cache lookup that prevents recompiled cache-miss storms, the
single-owner arena guard, the ``REPRO_OMP`` knob (serial by default;
a requested team runs only on the exact-integer reduction), the
native exact-integer reduction fast path, and the fused D-weighted
WMED path's early exit for offspring that provably miss the target.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.core.components import component_objective, component_names, get_component
from repro.core.evolution import EvolutionConfig, evolve
from repro.core.mutation import mutate
from repro.core.seeding import (
    netlist_to_chromosome,
    params_for_netlist,
    random_chromosome,
)
from repro.engine import (
    CompiledMultiplierFitness,
    CompiledObjective,
    native_available,
)
from repro.engine import native
from repro.engine.evaluator import _EngineEvalMixin, _Runtime
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
    # D2-weighted WMED is the fused float reduce, one serial call per
    # brood: even with a team requested, no team starts.
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


# ----------------------------------------------------------------------
# Fused D-weighted WMED: early exit
# ----------------------------------------------------------------------
def _d2_brood(width, n, seed, h=12):
    rng = np.random.default_rng(seed)
    c = _seed_chromosome("multiplier", width)
    brood = []
    for _ in range(n):
        child, _ = mutate(c, h, rng)
        brood.append(child)
        c = child if rng.random() < 0.5 else c
    return brood


def _spy_exit_flags(monkeypatch) -> list:
    """Record the per-lane exit flags of every fused dispatch."""
    calls = []
    run = _Runtime.execute_wmed

    def spy(self, n_lanes, signed, norm, thr):
        sums, exited = run(self, n_lanes, signed, norm, thr)
        calls.append(exited)
        return sums, exited

    monkeypatch.setattr(_Runtime, "execute_wmed", spy)
    return calls


@pytest.mark.skipif(not native_available(), reason="native backend required")
@pytest.mark.parametrize("threshold", [0.001, 0.01, 0.05])
def test_early_exit_is_sound(threshold, monkeypatch):
    flags = _spy_exit_flags(monkeypatch)
    objective = component_objective("multiplier", 8, paper_d2(8))
    brood = _d2_brood(8, 24, seed=int(threshold * 1e4))
    exact = [objective.evaluate(c, threshold) for c in brood]
    eng = CompiledObjective(objective, backend="native")
    results = eng.evaluate_batch(brood, threshold, early_exit=True)
    assert eng.stats()["batch"]["dedup"] == 0  # lane k is candidate k
    (exited,) = flags
    assert sum(exited) == eng.stats()["batch"]["early_exit"] > 0
    for got, want, out in zip(results, exact, exited):
        if out:
            assert want.wmed > threshold
            assert got.fitness == float("inf")
            assert got.wmed <= want.wmed
        else:
            assert got == want
    # Exited phenotypes were not cached: re-evaluating them is exact.
    assert eng.cache.stats()["entries"] == len(brood) - sum(exited)
    assert [eng.evaluate(c, threshold) for c in brood] == exact


@pytest.mark.skipif(not native_available(), reason="native backend required")
def test_early_exit_off_is_exact():
    objective = component_objective("multiplier", 8, paper_d2(8))
    brood = _d2_brood(8, 12, seed=4)
    eng = CompiledObjective(objective, backend="native")
    results = eng.evaluate_batch(brood, 0.001)
    assert results == [objective.evaluate(c, 0.001) for c in brood]
    assert eng.stats()["batch"]["early_exit"] == 0


@pytest.mark.skipif(not native_available(), reason="native backend required")
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_d2_evolve_with_early_exit_equals_numpy(seed):
    dist = paper_d2(8)
    runs = {}
    for backend in ("native", "numpy"):
        eng = CompiledObjective(
            component_objective("multiplier", 8, dist), backend=backend
        )
        result = evolve(
            _seed_chromosome("multiplier", 8, extra=4), eng, 0.01,
            EvolutionConfig(generations=60, history_every=10),
            rng=np.random.default_rng(seed),
        )
        runs[backend] = (result, eng)
    (nat, nat_eng), (ref, _) = runs["native"], runs["numpy"]
    assert nat_eng.stats()["batch"]["early_exit"] > 0
    assert np.array_equal(nat.best.genes, ref.best.genes)
    assert nat.best_eval == ref.best_eval
    assert nat.evaluations == ref.evaluations
    assert nat.history == ref.history


def test_early_exit_requested_only_under_a_feasible_parent(monkeypatch):
    requested = []
    batch = _EngineEvalMixin.evaluate_batch

    def spy(self, chromosomes, threshold, early_exit=False):
        requested.append(early_exit)
        return batch(self, chromosomes, threshold, early_exit=early_exit)

    monkeypatch.setattr(_EngineEvalMixin, "evaluate_batch", spy)
    objective = CompiledObjective(
        component_objective("multiplier", 4, paper_d2(4))
    )
    # A random genome is far from exact; at threshold 0 it stays
    # infeasible, so every brood must be evaluated exactly.
    params = _seed_chromosome("multiplier", 4).params
    seed = random_chromosome(params, np.random.default_rng(0))
    result = evolve(seed, objective, 0.0, EvolutionConfig(generations=40),
                    rng=np.random.default_rng(1))
    assert not result.feasible
    assert requested and not any(requested)
    # And a feasible parent does ask for it.
    requested.clear()
    evolve(_seed_chromosome("multiplier", 4), objective, 0.01,
           EvolutionConfig(generations=10), rng=np.random.default_rng(1))
    assert requested and all(requested)
