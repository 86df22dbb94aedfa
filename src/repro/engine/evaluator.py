"""Engine-backed evaluation of any circuit objective.

:class:`CompiledObjective` wraps a
:class:`~repro.core.objective.CircuitObjective` — any component
(multiplier, adder, MAC, custom netlist), any
:class:`~repro.errors.metrics.ErrorMetric` — so its hot path runs
through the evaluation engine:

1. the phenotype compiler lowers the candidate's active cone to a flat
   opcode program (:mod:`repro.engine.compiler`),
2. the program's signature is looked up in the phenotype cache
   (:mod:`repro.engine.cache`) — CGP neutral drift makes hits frequent,
3. on a miss, the program runs over the preallocated buffer arena on the
   native C backend (:mod:`repro.engine.native`) or the numpy fallback
   (:mod:`repro.engine.kernels`), followed by the fused decode/error
   reduction and the objective's metric.

Results are bit-identical to the interpreted objective: all simulation
and decode arithmetic is integer-exact, both paths produce the same
``float64`` per-vector distance vector, and the metric reduction is the
same code (:meth:`ErrorMetric.from_distances`) over the same operand
order.  The cache key folds in the objective's identity (reference,
weights, metric, signedness), so caches never alias across objectives.
Evaluators are not thread-safe (each owns one arena); use one instance
per worker.

:class:`CompiledMultiplierFitness` remains the drop-in
``MultiplierFitness`` subclass from the original engine PR.
"""

from __future__ import annotations

import hashlib
import math
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.chromosome import CGPParams, Chromosome
from ..obs import catalog as _obs
from ..core.fitness import MultiplierFitness
from ..core.objective import (
    CircuitObjective,
    EvalResult,
    SampledEvalResult,
    SampledObjective,
)
from ..errors.distributions import Distribution
from ..tech.library import TechLibrary
from . import kernels
from .arena import BufferArena
from .cache import EvalCache
from .compiler import compile_genes_into, phenotype_signature
from .native import NativeLib, native_lib, omp_threads
from .opcodes import OP_ARITY, OP_NAMES, function_opcode_table

__all__ = [
    "CompiledObjective",
    "CompiledSampledObjective",
    "CompiledMultiplierFitness",
]


class _Runtime:
    """Per-:class:`CGPParams` compiled state: arena, tables, backend."""

    def __init__(
        self,
        params: CGPParams,
        stimulus: np.ndarray,
        num_vectors: int,
        library: TechLibrary,
        native: Optional[NativeLib],
        salt_extra: bytes = b"",
        exact32: Optional[np.ndarray] = None,
    ) -> None:
        self.params = params
        fn2op = function_opcode_table(params.functions)  # may raise KeyError
        self.fn2op = fn2op
        self.fn2op_list = [int(x) for x in fn2op]
        # May raise ValueError (e.g. an output bus wider than the decoder
        # supports) — the evaluator then serves this params interpreted.
        self.arena = BufferArena(
            params.num_inputs,
            params.num_nodes,
            params.num_outputs,
            stimulus,
            num_vectors,
        )
        self.native = native
        # Scratch used only by the C compile entry point.
        self.needed = np.empty(params.num_nodes, dtype=np.uint8)
        self.scratch_i32 = np.empty(
            params.num_inputs + 3 * params.num_nodes, dtype=np.int32
        )
        # Area per opcode; equals the baseline's per-function-gene areas
        # element-for-element, so the float sum is bit-identical.
        self.area_by_op = np.zeros(len(OP_NAMES), dtype=np.float64)
        for name, op in zip(params.functions, self.fn2op_list):
            self.area_by_op[op] = library.cell(name).area
        # Distinguishes phenotypes of structurally different evaluators
        # and of different objectives (reference / weights / metric) in
        # the cache (columns don't matter: equal programs are equal
        # circuits regardless of grid size).
        self.salt = (
            repr(
                (params.num_inputs, params.num_outputs, params.functions)
            ).encode()
            + salt_extra
        )
        self.exact32 = exact32
        # Raw buffer addresses, computed once: every arena/table array
        # is allocated for the runtime's lifetime, and the ndarray
        # ``.ctypes`` accessor costs ~µs — comparable to a small kernel
        # call — so the hot path must not pay it per evaluation.  Batch
        # arrays are (re)captured in ensure_batch() on epoch change.
        self._batch_epoch_seen = -1
        self._lane_compile_args: List[tuple] = []
        self._lane_eval_args: List[tuple] = []
        self._lane_stats_args: List[tuple] = []
        if native is not None:
            a = self.arena
            # Single-path exact-reduction target (sum, count, max).
            self.stats3 = np.zeros(3, dtype=np.int64)
            self.p_stats3 = self.stats3.ctypes.data
            self.p_buf = a.buf.ctypes.data
            self.p_ops = a.ops.ctypes.data
            self.p_src_a = a.src_a.ctypes.data
            self.p_src_b = a.src_b.ctypes.data
            self.p_dst = a.dst.ctypes.data
            self.p_out_slots = a.out_slots.ctypes.data
            self.p_decode_scratch = a.decode_scratch.ctypes.data
            self.p_values = a.values.ctypes.data
            self.p_err = a.err.ctypes.data
            self.p_fn2op = fn2op.ctypes.data
            self.p_arity = OP_ARITY.ctypes.data
            self.p_needed = self.needed.ctypes.data
            self.p_scratch_i32 = self.scratch_i32.ctypes.data
            self.p_exact = (
                exact32.ctypes.data if exact32 is not None else 0
            )

    def compile(self, genes: np.ndarray) -> int:
        """Lower ``genes`` into the arena slabs; return ``n_ops``."""
        genes = np.ascontiguousarray(genes, dtype=np.int64)
        a = self.arena
        p = self.params
        if self.native is not None:
            return self.native.compile(
                genes, p.num_nodes, p.num_inputs, p.num_outputs,
                self.p_fn2op, self.p_arity, self.p_ops, self.p_src_a,
                self.p_src_b, self.p_dst, self.p_out_slots, self.p_needed,
                self.p_scratch_i32,
            )
        return compile_genes_into(
            genes, p, self.fn2op_list,
            a.ops, a.src_a, a.src_b, a.dst, a.out_slots,
        )

    def signature(self, n_ops: int) -> bytes:
        a = self.arena
        return phenotype_signature(
            a.ops[:n_ops], a.src_a[:n_ops], a.src_b[:n_ops], a.dst[:n_ops],
            a.out_slots, salt=self.salt,
        )

    def execute(self, n_ops: int) -> None:
        a = self.arena
        if self.native is not None:
            self.native.kernel(
                self.p_buf, a.num_inputs, a.words, n_ops,
                self.p_ops, self.p_src_a, self.p_src_b, self.p_dst,
            )
        else:
            kernels.run_program(a, n_ops)

    def error(self, signed: bool, exact32: np.ndarray) -> np.ndarray:
        a = self.arena
        if self.native is not None:
            self.native.decode_err(
                self.p_buf, a.words, self.p_out_slots, a.num_outputs,
                a.num_vectors, signed, self.p_decode_scratch, exact32,
                self.p_err,
            )
            return a.err
        return kernels.decode_error(a, a.num_outputs, signed, exact32)

    def reduce_stats(self, signed: bool) -> tuple:
        """Decode + exact integer reduction of the single-path outputs.

        Native only.  Returns ``(sum |d|, count != 0, max |d|)`` over the
        per-vector distances — the same integers :meth:`error` would
        materialize as float64 — without writing the error row.
        """
        a = self.arena
        self.native.decode_reduce(
            self.p_buf, a.words, self.p_out_slots, a.num_outputs,
            a.num_vectors, signed, self.p_decode_scratch, self.p_exact,
            self.p_stats3,
        )
        return self.stats3.tolist()

    def values(self, signed: bool) -> np.ndarray:
        a = self.arena
        if self.native is not None:
            self.native.decode(
                self.p_buf, a.words, self.p_out_slots, a.num_outputs,
                a.num_vectors, signed, self.p_decode_scratch, self.p_values,
            )
            return a.values
        return kernels.decode_values(a, a.num_outputs, signed)

    # ------------------------------------------------------------------
    # Batched evaluation over per-candidate lanes.
    def ensure_batch(self, n_cand: int) -> None:
        """Size the arena's batch lanes and refresh cached addresses."""
        a = self.arena
        a.ensure_batch(n_cand)
        if self.native is not None and self._batch_epoch_seen != a.batch_epoch:
            self.p_lanes = a.batch_lanes.ctypes.data
            self.p_b_ops = a.batch_ops.ctypes.data
            self.p_b_src_a = a.batch_src_a.ctypes.data
            self.p_b_src_b = a.batch_src_b.ctypes.data
            self.p_b_dst = a.batch_dst.ctypes.data
            self.p_b_out_slots = a.batch_out_slots.ctypes.data
            self.p_b_n_ops = a.batch_n_ops.ctypes.data
            self.p_b_scratch = a.batch_scratch.ctypes.data
            self.p_b_stats = a.batch_stats.ctypes.data
            # Fully precomposed cgp_compile argument tails, one per slab
            # lane: compile_into_lane then costs one ctypes call with no
            # per-candidate pointer arithmetic or attribute traffic.
            p = self.params
            prog_b = p.num_nodes * 4                 # int32 row bytes
            out_b = a.batch_out_slots.shape[1] * 4
            self._lane_compile_args = [
                (
                    p.num_nodes, p.num_inputs, p.num_outputs,
                    self.p_fn2op, self.p_arity,
                    self.p_b_ops + k * prog_b,
                    self.p_b_src_a + k * prog_b,
                    self.p_b_src_b + k * prog_b,
                    self.p_b_dst + k * prog_b,
                    self.p_b_out_slots + k * out_b,
                    self.p_needed, self.p_scratch_i32,
                )
                for k in range(a.batch_capacity)
            ]
            # Per-lane slab pointers for the chunked (cache-blocked)
            # serial dispatch of execute_lane().
            self._lane_eval_args = [
                (
                    self.p_b_n_ops + k * 4,
                    self.p_b_ops + k * prog_b,
                    self.p_b_src_a + k * prog_b,
                    self.p_b_src_b + k * prog_b,
                    self.p_b_dst + k * prog_b,
                    self.p_b_out_slots + k * out_b,
                )
                for k in range(a.batch_capacity)
            ]
            # Fully precomposed cgp_eval_batch argument tuples for the
            # stats-mode chunked dispatch, split around the one argument
            # (do_sign) the caller supplies: execute_lane_stats then
            # costs a single raw ctypes call.
            self._lane_stats_args = [
                (
                    (
                        self.p_buf, self.p_lanes, a.num_inputs, 0,
                        a.words, 1, n_ops_p, ops_p, sa_p, sb_p, dst_p,
                        a.num_nodes, osl_p, a.num_outputs,
                        a.batch_out_slots.shape[1], a.num_vectors,
                    ),
                    (
                        self.p_b_scratch, 0, self.p_exact, self.p_err,
                        a.num_vectors, self.p_b_stats, 1,
                    ),
                )
                for (n_ops_p, ops_p, sa_p, sb_p, dst_p, osl_p)
                in self._lane_eval_args
            ]
            self._batch_epoch_seen = a.batch_epoch

    def compile_into_lane(self, genes: np.ndarray, lane: int) -> int:
        """Compile ``genes`` into batch slab row ``lane``; return n_ops."""
        genes = np.ascontiguousarray(genes, dtype=np.int64)
        a = self.arena
        p = self.params
        if self.native is not None:
            n = int(
                self.native._lib.cgp_compile(
                    genes.ctypes.data, *self._lane_compile_args[lane]
                )
            )
        else:
            n = compile_genes_into(
                genes, p, self.fn2op_list,
                a.batch_ops[lane], a.batch_src_a[lane],
                a.batch_src_b[lane], a.batch_dst[lane],
                a.batch_out_slots[lane],
            )
        a.batch_n_ops[lane] = n
        return n

    def lane_signature(self, lane: int, n_ops: int) -> bytes:
        """Signature of the program in slab row ``lane``.

        Byte-identical to :meth:`signature` for the same phenotype — the
        slab rows hold exactly what the single-candidate compile emits —
        so batch and sequential paths share one cache keyspace.
        """
        a = self.arena
        return phenotype_signature(
            a.batch_ops[lane, :n_ops], a.batch_src_a[lane, :n_ops],
            a.batch_src_b[lane, :n_ops], a.batch_dst[lane, :n_ops],
            a.batch_out_slots[lane, : a.num_outputs], salt=self.salt,
        )

    def lane_area(self, lane: int, n_ops: int) -> float:
        a = self.arena
        return float(self.area_by_op[a.batch_ops[lane, :n_ops]].sum())

    def execute_batch(self, n_lanes: int, signed: bool) -> None:
        """Run + decode-error all ``n_lanes`` lanes (numpy backend).

        Lane ``k``'s per-vector distances land in ``arena.batch_err[k]``,
        bit-identical to the single-candidate path.
        """
        a = self.arena
        for k in range(n_lanes):
            kernels.run_program_batch(a, k, int(a.batch_n_ops[k]))
            kernels.decode_error_batch(
                a, k, a.num_outputs, signed, self.exact32
            )

    def execute_team_stats(
        self, n_lanes: int, signed: bool, nthreads: int
    ) -> np.ndarray:
        """Run + exact integer reduction of all lanes under an OpenMP team.

        Native only.  One ``cgp_eval_batch`` call splits the candidates
        across ``nthreads`` threads, each writing its private lane and
        transpose scratch (full strides); lane ``k``'s
        ``(sum |d|, count != 0, max |d|)`` lands in
        ``arena.batch_stats[k]``, which is returned.  No distance row is
        written, so nothing outside C runs while the team is up.
        """
        a = self.arena
        self.native.eval_batch(
            self.p_buf, self.p_lanes, a.num_inputs, a.num_nodes,
            a.words, n_lanes, self.p_b_n_ops, self.p_b_ops,
            self.p_b_src_a, self.p_b_src_b, self.p_b_dst,
            a.num_nodes, self.p_b_out_slots, a.num_outputs,
            a.batch_out_slots.shape[1], a.num_vectors, signed,
            self.p_b_scratch, a.batch_scratch.shape[1],
            self.p_exact, self.p_err, 0, nthreads,
            stats=self.p_b_stats,
        )
        return a.batch_stats

    def execute_lane(self, lane: int, signed: bool) -> np.ndarray:
        """Run + decode-error one compiled slab lane (native only).

        The cache-blocked serial schedule of the batch ABI: the same
        ``cgp_eval_batch`` entry point, dispatched one candidate at a
        time with the slab pointers offset to ``lane`` and every
        per-candidate buffer — scratch lane, transpose scratch and the
        *single-path* error row (``arena.err``) — reused across chunks.
        The caller reduces the returned distances before the next chunk
        overwrites them, so each reduction reads a cache-hot row instead
        of one of N cold private rows; results are bit-identical to the
        one-call dispatch (same C code runs per candidate either way).
        """
        a = self.arena
        n_ops_p, ops_p, sa_p, sb_p, dst_p, osl_p = self._lane_eval_args[lane]
        self.native.eval_batch(
            self.p_buf, self.p_lanes, a.num_inputs, 0,
            a.words, 1, n_ops_p, ops_p, sa_p, sb_p, dst_p,
            a.num_nodes, osl_p, a.num_outputs,
            a.batch_out_slots.shape[1], a.num_vectors, signed,
            self.p_b_scratch, 0, self.p_exact, self.p_err,
            a.num_vectors, 1,
        )
        return a.err

    def execute_lane_stats(self, lane: int, signed: bool) -> tuple:
        """Run + exact integer reduction of one slab lane (native only).

        The stats-mode twin of :meth:`execute_lane`: the same chunked
        serial dispatch, but the decoded distances fold into
        ``(sum |d|, count != 0, max |d|)`` in C (``arena.batch_stats``
        row 0, reused across chunks) and the ~``num_vectors`` float64
        error row is never written — the dominant share of a width-8
        evaluation's memory traffic.
        """
        head, tail = self._lane_stats_args[lane]
        self.native._lib.cgp_eval_batch(*head, int(signed), *tail)
        return self.arena.batch_stats[0].tolist()


class _EngineEvalMixin:
    """Engine-backed hot path over :class:`CircuitObjective` state.

    Mixed into a concrete objective class (``CompiledObjective``,
    ``CompiledMultiplierFitness``); expects the base objective's
    attributes (``num_inputs``, ``num_vectors``, ``stimulus``,
    ``reference``, ``weights``, ``normalizer``, ``signed``, ``metric``,
    ``library``) to be initialized before :meth:`_init_engine` runs.
    """

    def _init_engine(self, backend: str, cache_entries: int) -> None:
        if backend not in ("auto", "native", "numpy"):
            raise ValueError(f"unknown backend {backend!r}")
        native = None if backend == "numpy" else native_lib()
        if backend == "native" and native is None:
            raise RuntimeError(
                "native engine backend requested but unavailable "
                "(no C compiler, or REPRO_ENGINE forces numpy)"
            )
        self._native = native
        # The engine decodes into int32 and (for <= 16 output bits) forms
        # `exact - value` in int32 too, so the reference must leave
        # headroom for the largest decodable output magnitude (2**16) or
        # the native subtraction could overflow.  Wider references
        # (possible for a custom netlist objective) are served via the
        # interpreted path instead.
        self._engine_decodable = bool(
            np.abs(self.reference).max(initial=0) < (1 << 31) - (1 << 17)
        )
        self._exact32 = (
            self.reference.astype(np.int32) if self._engine_decodable else None
        )
        self._runtimes: Dict[CGPParams, Optional[_Runtime]] = {}
        # Objective identity folded into every phenotype signature: the
        # same compiled program scores differently under a different
        # reference, weight vector or metric.
        h = hashlib.blake2b(digest_size=8)
        h.update(self.metric.name.encode())
        h.update(b"s" if self.signed else b"u")
        h.update(repr(self.normalizer).encode())
        h.update(self.reference.tobytes())
        h.update(self.weights.tobytes())
        # Sampled objectives additionally fold the sample-spec identity
        # (counts, replicates, seed, realized stimulus) so a sampled
        # estimate never aliases an exhaustive value — or a different
        # sample's estimate — for the same phenotype.
        sample_salt = getattr(self, "_sample_salt", b"")
        h.update(sample_salt)
        self._objective_salt = h.digest()
        # Exact-reduction fast path: some metrics are *provably* equal —
        # bit for bit, not approximately — to a formula over the integer
        # triple (sum |d|, count != 0, max |d|), in which case the
        # native backend can skip materializing the float64 distance row
        # entirely (see _reduce_error).  Eligibility:
        #
        # * wmed / error-rate need every weight equal to one power of
        #   two w0 with unit total mass (the uniform distribution).
        #   Then every product w0*x and every partial sum in
        #   np.dot(w, err) is an exactly-representable scaled integer,
        #   making the dot order-independent and equal to w0 * sum.
        # * med only needs the integer sum to be exact: err.mean() is
        #   fl(T / N) and Python's T / N rounds identically.
        # * worst-case is always eligible (a single int-to-float cast).
        # * mred divides per-vector — no integer form; never eligible.
        #
        # Exactness of the int64 sum needs sum |d| < 2**53: distances
        # are below 2**31 (int32 decode guard), so cap num_vectors at
        # 2**20.  Every exhaustive objective in the paper is far below.
        w = self.weights
        w0 = float(w[0]) if w.size else 0.0
        uniform_pow2 = (
            w.size > 0
            and w0 > 0.0
            and math.frexp(w0)[0] == 0.5
            and bool(np.all(w == w0))
        )
        exact_sum = self.num_vectors <= (1 << 20)
        name = self.metric.name
        if name in ("wmed", "error-rate") and uniform_pow2 and exact_sum:
            self._reduce_kind: Optional[str] = name
        elif name == "med" and exact_sum:
            self._reduce_kind = name
        elif name == "worst-case":
            self._reduce_kind = name
        else:
            self._reduce_kind = None
        if sample_salt:
            # Sampled objectives always materialize the distance row:
            # the confidence interval comes from per-replicate (or
            # per-sample) reductions of it, which the integer triple
            # cannot reconstruct.
            self._reduce_kind = None
        self._w0 = w0
        self.cache = EvalCache(cache_entries)
        #: Within-batch phenotype dedup count (same sig, same brood).
        self._batch_dedup = 0
        #: Number of fused batch dispatches issued.
        self._batch_calls = 0
        #: Candidates actually executed via batch dispatch.
        self._batch_evals = 0
        _obs.ENGINE_BACKEND.labels(self.backend).set(1)

    @property
    def backend(self) -> str:
        """Name of the execution backend actually in use."""
        return "native" if self._native is not None else "numpy"

    def _runtime(self, params: CGPParams) -> Optional[_Runtime]:
        rt = self._runtimes.get(params)
        if rt is None and params not in self._runtimes:
            try:
                if not self._engine_decodable:
                    raise ValueError("reference exceeds int32 decode range")
                rt = _Runtime(
                    params,
                    self.stimulus,
                    self.num_vectors,
                    self.library,
                    self._native,
                    salt_extra=self._objective_salt,
                    exact32=self._exact32,
                )
            except (KeyError, ValueError):
                # A gate function without an engine opcode, or a shape
                # the engine cannot decode: remember the miss and serve
                # this params via the interpreted path.
                rt = None
            self._runtimes[params] = rt
        return rt

    def _check_params(self, params: CGPParams) -> None:
        if params.num_inputs != self.num_inputs:
            raise ValueError(
                f"chromosome has {params.num_inputs} inputs, evaluator "
                f"expects {self.num_inputs}"
            )

    def _reduce_error(self, s: int, nz: int, mx: int) -> float:
        """Metric value from the exact integer triple (native fast path).

        Bit-equal to ``metric.from_distances`` over the materialized
        distance row under the eligibility conditions checked in
        :meth:`_init_engine`: each formula reproduces the reference
        reduction's exact value and final rounding (see the comment
        there for the proofs).
        """
        kind = self._reduce_kind
        if kind == "wmed":
            return s * self._w0 / self.normalizer
        if kind == "med":
            return s / self.num_vectors / self.normalizer
        if kind == "error-rate":
            return nz * self._w0
        return float(mx) / self.normalizer  # worst-case

    # ------------------------------------------------------------------
    # Measure-tuple hooks: the measure is whatever per-phenotype record
    # the objective family caches and turns into results — (error, area)
    # here; the sampled subclass appends the confidence interval.
    def _finish_measure(self, err: np.ndarray, area: float) -> tuple:
        """Measure tuple from a materialized per-vector distance row."""
        return (
            self.metric.from_distances(
                err, self.weights, self.normalizer, self.reference
            ),
            area,
        )

    def _measure_interpreted(self, chromosome: Chromosome) -> tuple:
        """Measure via the inherited numpy path (no runtime available)."""
        return (
            CircuitObjective.error(self, chromosome),
            CircuitObjective.area(self, chromosome),
        )

    def _result(self, measure: tuple, threshold: float) -> EvalResult:
        """Eq. (1) result from a measure tuple."""
        error, area = measure
        fitness = area if error <= threshold else float("inf")
        return EvalResult(fitness=fitness, wmed=error, area=area)

    # ------------------------------------------------------------------
    def _measure(self, chromosome: Chromosome) -> tuple:
        """Measure tuple of a candidate, via cache or fresh execution."""
        rt = self._runtime(chromosome.params)
        if rt is None:
            return self._measure_interpreted(chromosome)
        rt.arena.assert_owner()
        n_ops = rt.compile(chromosome.genes)
        caching = self.cache.max_entries > 0
        if caching:
            sig = rt.signature(n_ops)
            cached = self.cache.get(sig)
            if cached is not None:
                return cached
        rt.execute(n_ops)
        area = float(rt.area_by_op[rt.arena.ops[:n_ops]].sum())
        if rt.native is not None and self._reduce_kind is not None:
            measure = (
                self._reduce_error(*rt.reduce_stats(self.signed)),
                area,
            )
        else:
            measure = self._finish_measure(
                rt.error(self.signed, self._exact32), area
            )
        if caching:
            self.cache.put(sig, *measure)
        return measure

    def truth_table(self, chromosome: Chromosome) -> np.ndarray:
        self._check_params(chromosome.params)
        rt = self._runtime(chromosome.params)
        if rt is None:
            return CircuitObjective.truth_table(self, chromosome)
        n_ops = rt.compile(chromosome.genes)
        rt.execute(n_ops)
        return rt.values(self.signed).astype(np.int64)

    def error(self, chromosome: Chromosome) -> float:
        self._check_params(chromosome.params)
        return self._measure(chromosome)[0]

    def wmed(self, chromosome: Chromosome) -> float:
        return self.error(chromosome)

    def evaluate(self, chromosome: Chromosome, threshold: float) -> EvalResult:
        t0 = perf_counter_ns()
        self._check_params(chromosome.params)
        result = self._result(self._measure(chromosome), threshold)
        _obs.ENGINE_EVALS.inc()
        _obs.ENGINE_EVAL_NS.inc(perf_counter_ns() - t0)
        return result

    def _lane_measure(
        self, rt: _Runtime, n_lanes: int
    ) -> Callable[[int, int], tuple]:
        """Pick the brood schedule; return ``measure(lane, n_ops)``.

        Native lanes run chunked and serially (see :meth:`execute_lane`)
        unless the exact-integer fold applies and ``REPRO_OMP`` asks for
        a team; then all lanes run in one threaded call up front.  The
        numpy backend likewise runs the whole brood before reducing.
        """
        lane_area = rt.lane_area
        signed = self.signed
        if rt.native is None:
            rt.execute_batch(n_lanes, signed)
            batch_err = rt.arena.batch_err
            finish = self._finish_measure

            def measure(lane: int, n_ops: int) -> tuple:
                return finish(batch_err[lane], lane_area(lane, n_ops))
        elif self._reduce_kind is None:
            execute_lane = rt.execute_lane
            finish = self._finish_measure

            def measure(lane: int, n_ops: int) -> tuple:
                return finish(
                    execute_lane(lane, signed), lane_area(lane, n_ops)
                )
        else:
            reduce_error = self._reduce_error
            nthreads = omp_threads() if n_lanes > 1 else 1
            if nthreads > 1:
                stats = rt.execute_team_stats(n_lanes, signed, nthreads)

                def measure(lane: int, n_ops: int) -> tuple:
                    return (
                        reduce_error(*stats[lane].tolist()),
                        lane_area(lane, n_ops),
                    )
            else:
                execute_lane_stats = rt.execute_lane_stats

                def measure(lane: int, n_ops: int) -> tuple:
                    return (
                        reduce_error(*execute_lane_stats(lane, signed)),
                        lane_area(lane, n_ops),
                    )
        return measure

    def evaluate_batch(
        self, chromosomes: Sequence[Chromosome], threshold: float
    ) -> List[EvalResult]:
        """Evaluate a population slice through the batch ABI.

        Per candidate: compile into a private slab lane, look the
        signature up in the phenotype cache, and dedupe identical
        phenotypes within the batch.  Survivors then run through the
        ``cgp_eval_batch`` ABI under one of two schedules:

        * serial (the default): the entry point dispatched one candidate
          at a time (cache-blocked), every chunk reusing the same lane,
          scratch and error row so the metric reduction that follows it
          reads cache-hot data;
        * threaded: **one** call, candidate loop in C under an OpenMP
          team.  Only when ``REPRO_OMP`` requests N > 1 threads *and*
          the reduction is the exact-integer C fold (``_reduce_kind``),
          so distances never leave C.  Float reductions (D-weighted
          WMED, MRED, sampled, ...) always run serially: their
          ``np.dot`` runs on OpenBLAS's thread pool, which the team's
          spinning workers starve.

        The numpy backend runs the brood into private error rows, then
        reduces each.  Results are bit-identical to calling
        :meth:`evaluate` sequentially — same compiled programs, same
        integer kernels, same float64 reduction operand order — the
        schedule only changes dispatch overhead and memory locality.

        Mixed-params batches and non-engine runtimes fall back to the
        sequential path.
        """
        chromosomes = list(chromosomes)
        if not chromosomes:
            return []
        params = chromosomes[0].params
        for c in chromosomes:
            self._check_params(c.params)
        rt = self._runtime(params)
        if rt is None or any(c.params != params for c in chromosomes[1:]):
            # The sequential fallback counts per-candidate in evaluate().
            return [self.evaluate(c, threshold) for c in chromosomes]
        t0 = perf_counter_ns()
        rt.arena.assert_owner()
        n = len(chromosomes)
        rt.ensure_batch(n)
        caching = self.cache.max_entries > 0
        measures: List[Optional[tuple]] = [None] * n
        dups: List[tuple] = []          # (result index, lane index)
        pending: List[tuple] = []       # (result index, lane, sig, n_ops)
        lane_of_sig: Dict[bytes, int] = {}
        n_lanes = 0
        # Bound-method / attribute hoists: this loop runs once per
        # evaluation, so repeated lookups are measurable next to the
        # ~100 µs native call.
        compile_lane = rt.compile_into_lane
        lane_sig = rt.lane_signature
        cache_get = self.cache.get
        for i, ch in enumerate(chromosomes):
            n_ops = compile_lane(ch.genes, n_lanes)
            sig = lane_sig(n_lanes, n_ops)
            if caching:
                cached = cache_get(sig)
                if cached is not None:
                    measures[i] = cached
                    continue
            dup_lane = lane_of_sig.get(sig)
            if dup_lane is not None:
                self._batch_dedup += 1
                dups.append((i, dup_lane))
                continue
            lane_of_sig[sig] = n_lanes
            pending.append((i, n_lanes, sig, n_ops))
            n_lanes += 1
        _obs.ENGINE_COMPILE_NS.inc(perf_counter_ns() - t0)
        if dups:
            _obs.ENGINE_BATCH_DEDUP.inc(len(dups))
        if n_lanes:
            self._batch_calls += 1
            self._batch_evals += n_lanes
            _obs.ENGINE_BATCH_CALLS.inc()
            _obs.ENGINE_BATCH_EVALS.inc(n_lanes)
            _obs.ENGINE_BATCH_SIZE.observe(n_lanes)
            measure = self._lane_measure(rt, n_lanes)
            by_lane: Dict[int, tuple] = {}
            cache_put = self.cache.put
            for i, lane, sig, n_ops in pending:
                m = measure(lane, n_ops)
                if caching:
                    cache_put(sig, *m)
                measures[i] = by_lane[lane] = m
            for i, lane in dups:
                measures[i] = by_lane[lane]
        result_of = self._result
        results = [result_of(m, threshold) for m in measures]
        _obs.ENGINE_EVALS.inc(n)
        _obs.ENGINE_EVAL_NS.inc(perf_counter_ns() - t0)
        return results

    def stats(self) -> dict:
        """Engine counters for logging and benchmarks."""
        omp = {"compiled": False, "threads": 1}
        if self._native is not None:
            omp = {
                "compiled": self._native.omp_compiled(),
                "threads": omp_threads(),
            }
        return {
            "backend": self.backend,
            "cache": self.cache.stats(),
            "fast_reduce": self._reduce_kind,
            "runtimes": len(self._runtimes),
            "batch": {
                "calls": self._batch_calls,
                "evals": self._batch_evals,
                "dedup": self._batch_dedup,
            },
            "omp": omp,
        }


class CompiledObjective(_EngineEvalMixin, CircuitObjective):
    """Engine-backed evaluator for *any* circuit objective.

    Wraps an existing :class:`~repro.core.objective.CircuitObjective`
    (sharing its precomputed reference / weights / stimulus arrays) and
    routes every evaluation through the compiled pipeline; see the
    module docstring.

    Args:
        objective: The interpreted objective to accelerate — anything
            built by :mod:`repro.core.components` (or a legacy
            ``MultiplierFitness`` / ``CircuitFitness``).
        backend: ``"auto"`` (native when buildable, else numpy),
            ``"native"`` (require the C backend) or ``"numpy"``.
        cache_entries: Phenotype-cache capacity; 0 disables caching.
    """

    def __init__(
        self,
        objective: CircuitObjective,
        backend: str = "auto",
        cache_entries: int = 1 << 16,
    ) -> None:
        if not isinstance(objective, CircuitObjective):
            raise TypeError(
                f"expected a CircuitObjective, got {type(objective).__name__}"
            )
        # Adopt the objective's precomputed state wholesale (reference,
        # weights, stimulus, area cache...); arrays are shared, not
        # copied — the wrapper only adds engine state on top.
        self.__dict__.update(objective.__dict__)
        self._init_engine(backend, cache_entries)


class CompiledSampledObjective(_EngineEvalMixin, SampledObjective):
    """Engine-backed evaluator for a sampled objective.

    Wraps a :class:`~repro.core.objective.SampledObjective`: candidates
    compile and execute through the same engine pipeline as
    :class:`CompiledObjective` — the arena simply holds the packed
    sample matrix instead of the exhaustive stimulus — and every result
    is a :class:`~repro.core.objective.SampledEvalResult` carrying the
    95 % confidence interval.  The phenotype-cache entries store the
    four-tuple ``(error, area, ci_low, ci_high)``, salted with the
    sample-spec identity, so sampled and exhaustive evaluations of the
    same phenotype never alias.  Exact-integer fast reduction is always
    disabled here: the CI needs the materialized distance row.

    Widths whose reference magnitudes exceed the engine's int32 decode
    range (e.g. multipliers past width 15) transparently serve through
    the interpreted sampled path instead — same estimates, no engine.

    Args:
        objective: The sampled objective to accelerate (anything built
            by :func:`repro.core.components.sampled_component_objective`).
        backend: ``"auto"`` (native when buildable, else numpy),
            ``"native"`` (require the C backend) or ``"numpy"``.
        cache_entries: Phenotype-cache capacity; 0 disables caching.
    """

    def __init__(
        self,
        objective: SampledObjective,
        backend: str = "auto",
        cache_entries: int = 1 << 16,
    ) -> None:
        if not isinstance(objective, SampledObjective):
            raise TypeError(
                f"expected a SampledObjective, got {type(objective).__name__}"
            )
        self.__dict__.update(objective.__dict__)
        self._init_engine(backend, cache_entries)

    def _finish_measure(self, err: np.ndarray, area: float) -> tuple:
        est = SampledObjective.estimate_distances(self, err)
        return (est.value, area, est.ci_low, est.ci_high)

    def _measure_interpreted(self, chromosome: Chromosome) -> tuple:
        # error_distances() routes through the mixin's truth_table, so
        # this also covers the engine-undecodable widths.
        est = SampledObjective.estimate_distances(
            self, CircuitObjective.error_distances(self, chromosome)
        )
        return (
            est.value,
            CircuitObjective.area(self, chromosome),
            est.ci_low,
            est.ci_high,
        )

    def _result(self, measure: tuple, threshold: float) -> SampledEvalResult:
        error, area, ci_low, ci_high = measure
        fitness = area if error <= threshold else float("inf")
        return SampledEvalResult(
            fitness=fitness,
            wmed=error,
            area=area,
            ci_low=ci_low,
            ci_high=ci_high,
        )


class CompiledMultiplierFitness(_EngineEvalMixin, MultiplierFitness):
    """Engine-backed drop-in for the legacy ``MultiplierFitness``.

    Equivalent to ``CompiledObjective(MultiplierFitness(...))`` but keeps
    the historical class identity and constructor.

    Args:
        width: Operand bit width.
        dist: Operand-``x`` distribution defining the WMED weights.
        library: Technology library for the area term.
        backend: ``"auto"`` (native when buildable, else numpy),
            ``"native"`` (require the C backend) or ``"numpy"``.
        cache_entries: Phenotype-cache capacity; 0 disables caching.
        metric: Error metric; the paper's ``"wmed"`` by default.
    """

    def __init__(
        self,
        width: int,
        dist: Distribution,
        library: Optional[TechLibrary] = None,
        backend: str = "auto",
        cache_entries: int = 1 << 16,
        metric: object = "wmed",
    ) -> None:
        MultiplierFitness.__init__(
            self, width, dist, library=library, metric=metric
        )
        self._init_engine(backend, cache_entries)
