"""Preallocated evaluation buffers reused across a whole search run.

Candidate evaluation is called millions of times per CGP run; the arena
owns every buffer the hot path needs — the packed stimulus, the
compiled-program slabs, the scratch lane, the decode scratch and the
error row — so an evaluation performs no heap allocation beyond tiny
Python objects (and the numpy backend's decode temporaries).

``buf`` (``num_inputs x words`` of ``uint64``) holds the packed
stimulus, written once at construction (the stimulus of an exhaustive
evaluator never changes).  Every evaluation is a batch
(:meth:`BufferArena.ensure_batch`): each candidate gets a program-slab
row, contiguous 2-D arrays so one native call (``cgp_eval_batch``) can
walk them by stride.  Candidates run one after another through a single
``scratch_lane``: slot ``s < num_inputs`` resolves into ``buf``, slot
``s >= num_inputs`` into lane row ``s - num_inputs``.  A compiled
program writes every non-input slot before reading it, so no candidate
ever reads another's rows, and the lane rows are assigned by the
compiler's liveness allocator (so the hot region is the circuit's live
width, typically far smaller than its gate count, and stays
cache-resident).  The transpose scratch, the error row and the
integer-statistics triple are likewise one each, reused per candidate.

The arena is sized for the *worst case* (all nodes active, no slot
reuse), so any phenotype of the associated
:class:`~repro.core.chromosome.CGPParams` fits without reallocation.

Arenas are **single-owner**: buffers are mutated in place with no
locking, so an instance must only ever be used by the thread that
created it (one evaluator per worker).  :meth:`assert_owner` enforces
this, turning silent cross-thread data races into an immediate error.
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np

__all__ = ["BufferArena"]


class BufferArena:
    """Evaluation workspace for one (params-shape, stimulus) pair.

    Args:
        num_inputs: Primary input count (stimulus rows).
        num_nodes: Maximum number of compiled operations.
        num_outputs: Output bus width in bits.
        stimulus: Packed input words, shape ``(num_inputs, words)``.
        num_vectors: Number of valid test vectors in the stimulus.
    """

    def __init__(
        self,
        num_inputs: int,
        num_nodes: int,
        num_outputs: int,
        stimulus: np.ndarray,
        num_vectors: int,
    ) -> None:
        if stimulus.shape[0] != num_inputs:
            raise ValueError(
                f"stimulus has {stimulus.shape[0]} rows, expected {num_inputs}"
            )
        if num_outputs > 31:
            # Decode accumulates into int32; 32 unsigned bits would wrap.
            raise ValueError("engine decodes at most 31 output bits")
        self.num_inputs = num_inputs
        self.num_nodes = num_nodes
        self.num_outputs = num_outputs
        self.num_vectors = int(num_vectors)
        self.words = int(stimulus.shape[1])
        self._owner_thread = threading.get_ident()

        self.buf = np.array(stimulus, dtype=np.uint64, order="C")
        # Slot s >= ni lives in lane row s - ni; the worst case (no slot
        # reuse) needs num_nodes rows.
        self.scratch_lane = np.empty(
            (num_nodes, self.words), dtype=np.uint64
        )
        #: Slot-indexed row views (stimulus rows, then lane rows),
        #: prebuilt so the numpy kernel loop does no slicing.
        self.slot_rows: List[np.ndarray] = (
            list(self.buf) + list(self.scratch_lane)
        )
        ngroups = (self.num_vectors + 7) // 8
        #: Native bit-transpose scratch of the output planes.
        self.decode_scratch = np.empty(4 * max(ngroups, 1), dtype=np.uint64)
        #: Per-vector distances of the candidate just run.
        self.err = np.empty(self.num_vectors, dtype=np.float64)
        #: Its ``(sum |d|, count != 0, max |d|)`` on the native exact path.
        self.stats = np.zeros(3, dtype=np.int64)

        # Per-candidate program slabs, allocated lazily by ensure_batch().
        self.batch_capacity = 0
        #: Incremented on every batch (re)allocation so callers caching
        #: raw buffer addresses know when to refresh them.
        self.batch_epoch = 0
        self.batch_ops: Optional[np.ndarray] = None
        self.batch_src_a: Optional[np.ndarray] = None
        self.batch_src_b: Optional[np.ndarray] = None
        self.batch_dst: Optional[np.ndarray] = None
        self.batch_out_slots: Optional[np.ndarray] = None
        self.batch_n_ops: Optional[np.ndarray] = None
        self.batch_wsum: Optional[np.ndarray] = None
        self.batch_exited: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def assert_owner(self) -> None:
        """Raise if called from a thread other than the creator.

        The arena's buffers (and the compiled-program slabs inside them)
        are reused mutably across evaluations with no synchronization;
        sharing one instance between threads would corrupt results
        silently.  Matches the "one evaluator per worker" contract.
        """
        if threading.get_ident() != self._owner_thread:
            raise RuntimeError(
                "BufferArena is single-owner: it was created on thread "
                f"{self._owner_thread} but used from thread "
                f"{threading.get_ident()}; create one evaluator per worker"
            )

    # ------------------------------------------------------------------
    def ensure_batch(self, n_cand: int) -> None:
        """Grow the per-candidate program slabs to hold ``n_cand``.

        No-op when capacity already suffices.  Growth reallocates (old
        batch contents are not preserved — every batch dispatch fills
        its slabs from scratch) and bumps :attr:`batch_epoch`.
        """
        if n_cand <= self.batch_capacity:
            return
        nn, no = self.num_nodes, self.num_outputs
        self.batch_ops = np.empty((n_cand, nn), dtype=np.int32)
        self.batch_src_a = np.empty((n_cand, nn), dtype=np.int32)
        self.batch_src_b = np.empty((n_cand, nn), dtype=np.int32)
        self.batch_dst = np.empty((n_cand, nn), dtype=np.int32)
        self.batch_out_slots = np.empty((n_cand, max(no, 1)), dtype=np.int32)
        self.batch_n_ops = np.zeros(n_cand, dtype=np.int32)
        # Per-candidate D-weighted distance sum and early-exit flag for
        # the native fused WMED path.
        self.batch_wsum = np.zeros(n_cand, dtype=np.float64)
        self.batch_exited = np.zeros(n_cand, dtype=np.int32)
        self.batch_capacity = n_cand
        self.batch_epoch += 1
