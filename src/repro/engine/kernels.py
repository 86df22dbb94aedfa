"""Pure-numpy execution backend: kernel loop, decode and reductions.

This is the portable fallback behind the native C backend of
:mod:`repro.engine.native`; both consume the same compiled programs and
produce bit-identical results.  Speed comes from three things:

* the kernel loop runs over the arena's prebuilt slot-row views with
  in-place (``out=``) ufunc kernels — no dict lookups, no per-gate
  allocation;
* decode unpacks *all* output planes with one stacked ``unpackbits`` and
  combines them with per-byte-group ``einsum`` (a bit transpose), instead
  of one unpack + shift + or round-trip per plane;
* the error step subtracts the precomputed exact table directly into
  the arena's preallocated ``float64`` distance row, which the
  objective's metric
  then reduces (WMED through the fixed-order
  :func:`~repro.errors.metrics.weighted_sum`, the same order the native
  backend folds into its tile loop).
"""

from __future__ import annotations

import numpy as np

from .arena import BufferArena
from .opcodes import NUMPY_KERNELS

__all__ = ["run_program_batch", "decode_error_batch"]

#: Per-bit weights for one byte group of the stacked bit-transpose.
_POW2_8 = (np.uint16(1) << np.arange(8, dtype=np.uint16)).astype(np.uint16)


def run_program_batch(arena: BufferArena, cand: int, n_ops: int) -> None:
    """Execute batch candidate ``cand``'s compiled slab.

    Sources resolve against the stimulus rows and the arena's scratch
    lane (``arena.slot_rows``), and all stores land in the lane.  The
    compiler guarantees a destination never aliases its operands, so the
    two-step in-place kernels (NAND, ANDN, ...) are safe.
    """
    rows = arena.slot_rows
    kernels = NUMPY_KERNELS
    ops = arena.batch_ops[cand, :n_ops].tolist()
    src_a = arena.batch_src_a[cand, :n_ops].tolist()
    src_b = arena.batch_src_b[cand, :n_ops].tolist()
    dst = arena.batch_dst[cand, :n_ops].tolist()
    for op, a, b, d in zip(ops, src_a, src_b, dst):
        kernels[op](rows[a], rows[b], rows[d])


def _decode_planes(
    planes: np.ndarray, num_vectors: int, n_bits: int, signed: bool
) -> np.ndarray:
    """Bit-transpose ``planes`` into per-vector ``int32`` integers."""
    bits = np.unpackbits(
        planes.view(np.uint8), axis=1, bitorder="little"
    )[:, :num_vectors]
    values = np.einsum(
        "jn,j->n", bits[:8], _POW2_8[: min(8, n_bits)]
    ).astype(np.int32)
    for group_start in range(8, n_bits, 8):
        k = min(8, n_bits - group_start)
        part = np.einsum(
            "jn,j->n", bits[group_start:group_start + k], _POW2_8[:k]
        )
        values |= part.astype(np.int32) << group_start
    if signed:
        half = np.int32(1) << np.int32(n_bits - 1)
        values[values >= half] -= half << np.int32(1)
    return values


def decode_error_batch(
    arena: BufferArena,
    cand: int,
    n_bits: int,
    signed: bool,
    exact: np.ndarray,
) -> np.ndarray:
    """Decode + error of the candidate just run into ``arena.err``.

    One stacked bit-transpose over all output planes, gathered from the
    scratch lane (or the stimulus, for outputs wired straight to a
    primary input) through batch candidate ``cand``'s output slots, then
    ``|exact - value|`` in the operand order of the native decode.
    """
    err = arena.err
    if n_bits == 0:
        values = np.zeros(arena.num_vectors, dtype=np.int32)
    else:
        rows = arena.slot_rows
        planes = np.stack(
            [rows[s] for s in arena.batch_out_slots[cand, :n_bits].tolist()]
        )
        values = _decode_planes(planes, arena.num_vectors, n_bits, signed)
    np.subtract(exact, values, out=err)
    np.absolute(err, out=err)
    return err
