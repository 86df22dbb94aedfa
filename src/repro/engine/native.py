"""Native (C, via ctypes) execution backend for the evaluation engine.

The exhaustive packed simulation is numpy-shaped but ufunc-call-bound: a
width-8 multiplier phenotype is ~300 gates of 1024-word bitwise ops, so
per-call dispatch overhead dominates the arithmetic.  This module embeds
a C implementation of the compile/execute/decode pipeline with two entry
points, ``cgp_compile`` (genome -> program) and ``cgp_eval_batch`` (run
a batch of programs, then decode and reduce each), builds it once with
the system C compiler into a cached shared object, and drives it
through ``ctypes`` over the same :class:`~repro.engine.arena.BufferArena`
buffers the numpy backend uses.

Everything stays optional: if no compiler is available (or compilation
fails, or ``REPRO_ENGINE=numpy`` is set) callers fall back to the
bit-identical numpy backend.  Simulation and decode are integer
arithmetic, so they match numpy exactly under any optimization flags.
The one float computation in C, the fused D-weighted WMED sum, follows
the fixed operation order of :func:`repro.errors.metrics.weighted_sum`
and every build adds ``-ffp-contract=off`` so the compiler cannot fuse
its multiply and add into an FMA; it therefore matches numpy bit for
bit too.

The shared object is cached under ``$REPRO_ENGINE_CACHE`` (default
``~/.cache/repro-engine``) keyed by a digest of the source and compile
flags; concurrent builds (e.g. a process-pool sweep) are safe because
the compiled artifact is moved into place atomically.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from typing import Optional


__all__ = ["NativeLib", "native_lib", "native_available", "omp_threads"]

#: Bump when C_SOURCE changes incompatibly (part of the .so cache key).
_ABI_VERSION = 7

C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#ifdef __AVX2__
#include <immintrin.h>
#endif

/* Words per execution tile: the interpreter runs every op over one tile
   before advancing, so the program's live slot set (live_width * 8 *
   TILE bytes) stays L1-resident across the whole program instead of
   streaming each full-width row through cache once per op.  Tiling only
   reorders independent per-word integer ops, so results are identical
   for any tile size. */
#define ENGINE_TILE_WORDS 128

/* Opcodes: must match repro.engine.opcodes.OP_NAMES. */

static uint64_t SPREAD[256];

void cgp_init(void) {
    for (int b = 0; b < 256; ++b) {
        uint64_t x = 0;
        for (int k = 0; k < 8; ++k)
            if ((b >> k) & 1) x |= 1ULL << (8 * k);
        SPREAD[b] = x;
    }
}

/* Active-cone sweep + liveness-allocated lowering; mirrors
   compiler.compile_genes_into (both must stay byte-identical).
   scratch_i32 needs ni + 3*nn entries; returns the emitted op count. */
int32_t cgp_compile(const int64_t* genes, int32_t nn, int32_t ni, int32_t no,
                    const int32_t* fn2op, const int32_t* op_arity,
                    int32_t* ops, int32_t* sa, int32_t* sb, int32_t* dst,
                    int32_t* out_slots, uint8_t* needed, int32_t* scratch_i32)
{
    const int64_t* outg = genes + (int64_t)nn * 3;
    int32_t* slot = scratch_i32;            /* ni + nn */
    int32_t* last_use = slot + ni + nn;     /* nn */
    int32_t* free_stack = last_use + nn;    /* nn */

    /* Pass 1: transitive fan-in of the outputs (reverse sweep). */
    memset(needed, 0, (size_t)nn);
    for (int32_t j = 0; j < no; ++j) {
        int64_t o = outg[j];
        if (o >= ni) needed[o - ni] = 1;
    }
    for (int32_t node = nn - 1; node >= 0; --node) {
        if (!needed[node]) continue;
        const int64_t* g = genes + (int64_t)node * 3;
        int32_t ar = op_arity[fn2op[g[2]]];
        if (ar >= 1 && g[0] >= ni) needed[g[0] - ni] = 1;
        if (ar >= 2 && g[1] >= ni) needed[g[1] - ni] = 1;
    }

    /* Pass 2: last consumer (emit index) per node; outputs never die. */
    memset(last_use, 0, (size_t)nn * 4);
    int32_t e = 0;
    for (int32_t node = 0; node < nn; ++node) {
        if (!needed[node]) continue;
        const int64_t* g = genes + (int64_t)node * 3;
        int32_t ar = op_arity[fn2op[g[2]]];
        if (ar >= 1 && g[0] >= ni) last_use[g[0] - ni] = e;
        if (ar >= 2 && g[1] >= ni) last_use[g[1] - ni] = e;
        ++e;
    }
    int32_t n_total = e;
    for (int32_t j = 0; j < no; ++j) {
        int64_t o = outg[j];
        if (o >= ni) last_use[o - ni] = n_total;
    }

    /* Pass 3: emission with LIFO slot recycling.  Dead operand slots are
       released only after the destination is allocated, so a destination
       never aliases its own operands. */
    for (int32_t k = 0; k < ni; ++k) slot[k] = k;
    int32_t n_free = 0, next_new = ni;
    e = 0;
    for (int32_t node = 0; node < nn; ++node) {
        if (!needed[node]) continue;
        const int64_t* g = genes + (int64_t)node * 3;
        int32_t opc = fn2op[g[2]];
        int32_t ar = op_arity[opc];
        int64_t ga = g[0], gb = g[1];
        ops[e] = opc;
        sa[e] = ar >= 1 ? slot[ga] : 0;
        sb[e] = ar >= 2 ? slot[gb] : 0;
        int32_t d = n_free ? free_stack[--n_free] : next_new++;
        dst[e] = d;
        slot[ni + node] = d;
        if (ar >= 1 && ga >= ni && last_use[ga - ni] == e)
            free_stack[n_free++] = slot[ga];
        if (ar >= 2 && gb >= ni && gb != ga && last_use[gb - ni] == e)
            free_stack[n_free++] = slot[gb];
        ++e;
    }
    for (int32_t j = 0; j < no; ++j) out_slots[j] = slot[outg[j]];
    return n_total;
}

/* Slot -> row resolution: slots below ni are the shared packed
   stimulus; slot s >= ni is row s - ni of the candidate's scratch lane. */
static inline const uint64_t* src_row(const uint64_t* inputs,
                                      const uint64_t* lane,
                                      int32_t ni, int32_t W, int32_t s)
{
    return s < ni ? inputs + (size_t)s * W : lane + (size_t)(s - ni) * W;
}

/* Runs every op of one compiled program over the tw-word tile starting
   at word t.  Destinations are always >= ni (primary inputs are never
   recycled), so all stores land in the candidate's lane. */
static void exec_tile(const uint64_t* inputs, uint64_t* lane,
                      int32_t ni, int32_t W, int32_t t, int32_t tw,
                      int32_t n_ops, const int32_t* ops, const int32_t* sa,
                      const int32_t* sb, const int32_t* dst)
{
    size_t t8 = (size_t)tw * 8;
    for (int32_t i = 0; i < n_ops; ++i) {
        const uint64_t* restrict a =
            src_row(inputs, lane, ni, W, sa[i]) + t;
        const uint64_t* restrict b =
            src_row(inputs, lane, ni, W, sb[i]) + t;
        uint64_t* restrict o = lane + (size_t)(dst[i] - ni) * W + t;
        switch (ops[i]) {
        case 0: memset(o, 0, t8); break;
        case 1: memset(o, 0xFF, t8); break;
        case 2: memcpy(o, a, t8); break;
        case 3: for (int32_t w = 0; w < tw; ++w) o[w] = ~a[w]; break;
        case 4: for (int32_t w = 0; w < tw; ++w) o[w] = a[w] & b[w]; break;
        case 5: for (int32_t w = 0; w < tw; ++w) o[w] = a[w] | b[w]; break;
        case 6: for (int32_t w = 0; w < tw; ++w) o[w] = a[w] ^ b[w]; break;
        case 7: for (int32_t w = 0; w < tw; ++w) o[w] = ~(a[w] & b[w]); break;
        case 8: for (int32_t w = 0; w < tw; ++w) o[w] = ~(a[w] | b[w]); break;
        case 9: for (int32_t w = 0; w < tw; ++w) o[w] = ~(a[w] ^ b[w]); break;
        case 10: for (int32_t w = 0; w < tw; ++w) o[w] = a[w] & ~b[w]; break;
        case 11: for (int32_t w = 0; w < tw; ++w) o[w] = a[w] | ~b[w]; break;
        }
    }
}

static inline int32_t tile_words(int32_t W, int32_t t)
{
    return W - t < ENGINE_TILE_WORDS ? W - t : ENGINE_TILE_WORDS;
}

/* Tiled interpreter over one compiled program (see ENGINE_TILE_WORDS). */
static void exec_program(const uint64_t* inputs, uint64_t* lane,
                         int32_t ni, int32_t W, int32_t n_ops,
                         const int32_t* ops, const int32_t* sa,
                         const int32_t* sb, const int32_t* dst)
{
    for (int32_t t = 0; t < W; t += ENGINE_TILE_WORDS)
        exec_tile(inputs, lane, ni, W, t, tile_words(W, t), n_ops,
                  ops, sa, sb, dst);
}

/* Bit-transpose the output planes into per-vector byte groups.
   scratch needs (n_bits+7)/8 * ceil(num_vectors/8) uint64 entries.
   All (up to) 8 planes of a byte group are combined in one pass, so
   each accumulator word is stored exactly once.  Takes one pointer per
   plane (rather than slot indices) so callers can resolve each slot
   against the shared inputs or the candidate's lane. */
static int64_t transpose_planes(const uint64_t* const* planes,
                                int32_t n_bits, int64_t num_vectors,
                                uint64_t* scratch)
{
    int64_t ngroups = (num_vectors + 7) >> 3;
    int32_t n_acc = (n_bits + 7) >> 3;
    for (int32_t gi = 0; gi < n_acc; ++gi) {
        uint64_t* restrict acc = scratch + (size_t)gi * ngroups;
        int32_t j0 = gi * 8;
        int32_t k = n_bits - j0;
        if (k > 8) k = 8;
        const uint8_t* pb[8];
        for (int32_t j = 0; j < k; ++j)
            pb[j] = (const uint8_t*)planes[j0 + j];
        int64_t m0 = 0;
        if (k == 8) {
#ifdef __AVX2__
            /* 32 vectors (= 4 bytes of each plane) per iteration: spread
               a broadcast 32-bit chunk to bytes with a shuffle, pick each
               byte's bit with cmpeq against a bit mask, OR the planes. */
            const __m256i repl = _mm256_setr_epi8(
                0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,
                2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
            const __m256i bits = _mm256_setr_epi8(
                1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64, -128,
                1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64, -128);
            int64_t chunks = ngroups / 4;   /* 4 acc words = 32 vectors */
            uint8_t* accb = (uint8_t*)acc;
            for (int64_t c = 0; c < chunks; ++c) {
                __m256i a = _mm256_setzero_si256();
                for (int32_t j = 0; j < 8; ++j) {
                    uint32_t chunk;
                    memcpy(&chunk, pb[j] + 4 * c, 4);
                    __m256i x = _mm256_set1_epi32((int32_t)chunk);
                    x = _mm256_shuffle_epi8(x, repl);
                    x = _mm256_cmpeq_epi8(_mm256_and_si256(x, bits), bits);
                    x = _mm256_and_si256(x, _mm256_set1_epi8((char)(1 << j)));
                    a = _mm256_or_si256(a, x);
                }
                _mm256_storeu_si256((__m256i*)(accb + 32 * c), a);
            }
            m0 = chunks * 4;
#endif
            for (int64_t m = m0; m < ngroups; ++m)
                acc[m] = SPREAD[pb[0][m]]
                       | (SPREAD[pb[1][m]] << 1)
                       | (SPREAD[pb[2][m]] << 2)
                       | (SPREAD[pb[3][m]] << 3)
                       | (SPREAD[pb[4][m]] << 4)
                       | (SPREAD[pb[5][m]] << 5)
                       | (SPREAD[pb[6][m]] << 6)
                       | (SPREAD[pb[7][m]] << 7);
        } else {
            (void)m0;
            for (int64_t m = 0; m < ngroups; ++m) {
                uint64_t x = 0;
                for (int32_t j = 0; j < k; ++j)
                    x |= SPREAD[pb[j][m]] << j;
                acc[m] = x;
            }
        }
    }
    return ngroups;
}

/* Fused decode + |exact - value| (the WMED error vector).  The
   n_bits <= 16 case — every paper width — is a single lane-wise loop
   (byte interleave, sign-extend shifts, subtract, absolute value,
   int->double): hand-vectorized 8 vectors per iteration under AVX2,
   with a scalar tail (and non-AVX2 fallback) built from the identical
   integer expressions, so every path produces the same doubles. */
static void err_loop_16(const uint8_t* restrict a0,
                        const uint8_t* restrict a1, int32_t two_acc,
                        int32_t do_sign, int32_t ext,
                        const int32_t* restrict exact,
                        double* restrict err, int64_t n)
{
    int64_t v = 0;
#ifdef __AVX2__
    for (; v + 8 <= n; v += 8) {
        __m256i x = _mm256_cvtepu8_epi32(
            _mm_loadl_epi64((const __m128i*)(a0 + v)));
        if (two_acc) {
            __m256i hi = _mm256_cvtepu8_epi32(
                _mm_loadl_epi64((const __m128i*)(a1 + v)));
            x = _mm256_or_si256(x, _mm256_slli_epi32(hi, 8));
        }
        if (do_sign)
            x = _mm256_srai_epi32(
                _mm256_slli_epi32(x, ext), ext);
        __m256i d = _mm256_abs_epi32(_mm256_sub_epi32(
            _mm256_loadu_si256((const __m256i*)(exact + v)), x));
        _mm256_storeu_pd(err + v,
            _mm256_cvtepi32_pd(_mm256_castsi256_si128(d)));
        _mm256_storeu_pd(err + v + 4,
            _mm256_cvtepi32_pd(_mm256_extracti128_si256(d, 1)));
    }
#endif
    for (; v < n; ++v) {
        int32_t val = a0[v];
        if (two_acc) val |= (int32_t)a1[v] << 8;
        if (do_sign) val = (int32_t)((uint32_t)val << ext) >> ext;
        int32_t d = exact[v] - val;
        err[v] = (double)(d < 0 ? -d : d);
    }
}

/* Reduced decode: the same decoded values and |exact - value| integer
   distances as err_loop_16, folded on the fly into three integer
   statistics — sum, nonzero count, max — instead of a float64 row.
   Integer addition is associative, so any accumulation order gives the
   exact sum; callers only use this when the downstream float metric is
   provably bit-equal to the one computed from the materialized row
   (see CompiledObjective._init_engine). */
static void reduce_loop_16(const uint8_t* restrict a0,
                           const uint8_t* restrict a1, int32_t two_acc,
                           int32_t do_sign, int32_t ext,
                           const int32_t* restrict exact, int64_t n,
                           int64_t* restrict stats)
{
    int64_t sum = 0, nz = 0, mx = 0;
    int64_t v = 0;
#ifdef __AVX2__
    __m256i vsum = _mm256_setzero_si256();
    __m256i vnz = _mm256_setzero_si256();
    __m256i vmx = _mm256_setzero_si256();
    for (; v + 8 <= n; v += 8) {
        __m256i x = _mm256_cvtepu8_epi32(
            _mm_loadl_epi64((const __m128i*)(a0 + v)));
        if (two_acc) {
            __m256i hi = _mm256_cvtepu8_epi32(
                _mm_loadl_epi64((const __m128i*)(a1 + v)));
            x = _mm256_or_si256(x, _mm256_slli_epi32(hi, 8));
        }
        if (do_sign)
            x = _mm256_srai_epi32(
                _mm256_slli_epi32(x, ext), ext);
        __m256i d = _mm256_abs_epi32(_mm256_sub_epi32(
            _mm256_loadu_si256((const __m256i*)(exact + v)), x));
        vsum = _mm256_add_epi64(vsum,
            _mm256_cvtepu32_epi64(_mm256_castsi256_si128(d)));
        vsum = _mm256_add_epi64(vsum,
            _mm256_cvtepu32_epi64(_mm256_extracti128_si256(d, 1)));
        vnz = _mm256_sub_epi32(vnz,
            _mm256_cmpgt_epi32(d, _mm256_setzero_si256()));
        vmx = _mm256_max_epi32(vmx, d);
    }
    int64_t s4[4];
    int32_t l8[8];
    _mm256_storeu_si256((__m256i*)s4, vsum);
    sum = s4[0] + s4[1] + s4[2] + s4[3];
    _mm256_storeu_si256((__m256i*)l8, vnz);
    for (int32_t j = 0; j < 8; ++j) nz += l8[j];
    _mm256_storeu_si256((__m256i*)l8, vmx);
    for (int32_t j = 0; j < 8; ++j) if (l8[j] > mx) mx = l8[j];
#endif
    for (; v < n; ++v) {
        int32_t val = a0[v];
        if (two_acc) val |= (int32_t)a1[v] << 8;
        if (do_sign) val = (int32_t)((uint32_t)val << ext) >> ext;
        int32_t d = exact[v] - val;
        if (d < 0) d = -d;
        sum += d;
        nz += (d != 0);
        if (d > mx) mx = d;
    }
    stats[0] = sum;
    stats[1] = nz;
    stats[2] = mx;
}

static void decode_err_planes(const uint64_t* const* planes, int32_t n_bits,
                              int64_t num_vectors, int32_t do_sign,
                              uint64_t* scratch, const int32_t* exact,
                              double* restrict err)
{
    int64_t ngroups =
        transpose_planes(planes, n_bits, num_vectors, scratch);
    int32_t n_acc = (n_bits + 7) >> 3;
    const uint8_t* restrict a0 = (const uint8_t*)scratch;
    const uint8_t* restrict a1 = (const uint8_t*)(scratch + ngroups);
    const uint8_t* a2 = (const uint8_t*)(scratch + 2 * ngroups);
    const uint8_t* a3 = (const uint8_t*)(scratch + 3 * ngroups);
    if (n_bits <= 16) {
        err_loop_16(a0, a1, n_acc > 1, do_sign && n_bits > 0,
                    32 - n_bits, exact, err, num_vectors);
        return;
    }
    int32_t half = (do_sign && n_bits < 32)
                       ? (int32_t)(1U << (n_bits - 1)) : 0;
    for (int64_t v = 0; v < num_vectors; ++v) {
        int32_t val = a0[v] | ((int32_t)a1[v] << 8);
        if (n_acc > 2) val |= (int32_t)a2[v] << 16;
        if (n_acc > 3) val |= (int32_t)a3[v] << 24;
        if (do_sign && val >= half) val -= half << 1;
        int64_t d = (int64_t)exact[v] - (int64_t)val;
        err[v] = (double)(d < 0 ? -d : d);
    }
}

/* Integer-statistics twin of decode_err_planes: identical decode and
   distance expressions, but the distances are reduced on the fly into
   stats = {sum |d|, count(d != 0), max |d|} with no float64 row ever
   written.  Exact for any feasible circuit: |d| < 2^32 and callers
   bound num_vectors so the running sum stays below 2^63. */
static void decode_reduce_planes(const uint64_t* const* planes,
                                 int32_t n_bits, int64_t num_vectors,
                                 int32_t do_sign, uint64_t* scratch,
                                 const int32_t* exact,
                                 int64_t* restrict stats)
{
    int64_t ngroups =
        transpose_planes(planes, n_bits, num_vectors, scratch);
    int32_t n_acc = (n_bits + 7) >> 3;
    const uint8_t* restrict a0 = (const uint8_t*)scratch;
    const uint8_t* restrict a1 = (const uint8_t*)(scratch + ngroups);
    const uint8_t* a2 = (const uint8_t*)(scratch + 2 * ngroups);
    const uint8_t* a3 = (const uint8_t*)(scratch + 3 * ngroups);
    if (n_bits <= 16) {
        reduce_loop_16(a0, a1, n_acc > 1, do_sign && n_bits > 0,
                       32 - n_bits, exact, num_vectors, stats);
        return;
    }
    int32_t half = (do_sign && n_bits < 32)
                       ? (int32_t)(1U << (n_bits - 1)) : 0;
    int64_t sum = 0, nz = 0, mx = 0;
    for (int64_t v = 0; v < num_vectors; ++v) {
        int32_t val = a0[v] | ((int32_t)a1[v] << 8);
        if (n_acc > 2) val |= (int32_t)a2[v] << 16;
        if (n_acc > 3) val |= (int32_t)a3[v] << 24;
        if (do_sign && val >= half) val -= half << 1;
        int64_t d = (int64_t)exact[v] - (int64_t)val;
        if (d < 0) d = -d;
        sum += d;
        nz += (d != 0);
        if (d > mx) mx = d;
    }
    stats[0] = sum;
    stats[1] = nz;
    stats[2] = mx;
}

/* Fixed-order D-weighted distance sum (the WMED numerator): vector v
   adds w[v] * |exact[v] - value[v]| into lane accumulator acc[v & 15]
   as a rounded multiply followed by a rounded add (the library is
   built with -ffp-contract=off, so no FMA fuses the two), and
   wsum_tree combines the 16 lanes pairwise.  This is exactly the order
   of repro.errors.metrics.weighted_sum, the definition every other
   evaluation path uses, so the result is the same bits everywhere and
   independent of any BLAS thread count.  Callers pass tiles that start
   at a multiple of 16 vectors, so v & 15 is the global lane too. */
static double wsum_tree(const double* acc)
{
    double c[16];
    memcpy(c, acc, sizeof c);
    for (int32_t step = 1; step < 16; step <<= 1)
        for (int32_t j = 0; j < 16; j += 2 * step)
            c[j] += c[j + step];
    return c[0];
}

/* n_bits <= 16 decode, as err_loop_16, folded into the lane sums. */
static void wsum_loop_16(const uint8_t* restrict a0,
                         const uint8_t* restrict a1, int32_t two_acc,
                         int32_t do_sign, int32_t ext,
                         const int32_t* restrict exact,
                         const double* restrict w, int64_t n,
                         double* restrict acc)
{
    int64_t v = 0;
#ifdef __AVX2__
    __m256d s[4];
    for (int32_t k = 0; k < 4; ++k) s[k] = _mm256_loadu_pd(acc + 4 * k);
    for (; v + 16 <= n; v += 16) {
        for (int32_t h = 0; h < 2; ++h) {
            int64_t u = v + 8 * h;
            __m256i x = _mm256_cvtepu8_epi32(
                _mm_loadl_epi64((const __m128i*)(a0 + u)));
            if (two_acc) {
                __m256i hi = _mm256_cvtepu8_epi32(
                    _mm_loadl_epi64((const __m128i*)(a1 + u)));
                x = _mm256_or_si256(x, _mm256_slli_epi32(hi, 8));
            }
            if (do_sign)
                x = _mm256_srai_epi32(_mm256_slli_epi32(x, ext), ext);
            __m256i d = _mm256_abs_epi32(_mm256_sub_epi32(
                _mm256_loadu_si256((const __m256i*)(exact + u)), x));
            __m256d lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(d));
            __m256d hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256(d, 1));
            s[2 * h] = _mm256_add_pd(s[2 * h],
                _mm256_mul_pd(_mm256_loadu_pd(w + u), lo));
            s[2 * h + 1] = _mm256_add_pd(s[2 * h + 1],
                _mm256_mul_pd(_mm256_loadu_pd(w + u + 4), hi));
        }
    }
    for (int32_t k = 0; k < 4; ++k) _mm256_storeu_pd(acc + 4 * k, s[k]);
#endif
    for (; v < n; ++v) {
        int32_t val = a0[v];
        if (two_acc) val |= (int32_t)a1[v] << 8;
        if (do_sign) val = (int32_t)((uint32_t)val << ext) >> ext;
        int32_t d = exact[v] - val;
        acc[v & 15] += w[v] * (double)(d < 0 ? -d : d);
    }
}

/* Weighted-sum twin of decode_err_planes over n vectors. */
static void decode_wsum_planes(const uint64_t* const* planes,
                               int32_t n_bits, int64_t n, int32_t do_sign,
                               uint64_t* scratch, const int32_t* exact,
                               const double* w, double* restrict acc)
{
    int64_t ngroups = transpose_planes(planes, n_bits, n, scratch);
    int32_t n_acc = (n_bits + 7) >> 3;
    const uint8_t* restrict a0 = (const uint8_t*)scratch;
    const uint8_t* restrict a1 = (const uint8_t*)(scratch + ngroups);
    const uint8_t* a2 = (const uint8_t*)(scratch + 2 * ngroups);
    const uint8_t* a3 = (const uint8_t*)(scratch + 3 * ngroups);
    if (n_bits <= 16) {
        wsum_loop_16(a0, a1, n_acc > 1, do_sign && n_bits > 0,
                     32 - n_bits, exact, w, n, acc);
        return;
    }
    int32_t half = (do_sign && n_bits < 32)
                       ? (int32_t)(1U << (n_bits - 1)) : 0;
    for (int64_t v = 0; v < n; ++v) {
        int32_t val = a0[v] | ((int32_t)a1[v] << 8);
        if (n_acc > 2) val |= (int32_t)a2[v] << 16;
        if (n_acc > 3) val |= (int32_t)a3[v] << 24;
        if (do_sign && val >= half) val -= half << 1;
        int64_t d = (int64_t)exact[v] - (int64_t)val;
        acc[v & 15] += w[v] * (double)(d < 0 ? -d : d);
    }
}

/* The arguments of one cgp_eval_batch call: candidate c's program sits
   at c * prog_stride (its output slots at c * out_stride). */
typedef struct {
    const uint64_t* inputs;
    uint64_t* lane;
    int32_t ni, W;
    const int32_t* n_ops;
    const int32_t *ops, *sa, *sb, *dst;
    int64_t prog_stride;
    const int32_t* out_slots;
    int32_t n_bits;
    int64_t out_stride, num_vectors;
    int32_t do_sign;
    uint64_t* scratch;
    const int32_t* exact;
    double* err;
    int64_t* stats;
    const double* weights;
    double norm, thr;
    double* wsum;
    int32_t* exited;
} batch_t;

/* Fused D-weighted WMED of candidate c: per tile, run the program,
   transpose that tile's output planes and fold its weighted distances
   into the 16 lane sums, so no distance row is ever written.  After
   any non-final tile, a candidate whose partial sum already shows
   partial / norm > thr stops: every product is non-negative, and
   adding a non-negative term, the pairwise tree and the division are
   all monotone under round-to-nearest, so the final value would exceed
   thr as well.  wsum[c] receives the sum (a lower bound when exited[c]
   is set).  thr = +inf disables the exit. */
static void eval_candidate_wsum(const batch_t* b, int32_t c)
{
    uint64_t* lane = b->lane;
    const int32_t* osl = b->out_slots + c * b->out_stride;
    int64_t po = c * b->prog_stride;
    double acc[16] = {0};
    int32_t exited = 0;
    for (int32_t t = 0; t < b->W; t += ENGINE_TILE_WORDS) {
        int32_t tw = tile_words(b->W, t);
        exec_tile(b->inputs, lane, b->ni, b->W, t, tw, b->n_ops[c],
                  b->ops + po, b->sa + po, b->sb + po, b->dst + po);
        const uint64_t* planes[32];
        for (int32_t j = 0; j < b->n_bits; ++j)
            planes[j] = src_row(b->inputs, lane, b->ni, b->W, osl[j]) + t;
        int64_t v0 = (int64_t)t * 64;
        int64_t n = b->num_vectors - v0;
        if (n > (int64_t)tw * 64) n = (int64_t)tw * 64;
        decode_wsum_planes(planes, b->n_bits, n, b->do_sign, b->scratch,
                           b->exact + v0, b->weights + v0, acc);
        if (t + tw < b->W && wsum_tree(acc) / b->norm > b->thr) {
            exited = 1;
            break;
        }
    }
    b->wsum[c] = wsum_tree(acc);
    b->exited[c] = exited;
}

/* One candidate of a batch: execute its program into the lane, then
   decode + error straight from the lane (or the shared inputs, for
   outputs wired directly to a primary input).  With stats non-NULL the
   error row is never touched: the distances are folded into the
   three-integer summary instead (see decode_reduce_planes); with
   weights non-NULL they fold into the weighted sum, tile by tile. */
static void eval_candidate(const batch_t* b, int32_t c)
{
    uint64_t* lane = b->lane;
    if (b->weights) {
        eval_candidate_wsum(b, c);
        return;
    }
    int64_t po = c * b->prog_stride;
    const int32_t* osl = b->out_slots + c * b->out_stride;
    exec_program(b->inputs, lane, b->ni, b->W, b->n_ops[c], b->ops + po,
                 b->sa + po, b->sb + po, b->dst + po);
    const uint64_t* planes[32];
    for (int32_t j = 0; j < b->n_bits; ++j)
        planes[j] = src_row(b->inputs, lane, b->ni, b->W, osl[j]);
    if (b->stats)
        decode_reduce_planes(planes, b->n_bits, b->num_vectors, b->do_sign,
                             b->scratch, b->exact, b->stats + 3 * (int64_t)c);
    else
        decode_err_planes(planes, b->n_bits, b->num_vectors, b->do_sign,
                          b->scratch, b->exact, b->err);
}

/* Batched evaluation: one call runs n_cand compiled programs over the
   shared packed stimulus, one after another.  Every candidate owns a
   program slab row (strides in int32 elements); the scratch lane and
   the transpose scratch are shared.  A compiled program writes every
   non-input slot before reading it (slots map to inputs or earlier
   destinations of the same program), so no candidate reads another's
   rows and a candidate's result does not depend on its batch; the one
   lane stays cache-resident.
   Three outputs, by which pointer is non-NULL:
   - weights: the fused D-weighted sum of each candidate lands in
     wsum[c] and its early-exit flag in exited[c] (eval_candidate_wsum);
   - stats: candidate c's distances reduce into stats[3c .. 3c+2];
   - otherwise: each candidate's float64 distances overwrite the one
     err row, so callers read them one candidate per call. */
void cgp_eval_batch(const uint64_t* inputs, uint64_t* lane, int32_t ni,
                    int32_t W, int32_t n_cand,
                    const int32_t* n_ops_arr, const int32_t* ops,
                    const int32_t* sa, const int32_t* sb,
                    const int32_t* dst, int64_t prog_stride,
                    const int32_t* out_slots, int32_t n_bits,
                    int64_t out_stride, int64_t num_vectors,
                    int32_t do_sign, uint64_t* scratch,
                    const int32_t* exact, double* err, int64_t* stats,
                    const double* weights, double norm, double thr,
                    double* wsum, int32_t* exited)
{
    batch_t b = {
        inputs, lane, ni, W, n_ops_arr, ops, sa, sb, dst, prog_stride,
        out_slots, n_bits, out_stride, num_vectors, do_sign, scratch,
        exact, err, stats, weights, norm, thr, wsum, exited,
    };
    for (int32_t c = 0; c < n_cand; ++c)
        eval_candidate(&b, c);
}
"""

_I32 = ctypes.c_int32
_I64 = ctypes.c_int64
_F64 = ctypes.c_double
_P = ctypes.c_void_p


def _cache_dir() -> str:
    override = os.environ.get("REPRO_ENGINE_CACHE")
    if override:
        return override
    home = os.path.expanduser("~")
    if home and home != "~" and os.path.isdir(home):
        return os.path.join(home, ".cache", "repro-engine")
    return os.path.join(
        tempfile.gettempdir(), f"repro-engine-{os.getuid()}"
    )


def _find_compiler() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _host_tag() -> str:
    """Identifies the host ISA for the .so cache key.

    ``-march=native`` bakes the build host's instruction set into the
    binary, so a cached artifact must never be reused on a different
    CPU (e.g. a shared NFS home across heterogeneous cluster nodes —
    loading an AVX-512 build on an older node would SIGILL).  The CPU
    feature flags are the discriminator; fall back to coarse platform
    identity where /proc/cpuinfo is unavailable.
    """
    ident = [platform.system(), platform.machine()]
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith(("flags", "features")):
                    ident.append(line.strip())
                    break
    except OSError:
        ident.append(platform.processor())
    return "|".join(ident)


def _build_shared_object() -> Optional[str]:
    """Compile C_SOURCE into a cached .so; return its path or None."""
    compiler = _find_compiler()
    if compiler is None:
        return None
    # Prefer a build tuned to the host ISA; fall back to a portable one
    # when the toolchain rejects -march=native.  -ffp-contract=off keeps
    # the weighted sum's multiply and add separately rounded (GNU C may
    # otherwise fuse them into an FMA, breaking parity with numpy).
    flag_sets = (
        ["-O3", "-march=native", "-shared", "-fPIC"],
        ["-O3", "-shared", "-fPIC"],
    )
    flag_sets = tuple(flags + ["-ffp-contract=off"] for flags in flag_sets)
    cache = _cache_dir()
    for flags in flag_sets:
        tag = hashlib.blake2b(
            (
                C_SOURCE + repr(flags) + str(_ABI_VERSION) + _host_tag()
            ).encode(),
            digest_size=8,
        ).hexdigest()
        so_path = os.path.join(cache, f"engine_{tag}.so")
        if os.path.exists(so_path):
            return so_path
        try:
            os.makedirs(cache, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                src = os.path.join(tmp, "engine.c")
                out = os.path.join(tmp, "engine.so")
                with open(src, "w") as fh:
                    fh.write(C_SOURCE)
                proc = subprocess.run(
                    [compiler, *flags, "-o", out, src],
                    capture_output=True,
                    timeout=120,
                )
                if proc.returncode != 0:
                    continue
                os.replace(out, so_path)  # atomic: safe under races
            return so_path
        except (OSError, subprocess.SubprocessError):
            continue
    return None


class NativeLib:
    """ctypes facade over the compiled engine library."""

    def __init__(self, path: str) -> None:
        self.path = path
        lib = ctypes.CDLL(path)
        lib.cgp_init.restype = None
        lib.cgp_compile.restype = _I32
        lib.cgp_compile.argtypes = [
            _P, _I32, _I32, _I32, _P, _P, _P, _P, _P, _P, _P, _P, _P
        ]
        lib.cgp_eval_batch.restype = None
        lib.cgp_eval_batch.argtypes = [
            _P, _P, _I32, _I32, _I32,            # inputs, lane, ni, W, n
            _P, _P, _P, _P, _P, _I64,            # n_ops, slabs, prog_stride
            _P, _I32, _I64,                      # out_slots, n_bits, stride
            _I64, _I32, _P,                      # nvec, sign, scratch
            _P, _P, _P,                          # exact, err, stats
            _P, _F64, _F64, _P, _P,              # weights, norm, thr, out
        ]
        lib.cgp_init()
        self._lib = lib

    @staticmethod
    def _ptr(arr) -> int:
        # Accepts a precomputed raw address (int) so hot callers can
        # amortize the ~µs-scale ``ndarray.ctypes`` accessor per call.
        return arr if type(arr) is int else arr.ctypes.data

    def eval_batch(
        self,
        inputs,
        lane,
        num_inputs: int,
        words: int,
        n_cand: int,
        n_ops_arr,
        ops,
        src_a,
        src_b,
        dst,
        prog_stride: int,
        out_slots,
        n_bits: int,
        out_stride: int,
        num_vectors: int,
        signed: bool,
        scratch,
        exact,
        err,
        stats=0,
        weights=0,
        norm: float = 1.0,
        thr: float = float("inf"),
        wsum=0,
        exited=0,
    ) -> None:
        """Evaluate ``n_cand`` compiled programs in one native call.

        Array arguments may be ndarrays or precomputed raw addresses;
        slab strides are in elements.  The candidates run one after
        another through the one scratch ``lane`` (``num_nodes x words``
        uint64) and ``scratch``, and each overwrites the one ``err``
        row.  A non-zero ``stats`` points at an ``(n_cand, 3)`` int64
        buffer receiving each candidate's ``(sum |d|, nonzero count,
        max |d|)``; ``err`` then stays untouched (exact-reduction fast
        path, see the C comments).

        A non-zero ``weights`` (float64 per vector) selects the fused
        D-weighted path instead: candidate ``c``'s weighted distance sum
        (:func:`repro.errors.metrics.weighted_sum` order) lands in
        ``wsum[c]`` (float64) with no err row written, and a candidate
        stops after any non-final tile where ``partial / norm > thr``,
        setting ``exited[c]`` (int32) and leaving the partial sum, a
        lower bound, in ``wsum[c]``.  ``thr = inf`` disables the exit.
        """
        self._lib.cgp_eval_batch(
            self._ptr(inputs), self._ptr(lane), num_inputs, words, n_cand,
            self._ptr(n_ops_arr), self._ptr(ops),
            self._ptr(src_a), self._ptr(src_b), self._ptr(dst),
            prog_stride, self._ptr(out_slots), n_bits, out_stride,
            num_vectors, int(signed), self._ptr(scratch),
            self._ptr(exact), self._ptr(err),
            self._ptr(stats), self._ptr(weights), norm, thr,
            self._ptr(wsum), self._ptr(exited),
        )

    def omp_compiled(self) -> bool:
        """Always ``False``: the library is built without OpenMP.

        Kept only because ``perfbench/common.py``'s ``fingerprint()``
        still calls it; remove it with that call.
        """
        return False


_lock = threading.Lock()
_cached: Optional[NativeLib] = None
_build_attempted = False


def native_lib() -> Optional[NativeLib]:
    """The loaded native library, or ``None`` when unavailable.

    Build + load happen once per process; failures are remembered so a
    missing compiler costs one probe, not one per evaluator.
    """
    global _cached, _build_attempted
    if os.environ.get("REPRO_ENGINE", "").lower() in ("numpy", "py", "off"):
        return None
    with _lock:
        if _cached is not None or _build_attempted:
            return _cached
        _build_attempted = True
        path = _build_shared_object()
        if path is None:
            return None
        try:
            _cached = NativeLib(path)
        except OSError:
            _cached = None
        return _cached


def native_available() -> bool:
    """Whether the C backend can be (or has been) built and loaded."""
    return native_lib() is not None


def omp_threads() -> int:
    """Always 1: every batch runs on the calling thread.

    Kept only because ``perfbench/common.py``'s ``fingerprint()`` still
    calls it; remove it with that call.
    """
    return 1
