"""Optional fused C kernels for the matrix-free operator backend.

The batched NumPy path in :mod:`repro.sem.matfree` streams every
intermediate (gathered values, contraction results) through memory,
which in 2D caps its advantage over a pruned CSR matvec near parity.
SPECFEM-class codes fuse gather -> contract -> scatter per element so
the element workspace lives in registers/L1; this module provides that
tier: a small C source compiled on demand with the system compiler and
loaded through :mod:`ctypes` (stdlib only — no new dependencies).
Kernels: 2D acoustic (``ac_apply``), 3D hexahedral acoustic
(``ac_apply3``), and the elastic stress form: 2D isotropic and
anisotropic (``an_apply``), 3D isotropic (``el_apply3``) and 3D
anisotropic (``an_apply3``); the 3D kernels cover orders <=
``MAX_ORDER_3D``.

The kernels are strictly optional.  If no C compiler is available, the
compile fails, ``REPRO_FUSED=0`` is set, or the polynomial order exceeds
``MAX_ORDER``, callers fall back to the NumPy path transparently — same
results (up to last-bit summation order), just slower.  The compiled
shared object is cached in a user-private directory keyed by a source
hash, so the one-time compile (3-4 s with gcc 12) is paid once per
machine, not per process.  When the build fails, :func:`failure_reason`
says why (``python -m repro info`` prints it).

Order-4 instances
-----------------
SPECFEM compiles its element kernels for a fixed GLL point count
(``NGLLX = 5``).  Here the per-``VL``-block bodies of the kernels the
measured workloads run (``ac_block``, ``ac_block3``, ``el_block3``) are
always-inlined functions of ``n1`` = order + 1, stamped out
(``ORDER_INSTANCES``) as one ``noinline`` copy with ``n1`` the literal
``FIXED_N1 = 5`` (order 4, every benchmark workload's order) plus one
copy with the runtime ``n1`` for every other order.  An apply picks its
copy once, so at order 4 every contraction loop has a trip count the
compiler sees (unrolled, register-blocked).  Both copies are the same
source doing the same IEEE operations in the same order: bitwise the
runtime loop.  The anisotropic blocks (``an_block``, ``an_block3``),
which no benchmark workload runs, have the runtime copy only.

Every elastic block runs SPECFEM's stress form (Komatitsch & Tromp
1999): the gradients ``D`` along each axis of each component, a
pointwise stress, and the weighted divergence ``D^T`` back onto each
component — 18 axis contractions per 3D block.  In 3D one body
(``stress_block3``) serves both kernels and only the stress differs:
``el_block3`` forms the isotropic stress from 15 coefficients per
element, ``an_block3`` the general one from 81.  The body reads each
row of the DOF table once for the gather and once for the scatter, all
three components together; a DOF still gets its elements' terms in
block, then lane order.  In 2D the isotropic operator runs
``an_apply`` on its isotropic tensor.

Threading
---------
When the compiler accepts ``-fopenmp`` (probed, like ``-march=native``
— unsupported flags are dropped instead of failing the tier), every
kernel can parallelize its element-block loop across ``n_threads``
OpenMP threads.  The scatter stays atomic-free: each thread accumulates
into its own ``n_dof`` slice of a caller-provided scratch buffer
``zt``, and a second static-schedule loop reduces the slices in
ascending thread order — deterministic for a fixed thread count, and
bitwise equal to serial only up to summation order (callers document a
<= 1e-12 relative tolerance).  Builds without OpenMP export
``repro_omp = 0`` and run the serial loop regardless of ``n_threads``.

Design notes (mirrors the NumPy path in :mod:`repro.sem.matfree`):

* elements are processed in SIMD blocks of ``VL = 8`` in
  structure-of-arrays layout — the vector lane runs *across elements*,
  so every contraction is a broadcast-FMA regardless of how short the
  1D kernel axis is (the classic trick for low-order tensor kernels);
* callers pad the element arrays to a multiple of ``VL`` with
  zero-coefficient ghost elements (``ed`` rows repeating the first DOF),
  so the kernel needs no scalar remainder loop;
* ``gmask`` (per-element-node 0/1) implements both Dirichlet input
  masking and the LTS level restriction (``A[:, cols] u[cols]``);
* the kernels move bytes, not flops, so their tables are narrow: ``ed``
  is ``int32`` (:data:`MAX_DOF` bounds ``n_dof``; a larger product runs
  the NumPy tier) and ``gmask`` is ``uint8`` (625 B of tables per
  order-4 hex instead of 2,000 B).  The mask enters as ``u[d] *
  (double)gm[k]``, for a 0/1 mask the IEEE product a ``float64`` one
  gives: bitwise the 8-byte tables.  Other values are refused before
  packing (:class:`repro.sem.matfree.MatrixFreeStiffness`);
* no kernel scales its rows: an apply writes the raw share ``K u`` and
  its reader multiplies by ``M^{-1}`` first (the LTS phases below), as
  SPECFEM's time update scales the ranks' summed shares.

LTS phases
----------
The same build carries the vector phases of the optimized LTS cycle
(:class:`repro.core.lts_newmark._RankState`), one pass each, which a
rank state runs when its level-1 product runs this tier; its numbering
is level-sorted, every depth a tail, so no phase takes an index map:
``lts_begin`` (``F = M^{-1} z1 - f``, then ``v -= dt F; u += dt v`` on
the prefix; the tail's ``F`` kept, its ``u`` copied into the recursion),
``lts_update`` (a fine depth's ``r = M^{-1} z + F``, its suffix the
child's forcing, or the finest leap-frog step),
``lts_reconstruct`` (the closed form on the prefix, ``(u_fine - u) /
dt_k`` on the child's suffix, then the ``v`` / ``u`` step) and
``lts_finish`` (the ``2/dt`` velocity fix-up of the tail, in place).
They must be bitwise the NumPy phases, so they are compiled with
floating-point contraction off (GCC's ``optimize("fp-contract=off")``,
clang's ``#pragma clang fp contract(off)``): a fused multiply-add rounds
once where NumPy rounds twice.  The kernels keep their FMAs.
:func:`bind_phase` binds a phase's leading arguments once.

Next to them sit the two passes of the distributed halo sum
(:mod:`repro.runtime.executor`), which run whenever this build loads:
``halo_pack`` gathers every channel's payload from the senders' apply
outputs into one receiver-major buffer, ``halo_accumulate`` adds the
payloads into the receivers' outputs channel by channel, in ascending
peer order.  Pure data movement and one add per entry: bitwise the
NumPy per-channel loop.
"""

from __future__ import annotations

import copy
import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from functools import partial

import numpy as np

#: SIMD block width (elements per vector lane group).
VL = 8
#: Highest polynomial order the fixed-size element workspace supports.
MAX_ORDER = 15
#: Highest 3D order: the hex workspace is (order+1)^3 vector lanes wide.
MAX_ORDER_3D = 7
#: Highest DOF count: the kernels read their DOF tables as ``int32``.
MAX_DOF = 2**31 - 1

_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#if defined(_OPENMP)
#include <omp.h>
#define REPRO_OMP 1
#else
#define REPRO_OMP 0
#endif
#define MAXNL 256
#define MAXNL3 512
#define VL 8
typedef double v8 __attribute__((vector_size(64), aligned(64)));

/* 1 when this build runs the OpenMP element-block loop, read by the
 * Python loader to decide whether n_threads > 1 is honored. */
int repro_omp = REPRO_OMP;

/* O[i][j] = sum_a A[i*n1+a] * U[a*n1+j]  (left 1D transform) */
static inline void mul_left(const double *restrict A, const v8 *restrict U,
                            v8 *restrict O, int n1)
{
    for (int i = 0; i < n1; ++i) {
        const double *ai = A + i * n1;
        for (int j = 0; j < n1; ++j) {
            v8 acc = {0};
            for (int a = 0; a < n1; ++a) acc += ai[a] * U[a * n1 + j];
            O[i * n1 + j] = acc;
        }
    }
}

/* O[i][j] = sum_b U[i*n1+b] * A[j*n1+b]  (right transform by A^T) */
static inline void mul_right(const double *restrict A, const v8 *restrict U,
                             v8 *restrict O, int n1)
{
    for (int i = 0; i < n1; ++i) {
        const v8 *ui = U + i * n1;
        for (int j = 0; j < n1; ++j) {
            const double *aj = A + j * n1;
            v8 acc = {0};
            for (int b = 0; b < n1; ++b) acc += aj[b] * ui[b];
            O[i * n1 + j] = acc;
        }
    }
}

/* O[i][j] += sum_b U[i*n1+b] * A[j*n1+b]  (accumulating mul_right) */
static inline void mul_right_add(const double *restrict A, const v8 *restrict U,
                                 v8 *restrict O, int n1)
{
    for (int i = 0; i < n1; ++i) {
        const v8 *ui = U + i * n1;
        for (int j = 0; j < n1; ++j) {
            const double *aj = A + j * n1;
            v8 acc = {0};
            for (int b = 0; b < n1; ++b) acc += aj[b] * ui[b];
            O[i * n1 + j] += acc;
        }
    }
}

/* Lane `lane` of U[0..nl) from u through every stride-th entry of d,
 * times the 0/1 mask gm when given: u * (double)gm is the IEEE product
 * a float64 0.0/1.0 mask gives, so the narrow mask is bitwise free. */
static inline void gather(const int32_t *restrict d, int stride, int nl,
                          const double *restrict u,
                          const uint8_t *restrict gm, v8 *restrict U, int lane)
{
    if (gm)
        for (int k = 0; k < nl; ++k)
            U[k][lane] = u[d[k * stride]] * (double)gm[k * stride];
    else
        for (int k = 0; k < nl; ++k) U[k][lane] = u[d[k * stride]];
}

/* O[...] = contraction of U along the axis of stride sa with A:
 * O[i sa + j sb + k sc] = sum_t A[i*n1+t] U[t sa + j sb + k sc].
 * Passing a cyclic permutation of the three axis strides selects the
 * contracted axis; O and U must not alias. */
static inline void axis3_mul(const double *restrict A, const v8 *restrict U,
                             v8 *restrict O, int n1, int sa, int sb, int sc)
{
    for (int i = 0; i < n1; ++i) {
        const double *ai = A + i * n1;
        for (int j = 0; j < n1; ++j)
            for (int k = 0; k < n1; ++k) {
                const v8 *u = U + j * sb + k * sc;
                v8 acc = {0};
                for (int t = 0; t < n1; ++t) acc += ai[t] * u[t * sa];
                O[i * sa + j * sb + k * sc] = acc;
            }
    }
}

/* Accumulating axis3_mul: O[...] += contraction along the sa axis. */
static inline void axis3_mul_add(const double *restrict A, const v8 *restrict U,
                                 v8 *restrict O, int n1, int sa, int sb, int sc)
{
    for (int i = 0; i < n1; ++i) {
        const double *ai = A + i * n1;
        for (int j = 0; j < n1; ++j)
            for (int k = 0; k < n1; ++k) {
                const v8 *u = U + j * sb + k * sc;
                v8 acc = {0};
                for (int t = 0; t < n1; ++t) acc += ai[t] * u[t * sa];
                O[i * sa + j * sb + k * sc] += acc;
            }
    }
}

/*
 * Shared apply drivers.  Every kernel body is a per-VL-block function
 * writing scatter-adds into a z pointer; the driver picks serial (one
 * shared z) or OpenMP (per-thread n_dof slices of the caller scratch
 * zt, reduced deterministically in ascending thread order — no atomics,
 * and the static schedules make the partial sums reproducible for a
 * fixed thread count).  ne must be a multiple of VL.  Every apply
 * overwrites all n_dof entries of z with the raw share K u.
 */
#define SERIAL_DRIVER(CALL)                                                  \
    do {                                                                     \
        memset(z, 0, (size_t)n_dof * sizeof(double));                        \
        for (long e0 = 0; e0 < ne; e0 += VL) { CALL(z); }                    \
    } while (0)

#if REPRO_OMP
#define APPLY_DRIVER(CALL)                                                   \
    do {                                                                     \
        if (n_threads > 1 && zt) {                                           \
            _Pragma("omp parallel num_threads(n_threads)")                   \
            {                                                                \
                double *zme = zt + (size_t)omp_get_thread_num() * n_dof;     \
                memset(zme, 0, (size_t)n_dof * sizeof(double));              \
                _Pragma("omp for schedule(static)")                          \
                for (long e0 = 0; e0 < ne; e0 += VL) { CALL(zme); }          \
                _Pragma("omp for schedule(static)")                          \
                for (long i = 0; i < n_dof; ++i) {                           \
                    double acc = 0.0;                                        \
                    for (int t = 0; t < n_threads; ++t)                      \
                        acc += zt[(size_t)t * n_dof + i];                    \
                    z[i] = acc;                                              \
                }                                                            \
            }                                                                \
        } else {                                                             \
            SERIAL_DRIVER(CALL);                                             \
        }                                                                    \
    } while (0)
#else
#define APPLY_DRIVER(CALL) SERIAL_DRIVER(CALL)
#endif

/*
 * Per-order instances (module docstring).  A block body below that is
 * BLOCK (always inlined) gets ORDER_INSTANCES(B, PARAMS, ARGS): B##_fixed
 * with n1 the literal FIXED_N1, B##_rt with the runtime n1, and
 * B##_for(n1), which returns the one an apply runs.  PARAMS and ARGS
 * are B's parameters after (e0, n1) and their names, each in
 * parentheses.  The instances stay noinline: a block inlined into both
 * APPLY_DRIVER branches doubles the object and the build time.
 */
#define FIXED_N1 5 /* order 4 */
#define BLOCK static inline __attribute__((always_inline)) void
#define UNPAREN(...) __VA_ARGS__
#define ORDER_INSTANCES(B, PARAMS, ARGS)                                     \
    static __attribute__((noinline)) void B##_fixed(long e0, int n1,         \
                                                   UNPAREN PARAMS)           \
    {                                                                        \
        (void)n1;                                                            \
        B(e0, FIXED_N1, UNPAREN ARGS);                                       \
    }                                                                        \
    static __attribute__((noinline)) void B##_rt(long e0, int n1,            \
                                                UNPAREN PARAMS)              \
    {                                                                        \
        B(e0, n1, UNPAREN ARGS);                                             \
    }                                                                        \
    typedef void (*B##_fn)(long e0, int n1, UNPAREN PARAMS);                 \
    static B##_fn B##_for(int n1)                                            \
    {                                                                        \
        return n1 == FIXED_N1 ? B##_fixed : B##_rt;                          \
    }

/*
 * Acoustic block: z += scatter(ed_e, K_e gather(ed_e, u)) for one VL
 * group, K_e = ax_e KxX (x) Wd + ay_e Wd (x) KxX.
 */
BLOCK ac_block(long e0, int n1,
               const double *restrict KxX, const double *restrict w,
               const double *restrict ax, const double *restrict ay,
               const int32_t *restrict ed, const double *restrict u,
               const uint8_t *restrict gmask, double *restrict z)
{
    int nl = n1 * n1;
    v8 Ue[MAXNL], T[MAXNL], Ui[MAXNL];
    for (int l = 0; l < VL; ++l)
        gather(ed + (e0 + l) * nl, 1, nl, u,
               gmask ? gmask + (e0 + l) * nl : 0, Ue, l);
    v8 AXE, AYE;
    for (int l = 0; l < VL; ++l) { AXE[l] = ax[e0 + l]; AYE[l] = ay[e0 + l]; }
    for (int i = 0; i < n1; ++i) {
        const double *ki = KxX + i * n1;
        for (int a = 0; a < n1; ++a) Ui[a] = Ue[i * n1 + a];
        v8 AYW = AYE * w[i];
        for (int j = 0; j < n1; ++j) {
            v8 acc1 = {0}, acc2 = {0};
            for (int a = 0; a < n1; ++a) {
                acc1 += ki[a] * Ue[a * n1 + j];
                acc2 += KxX[a * n1 + j] * Ui[a];
            }
            T[i * n1 + j] = AXE * w[j] * acc1 + AYW * acc2;
        }
    }
    for (int l = 0; l < VL; ++l) {
        const int32_t *d = ed + (e0 + l) * nl;
        for (int k = 0; k < nl; ++k) z[d[k]] += T[k][l];
    }
}
ORDER_INSTANCES(ac_block,
    (const double *restrict KxX, const double *restrict w,
     const double *restrict ax, const double *restrict ay,
     const int32_t *restrict ed, const double *restrict u,
     const uint8_t *restrict gmask, double *restrict z),
    (KxX, w, ax, ay, ed, u, gmask, z))

void ac_apply(const double *restrict u, double *restrict z,
              long ne, long n_dof, int n1,
              const double *restrict KxX, const double *restrict w,
              const double *restrict ax, const double *restrict ay,
              const int32_t *restrict ed,
              const uint8_t *restrict gmask, int n_threads, double *restrict zt)
{
    ac_block_fn block = ac_block_for(n1);
#define AC_CALL(ZP) block(e0, n1, KxX, w, ax, ay, ed, u, gmask, ZP)
    APPLY_DRIVER(AC_CALL);
#undef AC_CALL
}

/*
 * 3D acoustic block: K_e = ax KxX(x)Wd(x)Wd + ay Wd(x)KxX(x)Wd
 * + az Wd(x)Wd(x)KxX on the local layout flat = (i*n1 + j)*n1 + k
 * (x slowest).  All three per-axis 1D contractions are evaluated
 * node-by-node inside the element workspace (3 n1^4 FMAs per element),
 * so per element only the gather and scatter touch memory -- the
 * O(n^4) sum-factorization tier that beats the O(n^4)-nonzero CSR
 * matvec on bandwidth, not flops.
 */
BLOCK ac_block3(long e0, int n1,
                const double *restrict KxX, const double *restrict w,
                const double *restrict ax, const double *restrict ay,
                const double *restrict az,
                const int32_t *restrict ed, const double *restrict u,
                const uint8_t *restrict gmask, double *restrict z)
{
    int n2 = n1 * n1, nl = n2 * n1;
    static _Thread_local v8 Ue[MAXNL3], T[MAXNL3];
    for (int l = 0; l < VL; ++l)
        gather(ed + (e0 + l) * nl, 1, nl, u,
               gmask ? gmask + (e0 + l) * nl : 0, Ue, l);
    v8 AXE, AYE, AZE;
    for (int l = 0; l < VL; ++l) {
        AXE[l] = ax[e0 + l]; AYE[l] = ay[e0 + l]; AZE[l] = az[e0 + l];
    }
    for (int i = 0; i < n1; ++i) {
        const double *ki = KxX + i * n1;
        for (int j = 0; j < n1; ++j) {
            const double *kj = KxX + j * n1;
            const v8 *uij = Ue + (i * n1 + j) * n1;
            for (int k = 0; k < n1; ++k) {
                const double *kk = KxX + k * n1;
                v8 a1 = {0}, a2 = {0}, a3 = {0};
                for (int a = 0; a < n1; ++a) {
                    a1 += ki[a] * Ue[(a * n1 + j) * n1 + k];
                    a2 += kj[a] * Ue[(i * n1 + a) * n1 + k];
                    a3 += kk[a] * uij[a];
                }
                T[(i * n1 + j) * n1 + k] =
                    AXE * (w[j] * w[k]) * a1 + AYE * (w[i] * w[k]) * a2
                    + AZE * (w[i] * w[j]) * a3;
            }
        }
    }
    for (int l = 0; l < VL; ++l) {
        const int32_t *d = ed + (e0 + l) * nl;
        for (int k = 0; k < nl; ++k) z[d[k]] += T[k][l];
    }
}
ORDER_INSTANCES(ac_block3,
    (const double *restrict KxX, const double *restrict w,
     const double *restrict ax, const double *restrict ay,
     const double *restrict az,
     const int32_t *restrict ed, const double *restrict u,
     const uint8_t *restrict gmask, double *restrict z),
    (KxX, w, ax, ay, az, ed, u, gmask, z))

void ac_apply3(const double *restrict u, double *restrict z,
               long ne, long n_dof, int n1,
               const double *restrict KxX, const double *restrict w,
               const double *restrict ax, const double *restrict ay,
               const double *restrict az,
               const int32_t *restrict ed,
               const uint8_t *restrict gmask, int n_threads, double *restrict zt)
{
    ac_block3_fn block = ac_block3_for(n1);
#define AC3_CALL(ZP) block(e0, n1, KxX, w, ax, ay, az, ed, u, gmask, ZP)
    APPLY_DRIVER(AC3_CALL);
#undef AC3_CALL
}

/*
 * 2D anisotropic stress-form block, component-interleaved ed of width
 * 2*nl.  Mirrors repro.sem.matfree.AnisotropicKernelND: with G_b the 1D
 * derivative along axis b and W the tensor quadrature weights,
 *   K_cd = sum_ab coef[e, c, a, d, b] G_a^T W G_b,
 * applied as gradient -> Hooke combine -> weighted divergence.  coef
 * carries dim^4 = 16 doubles per element, C-order (c, a, d, b), the
 * rank-4 material tensor times the pair geometry scales.  Axis-0
 * contraction is mul_left, axis-1 is mul_right (layout i*n1 + j).
 */
static void an_block(long e0, int n1,
                     const double *restrict D, const double *restrict Dt,
                     const double *restrict w, const double *restrict coef,
                     const int32_t *restrict ed, const double *restrict u,
                     const uint8_t *restrict gmask, double *restrict z)
{
    int nl = n1 * n1;
    static _Thread_local v8 U[2][MAXNL], DU[2][2][MAXNL], S[2][MAXNL], Fo[MAXNL];
    for (int l = 0; l < VL; ++l) {
        const int32_t *d = ed + (e0 + l) * 2 * nl;
        const uint8_t *gm = gmask ? gmask + (e0 + l) * 2 * nl : 0;
        for (int c = 0; c < 2; ++c)
            gather(d + c, 2, nl, u, gm ? gm + c : 0, U[c], l);
    }
    v8 CF[16];
    for (int m = 0; m < 16; ++m)
        for (int l = 0; l < VL; ++l) CF[m][l] = coef[(e0 + l) * 16 + m];
    /* 1. gradient: DU[d][b] = G_b U_d */
    for (int d = 0; d < 2; ++d) {
        mul_left(D, U[d], DU[d][0], n1);
        mul_right(D, U[d], DU[d][1], n1);
    }
    for (int c = 0; c < 2; ++c) {
        /* 2. Hooke combine, quadrature weights folded in */
        for (int a = 0; a < 2; ++a) {
            const v8 *cf = CF + (c * 2 + a) * 4;
            for (int i = 0; i < n1; ++i)
                for (int j = 0; j < n1; ++j) {
                    int f = i * n1 + j;
                    v8 acc = cf[0] * DU[0][0][f] + cf[1] * DU[0][1][f]
                           + cf[2] * DU[1][0][f] + cf[3] * DU[1][1][f];
                    S[a][f] = (w[i] * w[j]) * acc;
                }
        }
        /* 3. weighted divergence: Fo = sum_a G_a^T S[a] */
        mul_left(Dt, S[0], Fo, n1);
        mul_right_add(Dt, S[1], Fo, n1);
        for (int l = 0; l < VL; ++l) {
            const int32_t *dc = ed + (e0 + l) * 2 * nl + c;
            for (int k = 0; k < nl; ++k) z[dc[2 * k]] += Fo[k][l];
        }
    }
}

void an_apply(const double *restrict u, double *restrict z,
              long ne, long n_dof, int n1,
              const double *restrict D, const double *restrict Dt,
              const double *restrict w, const double *restrict coef,
              const int32_t *restrict ed,
              const uint8_t *restrict gmask, int n_threads, double *restrict zt)
{
#define AN_CALL(ZP) an_block(e0, n1, D, Dt, w, coef, ed, u, gmask, ZP)
    APPLY_DRIVER(AN_CALL);
#undef AN_CALL
}

/*
 * 3D elastic block in SPECFEM's stress form (Komatitsch & Tromp 1999),
 * component-interleaved ed of width 3*nl, hex layout flat = (i*n1 +
 * j)*n1 + k.  With g_d U the contraction of U with D along axis d
 * (axis3_mul with cyclic stride permutations) and W = w_i w_j w_k: a
 * one-pass gather, the nine gradients G[c][d] = g_d U_c, the pointwise
 * stress S_cd written over them, the weighted divergences f_c = sum_d
 * D_d^T S_cd and a one-pass scatter -- 18 axis contractions per block.
 * Each row of ed is read once for the gather and once for the scatter;
 * a DOF still receives its elements' terms in block, then lane order.
 * Only the stress differs between the callers, picked by the constant
 * `iso` (ncf coefficients per element, the geometry factors folded in):
 *
 * iso = 0 (an_block3), ncf = 81, coef[c][a][d][b] C-order:
 *   S_ca = W sum_db coef[c][a][d][b] G[d][b];
 * iso = 1 (el_block3), ncf = 15, the isotropic tensor's nonzero
 * pattern: ds[3][3] row-major (ds[c][d] = coef[c][d][c][d]), then lamg
 * (coef[c][c][d][d]) and mug (coef[c][d][d][c]) for the pairs (0,1),
 * (0,2), (1,2):
 *   S_cc = W (ds[c][c] G[c][c] + sum_{e != c} lamg[ce] G[e][e]),
 *   S_cd = W (ds[c][d] G[c][d] + mug[cd] G[d][c])   (d != c).
 */
BLOCK stress_block3(long e0, int n1, int iso,
                    const double *restrict D, const double *restrict Dt,
                    const double *restrict w, const double *restrict coef,
                    const int32_t *restrict ed, const double *restrict u,
                    const uint8_t *restrict gmask, double *restrict z)
{
    int n2 = n1 * n1, nl = n2 * n1, ncf = iso ? 15 : 81;
    static _Thread_local v8 U[3][MAXNL3], G[3][3][MAXNL3];
    v8 (*Fo)[MAXNL3] = U;  /* the divergence's output: U is dead by then */
    const int str[3] = {n2, n1, 1};
    for (int l = 0; l < VL; ++l) {  /* one pass over each row of ed */
        const int32_t *d = ed + (e0 + l) * 3 * nl;
        const uint8_t *gm = gmask ? gmask + (e0 + l) * 3 * nl : 0;
        for (int k = 0; k < nl; ++k)
            for (int c = 0; c < 3; ++c)
                U[c][k][l] = gm ? u[d[3 * k + c]] * (double)gm[3 * k + c]
                                : u[d[3 * k + c]];
    }
    v8 CF[81];
    for (int m = 0; m < ncf; ++m)
        for (int l = 0; l < VL; ++l) CF[m][l] = coef[(e0 + l) * ncf + m];
    /* 1. gradient: G[c][d] = g_d U_c */
    for (int c = 0; c < 3; ++c)
        for (int d = 0; d < 3; ++d)
            axis3_mul(D, U[c], G[c][d], n1,
                      str[d], str[(d + 1) % 3], str[(d + 2) % 3]);
    /* 2. stress, in place: G[c][d] becomes S_cd */
    for (int i = 0; i < n1; ++i)
        for (int j = 0; j < n1; ++j)
            for (int k = 0; k < n1; ++k) {
                int f = (i * n1 + j) * n1 + k;
                double W = w[i] * w[j] * w[k];
                if (iso) {
                    v8 g00 = G[0][0][f], g11 = G[1][1][f], g22 = G[2][2][f];
                    G[0][0][f] = W * (CF[0] * g00 + CF[9] * g11 + CF[10] * g22);
                    G[1][1][f] = W * (CF[4] * g11 + CF[9] * g00 + CF[11] * g22);
                    G[2][2][f] = W * (CF[8] * g22 + CF[10] * g00 + CF[11] * g11);
                    for (int c = 0; c < 2; ++c)
                        for (int d = c + 1; d < 3; ++d) {
                            v8 MG = CF[12 + c + d - 1];
                            v8 gcd = G[c][d][f], gdc = G[d][c][f];
                            G[c][d][f] = W * (CF[3 * c + d] * gcd + MG * gdc);
                            G[d][c][f] = W * (CF[3 * d + c] * gdc + MG * gcd);
                        }
                } else {
                    v8 g[9];
                    for (int m = 0; m < 9; ++m) g[m] = G[m / 3][m % 3][f];
                    for (int c = 0; c < 3; ++c)
                        for (int a = 0; a < 3; ++a) {
                            const v8 *cf = CF + (c * 3 + a) * 9;
                            v8 acc = {0};
                            for (int m = 0; m < 9; ++m) acc += cf[m] * g[m];
                            G[c][a][f] = W * acc;
                        }
                }
            }
    /* 3. weighted divergence: f_c = sum_d D_d^T S_cd */
    for (int c = 0; c < 3; ++c) {
        axis3_mul(Dt, G[c][0], Fo[c], n1, str[0], str[1], str[2]);
        axis3_mul_add(Dt, G[c][1], Fo[c], n1, str[1], str[2], str[0]);
        axis3_mul_add(Dt, G[c][2], Fo[c], n1, str[2], str[0], str[1]);
    }
    /* scatter, one pass over each row of ed */
    for (int l = 0; l < VL; ++l) {
        const int32_t *d = ed + (e0 + l) * 3 * nl;
        for (int k = 0; k < nl; ++k)
            for (int c = 0; c < 3; ++c) z[d[3 * k + c]] += Fo[c][k][l];
    }
}

BLOCK el_block3(long e0, int n1,
                const double *restrict D, const double *restrict Dt,
                const double *restrict w, const double *restrict coef,
                const int32_t *restrict ed, const double *restrict u,
                const uint8_t *restrict gmask, double *restrict z)
{
    stress_block3(e0, n1, 1, D, Dt, w, coef, ed, u, gmask, z);
}
ORDER_INSTANCES(el_block3,
    (const double *restrict D, const double *restrict Dt,
     const double *restrict w, const double *restrict coef,
     const int32_t *restrict ed, const double *restrict u,
     const uint8_t *restrict gmask, double *restrict z),
    (D, Dt, w, coef, ed, u, gmask, z))

void el_apply3(const double *restrict u, double *restrict z,
               long ne, long n_dof, int n1,
               const double *restrict D, const double *restrict Dt,
               const double *restrict w, const double *restrict coef,
               const int32_t *restrict ed,
               const uint8_t *restrict gmask, int n_threads, double *restrict zt)
{
    el_block3_fn block = el_block3_for(n1);
#define EL3_CALL(ZP) block(e0, n1, D, Dt, w, coef, ed, u, gmask, ZP)
    APPLY_DRIVER(EL3_CALL);
#undef EL3_CALL
}

/* The anisotropic body, on the runtime n1 only (no workload runs it). */
static __attribute__((noinline)) void an_block3(
    long e0, int n1,
    const double *restrict D, const double *restrict Dt,
    const double *restrict w, const double *restrict coef,
    const int32_t *restrict ed, const double *restrict u,
    const uint8_t *restrict gmask, double *restrict z)
{
    stress_block3(e0, n1, 0, D, Dt, w, coef, ed, u, gmask, z);
}

void an_apply3(const double *restrict u, double *restrict z,
               long ne, long n_dof, int n1,
               const double *restrict D, const double *restrict Dt,
               const double *restrict w, const double *restrict coef,
               const int32_t *restrict ed,
               const uint8_t *restrict gmask, int n_threads, double *restrict zt)
{
#define AN3_CALL(ZP) an_block3(e0, n1, D, Dt, w, coef, ed, u, gmask, ZP)
    APPLY_DRIVER(AN3_CALL);
#undef AN3_CALL
}

/*
 * The vector phases of the optimized LTS cycle (repro.core.lts_newmark
 * ._RankState), one pass each.  Every entry goes through the IEEE
 * operations of the NumPy phases in the same order, so the results are
 * bitwise theirs -- which needs floating-point contraction off: a fused
 * multiply-add rounds once where NumPy rounds twice.  The kernels above
 * keep their FMAs.  Arguments the caller binds once come first, the
 * (u, v) pair a cycle is handed last.
 */
#if defined(__clang__)
#define PHASE void
#define NO_CONTRACT _Pragma("clang fp contract(off)")
#elif defined(__GNUC__)
#define PHASE __attribute__((optimize("fp-contract=off"))) void
#define NO_CONTRACT
#else
#define PHASE void
#define NO_CONTRACT _Pragma("STDC FP_CONTRACT OFF")
#endif

/* F = Minv z1 minus the point force fat at `at` (-1: none).  Plain
 * Newmark on the n0 leading entries, outside the coarsest active set:
 * v -= dt F; u += dt v.  The na entries after them keep F in z1 (the
 * recursion's top forcing) and copy their displacement into du. */
PHASE lts_begin(double *restrict z1, const double *restrict Minv, long n0,
                double dt, double *restrict du, long na, long at, double fat,
                double *restrict u, double *restrict v)
{
    NO_CONTRACT  /* x - 0.0 is x, bit for bit: off `at` F is Minv z1 */
    for (long i = 0; i < n0; ++i) {
        double vi = v[i] - (Minv[i] * z1[i] - (i == at ? fat : 0.0)) * dt;
        v[i] = vi;
        u[i] += vi * dt;
    }
    for (long i = n0; i < n0 + na; ++i) {
        z1[i] = Minv[i] * z1[i] - (i == at ? fat : 0.0);
        du[i - n0] = u[i];
    }
}

/* One fine depth after its (summed) apply: r = Minv z + F.  With a
 * child (kid_u != NULL) r's suffix past n_diff is the child's forcing
 * and u's is handed over as its displacement; the finest depth takes
 * its leap-frog step instead. */
PHASE lts_update(const double *restrict z, const double *restrict Minv,
                 const double *restrict F, double *restrict r,
                 double *restrict u, double *restrict v,
                 long na, long nd, double dt_k, double *restrict kid_u, int first)
{
    NO_CONTRACT
    if (kid_u) {
        for (long j = 0; j < na; ++j) r[j] = Minv[j] * z[j] + F[j];
        for (long j = nd; j < na; ++j) kid_u[j - nd] = u[j];
        return;
    }
    double h = -(0.5 * dt_k);
    for (long j = 0; j < na; ++j) {
        double rj = Minv[j] * z[j] + F[j];
        double vj = first ? rj * h : v[j] - rj * dt_k;
        v[j] = vj;
        u[j] += vj * dt_k;
    }
}

/* A depth with a child, after the child's substeps: the velocity from
 * the closed form -dt_k/2 r on the n_diff prefix and (u_fine - u)/dt_k
 * on the child's suffix, then the v / u step. */
PHASE lts_reconstruct(const double *restrict kid_u, const double *restrict r,
                      double *restrict u, double *restrict v,
                      long na, long nd, double dt_k, int first)
{
    NO_CONTRACT
    double h = -(0.5 * dt_k);
    for (long j = 0; j < nd; ++j) {
        double rj = r[j] * h;
        double vj = first ? rj : v[j] + rj * 2.0;
        v[j] = vj;
        u[j] += vj * dt_k;
    }
    for (long j = nd; j < na; ++j) {
        double rj = (kid_u[j - nd] - u[j]) / dt_k;
        double vj = first ? rj : v[j] + rj * 2.0;
        v[j] = vj;
        u[j] += vj * dt_k;
    }
}

/* The coarsest active set, the na entries after n0, from the
 * recursion's result du, in place: v += 2/dt (du - u), u += dt v. */
PHASE lts_finish(const double *restrict du, long n0, long na, double dt,
                 double *restrict u, double *restrict v)
{
    NO_CONTRACT
    double c = 2.0 / dt;
    u += n0;
    v += n0;
    for (long j = 0; j < na; ++j) {
        double vj = v[j] + (du[j] - u[j]) * c;
        v[j] = vj;
        u[j] += vj * dt;
    }
}

/* The halo sum's two passes (repro.runtime.executor), over nc message
 * channels laid out receiver-major in one payload buffer: channel c is
 * buf[off[c] .. off[c+1]), and zp[c] / ip[c] the addresses of the rank
 * output it reads (pack: the sender's) or writes (accumulate: the
 * receiver's) and of the local indices it goes through.  Accumulate
 * adds channel after channel, so a row several peers share sums in the
 * channels' (ascending peer) order, each entry z + m as the NumPy
 * loop's acc = z[idx]; acc += m. */
PHASE halo_pack(long nc, const int64_t *restrict off,
                const int64_t *restrict zp, const int64_t *restrict ip,
                double *restrict buf)
{
    for (long c = 0; c < nc; ++c) {
        const double *z = (const double *)(intptr_t)zp[c];
        const int64_t *idx = (const int64_t *)(intptr_t)ip[c];
        double *b = buf + off[c];
        for (int64_t j = 0, n = off[c + 1] - off[c]; j < n; ++j) b[j] = z[idx[j]];
    }
}

PHASE halo_accumulate(long nc, const int64_t *restrict off,
                      const int64_t *restrict zp, const int64_t *restrict ip,
                      const double *restrict buf)
{
    NO_CONTRACT
    for (long c = 0; c < nc; ++c) {
        double *z = (double *)(intptr_t)zp[c];
        const int64_t *idx = (const int64_t *)(intptr_t)ip[c];
        const double *b = buf + off[c];
        for (int64_t j = 0, n = off[c + 1] - off[c]; j < n; ++j) z[idx[j]] += b[j];
    }
}
"""

#: Flags every build uses; optional flags are probed per compiler.
_BASE_CFLAGS = ("-O3", "-funroll-loops", "-shared", "-fPIC")
#: CPU-tuning spellings, tried in order (clang on some targets rejects
#: -march=native and wants -mcpu=native).
_ARCH_FLAGS = ("-march=native", "-mcpu=native")
_OMP_FLAG = "-fopenmp"

#: Kernel symbol -> number of kernel-specific coefficient pointers
#: between the shared ``(u, z, ne, n_dof, n1)`` head and the shared
#: ``(ed, gmask, n_threads, zt)`` tail; none takes ``M^{-1}``.
_KERNELS = {"ac_apply": 4, "ac_apply3": 5, "el_apply3": 4, "an_apply": 4,
            "an_apply3": 4}
#: LTS phase (or halo pass) symbol -> its argument types, one letter
#: each: ``F`` / ``I`` a float64 / int64 array (or NULL), ``l`` long,
#: ``d`` double, ``i`` int.
_PHASES = {"lts_begin": "FFldFlldFF", "lts_update": "FFFFFFlldFi",
           "lts_reconstruct": "FFFFlldi", "lts_finish": "FlldFF",
           "halo_pack": "lIIIF", "halo_accumulate": "lIIIF"}
_CTYPE = {"F": ctypes.c_void_p, "I": ctypes.c_void_p, "l": ctypes.c_long,
          "d": ctypes.c_double, "i": ctypes.c_int}
_DTYPE = {"F": np.float64, "I": np.int64}

_lib: ctypes.CDLL | None = None
_tried = False
#: Why the first failed :func:`load` attempt failed (``None``: no failure).
_failure: str | None = None
_load_lock = threading.Lock()
_flag_cache: dict[str, tuple[str, ...]] = {}


def _compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _flag_ok(cc: str, flags: list[str]) -> bool:
    """True when ``cc`` accepts ``flags`` on a trivial test compile."""
    with tempfile.TemporaryDirectory() as td:
        src = os.path.join(td, "probe.c")
        with open(src, "w") as f:
            f.write("int main(void) { return 0; }\n")
        try:
            r = subprocess.run(
                [cc, *flags, "-Werror", "-c", "-o", os.path.join(td, "probe.o"), src],
                capture_output=True,
                timeout=60,
            )
        except Exception:
            return False
        return r.returncode == 0


def accepted_cflags(cc: str) -> tuple[str, ...]:
    """The base flags plus every *probed* optional flag ``cc`` accepts.

    ``-march=native`` (falling back to ``-mcpu=native``) and
    ``-fopenmp`` are tried with a tiny test compile and dropped when
    unsupported, instead of failing the whole fused tier.  The result
    is cached per compiler and folded into the build cache key, so a
    toolchain change re-triggers both the probe and the compile.
    """
    cached = _flag_cache.get(cc)
    if cached is not None:
        return cached
    flags = list(_BASE_CFLAGS)
    for arch in _ARCH_FLAGS:
        if _flag_ok(cc, [arch]):
            flags.append(arch)
            break
    if _flag_ok(cc, [_OMP_FLAG]):
        flags.append(_OMP_FLAG)
    _flag_cache[cc] = tuple(flags)
    return _flag_cache[cc]


def _machine_tag() -> str:
    """Identity of the CPU the ``-march=native`` build is valid for."""
    ident = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith(("flags", "Features")):
                    ident += line
                    break
    except OSError:
        pass
    return ident


def _cache_dir() -> str:
    """Private per-user cache directory (mode 0700).

    Never a shared world-writable location: the path is predictable, and
    ``load()`` executes whatever shared object it finds there.
    """
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    path = os.path.join(base, "repro-fused")
    os.makedirs(path, mode=0o700, exist_ok=True)
    os.chmod(path, 0o700)
    return path


def _failure_reason(exc: Exception) -> str:
    """The exception type, then the tail of the compiler's stderr when
    the compile itself failed or timed out, else the exception's message
    (e.g. ``ctypes.CDLL``'s ``OSError`` naming the object and why)."""
    stderr = getattr(exc, "stderr", None)
    if stderr:
        return f"{type(exc).__name__}: {stderr.decode(errors='replace').strip()[-400:]}"
    return f"{type(exc).__name__}: {exc}"


def _note_failure(reason: str) -> None:
    global _failure
    if _failure is None:
        _failure = reason


def _build(cc: str, flags: tuple[str, ...]) -> ctypes.CDLL | None:
    """Compile (cached) and load the kernels with ``flags``, or ``None``
    (the first failure's reason kept for :func:`failure_reason`)."""
    tag = hashlib.sha256(
        (_SOURCE + cc + " ".join(flags) + _machine_tag()).encode()
    ).hexdigest()[:16]
    try:
        so_path = os.path.join(_cache_dir(), f"fused_{tag}.so")
        if not os.path.exists(so_path):
            with tempfile.TemporaryDirectory() as td:
                src = os.path.join(td, "fused.c")
                out = os.path.join(td, "fused.so")
                with open(src, "w") as f:
                    f.write(_SOURCE)
                subprocess.run(
                    [cc, *flags, "-o", out, src],
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
                os.replace(out, so_path)  # atomic vs concurrent builders
        lib = ctypes.CDLL(so_path)
        ptr = ctypes.c_void_p
        for name, n_coef in _KERNELS.items():
            fn = getattr(lib, name)
            fn.restype = None
            fn.argtypes = (
                [ptr, ptr, ctypes.c_long, ctypes.c_long, ctypes.c_int]
                + [ptr] * n_coef
                + [ptr, ptr, ctypes.c_int, ptr]
            )
        for name, sig in _PHASES.items():
            fn = getattr(lib, name)
            fn.restype = None
            fn.argtypes = [_CTYPE[c] for c in sig]
        return lib
    except Exception as exc:
        _note_failure(_failure_reason(exc))
        return None


def load() -> ctypes.CDLL | None:
    """Compile (once, cached) and load the fused kernels, or ``None``.

    Returns ``None`` when disabled via ``REPRO_FUSED=0``, no compiler is
    found, or compilation/loading fails for any reason — callers then
    stay on the NumPy path.  The build is cached in a user-private
    directory keyed by source, compiler, accepted flag set *and* CPU
    identity (``-march=native`` objects must not survive a move to a
    different machine).  If the probed optional flags still break the
    real build, a second attempt with the base flags alone keeps the
    serial tier alive.

    Thread-safe: concurrent first callers (ensemble workers racing the
    one-time build) serialize on a lock, so none of them can observe
    the half-initialized state and silently drop to the NumPy tier —
    mixing tiers within one ensemble would split results by one ULP.
    """
    global _lib, _tried
    if _tried:
        return _lib
    with _load_lock:
        if _tried:
            return _lib
        lib = None
        if os.environ.get("REPRO_FUSED", "1") == "0":
            _note_failure("disabled by REPRO_FUSED=0")
        elif (cc := _compiler()) is None:
            _note_failure("no C compiler found")
        else:
            flags = accepted_cflags(cc)
            lib = _build(cc, flags)
            if lib is None and flags != _BASE_CFLAGS:
                lib = _build(cc, _BASE_CFLAGS)
        # _lib must be visible before the lock-free fast path can see
        # _tried (assignment order + the GIL guarantee that).
        _lib = lib
        _tried = True
    return _lib


def available() -> bool:
    return load() is not None


def failure_reason() -> str | None:
    """Why :func:`load` returned ``None`` (``None`` when it did not):
    ``REPRO_FUSED=0``, no compiler, or the first failed build's
    exception type with the tail of the compiler's stderr."""
    return None if load() is not None else _failure


def omp_enabled() -> bool:
    """True when the loaded build honors ``n_threads > 1`` (OpenMP)."""
    lib = load()
    return lib is not None and bool(ctypes.c_int.in_dll(lib, "repro_omp").value)


def _addr(a: np.ndarray | None) -> int | None:
    """Raw data address for a ``c_void_p`` argument (``None`` = NULL)."""
    return None if a is None else a.ctypes.data


def bind_phase(name: str, *args) -> partial:
    """The LTS phase (or halo pass) ``name`` of the loaded build with its
    leading arguments bound, an array as its raw address and ``None`` as
    NULL (as :class:`_FusedPlan` binds its call).  Each array must be
    C-contiguous of the dtype its position takes (``TypeError``
    otherwise: the C loop would read it as that); the caller keeps it
    alive for as long as it calls the result."""
    bound = []
    for pos, a in enumerate(args):
        if isinstance(a, np.ndarray):
            want = _DTYPE.get(_PHASES[name][pos])
            if want is None or a.dtype != want or not a.flags.c_contiguous:
                takes = "a number" if want is None else f"a C-contiguous {want.__name__} array"
                raise TypeError(f"{name} argument {pos} takes {takes}")
            a = a.ctypes.data
        bound.append(a)
    return partial(getattr(load(), name), *bound)


def _pad(a: np.ndarray, ne_pad: int, fill=0.0, dtype=None) -> np.ndarray:
    """Pad axis 0 to ``ne_pad`` rows/entries with ``fill``, as ``dtype``
    (default ``a``'s; a cast is a plain assignment, values unchecked)."""
    if a.shape[0] == ne_pad:
        return np.ascontiguousarray(a, dtype=dtype)
    out = np.full((ne_pad, *a.shape[1:]), fill, dtype=dtype or a.dtype)
    out[: a.shape[0]] = a
    return out


class _FusedPlan:
    """Base bound fused apply: ``u -> K u`` (+ gmask), unscaled.

    Subclasses name their C symbol and bind the kernel-specific
    coefficient arrays; padding, masks, the GLL weights, and the
    threading decision live here.  ``threads > 1`` is honored only when
    the build has OpenMP and the padded element count gives every
    thread at least one ``VL`` block — otherwise the plan silently runs
    serial (``self.threads == 1``), which callers surface as the
    resolved tier.

    A call overwrites the whole output.  The argument tuple of the C
    call is built once here; a call passes only the ``u`` / ``z``
    addresses.

    The plan packs the tables the kernels stream: ``_ed`` as ``int32``
    and ``_gmask`` as ``uint8``, each padded to ``VL`` rows.
    ``element_dofs`` and ``gmask`` are views of their first ``ne`` rows,
    which the owning :class:`repro.sem.matfree.MatrixFreeStiffness`
    keeps as its own tables (one copy per product).  ``n_dof`` is the
    output's length.  The caller vouches that every entry of
    ``element_dofs`` lies in ``[0, n_dof)`` with ``n_dof <= MAX_DOF``
    and that ``gmask`` holds only 0 and 1: the packing casts without a
    check.
    """

    _symbol = ""

    def __init__(self, kernel, element_dofs, n_dof: int, gmask=None, threads: int = 1):
        lib = load()
        assert lib is not None and n_dof <= MAX_DOF
        self._fn = getattr(lib, self._symbol)
        self.n_dof = int(n_dof)
        self.n1 = kernel.n1
        ne = element_dofs.shape[0]
        ne_pad = -(-ne // VL) * VL
        # Ghost elements carry zero coefficients and point at a DOF of
        # the row support, so their scatter adds 0.0 to a row this
        # apply owns.
        self._ed = _pad(element_dofs, ne_pad, fill=element_dofs.flat[0],
                        dtype=np.int32)
        self._gmask = None if gmask is None else _pad(
            gmask, ne_pad, fill=0, dtype=np.uint8
        )
        self.element_dofs = self._ed[:ne]
        self.gmask = None if gmask is None else self._gmask[:ne]
        self._ne = ne_pad
        _, w = _gll(kernel.order)
        self._w = w
        self._bind(kernel, ne_pad)
        t = int(threads)
        if t > 1 and omp_enabled() and ne_pad >= VL * t:
            self.threads = t
            self._zt = np.empty(t * self.n_dof)
        else:
            self.threads = 1
            self._zt = None
        self._args = self._call_args()

    def _call_args(self) -> tuple:
        return (
            self._ne, self.n_dof, self.n1,
            *(_addr(a) for a in self._coef_arrays()),
            _addr(self._ed), _addr(self._gmask),
            self.threads, _addr(self._zt),
        )

    def fork(self) -> "_FusedPlan":
        """A plan safe to call beside this one: itself when serial (a
        call writes only its output), else one with its own partials."""
        if self._zt is None:
            return self
        twin = copy.copy(self)
        twin._zt = np.empty_like(self._zt)
        twin._args = twin._call_args()
        return twin

    def _bind(self, kernel, ne_pad: int) -> None:
        raise NotImplementedError

    def _coef_arrays(self) -> tuple:
        """The kernel-specific coefficient arrays, in C argument order
        (kept alive on ``self`` — the call passes raw addresses)."""
        raise NotImplementedError

    def __call__(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out[:] = K u`` for ``u`` and ``out`` of length ``n_dof``: the
        C kernel writes a C-contiguous float64 ``out`` directly (the
        allocation-free hot path; the partials ``_zt`` are reused)."""
        z = out if out.flags.c_contiguous and out.dtype == np.float64 else np.empty(self.n_dof)
        if not (u.flags.c_contiguous and u.dtype == np.float64):
            u = np.ascontiguousarray(u, dtype=np.float64)
        self._fn(u.ctypes.data, z.ctypes.data, *self._args)
        if z is not out:
            out[:] = z
        return out


class AcousticPlan(_FusedPlan):
    """Bound fused 2D acoustic apply."""

    _symbol = "ac_apply"

    def _bind(self, kernel, ne_pad):
        # Per-axis scales; ghost elements get zero coefficients.
        self._ax = _pad(np.ascontiguousarray(kernel.scales[:, 0]), ne_pad)
        self._ay = _pad(np.ascontiguousarray(kernel.scales[:, 1]), ne_pad)
        self._KxX = np.ascontiguousarray(kernel.KxX)

    def _coef_arrays(self):
        return (self._KxX, self._w, self._ax, self._ay)


class Acoustic3DPlan(_FusedPlan):
    """Bound fused 3D acoustic apply."""

    _symbol = "ac_apply3"

    def _bind(self, kernel, ne_pad):
        # Per-axis scales; ghost elements get zero coefficients.
        self._ax = _pad(np.ascontiguousarray(kernel.scales[:, 0]), ne_pad)
        self._ay = _pad(np.ascontiguousarray(kernel.scales[:, 1]), ne_pad)
        self._az = _pad(np.ascontiguousarray(kernel.scales[:, 2]), ne_pad)
        self._KxX = np.ascontiguousarray(kernel.KxX)

    def _coef_arrays(self):
        return (self._KxX, self._w, self._ax, self._ay, self._az)


class AnisotropicPlan(_FusedPlan):
    """Bound fused stress-form apply, 2D (``an_apply``) or, as
    :class:`Anisotropic3DPlan`, 3D (``an_apply3``).

    Packs the kernel's ``coef[e, c, a, d, b]`` (material tensor times
    pair geometry scales, :class:`repro.sem.matfree.AnisotropicKernelND`
    and its isotropic :class:`~repro.sem.matfree.ElasticKernelND`) as
    ``dim^4`` C-ordered doubles per element.
    """

    _symbol = "an_apply"

    def _bind(self, kernel, ne_pad):
        # ghost elements: zero coefficients
        self._coef = _pad(self._coefficients(kernel), ne_pad)
        self._D = np.ascontiguousarray(kernel.D)
        self._Dt = np.ascontiguousarray(kernel.Dt)

    @staticmethod
    def _coefficients(kernel) -> np.ndarray:
        return kernel.coef.reshape(kernel.h_axes.shape[0], -1)

    def _coef_arrays(self):
        return (self._D, self._Dt, self._w, self._coef)


class Anisotropic3DPlan(AnisotropicPlan):
    """Bound fused 3D anisotropic stress-form apply."""

    _symbol = "an_apply3"


#: The ``(c, a, d, b)`` index arrays of the 15 entries of ``coef`` the
#: isotropic 3D stress reads, in ``el_block3``'s order: ``coef[c, d, c,
#: d]`` (the axis scales, row-major), then ``coef[c, c, d, d]`` (``lam``)
#: and ``coef[c, d, d, c]`` (``mu``) times the pair scale, for the pairs
#: (0,1), (0,2), (1,2).
_ISOTROPIC_ENTRIES = tuple(np.array(ix) for ix in zip(
    *[(c, d, c, d) for c in range(3) for d in range(3)],
    *[(c, c, d, d) for c, d in ((0, 1), (0, 2), (1, 2))],
    *[(c, d, d, c) for c, d in ((0, 1), (0, 2), (1, 2))],
))


class Elastic3DPlan(AnisotropicPlan):
    """Bound fused 3D isotropic elastic apply (``el_apply3``): the same
    stress form, packing only the 15 entries of ``coef`` per element the
    isotropic stress reads."""

    _symbol = "el_apply3"

    @staticmethod
    def _coefficients(kernel) -> np.ndarray:
        return kernel.coef_at(*_ISOTROPIC_ENTRIES)


def _gll(order: int) -> tuple[np.ndarray, np.ndarray]:
    from repro.sem.gll import gll_points_weights

    return gll_points_weights(order)
