"""Matrix-free tensor-product apply vs assembled CSR apply (Sec. II-C).

The paper's SPECFEM-style implementation never assembles a global
stiffness matrix: the action ``A u = M^{-1} K u`` is applied
element-by-element with tensor-product contractions.  This bench pits
the two interchangeable :class:`repro.core.operator.StiffnessOperator`
backends against each other across polynomial orders, for both the full
apply and the LTS level-restricted apply (``A[:, cols] u[cols]`` on ~a
corner of the domain; on the fused tier the raw ``K[:, cols] u[cols]``
an LTS plan steps, whose ``M^{-1}`` its phases apply as they first read
it):

* ``assembled`` — pruned CSR matvec (``sem.A @ u``);
* ``matfree`` — batched sum-factorization with the fused element
  kernels of :mod:`repro.sem.fused` when a C compiler is available;
* ``matfree-numpy`` — the portable batched contraction path, for
  reference (in 2D its flop count matches CSR's nnz count, so it lands
  near parity; the fused kernels win by keeping the element workspace
  in registers).

``--dim 3`` runs the 3D hexahedral workload (the paper's actual mesh
class); this is where sum-factorization pays off asymptotically and the
fused matfree tier beats the CSR matvec outright at order >= 4.
``--physics elastic`` sweeps the vector-valued operator instead
(:class:`repro.sem.tensor.ElasticSemND`) — the elastic CSR carries
``dim^2`` coupled blocks per element pair, so the matrix-free win is
larger and arrives earlier than in the acoustic sweeps.
``--physics anisotropic`` sweeps the general-``C`` operator
(:class:`repro.sem.anisotropic.AnisotropicElasticSemND`, a tilted-TI
medium) through the fused stress-form kernels (``an_apply`` /
``an_apply3``) against the (much denser) anisotropic CSR.

``--threads N`` additionally times the threaded kernel tier — the
OpenMP fused path — and records the resolved tier label plus CPU
identity (model name, core count) so a result file documents the
machine it came from.  Threaded results are
written to a separate ``..._threads*.json`` so the serial baselines
stay untouched.  The ``threads_speedup >= 2`` scaling assertion is
gated on ``usable_cores >= N``: a single-core container records its
(honestly sub-1x) threaded numbers with the core count alongside,
rather than failing or implying an undemonstrated multi-core claim.

Usage::

    PYTHONPATH=src python benchmarks/bench_matfree_vs_assembled.py \
        [--quick] [--dim {2,3}] [--physics {acoustic,elastic,anisotropic}] \
        [--threads N]

``--quick`` shrinks the mesh and order sweep to a seconds-long smoke
run (used by CI); the full run records the numbers quoted in README.
Emits a ``BENCH`` JSON line and persists to
``benchmarks/results/matfree_vs_assembled[_threads][_3d|_elastic|
_elastic3d|_aniso|_aniso3d].json`` (quick runs never overwrite the
recorded full runs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import save_results  # noqa: E402

from repro.mesh import uniform_grid  # noqa: E402
from repro.sem import (  # noqa: E402
    AnisotropicElasticSemND,
    ElasticSemND,
    IsotropicElastic,
    SemND,
    hexagonal_stiffness,
    isotropic_stiffness,
)
from repro.sem import fused  # noqa: E402
from repro.util import Table  # noqa: E402

#: physics -> assembler class (each is generic over dimension).
SEM_CLASSES = {
    "acoustic": SemND,
    "elastic": ElasticSemND,
    "anisotropic": AnisotropicElasticSemND,
}

#: (physics, dim) -> results-file suffix.
RESULT_SUFFIX = {
    ("acoustic", 2): "",
    ("acoustic", 3): "_3d",
    ("elastic", 2): "_elastic",
    ("elastic", 3): "_elastic3d",
    ("anisotropic", 2): "_aniso",
    ("anisotropic", 3): "_aniso3d",
}

#: Grid shapes and order sweeps per (physics, dim, quick).  The elastic
#: meshes are smaller: the assembled elastic CSR carries dim^2 coupled
#: blocks per element pair, so matching DOF counts would be assembly-
#: (not apply-) bound.  The anisotropic CSR is denser still (no zero
#: axis-pair entries survive), so those sweeps shrink once more.
SWEEPS = {
    ("acoustic", 2): {False: ((64, 64), (2, 3, 4, 5, 6, 7, 8)), True: ((16, 16), (2, 4))},
    ("acoustic", 3): {False: ((8, 8, 8), (2, 3, 4, 5, 6)), True: ((3, 3, 3), (2, 4))},
    ("elastic", 2): {False: ((48, 48), (2, 3, 4, 5, 6)), True: ((8, 8), (2, 3))},
    ("elastic", 3): {False: ((5, 5, 5), (2, 3, 4)), True: ((2, 2, 2), (2, 3))},
    ("anisotropic", 2): {False: ((32, 32), (2, 3, 4, 5)), True: ((6, 6), (2, 3))},
    ("anisotropic", 3): {False: ((4, 4, 4), (2, 3, 4)), True: ((2, 2, 2), (2,))},
}


def _anisotropic_stiffness(dim: int) -> "np.ndarray":
    """A mildly anisotropic benchmark medium: isotropic plus a TI
    perturbation in 3D, a stiffened-normal perturbation in 2D (both
    symmetric positive definite)."""
    if dim == 3:
        return hexagonal_stiffness(c11=5.2, c33=4.0, c13=1.8, c44=0.9, c66=1.3)
    C = isotropic_stiffness(2.0, 1.0, 2)
    C[0, 0] *= 1.6  # break isotropy: stiffer along x
    C[2, 2] *= 1.2
    return C


def _cpu_info() -> dict:
    """CPU identity for result-file provenance: a threaded number is
    meaningless without the core count it ran on."""
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        usable = os.cpu_count()
    return {"cpu_model": model, "cpu_count": os.cpu_count(), "usable_cores": usable}


def _best_ms(fn, reps: int) -> float:
    fn()  # warm up (JIT-less, but touches caches and lazy buffers)
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _corner_columns(sem) -> np.ndarray:
    """DOFs of the low corner (2^-dim of the domain — a fake LTS level)."""
    xc = sem.node_coords
    mid = 0.5 * (xc.min(axis=0) + xc.max(axis=0))
    nodes = np.nonzero(np.all(xc <= mid[None, :], axis=1))[0]
    nc = getattr(sem, "n_comp", 1)
    if nc == 1:
        return nodes
    return (nc * nodes[:, None] + np.arange(nc)).ravel()


def _make_sem(physics: str, dim: int, grid, order: int):
    cls = SEM_CLASSES[physics]
    mesh = uniform_grid(grid)
    if physics == "elastic":
        return cls(mesh, order=order, material=IsotropicElastic(lam=2.0, mu=1.0))
    if physics == "anisotropic":
        return cls(mesh, order=order, C=_anisotropic_stiffness(dim))
    return cls(mesh, order=order)


def run(
    quick: bool = False,
    dim: int = 2,
    physics: str = "acoustic",
    threads: int | None = None,
) -> dict:
    if (physics, dim) not in RESULT_SUFFIX:
        raise SystemExit(f"unsupported combination physics={physics!r} dim={dim}")
    grid, orders = SWEEPS[(physics, dim)][quick]
    reps = 5 if quick else 30
    rng = np.random.default_rng(0)

    header = ["order", "n_dof", "nnz", "assembled ms", "matfree ms", "speedup",
              "numpy ms", "restricted speedup", "max rel err"]
    if threads is not None:
        header[7:7] = [f"omp:{threads} ms"]
    rows = []
    t = Table(
        header,
        title=f"matrix-free vs assembled apply — {'x'.join(map(str, grid))} "
        f"{physics} {dim}D "
        f"(fused kernels: {'yes' if fused.available() else 'NO — numpy fallback'})",
    )
    for order in orders:
        sem = _make_sem(physics, dim, grid, order)
        assembled = sem.operator("assembled")
        matfree = sem.operator("matfree")
        mf_numpy = sem.operator("matfree", use_fused=False)
        u = rng.standard_normal(sem.n_dof)

        ref = assembled @ u
        err = float(np.abs(matfree @ u - ref).max() / np.abs(ref).max())
        err_np = float(np.abs(mf_numpy @ u - ref).max() / np.abs(ref).max())

        cols = _corner_columns(sem)
        r_asm = assembled.restrict(cols)
        r_mf = matfree.restrict(cols)
        # The fused tier's level products are raw (K u): an LTS plan
        # multiplies by ``row_scale`` in its phases' first read, so the
        # timed apply below is what a plan steps, and the check scales.
        z_r, scale = r_mf.apply(u), matfree.row_scale
        z_r = z_r if scale is None else z_r * scale
        err_r = float(np.abs(z_r - r_asm.apply(u)).max() / np.abs(ref).max())

        t_asm = _best_ms(lambda: assembled @ u, reps)
        t_mf = _best_ms(lambda: matfree @ u, reps)
        t_np = _best_ms(lambda: mf_numpy @ u, reps)
        t_rasm = _best_ms(lambda: r_asm.apply(u), reps)
        t_rmf = _best_ms(lambda: r_mf.apply(u), reps)

        row = {
            "physics": physics,
            "dim": dim,
            "order": order,
            "n_dof": sem.n_dof,
            "nnz": int(assembled.nnz),
            "assembled_ms": t_asm,
            "matfree_ms": t_mf,
            "matfree_numpy_ms": t_np,
            "speedup": t_asm / t_mf,
            "restricted_assembled_ms": t_rasm,
            "restricted_matfree_ms": t_rmf,
            "restricted_speedup": t_rasm / t_rmf,
            "max_rel_err": max(err, err_np, err_r),
        }
        cells = [order, sem.n_dof, assembled.nnz, f"{t_asm:.3f}", f"{t_mf:.3f}",
                 f"{t_asm / t_mf:.2f}x", f"{t_np:.3f}"]
        if threads is not None:
            mf_t = sem.operator("matfree", threads=threads)
            err_t = float(np.abs(mf_t @ u - ref).max() / np.abs(ref).max())
            t_omp = _best_ms(lambda: mf_t @ u, reps)
            row.update(
                threads=threads,
                matfree_threads_ms=t_omp,
                matfree_threads_tier=mf_t.tier,
                threads_speedup=t_mf / t_omp,
            )
            row["max_rel_err"] = max(row["max_rel_err"], err_t)
            cells.append(f"{t_omp:.3f}")
        rows.append(row)
        cells += [f"{t_rasm / t_rmf:.2f}x", f"{row['max_rel_err']:.1e}"]
        t.add_row(cells)

    if physics == "acoustic" and dim == 2:
        # One elastic row for the vector-valued kernel (kept in the
        # default sweep so the recorded 2D results stay comparable; the
        # full elastic sweeps live behind --physics elastic).
        el_order = 2 if quick else 5
        el = ElasticSemND(
            uniform_grid(grid), order=el_order,
            material=IsotropicElastic(lam=2.0, mu=1.0),
        )
        asm_e = el.operator("assembled")
        mf_e = el.operator("matfree")
        u = rng.standard_normal(el.n_dof)
        ref = asm_e @ u
        err_e = float(np.abs(mf_e @ u - ref).max() / np.abs(ref).max())
        te_asm = _best_ms(lambda: asm_e @ u, reps)
        te_mf = _best_ms(lambda: mf_e @ u, reps)
        rows.append(
            {
                "physics": "elastic",
                "dim": dim,
                "order": el_order,
                "n_dof": el.n_dof,
                "nnz": int(asm_e.nnz),
                "assembled_ms": te_asm,
                "matfree_ms": te_mf,
                "speedup": te_asm / te_mf,
                "max_rel_err": err_e,
            }
        )
        cells = [f"{el_order} (elastic)", el.n_dof, asm_e.nnz, f"{te_asm:.3f}",
                 f"{te_mf:.3f}", f"{te_asm / te_mf:.2f}x", "-"]
        if threads is not None:
            cells.append("-")
        t.add_row(cells + ["-", f"{err_e:.1e}"])
    t.print()

    payload = {
        "grid": list(grid),
        "dim": dim,
        "physics": physics,
        "quick": quick,
        "fused_available": fused.available(),
        "omp_enabled": fused.available() and fused.omp_enabled(),
        "threads": threads,
        "rows": rows,
        **_cpu_info(),
    }
    name = "matfree_vs_assembled"
    if threads is not None:
        name += "_threads"
    if not quick:  # quick/CI smokes must not clobber the recorded full runs
        save_results(name + RESULT_SUFFIX[(physics, dim)], payload)
    print("BENCH " + json.dumps(payload, default=float))

    # Hard checks: backends must agree; the matrix-free backend must win
    # decisively at high order on the full-size mesh (paper Sec. II-C).
    # The anisotropic CSR is denser still (no zero axis-pair entries),
    # so the fused stress-form kernels win from order 3 in either dim.
    tol = 1e-12 if physics == "acoustic" else 1e-11
    for row in rows:
        assert row["max_rel_err"] < tol, row
    if not quick and fused.available():
        for row in rows:
            if row["physics"] != physics:
                continue
            if physics == "acoustic":
                if dim == 2 and row["order"] >= 5:
                    assert row["speedup"] >= 2.0, row
                if dim == 3 and row["order"] >= 4:
                    assert row["speedup"] >= 1.0, row
            elif physics == "elastic":
                # Elastic CSR carries dim^2 coupled blocks: the fused
                # matfree tier must win from moderate order in either dim.
                if row["order"] >= 3:
                    assert row["speedup"] >= 1.5, row
            elif physics == "anisotropic":
                if row["order"] >= 3:
                    assert row["speedup"] >= 1.5, row
            # Threaded scaling is only checkable on a machine that has
            # the cores: on a single-core container the OpenMP tier
            # legitimately degenerates to serial-plus-overhead.
            if (
                threads is not None and threads >= 4
                and payload["omp_enabled"]
                and payload["usable_cores"] >= threads
                and dim == 3 and row["order"] >= 4
            ):
                assert row["threads_speedup"] >= 2.0, row
    return payload


def test_matfree_vs_assembled():
    """Pytest entry point (quick mode — equivalence + smoke timing)."""
    run(quick=True, dim=2)


def test_matfree_vs_assembled_3d():
    """Pytest entry point for the 3D hexahedral workload."""
    run(quick=True, dim=3)


def test_matfree_vs_assembled_elastic():
    """Pytest entry point for the 2D elastic sweep."""
    run(quick=True, dim=2, physics="elastic")


def test_matfree_vs_assembled_elastic3d():
    """Pytest entry point for the 3D elastic hexahedral workload."""
    run(quick=True, dim=3, physics="elastic")


def test_matfree_vs_assembled_anisotropic():
    """Pytest entry point for the 2D anisotropic sweep."""
    run(quick=True, dim=2, physics="anisotropic")


def test_matfree_vs_assembled_anisotropic3d():
    """Pytest entry point for the 3D anisotropic hexahedral workload."""
    run(quick=True, dim=3, physics="anisotropic")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="seconds-long smoke run")
    ap.add_argument("--dim", type=int, default=2, choices=(2, 3),
                    help="spatial dimension (3 = hexahedral sweep)")
    ap.add_argument("--physics", default="acoustic",
                    choices=("acoustic", "elastic", "anisotropic"),
                    help="operator physics (elastic/anisotropic = vector-valued sweeps)")
    ap.add_argument("--threads", type=int, default=None, metavar="N",
                    help="also time the OpenMP fused tier with N threads "
                         "(results go to a separate _threads JSON)")
    args = ap.parse_args()
    run(quick=args.quick, dim=args.dim, physics=args.physics, threads=args.threads)
