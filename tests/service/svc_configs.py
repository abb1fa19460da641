"""Tiny fast job specs shared by the service tests: tiny fast configs."""

from __future__ import annotations


def small_config(src=(2.0, 3.0), name="svc", fused=None) -> dict:
    """A sub-second simulation spec (6x6 grid, 3 cycles)."""
    return {
        "name": name,
        "mesh": {"family": "uniform_grid", "params": {"shape": [6, 6]}},
        "time": {"n_cycles": 3},
        "source": {"position": list(src), "f0": 0.8},
        "receivers": {"positions": [[4.0, 3.0]]},
        "backend": {"stiffness": "matfree", "fused": fused},
    }


def small_ensemble(n_members=2, name="svc-ens") -> dict:
    """A tiny zip ensemble over source positions."""
    return {
        "name": name,
        "base": small_config(),
        "mode": "zip",
        "sweeps": [
            {
                "path": "source.position",
                "values": [[2.0 + 0.5 * i, 3.0] for i in range(n_members)],
            }
        ],
    }
