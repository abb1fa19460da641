"""Golden part vectors: every partitioner returns the partition it always has.

Partitioner output is part of the contract (see :mod:`repro.partition`):
the rank layout, its exchange plans and every distributed run follow from
the part vector bitwise, so a faster partitioner must take the same
decisions in the same order from the same random draws.  Each entry pins
the sha256 of the little-endian int64 part vector.

Regenerate only for a deliberate change of partitioner output, and record
why in the change log:

    PYTHONPATH=src python tests/partition/test_golden.py
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Simulation, SimulationConfig
from repro.core import assign_levels
from repro.mesh import trench_mesh, uniform_grid
from repro.partition import PARTITIONERS


def grid2d():
    """24 x 20 grid, a c = 2 box around a c = 4 core: three levels."""
    mesh = uniform_grid((24, 20))
    x, y = mesh.coords[mesh.elements].mean(axis=1).T
    mesh.c = mesh.c.copy()
    mesh.c[(np.abs(x - 12) < 6) & (np.abs(y - 10) < 5)] = 2.0
    mesh.c[(np.abs(x - 12) < 3) & (np.abs(y - 10) < 2)] = 4.0
    return mesh


MESHES = {"trench": lambda: trench_mesh(10, 10, 5), "grid2d": grid2d}

#: (strategy, mesh, k, seed) -> sha256 of the part vector.
GOLDEN = {
    ("SCOTCH", "trench", 3, 1): "bf4e711e876c04b3e92ebe3e07725b7ce9bd0b788ef0f2631dec004f33781326",
    ("SCOTCH", "trench", 3, 7): "6b059f1fceef52c0de0ffe302f4f46aeea9945956b9c4608044ef3ba34534dd5",
    ("SCOTCH", "trench", 16, 1): "ae7a37aad9ab3cdfe3a8a36e0b6aac6dda32b4a9ac9fcacabc39a1d2dc42f2aa",
    ("SCOTCH", "trench", 16, 7): "a71f5f5fa3eddc5593de0a4d4cadc5ef6a01445f9126387e283c8c5db1d8bcab",
    ("SCOTCH-P", "trench", 3, 1): "e13b0630070f744ab86e6e44849de8e39b36071430a201e2097afdaefa6e3835",
    ("SCOTCH-P", "trench", 3, 7): "cb00b3cf2cd514f760b8b230dbdf38462de0fea1528557d4168cd22816c22eb6",
    ("SCOTCH-P", "trench", 16, 1): "27f12c581ace20109beafa51a5947737645d0d91d7e53deda5aa1375cdcdc3ae",
    ("SCOTCH-P", "trench", 16, 7): "613922f4e890c7d5c14de134b3b8ba94f0136d1973e796ce2cb67559a4276ebf",
    ("MeTiS", "trench", 3, 1): "24dd6aa0543cb6e16e8bf3c174feed8dd576ea077e00fbaf4c930ea227cd63e4",
    ("MeTiS", "trench", 3, 7): "8c888aa5b0c07c558ae8fd0579701ad77db9c00e593809659f70db1cfcc1e14d",
    ("MeTiS", "trench", 16, 1): "ddac2498d4389aa5d3b8ef50b3a8c60dcafb72020cc6d1167001a7b5f97cf14e",
    ("MeTiS", "trench", 16, 7): "c04807b888e9496a6dfd6a1116e25e526286d9dc8128224216b9d6964ee75d4e",
    ("PaToH 0.05", "trench", 3, 1): "cf4bdb7639790344bd367e7f2e4490315ce4c0ee9d36ddcc651f213c3ba921b0",
    ("PaToH 0.05", "trench", 3, 7): "5d48d863b5ad01325a523c89424cb359ff564bcbb140fa7659f39fa5b01f2525",
    ("PaToH 0.05", "trench", 16, 1): "bcbb6542878e5382e3900d45ea451cf346ce30d29aa820202a0f6b1c5b18d311",
    ("PaToH 0.05", "trench", 16, 7): "cc015fef2dc779c2c8bcc85479858bd8ce335c32372809803db0bf639d0c13b7",
    ("PaToH 0.01", "trench", 3, 1): "547bec417a3fed8b0d37b72541c3a6a06857c122faf1ac6bd5a87f02756e206f",
    ("PaToH 0.01", "trench", 3, 7): "4a02277b018df6ea39895fb271d8ac94e44ec371d4bcd361f60443142e7ad9b4",
    ("PaToH 0.01", "trench", 16, 1): "8f9e2595c33d1150843f815c88f95bae0a1289065f4789116d75a35536e48383",
    ("PaToH 0.01", "trench", 16, 7): "89c47b823056f9bf573379b83702c9123ca9c1f1cbabea7d0373dc608900e176",
    ("SCOTCH", "grid2d", 3, 1): "cb09554312e8ff13e168945763570794a757990450143eb597fdc8d78a99a572",
    ("SCOTCH", "grid2d", 3, 7): "aaf33790ed211d7957ca74bdf91eb237cc7f8b79c3ad51af133fd93d3260ab72",
    ("SCOTCH", "grid2d", 16, 1): "c3219a0ecd6a9b265d2e103d7a2dbafcb42ee923040fb395bb6d10620a64384e",
    ("SCOTCH", "grid2d", 16, 7): "8d88147db85838e51deab27002a2d392d6b306458ed0658cfb78e8568d60a63a",
    ("SCOTCH-P", "grid2d", 3, 1): "9b888b1c699c67980dbc21ba8945fe6ca3610b7a508c4c9ea716c3490ca52c16",
    ("SCOTCH-P", "grid2d", 3, 7): "6a11538bfb9a8cefb340ed42830521b8ed1b4d73b7da8666fec336ad481e3599",
    ("SCOTCH-P", "grid2d", 16, 1): "d2bba979183aa33fd50acf468d57e7a7de1cf23e9bfa3f2dc1a9a7e2e42965ac",
    ("SCOTCH-P", "grid2d", 16, 7): "0f2d090682afc548d5b0e5be6afa8bdc1c70c684e138c72e083eee4fb6de6c5e",
    ("MeTiS", "grid2d", 3, 1): "06e21293ea667e80a7ea8b194bce9091cc99ae2d626e2aed99e7f054b79ae507",
    ("MeTiS", "grid2d", 3, 7): "f2abb8e35bc56361f9c4fd47fff8c279916c8b83245cd65ec06ca7c7349269d1",
    ("MeTiS", "grid2d", 16, 1): "da1624e1d42e3cefc85380cbccefc1e2df9863a4470fa0b1d1c55100a72bf35f",
    ("MeTiS", "grid2d", 16, 7): "7c3d85229ecd0cf0613fabe34fd9ea7c094239622cf5a27e306f800ff73ee8ea",
    ("PaToH 0.05", "grid2d", 3, 1): "c7f0444dd844e6e7536992d730da96c01f772c815ae1abfbd4e3ac36a2fc8cd1",
    ("PaToH 0.05", "grid2d", 3, 7): "f9eae0ae3136712fdb155bf866ebd99642fcee4ebc78f0bfd28cc87fe4ff4625",
    ("PaToH 0.05", "grid2d", 16, 1): "6d620c5628828497d54794392290b735e26caa4f1808bf021ea4e1a404ac9dd2",
    ("PaToH 0.05", "grid2d", 16, 7): "01441f0da08329ad3368e525fbb7de3babbbbaec5462fb61eddc18cc4b1bd9a2",
    ("PaToH 0.01", "grid2d", 3, 1): "47c57615a4ddf2ec998eeb4144150e725805296b7e511abc05ddbbf885a86657",
    ("PaToH 0.01", "grid2d", 3, 7): "3788c456a0ec4c15c53b5764ca2706e6fe1b9c16bb371434aba8f6da8076f8da",
    ("PaToH 0.01", "grid2d", 16, 1): "99c9a2027125019fb7de011231744086f916431b0b43ee086e04124b7fb3d211",
    ("PaToH 0.01", "grid2d", 16, 7): "80e6f70649b8ea77f3c92561a1bdb720f676ba2e1466fa30b3de33521cc5ee3a",
}

#: The benchmark's 4-rank trench model (4,800 elements, four levels,
#: SCOTCH-P); partition seed of benchmark seeds 1-3 -> sha256.
TRENCH_RANKS4 = {
    "mesh": {"family": "trench",
             "params": {"nx": 24, "ny": 20, "nz": 10, "band_radii": [0.8, 1.8, 3.6]}},
    "order": 4,
    "time": {"n_cycles": 1, "c_cfl": 0.4},
    "partition": {"n_ranks": 4, "strategy": "SCOTCH-P", "seed": 0},
}
BENCH = {
    54112: "4803a5ff13ebbf84ab117c24cb6de8930df758bf746bc17a460424d23a1dd29d",
    48485: "8aa60f366c66508cf4b1fa625a57ecf9f35babca50a1ec33dc2a9e94284d55dd",
    18575: "6a2af892c6c050569c6e2c225a2f9a2ebb3a8e21d3310352be4be0130d265cfd",
}
#: Every strategy on that model at k = 4, seed 1.  At this size the
#: refinement's boundary sets iterate out of sorted order, which the
#: small meshes above never exercise.
BENCH_STRATEGIES = {
    "SCOTCH": "ff0bf32b7600745f85a700a8f8e6d2f43737f65e6fe5391a274160074535cec1",
    "SCOTCH-P": "f2d63a7e37185c3e96820d0008e0971dcc618362c7b204e8dc907296c798ac05",
    "MeTiS": "91116a458ff6053d1772492a62723a5bc2066200f3b32986a93ddbe685b39e31",
    "PaToH 0.05": "d519d1727b1342af7dd30eaabd634e8f9c865e6ff98288ba4975710c67df2999",
    "PaToH 0.01": "543749eb33975a31c2fd12da717299d917a427449200f7715e857d8aac638cf2",
}


def digest(parts: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(parts, dtype="<i8").tobytes()).hexdigest()


def models() -> dict:
    out = {}
    for name, make in MESHES.items():
        mesh = make()
        out[name] = (mesh, assign_levels(mesh))
    return out


def bench_parts(sim: Simulation, seed: int) -> np.ndarray:
    return sim.variant(partition=replace(sim.config.partition, seed=seed)).parts


@pytest.fixture(scope="module")
def meshes():
    return models()


@pytest.fixture(scope="module")
def trench_sim():
    return Simulation(SimulationConfig.from_dict(TRENCH_RANKS4))


def test_golden_meshes_have_three_levels(meshes):
    assert [a.n_levels for _, a in meshes.values()] == [3, 3]


@pytest.mark.parametrize("name, mesh, k, seed", sorted(GOLDEN))
def test_part_vector_unchanged(meshes, name, mesh, k, seed):
    m, a = meshes[mesh]
    assert digest(PARTITIONERS[name](m, a, k, seed=seed)) == GOLDEN[name, mesh, k, seed]


@pytest.mark.parametrize("seed", sorted(BENCH))
def test_benchmark_trench_partition_unchanged(trench_sim, seed):
    assert digest(bench_parts(trench_sim, seed)) == BENCH[seed]


@pytest.mark.parametrize("name", sorted(BENCH_STRATEGIES))
def test_benchmark_trench_every_strategy_unchanged(trench_sim, name):
    parts = PARTITIONERS[name](trench_sim.mesh, trench_sim.levels, 4, seed=1)
    assert digest(parts) == BENCH_STRATEGIES[name]


if __name__ == "__main__":
    ms = models()
    for (name, mesh, k, seed) in GOLDEN:
        m, a = ms[mesh]
        print(f"    {(name, mesh, k, seed)!r}: {digest(PARTITIONERS[name](m, a, k, seed=seed))!r},")
    sim = Simulation(SimulationConfig.from_dict(TRENCH_RANKS4))
    for seed in BENCH:
        print(f"    {seed}: {digest(bench_parts(sim, seed))!r},")
    for name in BENCH_STRATEGIES:
        print(f"    {name!r}: {digest(PARTITIONERS[name](sim.mesh, sim.levels, 4, seed=1))!r},")
