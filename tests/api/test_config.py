"""Config-layer tests: lossless round-tripping, unknown-key/invalid-value
rejection with actionable messages, and file loading (JSON + TOML)."""

import json

import numpy as np
import pytest

from repro.api import (
    BackendSpec,
    MaterialSpec,
    MeshSpec,
    PartitionSpec,
    ReceiverSpec,
    RegionSpec,
    SimulationConfig,
    SourceSpec,
    TimeSpec,
)
from repro.sem.materials import IsotropicAcoustic, IsotropicElastic, isotropic_stiffness
from repro.util.errors import ConfigError


def full_config() -> SimulationConfig:
    """A config exercising every spec (incl. regions and tuple data)."""
    return SimulationConfig(
        name="full",
        mesh=MeshSpec("trench", {"nx": 6, "ny": 4, "nz": 2, "band_radii": [0.8, 1.8]}),
        material=MaterialSpec(
            model="elastic",
            lam=2.0,
            mu=1.0,
            rho=1.0,
            regions=(RegionSpec(values={"lam": 32.0, "mu": 16.0}, elements=(5,)),),
        ),
        order=2,
        dirichlet=True,
        time=TimeSpec(n_cycles=4, c_cfl=0.35),
        source=SourceSpec(position=(1.0, 2.0, 1.0), component=2, f0=0.5),
        receivers=ReceiverSpec(positions=((4.0, 2.0, 0.5), (5.0, 2.0, 0.5)), component=1),
        partition=PartitionSpec(n_ranks=2, strategy="SCOTCH-P", seed=3),
        backend=BackendSpec(stiffness="matfree", fused=False),
    )


class TestRoundTrip:
    def test_from_dict_to_dict_identity(self):
        cfg = full_config()
        assert SimulationConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_round_trip(self):
        cfg = full_config()
        wire = json.dumps(cfg.to_dict())
        assert SimulationConfig.from_dict(json.loads(wire)) == cfg

    def test_every_sub_spec_round_trips(self):
        cfg = full_config()
        for spec in (cfg.mesh, cfg.material, cfg.material.regions[0], cfg.time,
                     cfg.source, cfg.receivers, cfg.partition, cfg.backend):
            assert type(spec).from_dict(spec.to_dict()) == spec

    def test_numpy_arrays_freeze_to_plain_data(self):
        """Specs built from numpy arrays equal specs built from lists."""
        C = isotropic_stiffness(2.0, 1.0, 3)
        a = MaterialSpec(model="anisotropic_elastic", C=C)
        b = MaterialSpec(model="anisotropic_elastic", C=C.tolist())
        assert a == b
        assert MaterialSpec.from_dict(json.loads(json.dumps(a.to_dict()))) == a

    def test_box_region_round_trips(self):
        r = RegionSpec(values={"c": 4.0}, box=np.array([[0.0, 1.0], [0.0, 2.0]]))
        assert RegionSpec.from_dict(json.loads(json.dumps(r.to_dict()))) == r

    def test_none_source_and_receivers_round_trip(self):
        cfg = SimulationConfig(
            mesh=MeshSpec("uniform_grid", {"shape": (4, 4)}),
            time=TimeSpec(t_end=1.0),
        )
        assert cfg.source is None and cfg.receivers is None
        assert SimulationConfig.from_dict(cfg.to_dict()) == cfg

    def test_nested_fields_accept_raw_mappings(self):
        cfg = SimulationConfig(
            mesh={"family": "uniform_grid", "params": {"shape": [4, 4]}},
            time={"n_cycles": 3},
            material={"model": "acoustic"},
        )
        assert isinstance(cfg.mesh, MeshSpec)
        assert cfg.time.n_cycles == 3

    def test_mapping_fields_are_read_only(self):
        """Validated specs cannot be mutated into a different config
        (they may be live cache keys)."""
        cfg = full_config()
        with pytest.raises(TypeError):
            cfg.mesh.params["nx"] = 999
        with pytest.raises(TypeError):
            cfg.material.regions[0].values["lam"] = 0.0

    def test_specs_hash_consistently_with_equality(self):
        """Configs are cache keys: equal specs hash equal, dict-field
        specs (MeshSpec.params, RegionSpec.values) included."""
        a, b = full_config(), full_config()
        assert a == b
        assert hash(a) == hash(b)
        for spec_a, spec_b in zip(
            (a.mesh, a.material, a.material.regions[0]),
            (b.mesh, b.material, b.material.regions[0]),
        ):
            assert hash(spec_a) == hash(spec_b)
        assert hash(a.mesh) != hash(MeshSpec("trench", {"nx": 7}))
        assert len({a, b}) == 1

    def test_file_round_trip_json(self, tmp_path):
        cfg = full_config()
        path = tmp_path / "cfg.json"
        cfg.save(path)
        assert SimulationConfig.from_file(path) == cfg

    def test_file_load_toml(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "cfg.toml"
        path.write_text(
            """
            name = "toml-case"
            order = 3

            [mesh]
            family = "uniform_grid"
            [mesh.params]
            shape = [4, 4]

            [time]
            n_cycles = 5
            c_cfl = 0.4
            """
        )
        cfg = SimulationConfig.from_file(path)
        assert cfg.name == "toml-case"
        assert cfg.mesh.params["shape"] == (4, 4)
        assert cfg.time.n_cycles == 5


class TestRejection:
    def test_unknown_top_level_key_suggests_fix(self):
        with pytest.raises(ConfigError, match=r"unknown key 'mesg'.*did you mean 'mesh'"):
            SimulationConfig.from_dict({"mesg": {}, "time": {"n_cycles": 1}})

    def test_unknown_nested_key_names_the_spec(self):
        with pytest.raises(ConfigError, match=r"MeshSpec.*valid keys"):
            MeshSpec.from_dict({"family": "trench", "parms": {}})

    def test_unknown_mesh_family_lists_available(self):
        with pytest.raises(ConfigError, match=r"unknown mesh family 'trenchh'.*trench"):
            MeshSpec("trenchh")

    def test_unknown_generator_param_suggests_fix(self):
        with pytest.raises(ConfigError, match=r"did you mean 'nx'"):
            MeshSpec("trench", {"nxx": 4})

    def test_unknown_material_model(self):
        with pytest.raises(ConfigError, match="unknown material model"):
            MaterialSpec(model="viscoelastic")

    def test_material_param_wrong_model(self):
        with pytest.raises(ConfigError, match=r"model='acoustic'.*does not take 'lam'"):
            MaterialSpec(model="acoustic", lam=2.0)

    def test_anisotropic_requires_stiffness(self):
        with pytest.raises(ConfigError, match="requires C="):
            MaterialSpec(model="anisotropic_elastic")

    def test_region_needs_exactly_one_selector(self):
        with pytest.raises(ConfigError, match="exactly one selector"):
            RegionSpec(values={"c": 2.0})
        with pytest.raises(ConfigError, match="exactly one selector"):
            RegionSpec(values={"c": 2.0}, elements=(1,), box=((0, 1),))

    def test_region_override_must_match_model(self):
        with pytest.raises(ConfigError, match=r"'mu' is not a parameter.*acoustic"):
            MaterialSpec(regions=[{"elements": [0], "values": {"mu": 1.0}}])

    def test_region_bad_box(self):
        with pytest.raises(ConfigError, match=r"\(lo, hi\)"):
            RegionSpec(values={"c": 2.0}, box=(1.0, 2.0))
        with pytest.raises(ConfigError, match="lo > hi"):
            RegionSpec(values={"c": 2.0}, box=((2.0, 1.0),))

    def test_time_needs_exactly_one_duration(self):
        with pytest.raises(ConfigError, match="exactly one of n_cycles"):
            TimeSpec()
        with pytest.raises(ConfigError, match="exactly one of n_cycles"):
            TimeSpec(n_cycles=3, t_end=1.0)

    def test_time_invalid_values(self):
        with pytest.raises(ConfigError, match="c_cfl must be > 0"):
            TimeSpec(n_cycles=1, c_cfl=0.0)
        with pytest.raises(ConfigError, match="unknown scheme"):
            TimeSpec(n_cycles=1, scheme="leapfrog")
        with pytest.raises(ConfigError, match="n_cycles must be >= 1"):
            TimeSpec(n_cycles=0)

    def test_source_validation(self):
        with pytest.raises(ConfigError, match="unknown source kind"):
            SourceSpec(position=(0.0,), kind="gaussian")
        with pytest.raises(ConfigError, match="f0 must be > 0"):
            SourceSpec(position=(0.0,), f0=-1.0)
        with pytest.raises(ConfigError, match="coordinate sequence"):
            SourceSpec(position="here")

    def test_receiver_validation(self):
        with pytest.raises(ConfigError, match="non-empty sequence"):
            ReceiverSpec(positions=())
        with pytest.raises(ConfigError, match="coordinate sequence"):
            ReceiverSpec(positions=("x",))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_positions_are_refused(self, bad):
        """``np.argmin`` over NaN distances is 0: a non-finite position
        would silently land on DOF 0 instead of failing."""
        cfg = full_config().to_dict()
        cfg["source"]["position"][1] = bad
        with pytest.raises(ConfigError, match=r"SourceSpec\.position must be finite"):
            SimulationConfig.from_dict(cfg)
        cfg = full_config().to_dict()
        cfg["receivers"]["positions"][1][2] = bad
        with pytest.raises(ConfigError, match=r"ReceiverSpec\.positions\[1\] must be finite"):
            SimulationConfig.from_dict(cfg)

    def test_partition_validation(self):
        with pytest.raises(ConfigError, match="n_ranks must be >= 1"):
            PartitionSpec(n_ranks=0)
        with pytest.raises(ConfigError, match=r"unknown partition strategy.*SCOTCH"):
            PartitionSpec(strategy="METIS-X")

    def test_backend_validation(self):
        with pytest.raises(ConfigError, match="unknown stiffness backend"):
            BackendSpec(stiffness="gpu")
        with pytest.raises(ConfigError, match="'assembled'.*'matfree'"):
            BackendSpec(stiffness="assembled")

    def test_backend_threads_validation(self):
        with pytest.raises(ConfigError, match="threads must be >= 0"):
            BackendSpec(stiffness="matfree", threads=-1)
        with pytest.raises(ConfigError, match="threads must be an integer"):
            BackendSpec(stiffness="matfree", threads=1.5)
        with pytest.raises(ConfigError, match="threads must be an integer"):
            BackendSpec(stiffness="matfree", threads=True)
        # 0 = auto-detect is valid, as is any positive count.
        assert BackendSpec(stiffness="matfree", threads=0).threads == 0
        assert BackendSpec(stiffness="matfree", threads=4).threads == 4
        # The NumPy tier is serial: naming it with a thread count is an
        # error, not a silent downgrade (threads=1 says serial).
        for n in (0, 2):
            with pytest.raises(ConfigError, match="applies to the fused tier"):
                BackendSpec(stiffness="matfree", fused=False, threads=n)
        assert BackendSpec(stiffness="matfree", fused=False, threads=1).threads == 1
        assert BackendSpec(stiffness="matfree", fused=True, threads=2).threads == 2

    def test_backend_threads_round_trip(self, tmp_path):
        cfg = SimulationConfig(
            mesh=MeshSpec("uniform_grid", {"shape": (3, 3)}),
            time=TimeSpec(n_cycles=1),
            backend=BackendSpec(stiffness="matfree", fused=True, threads=2),
        )
        back = SimulationConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg
        assert back.backend.threads == 2
        pytest.importorskip("tomllib")
        path = tmp_path / "cfg.toml"
        path.write_text(
            """
            [mesh]
            family = "uniform_grid"
            [mesh.params]
            shape = [3, 3]

            [time]
            n_cycles = 1

            [backend]
            stiffness = "matfree"
            threads = 2
            """
        )
        assert SimulationConfig.from_file(path).backend.threads == 2

    def test_order_validation(self):
        with pytest.raises(ConfigError, match="order must be >= 1"):
            SimulationConfig(
                mesh=MeshSpec("uniform_grid", {"shape": (2, 2)}),
                time=TimeSpec(n_cycles=1),
                order=0,
            )

    def test_from_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            SimulationConfig.from_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            SimulationConfig.from_file(bad)
        weird = tmp_path / "cfg.yaml"
        weird.write_text("a: 1")
        with pytest.raises(ConfigError, match="unsupported config format"):
            SimulationConfig.from_file(weird)


def _load_job(path):
    from repro.__main__ import _load_job_file

    return _load_job_file(path)


def _load_ensemble(path):
    from repro.api import EnsembleSpec

    return EnsembleSpec.from_file(path)


@pytest.mark.parametrize(
    "load, noun",
    [
        (SimulationConfig.from_file, "config"),
        (_load_ensemble, "ensemble"),
        (_load_job, "job"),
    ],
    ids=["config", "ensemble", "job"],
)
@pytest.mark.parametrize(
    "name, text, match",
    [
        ("missing.json", None, "{noun} file not found: "),
        ("bad.json", "{nope", "is not valid JSON"),
        ("bad.toml", "a = = 1", "is not valid TOML"),
        ("cfg.yaml", "a: 1", "unsupported {noun} format '.yaml'"),
        ("list.json", "[1, 2]", "must hold a JSON/TOML object"),
    ],
    ids=["missing", "bad-json", "bad-toml", "suffix", "non-object"],
)
def test_spec_file_readers_share_errors(tmp_path, load, noun, name, text, match):
    """Config, ensemble and job files go through one reader: the same
    failure gives the same ConfigError, named for the caller."""
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError, match=match.format(noun=noun)):
        load(path)


class TestMaterialBuild:
    def test_acoustic_defaults_to_mesh_speed(self):
        mesh = MeshSpec("uniform_grid", {"shape": (3, 3)}).build()
        mat = MaterialSpec().build(mesh)
        assert isinstance(mat, IsotropicAcoustic)
        assert np.array_equal(mat.c, mesh.c)

    def test_region_override_applies_on_selected_elements(self):
        mesh = MeshSpec("uniform_grid", {"shape": (4, 4)}).build()
        spec = MaterialSpec(
            model="elastic",
            lam=2.0,
            mu=1.0,
            regions=(RegionSpec(values={"lam": 32.0}, elements=(0, 5)),),
        )
        mat = spec.build(mesh)
        assert isinstance(mat, IsotropicElastic)
        assert mat.lam[0] == 32.0 and mat.lam[5] == 32.0
        assert np.all(mat.lam[[1, 2, 3, 4]] == 2.0)

    def test_box_region_uses_centroids(self):
        mesh = MeshSpec("uniform_grid", {"shape": (4, 1)}).build()
        spec = MaterialSpec(
            regions=(RegionSpec(values={"c": 4.0}, box=((0.0, 2.0), (0.0, 1.0))),),
        )
        mat = spec.build(mesh)
        assert np.array_equal(mat.c, [4.0, 4.0, 1.0, 1.0])

    def test_region_out_of_range_element(self):
        mesh = MeshSpec("uniform_grid", {"shape": (2, 2)}).build()
        spec = MaterialSpec(regions=(RegionSpec(values={"c": 2.0}, elements=(99,)),))
        with pytest.raises(ConfigError, match=r"outside \[0, 4\)"):
            spec.build(mesh)

    def test_empty_region_rejected(self):
        mesh = MeshSpec("uniform_grid", {"shape": (2, 2)}).build()
        spec = MaterialSpec(
            regions=(RegionSpec(values={"c": 2.0}, box=((5.0, 6.0), (5.0, 6.0))),)
        )
        with pytest.raises(ConfigError, match="selects no elements"):
            spec.build(mesh)

    def test_box_dimension_mismatch(self):
        mesh = MeshSpec("uniform_grid", {"shape": (2, 2)}).build()
        spec = MaterialSpec(regions=(RegionSpec(values={"c": 2.0}, box=((0, 1),)),))
        with pytest.raises(ConfigError, match="1 axis intervals but the mesh is 2D"):
            spec.build(mesh)

    def test_per_element_parameter_shape_mismatch(self):
        mesh = MeshSpec("uniform_grid", {"shape": (3, 3)}).build()
        with pytest.raises(ConfigError, match="per-element"):
            MaterialSpec(model="elastic", lam=(1.0, 2.0)).build(mesh)
