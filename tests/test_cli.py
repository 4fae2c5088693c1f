import json

import pytest

from ethbath import cli, spectra
from ethbath.hamiltonian import HermitianOperator, SignedPermutation


def base_config(**overrides):
    cfg = {
        "system": {"omega0": 1.525},
        "bath": {"L": 6, "preset": "chaotic"},
        "coupling": {"kappa": 0.15, "terms": [["x", 1, "x"]]},
        "state": {"kind": "eigenstate", "beta": 0.0, "deltaE": 0.4},
        "grid": {"t_max": 10.0, "dt": 0.5},
        "eth": {"window": 4.0, "freq_bin": 0.4, "min_states": 15},
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture()
def config_file(tmp_path):
    def write(cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    return write


def run_kind(kind, cfg_path, out_dir, cache_dir):
    return cli.main(
        [kind, "--config", cfg_path, "--out", str(out_dir), "--cache-dir", cache_dir]
    )


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli.main(["thermo", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["thermo", "--config", str(path)]) == 2


def test_invalid_bath_exits_2(config_file, tmp_path, capsys):
    cfg_path = config_file(base_config(bath={"L": 6, "preset": "tepid"}))
    assert run_kind("thermo", cfg_path, tmp_path / "out", str(tmp_path)) == 2
    assert "preset" in capsys.readouterr().err


def test_missing_bath_size_exits_2(config_file, tmp_path):
    cfg = base_config()
    del cfg["bath"]["L"]
    assert run_kind("thermo", config_file(cfg), tmp_path / "out", str(tmp_path)) == 2


def test_numerical_failure_exits_3(config_file, tmp_path, capsys):
    # an impossibly narrow spectral window trips the eth stage, not the parser
    cfg = base_config(eth={"window": 1e-6, "freq_bin": 0.4, "min_states": 15})
    code = run_kind("eth-stats", config_file(cfg), tmp_path / "out", str(tmp_path / "cache"))
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_thermo_csv_schema(config_file, tmp_path, cache_dir):
    out = tmp_path / "out"
    assert run_kind("thermo", config_file(base_config()), out, cache_dir) == 0
    lines = (out / "thermo.csv").read_text().splitlines()
    assert lines[0] == "E,S,beta,C,beta_canonical"
    assert len(lines) > 3
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["kind"] == "thermo"
    assert "thermo.csv" in manifest["files"]


def test_eth_stats_outputs(config_file, tmp_path, cache_dir):
    out = tmp_path / "out"
    assert run_kind("eth-stats", config_file(base_config()), out, cache_dir) == 0
    assert (out / "diagonals.csv").read_text().splitlines()[0] == "E,Bnn"
    assert (out / "specfun.csv").read_text().splitlines()[0] == "omega,f2,count"


def test_rates_csv_schema(config_file, tmp_path, cache_dir):
    out = tmp_path / "out"
    assert run_kind("rates", config_file(base_config()), out, cache_dir) == 0
    assert (out / "rates.csv").read_text().splitlines()[0] == "omega,gamma,gamma_fs"


def test_bcf_csv_schema(config_file, tmp_path, cache_dir):
    out = tmp_path / "out"
    assert run_kind("bcf", config_file(base_config()), out, cache_dir) == 0
    assert (out / "bcf.csv").read_text().splitlines()[0] == "tau,re_C,im_C"


def test_dynamics_trajectory_schema(config_file, tmp_path, cache_dir):
    out = tmp_path / "out"
    assert run_kind("dynamics", config_file(base_config()), out, cache_dir) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,p0,p1,re_rho01,im_rho01,trace_dist_vs_lindblad"
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(1.0, abs=1e-9)  # polarized start


def test_typicality_csv_schema(config_file, tmp_path, cache_dir):
    out = tmp_path / "out"
    cfg = base_config(typicality={"n_samples": 5})
    assert run_kind("typicality", config_file(cfg), out, cache_dir) == 0
    lines = (out / "typicality.csv").read_text().splitlines()
    assert lines[0] == "sample,max_dev_B,max_dev_C"
    assert len(lines) == 6


def test_scaling_csv_schema(config_file, tmp_path, cache_dir):
    out = tmp_path / "out"
    cfg = base_config(scaling={"L_values": [6], "state_kinds": ["eigenstate"], "t_final": 10.0})
    assert run_kind("scaling", config_file(cfg), out, cache_dir) == 0
    lines = (out / "scaling.csv").read_text().splitlines()
    assert lines[0] == "L,avg_trace_distance,state_kind"
    assert lines[1].startswith("6,") and lines[1].endswith(",eigenstate")


def test_levelstats_summary(config_file, tmp_path, cache_dir):
    out = tmp_path / "out"
    assert run_kind("levelstats", config_file(base_config()), out, cache_dir) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert 0.3 < summary["mean_gap_ratio"] < 0.6


def test_validate_flags_weak_coupling(config_file, tmp_path, cache_dir, capsys):
    cfg = base_config(coupling={"kappa": 1e-9, "terms": [["x", 1, "x"]]})
    out = tmp_path / "out"
    assert run_kind("validate", config_file(cfg), out, cache_dir) == 0
    report = json.loads((out / "validate.json").read_text())
    assert any("level spacing" in w for w in report["warnings"])


def test_validate_warns_on_explicit_energy_outside_fit_domain(config_file, tmp_path, cache_dir):
    # the lint reads E0 and beta as the other kinds do, so an explicit E counts
    cfg = base_config(state={"kind": "eigenstate", "E": -100.0, "deltaE": 0.4})
    assert run_kind("eth-stats", config_file(cfg), tmp_path / "eth", cache_dir) == 3
    out = tmp_path / "out"
    assert run_kind("validate", config_file(cfg), out, cache_dir) == 0
    report = json.loads((out / "validate.json").read_text())
    assert "target E = -100.0 lies outside the entropy-fit domain" in report["warnings"]


def test_bath_side_builds_no_dense_pauli(config_file, tmp_path, cache_dir, monkeypatch):
    # B_nm comes from the signed permutation of the bath Pauli, never a 2^L x 2^L matrix
    cfg_path = config_file(base_config(operators=[[1, "x"], [3, "y"], [6, "z"]]))
    assert run_kind("thermo", cfg_path, tmp_path / "warm", cache_dir) == 0
    transformed, dims = [], []
    to_eigenbasis, post_init = spectra.to_eigenbasis, HermitianOperator.__post_init__

    def spy_transform(op, eig):
        transformed.append(op)
        return to_eigenbasis(op, eig)

    def spy_post_init(self):
        dims.append(self.dim)
        post_init(self)

    monkeypatch.setattr(spectra, "to_eigenbasis", spy_transform)
    monkeypatch.setattr(HermitianOperator, "__post_init__", spy_post_init)
    for kind in ("multi-op-rates", "eth-stats"):  # eth-stats reads BathModel.b_eig
        assert run_kind(kind, cfg_path, tmp_path / kind, cache_dir) == 0
    assert len(transformed) == 4
    assert all(isinstance(op, SignedPermutation) for op in transformed)
    assert 2**6 not in dims


# small enough to run every kind on the L=6 base config
KIND_EXTRAS = {
    "scaling": {"scaling": {"L_values": [6], "state_kinds": ["eigenstate"], "t_final": 10.0}},
    "typicality": {"typicality": {"n_samples": 5}},
}


@pytest.mark.parametrize("kind", cli.KINDS)
def test_reruns_are_byte_identical(kind, config_file, tmp_path, cache_dir):
    cfg_path = config_file(base_config(**KIND_EXTRAS.get(kind, {})))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_kind(kind, cfg_path, out_a, cache_dir) == 0
    assert run_kind(kind, cfg_path, out_b, cache_dir) == 0
    names = sorted(json.loads((out_a / "run_manifest.json").read_text())["files"])
    assert names == sorted(p.name for p in out_a.iterdir() if p.name != "run_manifest.json")
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_sigma_z_coupling_predicts_no_relaxation(config_file, tmp_path, cache_dir):
    # sigma^z on the system conserves its populations, and the Lindblad side
    # must couple through the same system operator as the exact dynamics
    cfg = base_config(coupling={"kappa": 0.15, "terms": [["z", 1, "x"]]})
    out = tmp_path / "out"
    assert run_kind("dynamics", config_file(cfg), out, cache_dir) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["gamma_pop_prediction"] == 0


@pytest.mark.parametrize(
    "kind", ["eth-stats", "rates", "bcf", "dynamics", "scaling", "typicality", "validate"]
)
def test_multi_term_coupling_exits_2(kind, config_file, tmp_path, cache_dir, capsys):
    cfg = base_config(coupling={"kappa": 0.15, "terms": [["x", 1, "x"], ["z", 2, "z"]]},
                      **KIND_EXTRAS.get(kind, {}))
    assert run_kind(kind, config_file(cfg), tmp_path / "out", cache_dir) == 2
    assert "exactly one term" in capsys.readouterr().err


def test_config_error_inside_runner_exits_2(config_file, tmp_path, cache_dir, capsys):
    cfg = base_config(scaling={"L_values": [6], "t_final": 50.0})
    assert run_kind("scaling", config_file(cfg), tmp_path / "out", cache_dir) == 2
    assert "t_final" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, extras, named",
    [
        pytest.param("multi-op-rates", {"operators": [[7, "x"], [1, "z"]]}, "operators",
                     id="site-out-of-range"),
        pytest.param("multi-op-rates", {"operators": [[1, "w"], [1, "z"]]}, "operators",
                     id="unknown-axis"),
        pytest.param("multi-op-rates", {"operators": [[1, "x"]]}, "operators",
                     id="single-operator"),
        pytest.param("typicality", {"typicality": {"n_samples": 1}}, "n_samples",
                     id="one-sample"),
        pytest.param("typicality", {"typicality": {"n_samples": "many"}}, "n_samples",
                     id="non-integer-samples"),
        pytest.param("thermo", {"thermo": {"degree": 1}}, "degree", id="linear-fit"),
        pytest.param("scaling", {"scaling": {"L_values": ["six"], "t_final": 10.0}},
                     "L_values", id="non-integer-size"),
        pytest.param("scaling", {"scaling": {"L_values": [1], "t_final": 10.0}},
                     "L_values", id="size-too-small"),
        pytest.param("scaling", {"scaling": {"L_values": [17], "t_final": 10.0}},
                     "L_values", id="size-too-large"),
        pytest.param("scaling", {"scaling": {"L_values": [6], "state_kinds": ["bogus"],
                                             "t_final": 10.0}},
                     "'bogus'", id="unknown-state-kind"),
    ],
)
def test_malformed_kind_option_exits_2(kind, extras, named, config_file, tmp_path, cache_dir,
                                       capsys):
    cfg_path = config_file(base_config(**extras))
    assert run_kind(kind, cfg_path, tmp_path / "out", cache_dir) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err


def test_failing_run_keeps_foreign_files_and_writes_nothing(config_file, tmp_path, cache_dir):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("not written by ethbath\n")
    cfg = base_config(eth={"window": 4.0, "freq_bin": 0.4, "min_states": 10000})
    assert run_kind("rates", config_file(cfg), out, cache_dir) == 3
    assert [p.name for p in out.iterdir()] == ["notes.txt"]


def test_cache_env_fallback(config_file, tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("ETHBATH_CACHE", str(cache))
    cfg_path = config_file(base_config())
    assert cli.main(["thermo", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert any(cache.iterdir())
