"""Command-line interface: exit codes, artifacts, manifests, replay."""
import json

import numpy as np
import pytest

from pdfisp.cli import _redirect_out, _result_files, main
from pdfisp.config import load_config
from pdfisp.fileio import (load_dataset, load_grid, load_manifest, save_dataset, save_grid,
                           sha256_file)
from pdfisp.forward import ScatteredData
from pdfisp.fresnel import fresnel_reconstruct, load_fresnel
from pdfisp.geometry import ComplexGrid

TINY = ["--set", "m1=16", "--set", "m2=16", "--set", "m_f=3",
        "--set", "n_tx=8", "--set", "n_rx=8", "--set", "k_iters=2"]


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli") / "sim"
    code = main(["simulate", "--scene", "austria:2.0:0.9", *TINY, "--out", str(d)])
    assert code == 0
    return d


@pytest.fixture(scope="module")
def recon_dir(tmp_path_factory, sim_dir):
    d = tmp_path_factory.mktemp("cli") / "recon"
    code = main(["reconstruct", "--config", str(sim_dir / "config.json"),
                 "--data", str(sim_dir / "data.emsca"),
                 "--truth", str(sim_dir / "chi_true.grid"), "--out", str(d)])
    assert code == 0
    return d


@pytest.fixture(scope="module")
def fresnel_dir(tmp_path_factory, foamdiel_file):
    d = tmp_path_factory.mktemp("cli") / "fres"
    code = main(["fresnel", "--file", str(foamdiel_file), "--freq", "5.0",
                 "--set", "m1=16", "--set", "m2=16", "--set", "m_f=3", "--set", "k_iters=2",
                 "--out", str(d)])
    assert code == 0
    return d


@pytest.fixture(scope="module")
def study_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    spec = _json(d / "spec.json", {"kind": "monte_carlo", "sigmas": [0.0],
                                   "n_realizations": 1, "config": TINY_CONFIG})
    assert main(["study", "--spec", spec, "--out", str(d / "study")]) == 0
    return d / "study"


# ----------------------------------------------------------------------
# Exit codes


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["simulate", "--out", "x"]) == 1


def test_unknown_set_field_is_usage_error(tmp_path, capsys):
    code = main(["simulate", "--scene", "austria:2.0", "--set", "nope=1",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "unknown config field" in capsys.readouterr().err


def test_malformed_set_entry_is_usage_error(tmp_path, capsys):
    code = main(["simulate", "--scene", "austria:2.0", "--set", "beta",
                 "--out", str(tmp_path / "o")])
    assert code == 1


def test_missing_data_file_is_runtime_error(tmp_path, capsys):
    code = main(["reconstruct", "--data", str(tmp_path / "absent.emsca"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_scene_is_runtime_error(tmp_path, capsys):
    code = main(["simulate", "--scene", "nonagon:2.0", "--out", str(tmp_path / "o")])
    assert code == 2


def test_mismatched_data_is_runtime_error(sim_dir, tmp_path, capsys):
    code = main(["reconstruct", "--data", str(sim_dir / "data.emsca"), *TINY,
                 "--set", "n_tx=4", "--out", str(tmp_path / "o")])
    assert code == 2
    assert ("error: data matrix of shape (8, 8) does not match the antenna array of "
            "4 transmitters and 8 receivers") in capsys.readouterr().err


def _json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


TINY_CONFIG = {"m1": 16, "m2": 16, "m_f": 3, "n_tx": 8, "n_rx": 8, "k_iters": 2}
DISK = {"kind": "disk", "eps_r": 2.0, "center": [0.0, 0.0]}
SIM = ["simulate", *TINY, "--scene"]
MALFORMED = {   # name -> (argv before --out, {d} standing for the test's directory; field)
    "set m1 text": ([*SIM, "austria:2", "--set", "m1=abc"], "ImagingConfig.m1"),
    "set beta text": ([*SIM, "austria:2", "--set", "beta=abc"], "ImagingConfig.beta"),
    "set beta nan": ([*SIM, "austria:2", "--set", "beta=NaN"], "ImagingConfig.beta"),
    "set solver_tol inf": ([*SIM, "austria:2", "--set", "solver_tol=Infinity"],
                           "ImagingConfig.solver_tol must be finite, got inf"),
    "set m1 float": ([*SIM, "austria:2", "--set", "m1=64.0"], "ImagingConfig.m1"),
    "set k_iters float": ([*SIM, "austria:2", "--set", "k_iters=2.5"], "ImagingConfig.k_iters"),
    "set use_cco text": ([*SIM, "austria:2", "--set", "use_cco=maybe"], "ImagingConfig.use_cco"),
    "config m1 string": ([*SIM, "austria:2", "--config", "{d}/m1.json"], "ImagingConfig.m1"),
    "config cco key": ([*SIM, "austria:2", "--config", "{d}/cco.json"],
                       "ImagingConfig keys: ['cco']"),
    "config freeze_r": ([*SIM, "austria:2", "--config", "{d}/freeze_r.json"],
                        "ImagingConfig keys: ['freeze_r']"),
    "config tau_b": ([*SIM, "austria:2", "--config", "{d}/tau_b.json"],
                     "ImagingConfig keys: ['tau_b']"),
    "config solver_maxiter": ([*SIM, "austria:2", "--config", "{d}/solver_maxiter.json"],
                              "ImagingConfig keys: ['solver_maxiter']"),
    "snr nan": ([*SIM, "austria:2", "--snr", "nan"], "snr_db must be finite or +inf, got nan"),
    "snr -inf": ([*SIM, "austria:2", "--snr=-inf"], "snr_db must be finite or +inf, got -inf"),
    "data nan": (["reconstruct", *TINY, "--data", "{d}/nan.emsca"],
                 "nonfinite entries: 1, in 1 of 8 rows"),
    "truth grid size": (["reconstruct", *TINY, "--data", "{d}/ones.emsca",
                         "--truth", "{d}/chi20.grid"],
                        "truth grid of shape (20, 20) does not match the imaging grid of "
                        "shape (16, 16)"),
    "scene no radius": ([*SIM, "{d}/no_radius.json"], "Scene.shapes[0] (disk): missing radius"),
    "scene negative radius": ([*SIM, "{d}/negative_radius.json"],
                              "Scene.shapes[0] (disk): radius must be finite and > 0"),
    "scene misspelled key": ([*SIM, "{d}/radios.json"], "Shape keys: ['radios']"),
    "scene eps_r text": ([*SIM, "austria:abc"], "eps_r 'abc'"),
    "scene eps_r nan": ([*SIM, "austria:nan"], "Scene.shapes[0]: needs a finite eps_r"),
    "scene scale text": ([*SIM, "austria:2:x"], "scale 'x'"),
    "scene extra part": ([*SIM, "austria:2:1:5"], "expected name:eps_r[:scale]"),
    "spec ablation": (["study", "--spec", "{d}/ablation.json"], "StudySpec.ablations"),
    "spec sweep axis": (["study", "--spec", "{d}/axis.json"], "StudySpec.axes: ['bogus']"),
    "spec snr_db axis text": (["study", "--spec", "{d}/snr_axis.json"],
                              "StudySpec.axes['snr_db'][1]: expected float, got 'abc'"),
    "spec snr_grid": (["study", "--spec", "{d}/snr_grid.json"], "StudySpec.snr_grid"),
    "spec snr_db axis nan": (["study", "--spec", "{d}/snr_nan.json"],
                             "StudySpec.axes['snr_db'][1] must be finite or +inf, got nan"),
    "spec scene_name noise": (["study", "--spec", "{d}/scene_noise.json"],
                              "StudySpec.scene_name"),
    "spec scene_name sweep": (["study", "--spec", "{d}/scene_sweep.json"],
                              "StudySpec.scene_name"),
    "spec sigmas negative": (["study", "--spec", "{d}/sigmas.json"], "StudySpec.sigmas"),
    "spec n_realizations zero": (["study", "--spec", "{d}/n_realizations.json"],
                                 "StudySpec.n_realizations"),
    "fresnel inf column": (["fresnel", "--file", "{d}/inf.exp", "--freq", "1"],
                           "line 2: nonfinite value"),
    "manifest no argv": (["rerun", "--manifest", "{d}/no_argv.json"], "manifest argv"),
    "manifest no outputs": (["rerun", "--manifest", "{d}/no_outputs.json"], "manifest outputs"),
    "manifest no inputs": (["rerun", "--manifest", "{d}/no_inputs.json"], "manifest inputs"),
    "render vmax nan": (["render", "--grid", "{d}/chi20.grid", "--vmax", "nan"],
                        "vmin=1.0, vmax=nan"),
    "manifest array": (["rerun", "--manifest", "{d}/array.json"], "a manifest is a JSON object"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_names_the_field(name, tmp_path, capsys):
    _json(tmp_path / "m1.json", {"m1": "64"})
    _json(tmp_path / "cco.json", {"cco": {}})
    _json(tmp_path / "freeze_r.json", {"freeze_r": False})
    _json(tmp_path / "tau_b.json", {"tau_b": 0.5})
    _json(tmp_path / "solver_maxiter.json", {"solver_maxiter": 2000})
    matrix = np.ones((8, 8), dtype=complex)
    matrix[3, 5] = np.nan
    save_dataset(tmp_path / "nan.emsca", ScatteredData(matrix=matrix))
    save_dataset(tmp_path / "ones.emsca", ScatteredData(matrix=np.ones((8, 8), dtype=complex)))
    save_grid(tmp_path / "chi20.grid", ComplexGrid(np.zeros((20, 20)), 0.1))
    _json(tmp_path / "no_radius.json", {"shapes": [DISK]})
    _json(tmp_path / "negative_radius.json", {"shapes": [dict(DISK, radius=-0.3)]})
    _json(tmp_path / "radios.json", {"shapes": [dict(DISK, radius=0.3, radios=0.3)]})
    _json(tmp_path / "ablation.json", {"kind": "ablation", "ablations": ["no_foo"],
                                       "config": TINY_CONFIG})
    _json(tmp_path / "axis.json", {"kind": "sweep", "axes": {"bogus": [1]},
                                   "config": TINY_CONFIG})
    _json(tmp_path / "snr_axis.json", {"kind": "sweep", "axes": {"snr_db": [10.0, "abc"]},
                                       "config": TINY_CONFIG})
    _json(tmp_path / "snr_nan.json", {"kind": "sweep", "axes": {"snr_db": [10.0, float("nan")]},
                                      "config": TINY_CONFIG})
    (tmp_path / "inf.exp").write_text("1 1 1.0 1.0 0.0 0.5 0.0\ninf 1 5 1 1 1 1\n")
    _json(tmp_path / "snr_grid.json", {"kind": "noise", "snr_grid": "abc",
                                       "config": TINY_CONFIG})
    _json(tmp_path / "sigmas.json", {"kind": "monte_carlo", "sigmas": [-0.001],
                                     "config": TINY_CONFIG})
    _json(tmp_path / "n_realizations.json", {"kind": "monte_carlo", "n_realizations": 0,
                                             "config": TINY_CONFIG})
    for kind in ("noise", "sweep"):
        _json(tmp_path / f"scene_{kind}.json", {"kind": kind, "scene_name": "nonagon",
                                                "config": TINY_CONFIG})
    _json(tmp_path / "no_argv.json", {"command": "simulate", "outputs": {}})
    _json(tmp_path / "no_outputs.json", {"command": "simulate", "argv": ["simulate"]})
    _json(tmp_path / "no_inputs.json", {"command": "simulate", "argv": ["simulate"],
                                        "outputs": {}})
    _json(tmp_path / "array.json", [{"argv": ["simulate"], "outputs": {}}])
    argv, field = MALFORMED[name]
    argv = [a.format(d=tmp_path) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_unknown_study_spec_key_is_runtime_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    tiny = {"m1": 16, "m2": 16, "m_f": 3, "n_tx": 8, "n_rx": 8, "k_iters": 2}
    spec.write_text(json.dumps({"kind": "ablation", "ablations": [], "config": tiny,
                                "workers": 2}))
    code = main(["study", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "workers" in capsys.readouterr().err


# ----------------------------------------------------------------------
# simulate artifacts


def test_simulate_outputs(sim_dir):
    for name in ("config.json", "data.emsca", "chi_true.grid", "manifest.json"):
        assert (sim_dir / name).exists()
    data, meta = load_dataset(sim_dir / "data.emsca")
    assert data.matrix.shape == (8, 8)
    assert meta == {"scene": "austria:2.0:0.9"}
    truth = load_grid(sim_dir / "chi_true.grid")
    assert truth.values.shape == (16, 16)
    cfg = load_config(sim_dir / "config.json")
    assert cfg.m1 == 16 and cfg.k_iters == 2


def test_simulate_manifest_contents(sim_dir):
    m = load_manifest(sim_dir / "manifest.json")
    assert m["command"] == "simulate"
    assert m["seed"] == 0
    assert set(m["outputs"]) == {str(sim_dir / n) for n in
                                 ("config.json", "data.emsca", "chi_true.grid")}
    for path, digest in m["outputs"].items():
        assert sha256_file(path) == digest
    solver = m["solver"]
    assert solver["path"] == "support-lu" and solver["steps"] >= 1
    assert len(solver["residuals"]) == 8
    assert solver["max_residual"] == max(solver["residuals"]) <= 1e-8


def test_seed_flag_lands_in_config_and_manifest(tmp_path):
    d = tmp_path / "seeded"
    assert main(["simulate", "--scene", "austria:2.0:0.9", *TINY,
                 "--set", "rng_seed=3", "--out", str(d)]) == 0
    assert load_config(d / "config.json").rng_seed == 3
    assert load_manifest(d / "manifest.json")["seed"] == 3


@pytest.mark.parametrize("command", [
    ["simulate", "--scene", "austria:2.0:0.9", *TINY],
    ["reconstruct", "--data", "data.emsca"],
    ["fresnel", "--file", "s.exp"],
])
def test_seed_flag_is_gone(command, tmp_path, capsys):
    # `--set rng_seed=N` is the one setter of the run seed
    assert main([*command, "--seed", "3", "--out", str(tmp_path / "o")]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [
    ["reconstruct", "--config", "{sim}/config.json", "--data", "{sim}/data.emsca",
     "--vmax", "0.5"],
    ["reconstruct", "--config", "{sim}/config.json", "--data", "{sim}/data.emsca",
     "--vmin", "1"],
    ["fresnel", "--file", "{fres}", "--freq", "5.0", "--set", "m1=16", "--set", "m2=16",
     "--set", "m_f=3", "--set", "k_iters=2", "--vmax", "3"],
    ["fresnel", "--file", "{fres}", "--freq", "5.0", "--set", "m1=16", "--set", "m2=16",
     "--set", "m_f=3", "--set", "k_iters=2", "--vmin", "1"],
    ["render", "--grid", "{sim}/chi_true.grid", "--quantity", "chi"],
])
def test_preview_range_flags_are_gone(command, sim_dir, foamdiel_file, tmp_path, capsys):
    # eps_r.pgm keeps one range rule; `render --vmin/--vmax` gives any other range
    argv = [a.format(sim=sim_dir, fres=foamdiel_file) for a in command]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_set_accepts_json_values(tmp_path):
    d = tmp_path / "flags"
    assert main(["simulate", "--scene", "austria:2.0:0.9", *TINY,
                 "--set", "use_cco=false", "--out", str(d)]) == 0
    assert load_config(d / "config.json").use_cco is False


def test_simulate_manifest_hashes_a_scene_file(sim_dir, tmp_path):
    assert load_manifest(sim_dir / "manifest.json")["inputs"] == {}     # a preset
    scene = _json(tmp_path / "scene.json", {"shapes": [dict(DISK, radius=0.3)]})
    d = tmp_path / "sim"
    assert main([*SIM, scene, "--out", str(d)]) == 0
    assert load_manifest(d / "manifest.json")["inputs"] == {scene: sha256_file(scene)}


@pytest.mark.parametrize("run_dir", ["sim_dir", "recon_dir", "fresnel_dir", "study_dir"])
def test_manifest_outputs_are_the_files_of_the_run(run_dir, request):
    d = request.getfixturevalue(run_dir)
    files = {str(p) for p in d.iterdir() if p.is_file() and p.name != "manifest.json"}
    assert files == set(load_manifest(d / "manifest.json")["outputs"])


# ----------------------------------------------------------------------
# reconstruct artifacts


def test_reconstruct_outputs(recon_dir):
    for name in ("config.json", "chi.grid", "eps_r.pgm", "trace.csv",
                 "metrics.json", "manifest.json"):
        assert (recon_dir / name).exists()
    lines = (recon_dir / "trace.csv").read_text().splitlines()
    assert lines[0].startswith("iteration,") and len(lines) == 3   # k_iters=2
    metrics = json.loads((recon_dir / "metrics.json").read_text())
    assert set(metrics) == {"rel_error", "loss_state", "loss_data", "loss_bound", "loss_tv",
                            "loss_bridge", "loss_total", "components", "peak_eps", "min_eps",
                            "n_below_one", "gap_spurious", "views"}
    assert None not in metrics.values()   # --truth gives rel_error and gap_spurious
    assert metrics["views"] == 8          # the 16x16 data are full rank: every view is kept
    assert (recon_dir / "eps_r.pgm").read_bytes().startswith(b"P5\n16 16\n255\n")


def test_trace_has_finite_update_norms(recon_dir):
    lines = (recon_dir / "trace.csv").read_text().splitlines()
    header = lines[0].split(",")
    cols = [header.index(name) for name in ("grad_norm", "update_norm")]
    rows = [line.split(",") for line in lines[1:]]
    norms = np.array([[float(row[c]) for c in cols] for row in rows])
    assert norms.shape == (2, 2) and np.isfinite(norms).all() and (norms > 0).all()
    counts = [int(row[header.index(name)]) for row in rows
              for name in ("n_clamped", "n_degenerate")]
    assert min(counts) >= 0 and max(counts) <= 16 * 16


def test_metrics_json_is_the_row_of_a_sweep_cell_on_the_same_data(sim_dir, recon_dir,
                                                                   monkeypatch):
    # `result_metrics` fills both: a noise-free sweep cell of the simulated
    # config and scene reconstructs the same data and reports the same numbers
    from pdfisp import studies

    data = []
    real = studies.reconstruct

    def captured(config, measured, **kwargs):
        data.append(measured.matrix)
        return real(config, measured, **kwargs)

    monkeypatch.setattr(studies, "reconstruct", captured)
    spec = studies.StudySpec(config=load_config(sim_dir / "config.json"), kind="sweep",
                             scene_name="austria", scene_eps=2.0, scene_scale=0.9)
    (row,) = studies.run_sweep(spec)
    assert np.array_equal(data[0], load_dataset(sim_dir / "data.emsca")[0].matrix)
    metrics = json.loads((recon_dir / "metrics.json").read_text())
    assert set(metrics) <= set(row)
    assert {key: row[key] for key in metrics} == metrics


# ----------------------------------------------------------------------
# render


def test_render_writes_pgm_and_no_manifest(sim_dir, tmp_path):
    out = tmp_path / "truth.pgm"
    assert main(["render", "--grid", str(sim_dir / "chi_true.grid"), "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert raw.startswith(b"P5\n16 16\n255\n")
    assert not (tmp_path / "manifest.json").exists()
    truth = load_grid(sim_dir / "chi_true.grid")
    pix = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8).reshape(16, 16)
    want = np.rint(np.clip((truth.values.real + 1.0 - 1.0) / 2.0, 0, 1) * 255)
    assert np.array_equal(pix, want.astype(np.uint8))


def test_render_of_chi_grid_reproduces_eps_pgm(recon_dir, tmp_path):
    peak = json.loads((recon_dir / "metrics.json").read_text())["peak_eps"]
    out = tmp_path / "eps.pgm"
    assert main(["render", "--grid", str(recon_dir / "chi.grid"), "--vmin", "1",
                 "--vmax", repr(max(1.5, peak)), "--out", str(out)]) == 0
    assert out.read_bytes() == (recon_dir / "eps_r.pgm").read_bytes()


# ----------------------------------------------------------------------
# rerun


def test_rerun_simulate_matches(sim_dir, tmp_path, capsys):
    code = main(["rerun", "--manifest", str(sim_dir / "manifest.json"),
                 "--out", str(tmp_path / "replay")])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok" in out and "DIFFERS" not in out


def test_rerun_reconstruct_matches(recon_dir, tmp_path, capsys):
    code = main(["rerun", "--manifest", str(recon_dir / "manifest.json"),
                 "--out", str(tmp_path / "replay")])
    assert code == 0
    assert "DIFFERS" not in capsys.readouterr().out


def test_rerun_study_matches(tmp_path, capsys):
    spec = _json(tmp_path / "spec.json", {"kind": "noise", "snr_grid": [10.0],
                                          "eps_grid": [2.0], "config": TINY_CONFIG})
    out = tmp_path / "study"
    assert main(["study", "--spec", spec, "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["rerun", "--manifest", str(out / "manifest.json"),
                 "--out", str(tmp_path / "replay")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines and all(line.startswith("ok ") for line in lines)


def test_study_manifest_lists_only_its_own_csvs(tmp_path, capsys):
    # a noise study, then a sweep, into one directory
    out = tmp_path / "shared"
    noise = _json(tmp_path / "noise.json", {"kind": "noise", "snr_grid": [10.0],
                                            "eps_grid": [2.0], "config": TINY_CONFIG})
    sweep = _json(tmp_path / "sweep.json", {"kind": "sweep", "axes": {"beta": [4.0]},
                                            "snr_db": 10.0, "config": TINY_CONFIG})
    assert main(["study", "--spec", noise, "--out", str(out)]) == 0
    assert main(["study", "--spec", sweep, "--out", str(out)]) == 0
    assert list(load_manifest(out / "manifest.json")["outputs"]) == [str(out / "sweep.csv")]
    capsys.readouterr()
    code = main(["rerun", "--manifest", str(out / "manifest.json"),
                 "--out", str(tmp_path / "replay")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines and all(line.startswith("ok ") for line in lines)


def test_rerun_detects_tampered_outputs(sim_dir, tmp_path, capsys):
    manifest = load_manifest(sim_dir / "manifest.json")
    key = str(sim_dir / "data.emsca")
    manifest["outputs"][key] = "0" * 64
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(manifest))
    code = main(["rerun", "--manifest", str(bad), "--out", str(tmp_path / "replay")])
    assert code == 2
    assert "DIFFERS" in capsys.readouterr().out


def test_rerun_names_changed_inputs_and_does_not_replay(sim_dir, tmp_path, capsys):
    # an edited or missing input is named before any replay
    for name in ("config.json", "data.emsca"):
        (tmp_path / name).write_bytes((sim_dir / name).read_bytes())
    rec = tmp_path / "rec"
    assert main(["reconstruct", "--config", str(tmp_path / "config.json"),
                 "--data", str(tmp_path / "data.emsca"), "--out", str(rec)]) == 0
    config = json.loads((tmp_path / "config.json").read_text())
    _json(tmp_path / "config.json", {**config, "k_iters": 3})
    (tmp_path / "data.emsca").unlink()
    capsys.readouterr()
    code = main(["rerun", "--manifest", str(rec / "manifest.json"),
                 "--out", str(tmp_path / "replay")])
    assert code == 2
    assert capsys.readouterr().out.splitlines() == [
        f"CHANGED  {tmp_path / name}" for name in ("config.json", "data.emsca")]
    assert not (tmp_path / "replay").exists()


def test_rerun_reports_a_failed_replay(sim_dir, tmp_path, capsys):
    # a manifest recorded with the retired `simulate --seed` no longer replays
    manifest = load_manifest(sim_dir / "manifest.json")
    manifest["argv"] += ["--seed", "3"]
    old = _json(tmp_path / "seeded.json", manifest)
    code = main(["rerun", "--manifest", old, "--out", str(tmp_path / "replay")])
    assert code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and err.endswith("rerun: replay exited with 1\n")


def test_study_seed_flag_overrides_the_spec_seed(tmp_path):
    spec = {"kind": "noise", "snr_grid": [10.0], "eps_grid": [2.0], "config": TINY_CONFIG}
    flagged = _json(tmp_path / "flagged.json", spec)
    written = _json(tmp_path / "written.json", {**spec, "seed": 5})
    for spec_file, extra, out in ((flagged, ["--seed", "5"], "flag"), (written, [], "spec"),
                                  (flagged, [], "default")):
        assert main(["study", "--spec", spec_file, *extra, "--out", str(tmp_path / out)]) == 0
    assert load_manifest(tmp_path / "flag" / "manifest.json")["seed"] == 5
    rows = {out: (tmp_path / out / "noise.csv").read_text() for out in ("flag", "spec", "default")}
    assert rows["flag"] == rows["spec"] != rows["default"]     # 10 dB noise from default_rng(5)


def test_redirect_out_variants():
    assert _redirect_out(["x", "--out", "a"], "b") == ["x", "--out", "b"]
    assert _redirect_out(["x", "--out=a"], "b") == ["x", "--out=b"]
    assert _redirect_out(["x"], "b") == ["x", "--out", "b"]


# ----------------------------------------------------------------------
# fresnel


def test_fresnel_write_synthetic_only(tmp_path):
    path = tmp_path / "synth.exp"
    code = main(["fresnel", "--write-synthetic", str(path), "--freq", "2.0"])
    assert code == 0
    assert path.exists()
    first = path.read_text().splitlines()[2].split()
    assert first[2] == "2"                      # GHz column


def test_fresnel_reconstruct_run(fresnel_dir):
    d = fresnel_dir
    for name in ("config.json", "chi.grid", "eps_r.pgm", "metrics.json",
                 "manifest.json"):
        assert (d / name).exists()
    cfg = load_config(d / "config.json")
    assert cfg.m1 == 16 and cfg.frequency == 5e9
    metrics = json.loads((d / "metrics.json").read_text())
    assert metrics["views"] == cfg.n_tx           # partly measured data keep every view
    assert metrics["rel_error"] is None and metrics["gap_spurious"] is None   # no truth


def test_fresnel_writes_the_files_of_fresnel_reconstruct(fresnel_dir, foamdiel_file, tmp_path):
    # `pdf-isp fresnel` inverts through `fresnel_reconstruct` and writes its result's files
    result = fresnel_reconstruct(load_fresnel(foamdiel_file, 5.0), m1=16, m2=16, m_f=3,
                                 k_iters=2)
    files = _result_files(result)
    assert len(files) == 5
    for name, write in files.items():
        write(tmp_path / name)
        assert (tmp_path / name).read_bytes() == (fresnel_dir / name).read_bytes(), name


@pytest.mark.parametrize("assignment", ["frequency=3e9", "n_tx=4", "n_rx=4",
                                        "ring_radius=3"])
def test_fresnel_dataset_fields_not_settable(assignment, foamdiel_file, tmp_path, capsys):
    field = assignment.partition("=")[0]
    code = main(["fresnel", "--file", str(foamdiel_file), "--freq", "5.0",
                 "--set", "m1=16", "--set", "m2=16", "--set", "m_f=3", "--set", "k_iters=2",
                 "--set", assignment, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_fresnel_requires_file_for_inversion(capsys):
    assert main(["fresnel", "--freq", "5.0"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_fresnel_missing_frequency_is_runtime_error(foamdiel_file, tmp_path, capsys):
    code = main(["fresnel", "--file", str(foamdiel_file), "--freq", "3.0",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not present" in capsys.readouterr().err
