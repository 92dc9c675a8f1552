"""Command-line interface: exit codes, artifacts, manifests, replay."""
import json

import numpy as np
import pytest

from pdfisp.cli import _redirect_out, main
from pdfisp.config import load_config
from pdfisp.fileio import load_dataset, load_grid, load_manifest, sha256_file

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


def test_cco_block_not_settable(tmp_path, capsys):
    code = main(["simulate", "--scene", "austria:2.0", "--set", "cco=1",
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


def _json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


TINY_CONFIG = {"m1": 16, "m2": 16, "m_f": 3, "n_tx": 8, "n_rx": 8, "k_iters": 2}
DISK = {"kind": "disk", "eps_r": 2.0, "center": [0.0, 0.0]}
SIM = ["simulate", *TINY, "--scene"]
MALFORMED = {   # name -> (argv before --out, {d} standing for the test's directory; field)
    "set m1 text": ([*SIM, "austria:2", "--set", "m1=abc"], "ImagingConfig.m1"),
    "set beta text": ([*SIM, "austria:2", "--set", "beta=abc"], "ImagingConfig.beta"),
    "set m1 float": ([*SIM, "austria:2", "--set", "m1=64.0"], "ImagingConfig.m1"),
    "set k_iters float": ([*SIM, "austria:2", "--set", "k_iters=2.5"], "ImagingConfig.k_iters"),
    "set use_cco text": ([*SIM, "austria:2", "--set", "use_cco=maybe"], "ImagingConfig.use_cco"),
    "config m1 string": ([*SIM, "austria:2", "--config", "{d}/m1.json"], "ImagingConfig.m1"),
    "config cco key": ([*SIM, "austria:2", "--config", "{d}/cco.json"],
                       "CcoParams keys: ['bogus']"),
    "scene no radius": ([*SIM, "{d}/no_radius.json"], "Scene.shapes[0] (disk): missing radius"),
    "scene misspelled key": ([*SIM, "{d}/radios.json"], "Shape keys: ['radios']"),
    "scene eps_r text": ([*SIM, "austria:abc"], "eps_r 'abc'"),
    "scene eps_r nan": ([*SIM, "austria:nan"], "Scene.shapes[0]: needs a finite eps_r"),
    "scene scale text": ([*SIM, "austria:2:x"], "scale 'x'"),
    "scene extra part": ([*SIM, "austria:2:1:5"], "expected name:eps_r[:scale]"),
    "spec ablation": (["study", "--spec", "{d}/ablation.json"], "StudySpec.ablations"),
    "spec sweep axis": (["study", "--spec", "{d}/axis.json"], "StudySpec.axes: ['bogus']"),
    "spec snr_grid": (["study", "--spec", "{d}/snr_grid.json"], "StudySpec.snr_grid"),
    "spec scene_name noise": (["study", "--spec", "{d}/scene_noise.json"],
                              "StudySpec.scene_name"),
    "spec scene_name sweep": (["study", "--spec", "{d}/scene_sweep.json"],
                              "StudySpec.scene_name"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_names_the_field(name, tmp_path, capsys):
    _json(tmp_path / "m1.json", {"m1": "64"})
    _json(tmp_path / "cco.json", {"cco": {"bogus": 1}})
    _json(tmp_path / "no_radius.json", {"shapes": [DISK]})
    _json(tmp_path / "radios.json", {"shapes": [dict(DISK, radius=0.3, radios=0.3)]})
    _json(tmp_path / "ablation.json", {"kind": "ablation", "ablations": ["no_foo"],
                                       "config": TINY_CONFIG})
    _json(tmp_path / "axis.json", {"kind": "sweep", "axes": {"bogus": [1]},
                                   "config": TINY_CONFIG})
    _json(tmp_path / "snr_grid.json", {"kind": "noise", "snr_grid": "abc",
                                       "config": TINY_CONFIG})
    for kind in ("noise", "sweep"):
        _json(tmp_path / f"scene_{kind}.json", {"kind": kind, "scene_name": "nonagon",
                                                "config": TINY_CONFIG})
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


def test_seed_flag_lands_in_config_and_manifest(tmp_path):
    d = tmp_path / "seeded"
    assert main(["simulate", "--scene", "austria:2.0:0.9", *TINY,
                 "--seed", "3", "--out", str(d)]) == 0
    assert load_config(d / "config.json").rng_seed == 3
    assert load_manifest(d / "manifest.json")["seed"] == 3


def test_set_accepts_json_values(tmp_path):
    d = tmp_path / "flags"
    assert main(["simulate", "--scene", "austria:2.0:0.9", *TINY,
                 "--set", "use_cco=false", "--out", str(d)]) == 0
    assert load_config(d / "config.json").use_cco is False


# ----------------------------------------------------------------------
# reconstruct artifacts


def test_reconstruct_outputs(recon_dir):
    for name in ("config.json", "chi.grid", "eps_r.pgm", "trace.csv",
                 "metrics.json", "manifest.json"):
        assert (recon_dir / name).exists()
    lines = (recon_dir / "trace.csv").read_text().splitlines()
    assert lines[0].startswith("iteration,") and len(lines) == 3   # k_iters=2
    metrics = json.loads((recon_dir / "metrics.json").read_text())
    assert metrics["rel_error"] is not None
    assert {"final_loss", "peak_eps", "min_eps", "components_above_1p5"} <= set(metrics)
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


# ----------------------------------------------------------------------
# render


def test_render_writes_pgm_and_no_manifest(sim_dir, tmp_path):
    out = tmp_path / "truth.pgm"
    assert main(["render", "--grid", str(sim_dir / "chi_true.grid"),
                 "--quantity", "eps", "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert raw.startswith(b"P5\n16 16\n255\n")
    assert not (tmp_path / "manifest.json").exists()
    truth = load_grid(sim_dir / "chi_true.grid")
    pix = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8).reshape(16, 16)
    want = np.rint(np.clip((truth.values.real + 1.0 - 1.0) / 2.0, 0, 1) * 255)
    assert np.array_equal(pix, want.astype(np.uint8))


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


def test_rerun_detects_tampered_outputs(sim_dir, tmp_path, capsys):
    manifest = load_manifest(sim_dir / "manifest.json")
    key = str(sim_dir / "data.emsca")
    manifest["outputs"][key] = "0" * 64
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(manifest))
    code = main(["rerun", "--manifest", str(bad), "--out", str(tmp_path / "replay")])
    assert code == 2
    assert "DIFFERS" in capsys.readouterr().out


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


def test_fresnel_reconstruct_run(foamdiel_file, tmp_path):
    d = tmp_path / "fres"
    code = main(["fresnel", "--file", str(foamdiel_file), "--freq", "5.0",
                 "--cells", "16", "--set", "m_f=3", "--set", "k_iters=2",
                 "--out", str(d)])
    assert code == 0
    for name in ("config.json", "chi.grid", "eps_r.pgm", "metrics.json",
                 "manifest.json"):
        assert (d / name).exists()
    cfg = load_config(d / "config.json")
    assert cfg.m1 == 16 and cfg.frequency == 5e9


def test_fresnel_requires_file_for_inversion(capsys):
    assert main(["fresnel", "--freq", "5.0"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_fresnel_missing_frequency_is_runtime_error(foamdiel_file, tmp_path, capsys):
    code = main(["fresnel", "--file", str(foamdiel_file), "--freq", "3.0",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not present" in capsys.readouterr().err
