"""Study harness: specs, cell resume, gap metrics, and the four study kinds."""
import numpy as np
import pytest

from pdfisp.config import ImagingConfig, config_to_dict
from pdfisp.studies import (StudySpec, _resume_or_run, gap_mask, load_study_spec,
                            run_ablation, run_monte_carlo, run_noise_study,
                            run_study, run_sweep, save_study_spec, spec_from_dict,
                            spec_to_dict, spurious_gap_pixels)


@pytest.fixture(scope="module")
def small_spec():
    cfg = ImagingConfig(m1=16, m2=16, m_f=3, n_tx=8, n_rx=8, k_iters=3).validate()
    return StudySpec(config=cfg, scene_scale=0.9)


# ----------------------------------------------------------------------
# Spec serialization


def test_spec_round_trip(tmp_path, small_spec):
    import dataclasses

    spec = dataclasses.replace(small_spec, kind="sweep",
                               axes={"beta": [4.0, 6.0]}, sigmas=(0.002, 0.005))
    path = tmp_path / "spec.json"
    save_study_spec(path, spec)
    loaded = load_study_spec(path)
    assert spec_to_dict(loaded) == spec_to_dict(spec)
    assert isinstance(loaded.sigmas, tuple)
    assert config_to_dict(loaded.config) == config_to_dict(spec.config)


def test_spec_from_dict_defaults():
    spec = spec_from_dict({"kind": "noise"})
    assert spec.kind == "noise"
    assert spec.config.m1 == ImagingConfig().m1


# ----------------------------------------------------------------------
# Cell persistence


def test_resume_returns_stored_row(tmp_path):
    calls = []

    def runner():
        calls.append(1)
        return {"x": 1.5}

    payload = {"cell": 0}
    row1 = _resume_or_run(tmp_path, payload, runner)
    row2 = _resume_or_run(tmp_path, payload, runner)
    assert row1 == row2 == {"x": 1.5}
    assert len(calls) == 1
    assert len(list((tmp_path / "cells").iterdir())) == 1


def test_failed_cell_is_recorded_not_raised(tmp_path):
    def runner():
        raise RuntimeError("boom")

    row = _resume_or_run(tmp_path, {"cell": 1}, runner)
    assert row["error"] == "RuntimeError: boom"
    again = _resume_or_run(tmp_path, {"cell": 1}, lambda: {"x": 2})
    assert again["error"] == "RuntimeError: boom"


def test_no_out_dir_runs_directly(tmp_path):
    assert _resume_or_run(None, {"cell": 2}, lambda: {"x": 3}) == {"x": 3}
    assert not (tmp_path / "cells").exists()


# ----------------------------------------------------------------------
# Gap metrics


def _two_blob_contrast():
    chi = np.zeros((12, 12), dtype=complex)
    chi[4:7, 1:4] = 1.0
    chi[4:7, 7:10] = 1.0
    return chi


def test_gap_mask_marks_midline_between_blobs():
    mask = gap_mask(_two_blob_contrast(), dilate=2)
    # diamond dilations of radius 2 meet only on the center column of the gap
    expected = np.zeros((12, 12), dtype=bool)
    expected[4:7, 5] = True
    assert np.array_equal(mask, expected)


def test_gap_mask_empty_for_single_blob():
    chi = np.zeros((12, 12), dtype=complex)
    chi[4:7, 4:7] = 1.0
    assert not gap_mask(chi, dilate=4).any()


def test_spurious_gap_pixels_counts_only_gap_hits():
    chi = _two_blob_contrast()
    eps = np.ones((12, 12))
    eps[5, 5] = 2.0      # in the gap
    eps[0, 0] = 2.0      # far away
    eps[5, 2] = 2.0      # on the true support
    assert spurious_gap_pixels(eps, chi, threshold=1.5, dilate=2) == 1


# ----------------------------------------------------------------------
# Study kinds, small scale


def _count_reconstructs(monkeypatch):
    """Count calls of the reconstruct that the study cells look up."""
    from pdfisp import studies

    calls = []
    real = studies.reconstruct

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(studies, "reconstruct", counted)
    return calls


def test_sweep_rows_and_resume(tmp_path, small_spec, monkeypatch):
    import dataclasses

    spec = dataclasses.replace(small_spec, kind="sweep", axes={"beta": [4.0, 6.0]})
    rows = run_sweep(spec, out_dir=tmp_path)
    assert [r["beta"] for r in rows] == [4.0, 6.0]
    assert all(np.isfinite(r["rel_error"]) for r in rows)
    assert (tmp_path / "sweep.csv").exists()

    rows2 = run_sweep(spec, out_dir=tmp_path)
    assert rows2 == rows      # wall_time identical: loaded, not re-run

    # a stored cell is reused only for the same base config and scene
    calls = _count_reconstructs(monkeypatch)
    changed = dataclasses.replace(spec, config=dataclasses.replace(spec.config, lambda1=0.5))
    run_sweep(changed, out_dir=tmp_path)
    assert len(calls) == 2
    run_sweep(dataclasses.replace(spec, scene_scale=0.5), out_dir=tmp_path)
    assert len(calls) == 4
    assert run_sweep(spec, out_dir=tmp_path) == rows
    assert len(calls) == 4


def test_noise_study_grid(small_spec):
    import dataclasses

    spec = dataclasses.replace(small_spec, kind="noise",
                               snr_grid=(float("inf"), 5.0), eps_grid=(2.0,))
    rows = run_noise_study(spec)
    assert len(rows) == 2
    assert rows[0]["snr_db"] == float("inf") and rows[1]["snr_db"] == 5.0
    assert all(r["eps"] == 2.0 for r in rows)


def test_noise_study_solves_once_per_contrast(monkeypatch, small_spec):
    import dataclasses

    import pdfisp.forward as forward
    from pdfisp.forward import simulate
    from pdfisp.reconstruct import reconstruct

    spec = dataclasses.replace(small_spec, kind="noise", snr_grid=(float("inf"), 5.0, 1.0),
                               eps_grid=(2.0, 3.0), seed=4)
    solves = []
    solve = forward.solve_total_field

    def counted(chi, *args, **kwargs):
        solves.append(float(chi.values.real.max()))
        return solve(chi, *args, **kwargs)

    monkeypatch.setattr(forward, "solve_total_field", counted)
    rows = run_noise_study(spec)
    assert solves == [1.0, 2.0]         # chi = eps - 1 of the two contrasts
    monkeypatch.undo()

    # per-cell simulation with the same noise seeds gives the same cells
    for idx, row in enumerate(rows):
        sim = simulate(spec.config, spec.scene(eps=row["eps"]), snr_db=row["snr_db"],
                       rng=np.random.default_rng(spec.seed + idx))
        want = reconstruct(spec.config, sim.data, chi_true=sim.chi_true)
        assert row["rel_error"] == want.rel_error


def test_ablation_variants(small_spec):
    import dataclasses

    spec = dataclasses.replace(small_spec, kind="ablation", ablations=("no_tv",))
    out = run_ablation(spec)
    assert set(out) == {"full", "no_tv"}
    for name, row in out.items():
        assert row["variant"] == name
        assert {"rel_error", "peak_eps", "n_below_one", "gap_spurious"} <= set(row)


def test_ablation_simulates_once_and_not_on_resume(tmp_path, small_spec, monkeypatch):
    import dataclasses

    from pdfisp import studies

    spec = dataclasses.replace(small_spec, kind="ablation", ablations=("no_tv",))
    sims = []
    real = studies.simulate

    def counted(*args, **kwargs):
        sims.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(studies, "simulate", counted)
    first = run_ablation(spec, out_dir=tmp_path)
    assert len(sims) == 1                # one dataset shared by both variants

    calls = _count_reconstructs(monkeypatch)
    assert run_ablation(spec, out_dir=tmp_path) == first
    assert len(sims) == 1 and calls == []


def test_monte_carlo_deterministic(tmp_path, small_spec, monkeypatch):
    import dataclasses

    spec = dataclasses.replace(small_spec, kind="monte_carlo",
                               sigmas=(0.001,), n_realizations=3)
    out = run_monte_carlo(spec, out_dir=tmp_path)
    errs = out[0.001]["errors"]
    assert len(errs) == 3
    stats = out[0.001]["stats"]
    assert stats["median"] == pytest.approx(np.median(errs))
    assert stats["min"] <= stats["q1"] <= stats["median"] <= stats["q3"] <= stats["max"]

    again = run_monte_carlo(spec)
    assert again[0.001]["errors"] == errs

    calls = _count_reconstructs(monkeypatch)
    resumed = run_monte_carlo(spec, out_dir=tmp_path)
    assert calls == []
    assert resumed[0.001]["errors"] == errs


def test_monte_carlo_failed_realization_is_an_error_row(tmp_path, small_spec, monkeypatch):
    import dataclasses

    from pdfisp import studies

    spec = dataclasses.replace(small_spec, kind="monte_carlo",
                               sigmas=(0.001, 0.002), n_realizations=2)
    calls = []
    real = studies.simulate

    def fails_after_first(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:
            raise RuntimeError("solver blew up")
        return real(*args, **kwargs)

    monkeypatch.setattr(studies, "simulate", fails_after_first)
    out = run_monte_carlo(spec, out_dir=tmp_path)
    assert len(calls) == 4
    assert len(out[0.001]["errors"]) == 1
    assert out[0.001]["stats"]["median"] == out[0.001]["errors"][0]
    assert out[0.002]["errors"] == []
    assert all(np.isnan(v) for v in out[0.002]["stats"].values())

    lines = (tmp_path / "monte_carlo.csv").read_text().splitlines()
    assert lines[0] == "sigma,realization,rel_error,wall_time,error"
    assert len(lines) == 5
    assert sum(line.endswith("RuntimeError: solver blew up") for line in lines) == 3


def test_run_study_dispatch(small_spec):
    import dataclasses

    with pytest.raises(ValueError, match="unknown study kind"):
        run_study(dataclasses.replace(small_spec, kind="bogus"))
    out = run_study(dataclasses.replace(small_spec, kind="ablation", ablations=()))
    assert set(out) == {"full"}
