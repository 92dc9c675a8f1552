"""Study harness: specs, cell resume, gap metrics, and the four study kinds."""
import re

import numpy as np
import pytest

from pdfisp.config import ConfigError, ImagingConfig, config_to_dict
from pdfisp.reconstruct import gap_mask, spurious_gap_pixels
from pdfisp.studies import (StudySpec, _resume_or_run, load_study_spec, run_ablation,
                            run_monte_carlo, run_noise_study, run_study, run_sweep,
                            save_study_spec, spec_from_dict, spec_to_dict)


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


@pytest.mark.parametrize("kind", ["sweep", "noise", "ablation", "monte_carlo"])
def test_spec_rejects_unknown_scene(kind):
    with pytest.raises(ValueError, match="StudySpec.scene_name: unknown preset scene 'nonagon'"):
        StudySpec(kind=kind, scene_name="nonagon")


@pytest.mark.parametrize("fields, where", [
    ({"snr_db": float("nan")}, "snr_db"),
    ({"snr_db": float("-inf")}, "snr_db"),
    ({"snr_grid": (10.0, float("-inf"))}, "snr_grid[1]"),
    ({"axes": {"snr_db": [5.0, float("nan")]}}, "axes['snr_db'][1]"),
    ({"kind": "noise", "snr_grid": (float("nan"),)}, "snr_grid[0]"),
])
def test_spec_refuses_nan_and_minus_inf_snr(fields, where):
    """A NaN or -inf SNR is refused when the spec is built, not per cell."""
    with pytest.raises(ConfigError, match=re.escape(f"StudySpec.{where} must be finite or +inf")):
        StudySpec(**fields)


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
    assert all(r["scene_eps"] == 2.0 for r in rows)


def _count_solves(monkeypatch):
    """Record the peak contrast of every forward solve."""
    import pdfisp.forward as forward

    solves = []
    solve = forward.solve_total_field

    def counted(chi, *args, **kwargs):
        solves.append(float(chi.values.real.max()))
        return solve(chi, *args, **kwargs)

    monkeypatch.setattr(forward, "solve_total_field", counted)
    return solves


def test_noise_study_solves_once_per_contrast(monkeypatch, small_spec):
    import dataclasses

    from pdfisp.forward import simulate
    from pdfisp.reconstruct import reconstruct

    spec = dataclasses.replace(small_spec, kind="noise", snr_grid=(float("inf"), 5.0, 1.0),
                               eps_grid=(2.0, 3.0), seed=4)
    solves = _count_solves(monkeypatch)
    rows = run_noise_study(spec)
    assert solves == [1.0, 2.0]         # chi = eps - 1 of the two contrasts
    monkeypatch.undo()

    # per-cell simulation with the same noise seeds gives the same cells
    for idx, row in enumerate(rows):
        sim = simulate(spec.config, spec.scene(eps=row["scene_eps"]), snr_db=row["snr_db"],
                       rng=np.random.default_rng(spec.seed + idx))
        want = reconstruct(spec.config, sim.data, chi_true=sim.chi_true)
        assert row["rel_error"] == want.rel_error


@pytest.mark.parametrize("axis, values, n_solves", [("beta", [4.0, 6.0], 1),
                                                    ("m1", [16, 20], 2)])
def test_sweep_solves_once_per_dataset(monkeypatch, small_spec, axis, values, n_solves):
    """Sweep cells share one clean dataset unless the swept field is one
    that `simulate` reads."""
    import dataclasses

    from pdfisp.forward import simulate
    from pdfisp.reconstruct import reconstruct

    spec = dataclasses.replace(small_spec, kind="sweep", axes={axis: values}, snr_db=5.0,
                               seed=4)
    solves = _count_solves(monkeypatch)
    rows = run_sweep(spec)
    assert len(solves) == n_solves
    monkeypatch.undo()

    # every cell is at one dataset, so all draw from default_rng(seed)
    for row in rows:
        cfg = dataclasses.replace(spec.config, **{axis: row[axis]})
        sim = simulate(cfg, spec.scene(), snr_db=5.0, rng=np.random.default_rng(spec.seed))
        want = reconstruct(cfg, sim.data, chi_true=sim.chi_true)
        assert row["rel_error"] == want.rel_error
        assert row["loss_total"] == want.final_loss.total


def test_sweep_cells_at_one_dataset_share_their_noisy_data(tmp_path, small_spec, monkeypatch):
    """Data axes set the dataset, config axes only the settings: cells that
    differ in beta alone reconstruct identical noisy data, each draw label
    at a finite SNR is a noise draw of its own, and noise-free cells of
    either draw label share one reconstruction."""
    import dataclasses

    from pdfisp import studies
    from pdfisp.forward import add_awgn

    spec = dataclasses.replace(small_spec, kind="sweep", seed=7, axes={
        "beta": [4.0, 6.0], "snr_db": [float("inf"), 5.0], "draw": [0, 1]})
    calls = []
    real = studies.reconstruct

    def captured(config, measured, **kwargs):
        calls.append((config.beta, measured.matrix.copy()))
        return real(config, measured, **kwargs)

    monkeypatch.setattr(studies, "reconstruct", captured)
    rows = run_sweep(spec, out_dir=tmp_path)
    assert len(rows) == 8 and not any("error" in r for r in rows)
    # axes are walked in spec order, and the CSV columns follow it
    assert [(r["beta"], r["snr_db"], r["draw"]) for r in rows[:3]] == [
        (4.0, float("inf"), 0), (4.0, float("inf"), 1), (4.0, 5.0, 0)]
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0].split(",")
    assert header[:4] == ["beta", "snr_db", "draw", "rel_error"] and header[-1] == "views"
    assert all(1 <= r["views"] <= 8 for r in rows)

    # one reconstruction per beta, SNR and, at a finite SNR, draw: 6 for 8 rows
    def result_of(row):
        return row["beta"], row["snr_db"], row["draw"] if np.isfinite(row["snr_db"]) else None

    distinct = list(dict.fromkeys(map(result_of, rows)))
    assert [beta for beta, _ in calls] == [beta for beta, _, _ in distinct] and len(calls) == 6
    data = dict(zip(distinct, (matrix for _, matrix in calls)))
    assert len(list((tmp_path / "cells").iterdir())) == 6
    for pair in (rows[0:2], rows[4:6]):     # draws 0 and 1 at inf dB, at beta 4 and 6
        assert [r["draw"] for r in pair] == [0, 1]
        first, second = ({k: v for k, v in r.items() if k not in ("cell", "dataset", "draw")}
                         for r in pair)
        assert first == second                 # wall_time too: one result, two rows

    by_dataset = {}
    for row in rows:
        assert row["dataset"] == [(s, d) for s in (float("inf"), 5.0)
                                  for d in (0, 1)].index((row["snr_db"], row["draw"]))
        by_dataset.setdefault((row["snr_db"], row["draw"]), []).append(data[result_of(row)])
    for matrices in by_dataset.values():
        assert len(matrices) == 2 and np.array_equal(*matrices)      # beta 4 and 6
    noisy = by_dataset[(5.0, 0)][0], by_dataset[(5.0, 1)][0]
    assert not np.array_equal(*noisy)                                 # draw labels differ
    assert np.array_equal(by_dataset[(float("inf"), 0)][0], by_dataset[(float("inf"), 1)][0])
    # dataset k draws from default_rng(seed + k)
    clean = studies.simulate(spec.config, spec.scene()).data
    want = add_awgn(clean, 5.0, np.random.default_rng(spec.seed + 3)).matrix
    assert np.array_equal(by_dataset[(5.0, 1)][0], want)


def test_yardstick_spec_carries_the_robustness_axes():
    from pathlib import Path

    spec = load_study_spec(Path(__file__).parents[1] / "specs" / "yardstick.json")
    assert spec.kind == "sweep"
    assert list(spec.axes.items()) == [
        ("scene_eps", [2.0, 5.0, 8.0]), ("snr_db", [float("inf"), 10.0, 5.0, 1.0]),
        ("draw", list(range(10))), ("fine_forward", [False, True]), ("k_iters", [50, 100, 200])]
    assert spec.config == ImagingConfig()


def test_yardstick_runs_one_reconstruction_per_distinct_cell(tmp_path, monkeypatch):
    """The yardstick's 720 rows need 558 reconstructions: its 180 noise-free
    cells hold 18 results (contrast x fine_forward x k_iters), one for all
    ten draw labels. simulate and reconstruct are stubbed, so nothing heavy
    runs; a rerun with the draw labels renamed loads every cell."""
    import dataclasses
    import itertools
    from pathlib import Path
    from types import SimpleNamespace

    from pdfisp import studies
    from pdfisp.forward import ScatteredData

    sims, recons = [], []
    chi_true = SimpleNamespace(values=np.zeros((4, 4)))

    def fake_simulate(config, scene, array):
        sims.append(1)
        return SimpleNamespace(data=ScatteredData(matrix=np.ones((2, 2), dtype=complex)),
                               chi_true=chi_true)

    def fake_reconstruct(config, data, chi_true):
        recons.append(1)
        loss = SimpleNamespace(state=0.0, data=0.0, total=0.0)
        return SimpleNamespace(eps_r=np.ones((4, 4)), final_loss=loss, wall_time=0.0, n_views=2,
                               chi_true=chi_true, rel_error=float(np.abs(data.matrix).sum()))

    monkeypatch.setattr(studies, "simulate", fake_simulate)
    monkeypatch.setattr(studies, "reconstruct", fake_reconstruct)
    spec = load_study_spec(Path(__file__).parents[1] / "specs" / "yardstick.json")
    rows = run_sweep(spec, out_dir=tmp_path)
    points = list(itertools.product(*spec.axes.values()))
    assert len(rows) == len(points) == 720 and not any("error" in r for r in rows)
    assert [tuple(r[a] for a in spec.axes) for r in rows] == points
    assert [r["cell"] for r in rows] == list(range(720))
    datasets = list(dict.fromkeys(p[:3] for p in points))      # contrast, SNR, draw
    assert [r["dataset"] for r in rows] == [datasets.index(p[:3]) for p in points]
    assert len(recons) == 558 and len(sims) == 6                # 540 noisy + 18 noise-free
    assert len(list((tmp_path / "cells").iterdir())) == 558
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 721

    relabelled = dataclasses.replace(spec, axes={**spec.axes, "draw": list(range(10, 20))})
    again = run_sweep(relabelled, out_dir=tmp_path)
    assert len(recons) == 558 and len(sims) == 6
    assert [r["draw"] for r in again] == [r["draw"] + 10 for r in rows]
    assert [r["rel_error"] for r in again] == [r["rel_error"] for r in rows]


def test_monte_carlo_is_the_sigma_realization_points_of_a_sweep(tmp_path, small_spec,
                                                                 monkeypatch):
    """A sweep over `sigma` x `realization` draws the Monte Carlo arrays, so
    it finds every Monte Carlo cell stored and reconstructs nothing."""
    import dataclasses

    spec = dataclasses.replace(small_spec, kind="monte_carlo", sigmas=(0.001, 0.004),
                               n_realizations=2, seed=3)
    out = run_monte_carlo(spec, out_dir=tmp_path)
    assert len(list((tmp_path / "cells").iterdir())) == 4

    calls = _count_reconstructs(monkeypatch)
    sweep = dataclasses.replace(spec, kind="sweep",
                                axes={"sigma": [0.001, 0.004], "realization": [0, 1]})
    rows = run_sweep(sweep, out_dir=tmp_path)
    assert calls == []
    assert [r["rel_error"] for r in rows] == out[0.001]["errors"] + out[0.004]["errors"]
    assert len(set(out[0.001]["errors"] + out[0.004]["errors"])) == 4


def test_noise_study_builds_the_operators_once(small_spec, operator_builds):
    import dataclasses

    spec = dataclasses.replace(small_spec, kind="noise",
                               snr_grid=(float("inf"), 10.0, 5.0, 1.0), eps_grid=(2.0,))
    rows = run_noise_study(spec)
    assert len(rows) == 4 and not any("error" in r for r in rows)
    assert len(operator_builds) == 1


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


def test_failed_cell_is_an_error_row_with_and_without_out_dir(tmp_path, small_spec,
                                                             monkeypatch):
    import dataclasses

    from pdfisp import studies

    def fails(*args, **kwargs):
        raise RuntimeError("diverged")

    monkeypatch.setattr(studies, "reconstruct", fails)
    spec = dataclasses.replace(small_spec, kind="ablation", ablations=("no_tv", "no_cco"))
    rows = run_ablation(spec)
    assert set(rows) == {"full", "no_tv", "no_cco"}
    assert all(row["error"] == "RuntimeError: diverged" for row in rows.values())
    assert run_ablation(spec, out_dir=tmp_path) == rows


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
    assert lines[0] == "sigma,realization,rel_error,error"
    assert len(lines) == 5
    assert sum(line.endswith("RuntimeError: solver blew up") for line in lines) == 3


def test_run_study_dispatch(small_spec):
    import dataclasses

    with pytest.raises(ValueError, match="unknown study kind"):
        run_study(dataclasses.replace(small_spec, kind="bogus"))
    out = run_study(dataclasses.replace(small_spec, kind="ablation", ablations=()))
    assert set(out) == {"full"}


def test_a_data_axis_value_written_as_int_or_float_is_one_cell(tmp_path, small_spec,
                                                                monkeypatch):
    """`snr_db` 10 and 10.0 fix one result: the second sweep loads the first
    one's cell and writes the same CSV."""
    import dataclasses

    spec = dataclasses.replace(small_spec, axes={"snr_db": [10]})
    rows = run_sweep(spec, out_dir=tmp_path)
    csv = (tmp_path / "sweep.csv").read_text()
    calls = _count_reconstructs(monkeypatch)
    again = run_sweep(dataclasses.replace(spec, axes={"snr_db": [10.0]}), out_dir=tmp_path)
    assert calls == []
    assert again == rows and (tmp_path / "sweep.csv").read_text() == csv
