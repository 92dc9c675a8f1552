"""Scripted experiment harness: sweeps, noise grids, ablations, Monte Carlo.

Every study is a pure function of (spec, seeds): cells are keyed by a hash
of everything their result depends on (see _run_cells), finished cells are
skipped on resume, failed cells are recorded as `error` rows, and seeds are
assigned deterministically per cell, so reruns reproduce tables exactly.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace as dc_replace
from pathlib import Path

import numpy as np
from scipy import ndimage

from .config import ConfigError, ImagingConfig, config_from_dict, config_hash, config_to_dict
from .forward import SimulationResult, add_awgn, simulate
from .geometry import build_array, perturb_array
from .reconstruct import FOUR_CONN, ReconstructionResult, count_components, reconstruct
from .scenes import Scene, builtin_scene

ABLATION_FLAGS = {
    "no_cco": {"use_cco": False},
    "no_bridge": {"lambda3": 0.0},
    "no_bound": {"lambda1": 0.0},
    "no_tv": {"lambda2": 0.0},
}


@dataclass
class StudySpec:
    """Declarative description of one study run."""

    config: ImagingConfig = field(default_factory=ImagingConfig)
    kind: str = "sweep"                    # sweep | noise | ablation | monte_carlo
    scene_name: str = "austria"
    scene_eps: float = 2.0
    scene_scale: float = 1.0
    axes: dict = field(default_factory=dict)           # config field -> value list
    snr_db: float = float("inf")                       # dataset noise outside the noise study
    snr_grid: tuple = (float("inf"), 10.0, 5.0, 1.0)
    eps_grid: tuple = (2.0, 5.0, 8.0)
    ablations: tuple = ("no_cco", "no_bridge", "no_bound", "no_tv")
    sigmas: tuple = (0.001,)
    n_realizations: int = 20
    seed: int = 0

    def scene(self, eps: float | None = None) -> Scene:
        return builtin_scene(self.scene_name, eps_r=eps if eps is not None else self.scene_eps,
                             scale=self.scene_scale)


def spec_to_dict(spec: StudySpec) -> dict:
    d = dataclasses.asdict(spec)
    d["config"] = config_to_dict(spec.config)
    return d


def spec_from_dict(d: dict) -> StudySpec:
    d = dict(d)
    unknown = set(d) - {f.name for f in dataclasses.fields(StudySpec)}
    if unknown:
        raise ConfigError(f"unknown study spec keys: {sorted(unknown)}")
    cfg = config_from_dict(d.pop("config", {}))
    for key in ("snr_grid", "eps_grid", "ablations", "sigmas"):
        if key in d:
            d[key] = tuple(d[key])
    if "axes" in d:
        d["axes"] = {k: list(v) for k, v in d["axes"].items()}
    return StudySpec(config=cfg, **d)


def load_study_spec(path) -> StudySpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


def save_study_spec(path, spec: StudySpec) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2, sort_keys=True, default=repr)
        fh.write("\n")


# ----------------------------------------------------------------------
# Shared cell machinery


def _cell_metrics(result: ReconstructionResult) -> dict:
    eps = result.eps_r.real
    return {
        "rel_error": result.rel_error,
        "wall_time": result.wall_time,
        "loss_state": result.final_loss.state,
        "loss_data": result.final_loss.data,
        "loss_total": result.final_loss.total,
        "components": count_components(eps, 1.5),
        "peak_eps": float(eps.max()),
        "min_eps": float(eps.min()),
    }


METRIC_COLUMNS = ["rel_error", "wall_time", "loss_state", "loss_data", "loss_total",
                  "components", "peak_eps", "min_eps"]


def _cell_key(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def _resume_or_run(out_dir, payload: dict, runner) -> dict:
    """Load a finished cell from disk or execute it and persist the row."""
    if out_dir is None:
        return runner()
    cells = Path(out_dir) / "cells"
    cells.mkdir(parents=True, exist_ok=True)
    cell_file = cells / (_cell_key(payload) + ".json")
    if cell_file.exists():
        with open(cell_file, "r", encoding="utf-8") as fh:
            return json.load(fh)
    try:
        row = runner()
    except Exception as exc:  # record the failure, keep the study going
        row = dict(payload, error=f"{type(exc).__name__}: {exc}")
    with open(cell_file, "w", encoding="utf-8") as fh:
        json.dump(row, fh, indent=2, sort_keys=True)
    return row


def _write_csv(path, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            vals = []
            for c in columns:
                v = row.get(c, "")
                vals.append(f"{v:.17g}" if isinstance(v, float) else str(v))
            fh.write(",".join(vals) + "\n")


def _run_cells(name: str, spec: StudySpec, cells, out_dir, columns: list[str]) -> list[dict]:
    """Run a study's (config, params, runner) cells in order; return their rows.

    A cell's key hashes everything its row depends on: the study name, the
    hash of the cell's config, the scene, the study seed and the cell's
    params (index, SNR, variant, realization, ...). With an out_dir, a cell
    whose key is already stored is loaded instead of run, a cell that
    raises becomes a row of its key fields plus `error`, and the columns
    that occur in any row are written to <name>.csv.
    """
    rows = []
    for config, params, runner in cells:
        payload = {"study": name, "config": config_hash(config),
                   "scene": [spec.scene_name, spec.scene_eps, spec.scene_scale],
                   "seed": spec.seed, **params}
        rows.append(_resume_or_run(out_dir, payload, runner))
    if out_dir is not None:
        columns = [c for c in columns + ["error"] if any(c in r for r in rows)]
        _write_csv(Path(out_dir) / f"{name}.csv", rows, columns)
    return rows


# ----------------------------------------------------------------------
# Studies


def run_sweep(spec: StudySpec, out_dir=None) -> list[dict]:
    """Cartesian sweep over config fields (e.g. beta, m_f, k_iters)."""
    names = sorted(spec.axes)
    scene = spec.scene()
    cells = []
    for idx, values in enumerate(itertools.product(*(spec.axes[n] for n in names))):
        overrides = dict(zip(names, values))
        cfg = dc_replace(spec.config, **overrides).validate()

        def runner(cfg=cfg, idx=idx, overrides=overrides):
            sim = simulate(cfg, scene, snr_db=spec.snr_db,
                           rng=np.random.default_rng(spec.seed + idx))
            result = reconstruct(cfg, sim.data, chi_true=sim.chi_true)
            return {**overrides, **_cell_metrics(result)}

        cells.append((cfg, {"cell": idx, "snr_db": spec.snr_db, **overrides}, runner))
    return _run_cells("sweep", spec, cells, out_dir, names + METRIC_COLUMNS)


def run_noise_study(spec: StudySpec, out_dir=None) -> list[dict]:
    """Noise grid: every SNR level crossed with every contrast level.

    Each contrast is simulated once, on first use, and every SNR cell adds
    its own noise draw to that clean data.
    """
    clean: dict[float, SimulationResult] = {}

    def clean_sim(eps: float) -> SimulationResult:
        if eps not in clean:
            clean[eps] = simulate(spec.config, spec.scene(eps=eps))
        return clean[eps]

    cells = []
    for idx, (snr, eps) in enumerate(itertools.product(spec.snr_grid, spec.eps_grid)):
        def runner(snr=snr, eps=eps, idx=idx):
            sim = clean_sim(eps)
            data = add_awgn(sim.data, snr, np.random.default_rng(spec.seed + idx))
            result = reconstruct(spec.config, data, chi_true=sim.chi_true)
            return {"snr_db": snr, "eps": eps, **_cell_metrics(result)}

        cells.append((spec.config, {"cell": idx, "snr_db": snr, "eps": eps}, runner))
    return _run_cells("noise", spec, cells, out_dir, ["snr_db", "eps"] + METRIC_COLUMNS)


def gap_mask(chi_true: np.ndarray, dilate: int = 5) -> np.ndarray:
    """Pixels between nearby scatterers where bridging artifacts would sit.

    Each 4-connected component of the true support is dilated separately;
    gap pixels are covered by at least two dilated components yet lie
    outside the support itself.
    """
    support = np.abs(chi_true) > 0
    labels, n = ndimage.label(support, structure=FOUR_CONN)
    cover = np.zeros(support.shape, dtype=np.int32)
    for lab in range(1, n + 1):
        cover += ndimage.binary_dilation(labels == lab, structure=FOUR_CONN,
                                         iterations=dilate).astype(np.int32)
    return (cover >= 2) & ~support


def spurious_gap_pixels(eps_map: np.ndarray, chi_true: np.ndarray,
                        threshold: float = 1.5, dilate: int = 5) -> int:
    mask = gap_mask(chi_true, dilate=dilate)
    return int(np.sum((np.real(eps_map) > threshold) & mask))


def run_ablation(spec: StudySpec, out_dir=None) -> dict[str, dict]:
    """Full pipeline versus single-switch ablations on one shared dataset,
    simulated on first use (a fully resumed study solves nothing)."""
    @functools.cache
    def shared_sim() -> SimulationResult:
        return simulate(spec.config, spec.scene(), snr_db=spec.snr_db,
                        rng=np.random.default_rng(spec.seed))

    variants = [("full", {})] + [(n, ABLATION_FLAGS[n]) for n in spec.ablations]
    cells = []
    for name, overrides in variants:
        cfg = dc_replace(spec.config, **overrides)

        def runner(cfg=cfg, name=name):
            sim = shared_sim()
            result = reconstruct(cfg, sim.data, chi_true=sim.chi_true)
            metrics = _cell_metrics(result)
            eps = result.eps_r.real
            metrics["variant"] = name
            metrics["n_below_one"] = int(np.sum(eps < 1.0))
            metrics["gap_spurious"] = spurious_gap_pixels(eps, sim.chi_true.values)
            return metrics

        cells.append((cfg, {"variant": name, "snr_db": spec.snr_db}, runner))
    cols = ["variant", "rel_error", "peak_eps", "min_eps", "n_below_one",
            "gap_spurious", "components", "loss_data", "loss_total", "wall_time"]
    rows = _run_cells("ablation", spec, cells, out_dir, cols)
    return {name: row for (name, _), row in zip(variants, rows)}


def run_monte_carlo(spec: StudySpec, out_dir=None) -> dict[float, dict]:
    """Antenna-position uncertainty: data from perturbed arrays, inversion
    with the nominal geometry.

    Realization r of sigma number si draws from default_rng((seed, si, r)).
    Returns per-sigma error lists plus five-number summaries over the
    realizations that did not fail (NaN when none succeeded).
    """
    scene = spec.scene()
    cells = []
    for si, sigma in enumerate(map(float, spec.sigmas)):
        for r in range(spec.n_realizations):
            def runner(sigma=sigma, si=si, r=r):
                rng = np.random.default_rng((spec.seed, si, r))
                nominal = build_array(spec.config)
                true_array = perturb_array(nominal, sigma, rng)
                sim = simulate(spec.config, scene, snr_db=float("inf"), rng=rng,
                               array=true_array)
                result = reconstruct(spec.config, sim.data, array=nominal,
                                     chi_true=sim.chi_true)
                return {"sigma": sigma, "realization": r, "rel_error": result.rel_error,
                        "wall_time": result.wall_time}

            params = {"sigma": sigma, "sigma_index": si, "realization": r}
            cells.append((spec.config, params, runner))
    rows = _run_cells("monte_carlo", spec, cells, out_dir,
                      ["sigma", "realization", "rel_error", "wall_time"])

    out: dict[float, dict] = {}
    for sigma in spec.sigmas:
        errs = np.array([r["rel_error"] for r in rows
                         if r["sigma"] == float(sigma) and "error" not in r])
        q = np.percentile(errs, [0, 25, 50, 75, 100]) if errs.size else np.full(5, np.nan)
        out[float(sigma)] = {"errors": errs.tolist(),
                             "stats": {"min": q[0], "q1": q[1], "median": q[2],
                                       "q3": q[3], "max": q[4]}}
    if out_dir is not None:
        stats_rows = [{"sigma": s, **v["stats"]} for s, v in out.items()]
        _write_csv(Path(out_dir) / "monte_carlo_stats.csv", stats_rows,
                   ["sigma", "min", "q1", "median", "q3", "max"])
    return out


def run_study(spec: StudySpec, out_dir=None):
    """Dispatch on spec.kind."""
    runner = {"sweep": run_sweep, "noise": run_noise_study, "ablation": run_ablation,
              "monte_carlo": run_monte_carlo}.get(spec.kind)
    if runner is None:
        raise ValueError(f"unknown study kind {spec.kind!r}")
    return runner(spec, out_dir=out_dir)
