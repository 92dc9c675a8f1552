"""Scripted experiment harness: sweeps, noise grids, ablations, Monte Carlo.

Every study is a pure function of (spec, seeds). Sweeps, noise grids and
ablations are lists of points of named values (see _run_grid); Monte Carlo
lists its own cells. One runner (see _run_cells) turns any cell into a row:
simulate, add noise, reconstruct, metrics. A clean dataset is simulated
once and shared, so a sweep over loss weights or iterations solves the
forward problem once. Cells are keyed by a hash of everything their result
depends on, finished cells are skipped on resume, failed cells are
recorded as `error` rows, and seeds are assigned deterministically per
cell, so reruns reproduce tables exactly.
"""
from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from .config import (SCALAR_FIELDS, ConfigError, ImagingConfig, _read, config_from_dict,
                     config_hash, config_to_dict, from_dict, json_digest, read_json, write_json)
from .fileio import write_csv
from .forward import SIMULATE_FIELDS, SimulationResult, add_awgn, simulate
from .geometry import build_array, perturb_array
from .reconstruct import FOUR_CONN, ReconstructionResult, count_components, reconstruct
from .scenes import PRESET_NAMES, Scene, builtin_scene

ABLATION_FLAGS = {"no_cco": {"use_cco": False}, "no_bridge": {"lambda3": 0.0},
                  "no_bound": {"lambda1": 0.0}, "no_tv": {"lambda2": 0.0}}
# the axes that set a cell's dataset, with the types their values are read as;
# every other axis is a scalar ImagingConfig field and sets the cell's config
DATA_AXES = {"scene_eps": float, "snr_db": float, "draw": int}


@dataclass
class StudySpec:
    """Declarative description of one study run."""

    config: ImagingConfig = field(default_factory=ImagingConfig)
    kind: str = "sweep"                    # sweep | noise | ablation | monte_carlo
    scene_name: str = "austria"
    scene_eps: float = 2.0
    scene_scale: float = 1.0
    axes: dict[str, list] = field(default_factory=dict)  # config field or data axis -> values
    snr_db: float = float("inf")                         # dataset noise where a point sets none
    snr_grid: tuple[float, ...] = (float("inf"), 10.0, 5.0, 1.0)
    eps_grid: tuple[float, ...] = (2.0, 5.0, 8.0)
    ablations: tuple[str, ...] = ("no_cco", "no_bridge", "no_bound", "no_tv")
    sigmas: tuple[float, ...] = (0.001,)
    n_realizations: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.scene_name not in PRESET_NAMES:
            raise ConfigError(f"StudySpec.scene_name: unknown preset scene {self.scene_name!r}; "
                              f"known: {list(PRESET_NAMES)}")
        if self.kind not in STUDIES:
            raise ConfigError(f"StudySpec.kind: unknown study kind {self.kind!r}; "
                              f"known: {sorted(STUDIES)}")
        unknown = [a for a in self.ablations if a not in ABLATION_FLAGS]
        if unknown:
            raise ConfigError(f"StudySpec.ablations: unknown {unknown}; "
                              f"known: {sorted(ABLATION_FLAGS)}")
        bad = [k for k in self.axes if k not in SCALAR_FIELDS and k not in DATA_AXES]
        if bad:
            raise ConfigError(f"StudySpec.axes: {bad} are neither scalar ImagingConfig fields "
                              f"nor data axes {list(DATA_AXES)}")
        for name, tp in DATA_AXES.items():
            for i, value in enumerate(self.axes.get(name, [])):
                _read(tp, value, f"StudySpec.axes[{name!r}][{i}]", ConfigError)
        negative = [s for s in self.sigmas if not s >= 0]
        if negative:
            raise ConfigError(f"StudySpec.sigmas: {negative} are not >= 0")
        if self.n_realizations < 1:
            raise ConfigError(f"StudySpec.n_realizations: {self.n_realizations} is not >= 1")

    def scene(self, eps: float | None = None) -> Scene:
        return builtin_scene(self.scene_name, eps_r=eps if eps is not None else self.scene_eps,
                             scale=self.scene_scale)


def spec_to_dict(spec: StudySpec) -> dict:
    return asdict(spec)


def spec_from_dict(d: dict) -> StudySpec:
    return from_dict(StudySpec, d)


def load_study_spec(path) -> StudySpec:
    return spec_from_dict(read_json(path))


def save_study_spec(path, spec: StudySpec) -> None:
    write_json(path, spec_to_dict(spec))


# ----------------------------------------------------------------------
# Shared cell machinery


def _cell_metrics(result: ReconstructionResult, chi_true: np.ndarray) -> dict:
    eps, loss = result.eps_r.real, result.final_loss
    return {"rel_error": result.rel_error, "wall_time": result.wall_time,
            "loss_state": loss.state, "loss_data": loss.data, "loss_total": loss.total,
            "components": count_components(eps, 1.5), "peak_eps": float(eps.max()),
            "min_eps": float(eps.min()), "n_below_one": int(np.sum(eps < 1.0)),
            "gap_spurious": spurious_gap_pixels(eps, chi_true), "views": result.n_views}


# the metric columns of every grid CSV; rows also carry `wall_time`, which stays
# out of the hashed CSVs so that `pdf-isp rerun` of a study is bit-exact
METRIC_COLUMNS = ["rel_error", "loss_state", "loss_data", "loss_total", "components",
                  "peak_eps", "min_eps", "n_below_one", "gap_spurious", "views"]


def _resume_or_run(out_dir, payload: dict, runner) -> dict:
    """Load a finished cell from disk or run it; a raising runner gives an `error` row."""
    key = json_digest(payload)[:20]
    cell_file = None if out_dir is None else Path(out_dir) / "cells" / f"{key}.json"
    if cell_file is not None and cell_file.exists():
        return read_json(cell_file)
    try:
        row = runner()
    except Exception as exc:  # record the failure, keep the study going
        row = dict(payload, error=f"{type(exc).__name__}: {exc}")
    if cell_file is not None:
        cell_file.parent.mkdir(parents=True, exist_ok=True)
        write_json(cell_file, row)
    return row


def _run_cells(name: str, spec: StudySpec, cells, out_dir, columns: list[str]) -> list[dict]:
    """Turn a study's cells into rows, in order; a cell is
    (params, config, eps, snr_db, draw, sigma).

    A cell draws from default_rng(draw): first the antenna jitter, when
    sigma is not None, then the noise at snr_db. Its clean dataset, the
    scene at contrast eps on the (jittered) array, is simulated on first
    use and shared by every later cell with the same contrast, array and
    SIMULATE_FIELDS values. The reconstruction uses the nominal array, and
    the row is the params plus the cell metrics.

    A cell's key hashes the study name, the cell's config hash, the scene,
    the study seed and the params, which must fix the draw. A cell that
    raises becomes a row of its key fields plus `error`. With an out_dir, a
    stored cell is loaded instead of run, and the columns that occur in any
    row are written to <name>.csv.
    """
    clean: dict[tuple, SimulationResult] = {}

    def run(params, config, eps, snr_db, draw, sigma) -> dict:
        rng = np.random.default_rng(draw)
        nominal = build_array(config)
        array = nominal if sigma is None else perturb_array(nominal, sigma, rng)
        key = (eps, *(getattr(config, f) for f in SIMULATE_FIELDS),
               array.tx_positions.tobytes(), array.rx_positions.tobytes())
        if key not in clean:
            clean[key] = simulate(config, spec.scene(eps), array=array)
        sim = clean[key]
        data = add_awgn(sim.data, snr_db, rng)
        result = reconstruct(config, data, array=nominal, chi_true=sim.chi_true)
        return {**params, **_cell_metrics(result, sim.chi_true.values)}

    rows = []
    for cell in cells:
        params, config = cell[:2]
        payload = {"study": name, "config": config_hash(config),
                   "scene": [spec.scene_name, spec.scene_eps, spec.scene_scale],
                   "seed": spec.seed, **params}
        rows.append(_resume_or_run(out_dir, payload, lambda: run(*cell)))
    if out_dir is not None:
        columns = [c for c in columns + ["error"] if any(c in r for r in rows)]
        write_csv(study_csvs(name, out_dir)[0], columns, rows)
    return rows


# ----------------------------------------------------------------------
# Studies


def _run_grid(name: str, spec: StudySpec, points: list[dict], out_dir) -> list[dict]:
    """One cell per point of named values, in order. `scene_eps`, `snr_db`
    (the spec's where a point has none) and `draw` set its dataset, config
    field names its config, and other names (`variant`) only label it.
    A cell draws from default_rng(seed + k), k its dataset's index in order
    of first appearance, so cells that differ only in settings reconstruct
    identical noisy data. The CSV has the first point's names, then
    METRIC_COLUMNS."""
    datasets: dict[tuple, int] = {}
    cells = []
    for idx, point in enumerate(points):
        eps, snr = point.get("scene_eps", spec.scene_eps), point.get("snr_db", spec.snr_db)
        k = datasets.setdefault((eps, snr, point.get("draw")), len(datasets))
        fields = {n: v for n, v in point.items() if n in SCALAR_FIELDS}
        cfg = config_from_dict({**config_to_dict(spec.config), **fields})
        cells.append(({"cell": idx, "dataset": k, "scene_eps": eps, "snr_db": snr, **point},
                      cfg, eps, snr, spec.seed + k, None))
    names = list(points[0]) if points else []
    return _run_cells(name, spec, cells, out_dir, names + METRIC_COLUMNS)


def run_sweep(spec: StudySpec, out_dir=None) -> list[dict]:
    """Cartesian sweep over `axes` in spec order: config fields (e.g. beta,
    m_f, k_iters) and the data axes scene_eps, snr_db and draw."""
    points = [dict(zip(spec.axes, values)) for values in itertools.product(*spec.axes.values())]
    return _run_grid("sweep", spec, points, out_dir)


def run_noise_study(spec: StudySpec, out_dir=None) -> list[dict]:
    """Every SNR level crossed with every contrast level: each cell is a
    dataset of its own, so cell idx draws from default_rng(seed + idx)."""
    points = [{"snr_db": snr, "scene_eps": eps}
              for snr, eps in itertools.product(spec.snr_grid, spec.eps_grid)]
    return _run_grid("noise", spec, points, out_dir)


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
    """Full pipeline versus single-switch ablations: points of one dataset,
    so every variant draws its noise from default_rng(seed), and a fully
    resumed study solves nothing."""
    points = [{"variant": "full"}] + [{"variant": name, **ABLATION_FLAGS[name]}
                                      for name in spec.ablations]
    rows = _run_grid("ablation", spec, points, out_dir)
    return {point["variant"]: row for point, row in zip(points, rows)}


def run_monte_carlo(spec: StudySpec, out_dir=None) -> dict[float, dict]:
    """Antenna-position uncertainty: data from perturbed arrays, inversion
    with the nominal geometry. Realization r of sigma number si draws from
    default_rng((seed, si, r)). Returns per-sigma error lists plus
    five-number summaries over the realizations that did not fail (NaN when
    none succeeded)."""
    cells = [({"sigma": sigma, "sigma_index": si, "realization": r}, spec.config,
              spec.scene_eps, float("inf"), (spec.seed, si, r), sigma)
             for si, sigma in enumerate(map(float, spec.sigmas))
             for r in range(spec.n_realizations)]
    rows = _run_cells("monte_carlo", spec, cells, out_dir, ["sigma", "realization", "rel_error"])

    out: dict[float, dict] = {}
    stats = ("min", "q1", "median", "q3", "max")
    for sigma in spec.sigmas:
        errs = np.array([r["rel_error"] for r in rows
                         if r["sigma"] == float(sigma) and "error" not in r])
        q = np.percentile(errs, [0, 25, 50, 75, 100]) if errs.size else np.full(5, np.nan)
        out[float(sigma)] = {"errors": errs.tolist(), "stats": dict(zip(stats, q))}
    if out_dir is not None:
        write_csv(study_csvs("monte_carlo", out_dir)[1], ["sigma", *stats],
                  [{"sigma": s, **v["stats"]} for s, v in out.items()])
    return out


STUDIES = {"sweep": run_sweep, "noise": run_noise_study, "ablation": run_ablation,
           "monte_carlo": run_monte_carlo}


def run_study(spec: StudySpec, out_dir=None):
    """Dispatch on spec.kind."""
    return STUDIES[spec.kind](spec, out_dir=out_dir)


def study_csvs(kind: str, out_dir) -> list[Path]:
    """The CSVs a study of `kind` writes into out_dir: <kind>.csv, then, for
    monte_carlo, the per-sigma summary."""
    stems = [kind] + (["monte_carlo_stats"] if kind == "monte_carlo" else [])
    return [Path(out_dir) / f"{stem}.csv" for stem in stems]
