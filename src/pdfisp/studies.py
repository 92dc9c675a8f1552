"""Scripted experiment harness: sweeps, noise grids, ablations, Monte Carlo.

Every study is points of named values on one grid (see _run_grid), each a
cell that one runner (see _run_cells) simulates, noises, reconstructs and
scores: a row is the cell's labels, the result's `result_metrics` and the
wall time. A cell is keyed by what fixes its result, not by its labels: equal
keys share one reconstruction, stored cells are loaded on resume and failed
cells become `error` rows, so reruns reproduce tables exactly.
"""
from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import (SCALAR_FIELDS, ConfigError, ImagingConfig, _read, config_from_dict,
                     config_hash, config_to_dict, from_dict, json_digest, read_json, write_json)
from .fileio import write_csv
from .forward import SIMULATE_FIELDS, SimulationResult, add_awgn, simulate
from .geometry import build_array, perturb_array
from .reconstruct import reconstruct, result_metrics
from .scenes import PRESET_NAMES, Scene, builtin_scene

ABLATION_FLAGS = {"no_cco": {"use_cco": False}, "no_bridge": {"lambda3": 0.0},
                  "no_bound": {"lambda1": 0.0}, "no_tv": {"lambda2": 0.0}}
# the axes that set a cell's dataset, with the types their values are read as;
# every other axis is a scalar ImagingConfig field and sets the cell's config
DATA_AXES = {"scene_eps": float, "snr_db": float, "draw": int, "sigma": float,
             "realization": int}


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
        axes_snr = self.axes.get("snr_db", [])
        snrs = {"snr_db": self.snr_db, **{f"snr_grid[{i}]": v for i, v in enumerate(
            self.snr_grid)}, **{f"axes['snr_db'][{i}]": v for i, v in enumerate(axes_snr)}}
        for where, snr in snrs.items():
            if not snr > float("-inf"):    # NaN or -inf
                raise ConfigError(f"StudySpec.{where} must be finite or +inf, got {snr}")
        negative = [s for s in [*self.sigmas, *self.axes.get("sigma", [])] if not s >= 0]
        if negative:
            raise ConfigError(f"StudySpec.sigmas or axes['sigma']: {negative} are not >= 0")
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


# the `result_metrics` keys of every grid CSV; rows carry every key, and `wall_time`,
# which stays out of the hashed CSVs so that `pdf-isp rerun` of a study is bit-exact
METRIC_COLUMNS = ["rel_error", "loss_state", "loss_data", "loss_total", "components",
                  "peak_eps", "min_eps", "n_below_one", "gap_spurious", "views"]


def _resume_or_run(out_dir, key: dict, runner) -> dict:
    """Load a finished cell from disk or run it; a raising runner gives {"error": ...}."""
    digest = json_digest(key)[:20]
    cell_file = None if out_dir is None else Path(out_dir) / "cells" / f"{digest}.json"
    if cell_file is not None and cell_file.exists():
        return read_json(cell_file)
    try:
        result = runner()
    except Exception as exc:  # record the failure, keep the study going
        result = {"error": f"{type(exc).__name__}: {exc}"}
    if cell_file is not None:
        cell_file.parent.mkdir(parents=True, exist_ok=True)
        write_json(cell_file, result)
    return result


def _run_cells(name: str, spec: StudySpec, cells, out_dir, columns: list[str]) -> list[dict]:
    """Turn a study's cells (labels, config, key) into rows, in order.

    The key fixes the result: the config hash, the scene (name, contrast,
    scale), the array (None for the nominal one, else [sigma, s]: jittered
    by default_rng(s)), the SNR and the noise's default_rng seed (None at
    infinite SNR). Equal keys run one reconstruction, on the config's ring;
    a row is its labels plus its result's metrics, or `error`. Cells with one
    contrast, array and SIMULATE_FIELDS share a clean dataset. With an
    out_dir, metrics are stored in cells/ under the key and loaded instead
    of run, and the columns any row has are written to <name>.csv.
    """
    clean: dict[tuple, SimulationResult] = {}

    def run(config, key) -> dict:
        (_, eps, _), jitter = key["scene"], key["array"]
        nominal = build_array(config)
        array = nominal if jitter is None else perturb_array(
            nominal, jitter[0], np.random.default_rng(jitter[1]))
        fixed = (eps, *(getattr(config, f) for f in SIMULATE_FIELDS),
                 array.tx_positions.tobytes(), array.rx_positions.tobytes())
        if fixed not in clean:
            clean[fixed] = simulate(config, spec.scene(eps), array=array)
        sim = clean[fixed]
        data = add_awgn(sim.data, key["snr_db"], np.random.default_rng(key["noise"]))
        result = reconstruct(config, data, chi_true=sim.chi_true)
        return {**result_metrics(result), "wall_time": result.wall_time}

    results: dict[str, dict] = {}
    rows = []
    for labels, config, key in cells:
        digest = json_digest(key)
        if digest not in results:
            results[digest] = _resume_or_run(out_dir, key, lambda: run(config, key))
        rows.append({**labels, **results[digest]})
    if out_dir is not None:
        columns = [c for c in columns + ["error"] if any(c in r for r in rows)]
        write_csv(study_csvs(name, out_dir)[0], columns, rows)
    return rows


# ----------------------------------------------------------------------
# Studies


def _run_grid(name: str, spec: StudySpec, points: list[dict], out_dir,
              columns: list[str] | None = None) -> list[dict]:
    """One cell per point of named values, in order. DATA_AXES set its dataset
    (`scene_eps` and `snr_db` default to the spec's), config field names its
    config, and other names (`variant`) only label it. A finite SNR draws
    noise from default_rng(seed + k), k the dataset's index in order of first
    appearance, so cells that differ only in settings share noisy data. A
    `sigma` jitters the array by default_rng((seed, si, r)), si the sigma's
    index in order of first appearance, r the point's `realization` (or 0).
    The key reads the contrast, scale, SNR and sigma as floats, so 10 and
    10.0 are one cell; rows keep the values as written. The CSV has
    `columns`, by default the first point's names, METRIC_COLUMNS."""
    datasets, sigmas, cells = {}, {}, []      # dataset -> k, sigma -> si
    for idx, point in enumerate(points):
        eps, snr = point.get("scene_eps", spec.scene_eps), point.get("snr_db", spec.snr_db)
        sigma, r = point.get("sigma"), point.get("realization")
        k = datasets.setdefault((eps, snr, point.get("draw"), sigma, r), len(datasets))
        fields = {n: v for n, v in point.items() if n in SCALAR_FIELDS}
        cfg = config_from_dict({**config_to_dict(spec.config), **fields})
        array = None if sigma is None else [
            float(sigma), (spec.seed, sigmas.setdefault(sigma, len(sigmas)), r or 0)]
        key = {"config": config_hash(cfg),
               "scene": [spec.scene_name, float(eps), float(spec.scene_scale)], "array": array,
               "snr_db": float(snr), "noise": spec.seed + k if np.isfinite(snr) else None}
        cells.append(({"cell": idx, "dataset": k, "scene_eps": eps, "snr_db": snr, **point},
                      cfg, key))
    names = list(points[0]) if points else []
    return _run_cells(name, spec, cells, out_dir, columns or names + METRIC_COLUMNS)


def run_sweep(spec: StudySpec, out_dir=None) -> list[dict]:
    """Cartesian sweep over `axes` in spec order: config fields (e.g. beta,
    m_f, k_iters) and DATA_AXES."""
    points = [dict(zip(spec.axes, values)) for values in itertools.product(*spec.axes.values())]
    return _run_grid("sweep", spec, points, out_dir)


def run_noise_study(spec: StudySpec, out_dir=None) -> list[dict]:
    """Every SNR level crossed with every contrast level: each cell is a
    dataset of its own, so cell idx draws from default_rng(seed + idx)."""
    points = [{"snr_db": snr, "scene_eps": eps}
              for snr, eps in itertools.product(spec.snr_grid, spec.eps_grid)]
    return _run_grid("noise", spec, points, out_dir)


def run_ablation(spec: StudySpec, out_dir=None) -> dict[str, dict]:
    """Full pipeline versus single-switch ablations: points of one dataset,
    so every variant draws its noise from default_rng(seed)."""
    points = [{"variant": "full"}] + [{"variant": name, **ABLATION_FLAGS[name]}
                                      for name in spec.ablations]
    rows = _run_grid("ablation", spec, points, out_dir)
    return {point["variant"]: row for point, row in zip(points, rows)}


def run_monte_carlo(spec: StudySpec, out_dir=None) -> dict[float, dict]:
    """Antenna-position uncertainty: the points sigma x realization, noise-free
    data from jittered arrays, inversion on the nominal one. Returns per-sigma
    error lists and five-number summaries over the realizations that did not
    fail (NaN when none succeeded)."""
    points = [{"sigma": float(sigma), "realization": r, "snr_db": float("inf")}
              for sigma in spec.sigmas for r in range(spec.n_realizations)]
    rows = _run_grid("monte_carlo", spec, points, out_dir, ["sigma", "realization", "rel_error"])

    out: dict[float, dict] = {}
    stats = ("min", "q1", "median", "q3", "max")
    for sigma in map(float, spec.sigmas):
        errs = np.array([r["rel_error"] for r in rows if r["sigma"] == sigma and "error" not in r])
        q = np.percentile(errs, [0, 25, 50, 75, 100]) if errs.size else np.full(5, np.nan)
        out[sigma] = {"errors": errs.tolist(), "stats": dict(zip(stats, q))}
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
