"""The benchmark's workloads: set-up, the timed call and the checks after timing.

Each workload is driven through pdfisp's public API. `setup` builds the
inputs from the seed, `call` is the operation the benchmark times (once per
process), and `outcome` checks its output against references computed
apart from the package (see reference.py) or against properties the method
must have. The references are imported after the timed call, so their
scipy imports stay out of the set-up time. Checks marked `any_size` hold on
every grid; the others are quality figures of the default 64x64 config.
"""
from __future__ import annotations

import hashlib
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import Capture

COMPONENT_THRESHOLD = 1.5       # gate 05: components of Re eps above 1.5
AUSTRIA_COMPONENTS = 3
RECON_REL_ERROR_MAX = 0.20      # gate 05, noise free
STUDY_REL_ERROR_MAX = 0.25      # every cell of the noise study, see README
DISK_REL_ERROR_MAX = 0.01       # gate 01: eps 2 disk against the cylinder series
RECIPROCITY_MAX_PER_TOL = 100.0
RESIDUAL_MAX_PER_TOL = 10.0
SNR_GRID = (float("inf"), 10.0, 5.0, 1.0)


@dataclass
class Check:
    name: str
    value: float
    limit: float
    ok: bool
    any_size: bool


@dataclass
class Outcome:
    checks: list[Check]
    rel_error: float
    failed_ops: int
    fingerprint: str    # hash of the output; equal seeds must give equal hashes


def imaging_config(tiny: bool, seed: int):
    """Default config (or the self-test's 16x16 one) with the network seeded by `seed`."""
    from pdfisp import ImagingConfig
    if tiny:
        return ImagingConfig(m1=16, m2=16, n_tx=8, n_rx=8, m_f=3, rng_seed=seed).validate()
    return ImagingConfig(rng_seed=seed).validate()


def _at_most(name: str, value: float, limit: float, any_size: bool) -> Check:
    return Check(name, float(value), float(limit), bool(value <= limit), any_size)


def _exactly(name: str, value: int, target: int, any_size: bool) -> Check:
    return Check(name, value, target, value == target, any_size)


def _fingerprint(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class ReconAustria2:
    """Default reconstruction of the noise-free austria eps 2 scene."""

    name = "recon-austria2"
    ops_per_call = 1
    min_calls = 3

    def setup(self, seed: int, tiny: bool, scratch: Path) -> None:
        import pdfisp
        self.pdfisp = pdfisp
        self.config = imaging_config(tiny, seed)
        self.sim = pdfisp.simulate(self.config, pdfisp.builtin_scene("austria", 2.0),
                                   rng=np.random.default_rng(seed))

    def call(self):
        return self.pdfisp.reconstruct(self.config, self.sim.data, chi_true=self.sim.chi_true)

    def outcome(self, res) -> Outcome:
        import reference
        rel = reference.relative_error(res.eps_r, self.sim.chi_true.values + 1.0)
        first, last = res.trace[0].total, res.trace[-1].total
        checks = [
            _at_most("rel_error", rel, RECON_REL_ERROR_MAX, False),
            _exactly(f"components above {COMPONENT_THRESHOLD}",
                     reference.components(res.eps_r, COMPONENT_THRESHOLD),
                     AUSTRIA_COMPONENTS, False),
            Check("last loss / first loss", last / first, 1.0, last < first, True),
        ]
        return Outcome(checks, rel, 0, _fingerprint(res.chi_cco.values))


class ForwardAustria5:
    """One forward solve of the noise-free austria eps 5 scene.

    The scene is noise free, so the seed reaches simulate's generator but
    changes no input: a forward solve has no random input.
    """

    name = "forward-austria5"
    ops_per_call = 1
    min_calls = 2

    def setup(self, seed: int, tiny: bool, scratch: Path) -> None:
        import pdfisp
        self.pdfisp = pdfisp
        self.seed = seed
        self.config = imaging_config(tiny, seed)
        self.scene = pdfisp.builtin_scene("austria", 5.0)

    def call(self):
        with Capture("pdfisp.forward", "solve_total_field") as solves:
            sim = self.pdfisp.simulate(self.config, self.scene,
                                       rng=np.random.default_rng(self.seed))
        return sim, solves.calls[-1][2]

    def outcome(self, output) -> Outcome:
        import reference
        sim, e_tot = output
        cfg = self.config
        k0 = cfg.wavenumber
        xs, ys, cs = reference.cell_centers(cfg.doi_side, cfg.m1, cfg.m2)
        e_inc = reference.incident_field(k0, reference.ring(cfg.n_tx, cfg.radius), xs, ys)
        kernel = reference.domain_kernel(k0, cs, cfg.m1, cfg.m2)
        residual = reference.state_residuals(sim.chi_true.values, e_tot.views, e_inc, kernel)
        d = sim.data.matrix
        disk = self.disk_error()
        checks = [
            _at_most("reciprocity |D - D^T| / |D|", np.linalg.norm(d - d.T) / np.linalg.norm(d),
                     RECIPROCITY_MAX_PER_TOL * cfg.solver_tol, True),
            _at_most("state residual with an independent G_D, worst view", residual.max(),
                     RESIDUAL_MAX_PER_TOL * cfg.solver_tol, True),
            _at_most("eps 2 disk: scattered field vs cylinder series", disk,
                     DISK_REL_ERROR_MAX, False),
        ]
        return Outcome(checks, disk, 0, _fingerprint(d))

    def disk_error(self) -> float:
        """Relative error of a simulated eps 2 disk (r = 0.3 m) against the series.

        The reference cylinder has the rasterized disk's area, as in gate 01.
        """
        import reference
        from pdfisp import Scene, Shape
        cfg = self.config
        scene = Scene(shapes=(Shape(kind="disk", eps_r=2.0 + 0j, center=(0.0, 0.0),
                                    radius=0.3),))
        sim = self.pdfisp.simulate(cfg, scene)
        cs = cfg.doi_side / cfg.m1
        radius_eq = cs * np.sqrt(np.count_nonzero(sim.chi_true.values) / np.pi)
        ref = reference.cylinder_scattered(cfg.wavenumber, 2.0, radius_eq,
                                           reference.ring(cfg.n_tx, cfg.radius),
                                           reference.ring(cfg.n_rx, cfg.radius))
        return float(np.linalg.norm(sim.data.matrix - ref) / np.linalg.norm(ref))


class StudyNoise:
    """run_noise_study on austria eps 2 over SNR inf/10/5/1 dB, into a fresh directory."""

    name = "study-noise"
    ops_per_call = len(SNR_GRID)
    min_calls = 1

    def setup(self, seed: int, tiny: bool, scratch: Path) -> None:
        from pdfisp import studies
        self.studies = studies
        self.scratch = scratch
        self.spec = studies.StudySpec(config=imaging_config(tiny, seed), kind="noise",
                                      scene_name="austria", scene_eps=2.0,
                                      snr_grid=SNR_GRID, eps_grid=(2.0,), seed=seed)

    def call(self):
        out_dir = Path(tempfile.mkdtemp(prefix="study-", dir=self.scratch))
        with Capture("pdfisp.studies", "reconstruct") as recons:
            rows = self.studies.run_noise_study(self.spec, out_dir=out_dir)
        maps = [(kw["chi_true"].values + 1.0, res.eps_r) for _, kw, res in recons.calls]
        return rows, maps, out_dir

    def outcome(self, output) -> Outcome:
        import reference
        rows, maps, out_dir = output
        done = [row for row in rows if "error" not in row]
        csv_rows = (out_dir / "noise.csv").read_text().splitlines()[1:]
        checks = [
            _exactly("noise.csv rows", len(csv_rows), len(SNR_GRID), True),
            _exactly("maps captured for the cells without error", len(maps), len(done), True),
        ]
        errors = []
        for row, (eps_true, eps_hat) in zip(done, maps):
            rel = reference.relative_error(eps_hat, eps_true)
            errors.append(rel)
            tag = f"{row['snr_db']} dB"
            checks += [
                _at_most(f"{tag}: |rel_error - reported|", abs(rel - row["rel_error"]),
                         1e-12, True),
                _at_most(f"{tag}: rel_error", rel, STUDY_REL_ERROR_MAX, False),
            ]
            if np.isinf(row["snr_db"]):
                checks.append(_exactly(f"{tag}: components above {COMPONENT_THRESHOLD}",
                                       reference.components(eps_hat, COMPONENT_THRESHOLD),
                                       AUSTRIA_COMPONENTS, False))
        rel_error = float(np.mean(errors)) if errors else float("nan")
        return Outcome(checks, rel_error, len(rows) - len(done),
                       _fingerprint(*(eps for _, eps in maps)))


WORKLOADS = {w.name: w for w in (ReconAustria2, ForwardAustria5, StudyNoise)}
