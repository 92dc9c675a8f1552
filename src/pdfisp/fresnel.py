"""Experimental multistatic data: ASCII ingestion, calibration, inversion.

File format (one record per line, whitespace separated, 7 columns):

    tx_index  rx_index  frequency_GHz  re_total  im_total  re_incident  im_incident

Lines that do not parse as 7 numbers (headers, comments) are skipped.
Indices are 1-based. The geometry follows the published bistatic setup:
transmitter i of n sits on a ring of radius 1.67 m at angle 360*(i-1)/n
degrees; for each transmitter the receivers cover the arc from +60 to
+300 degrees relative to it, equally spaced (241 positions means a 1
degree step). `arc_angles` is that rule, for the reader and the synthetic
writer alike; over the union of receiver angles each transmitter measures
only its arc, which the dataset's mask records. Measured fields carry an
unknown per-transmitter complex gain; a single calibration ratio per
transmitter is fixed by matching the measured incident field at the
diametrically opposite receiver to the unit line-source model.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import C0, ConfigError, ImagingConfig, config_from_dict
from .forward import ScatteredData, line_source, simulate
from .geometry import AntennaArray, ring_points
from .reconstruct import ReconstructionResult, reconstruct
from .scenes import Scene, Shape

RING_RADIUS = 1.67          # meters, transmitter and receiver circles
ARC_START_DEG = 60.0        # receiver arc relative to the transmitter
ARC_END_DEG = 300.0
GAIN_SEED = 7               # per-transmitter gains of the synthetic writer


class FresnelError(Exception):
    """Problems ingesting or calibrating experimental data."""


class FresnelParseError(FresnelError):
    pass


class MissingFrequencyError(FresnelError):
    pass


@dataclass
class FresnelDataset:
    """One frequency slice of a multistatic measurement set.

    total/incident are (n_tx, n_rx_union) matrices over the union of
    receiver positions, zero where mask marks a combination unmeasured.
    calibration holds the per-transmitter complex ratio already applied
    to the scattered field.
    """

    frequency: float
    tx_angles_deg: np.ndarray
    rx_angles_deg: np.ndarray
    total: np.ndarray
    incident: np.ndarray
    mask: np.ndarray
    calibration: np.ndarray
    frequencies: tuple = field(default_factory=tuple)

    @property
    def n_tx(self) -> int:
        return len(self.tx_angles_deg)

    @property
    def n_rx(self) -> int:
        return len(self.rx_angles_deg)

    def array(self) -> AntennaArray:
        tx = ring_points(np.deg2rad(self.tx_angles_deg), RING_RADIUS)
        rx = ring_points(np.deg2rad(self.rx_angles_deg), RING_RADIUS)
        return AntennaArray(tx_positions=tx, rx_positions=rx)

    def scattered(self) -> ScatteredData:
        """Calibrated scattered field, unit line-source scale, zero where unmeasured."""
        data = ScatteredData(matrix=(self.total - self.incident) * self.calibration[:, None],
                             mask=self.mask.copy())
        data.matrix = data.masked(data.matrix)
        return data


def _parse_records(path) -> list[tuple[int, int, int, float, complex, complex]]:
    """Return (line_no, tx, rx, freq_ghz, total, incident) tuples."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                continue                    # header or comment line
            if len(vals) != 7:
                raise FresnelParseError(
                    f"line {line_no}: expected 7 columns, got {len(vals)}")
            if not np.isfinite(vals).all():
                raise FresnelParseError(f"line {line_no}: nonfinite value in {line.strip()!r}")
            tx, rx = vals[0], vals[1]
            if tx != int(tx) or rx != int(rx) or tx < 1 or rx < 1:
                raise FresnelParseError(
                    f"line {line_no}: tx/rx indices must be positive integers")
            records.append((line_no, int(tx), int(rx), vals[2],
                            complex(vals[3], vals[4]), complex(vals[5], vals[6])))
    if not records:
        raise FresnelParseError(f"{path}: no data records found")
    return records


def arc_angles(n_tx: int, n_rx_per_tx: int) -> tuple[np.ndarray, np.ndarray]:
    """Transmitter angles (n_tx,) and the absolute angle of receiver j of
    transmitter i, (n_tx, n_rx_per_tx), in degrees rounded to 1e-6."""
    if n_rx_per_tx < 2:
        raise FresnelParseError(
            f"need at least 2 receiver positions per transmitter, got {n_rx_per_tx}")
    tx = 360.0 * np.arange(n_tx) / n_tx
    step = (ARC_END_DEG - ARC_START_DEG) / (n_rx_per_tx - 1)
    return tx, np.round((tx[:, None] + ARC_START_DEG + np.arange(n_rx_per_tx) * step) % 360.0, 6)


def to_hz(frequency: float) -> float:
    """A frequency in Hz; values below 1e3 are read as GHz for convenience."""
    return frequency * 1e9 if frequency < 1e3 else frequency


def load_fresnel(path, frequency: float) -> FresnelDataset:
    """Load one frequency (see `to_hz`) from an ASCII measurement file and calibrate it."""
    frequency = to_hz(frequency)
    records = _parse_records(path)

    freqs_ghz = sorted({r[3] for r in records})
    freqs_hz = tuple(f * 1e9 for f in freqs_ghz)
    sel = [f for f in freqs_hz if abs(f - frequency) <= 1e-6 * max(f, frequency)]
    if not sel:
        ghz = ", ".join(f"{f / 1e9:g}" for f in freqs_hz)
        raise MissingFrequencyError(
            f"{frequency / 1e9:g} GHz not present; file has: {ghz} GHz")
    f_hz = sel[0]
    records = [r for r in records if abs(r[3] * 1e9 - f_hz) <= 1e-6 * f_hz]

    n_tx = max(r[1] for r in records)
    tx_angles, arc = arc_angles(n_tx, max(r[2] for r in records))
    # union of the records' receiver angles; col[k] is record k's column in it
    rx_angles, col = np.unique([arc[r[1] - 1, r[2] - 1] for r in records], return_inverse=True)

    total = np.zeros((n_tx, len(rx_angles)), dtype=np.complex128)
    incident = np.zeros_like(total)
    mask = np.zeros(total.shape, dtype=bool)
    for (line_no, tx, rx, _, tot, inc), j in zip(records, col):
        if mask[tx - 1, j]:
            raise FresnelParseError(f"line {line_no}: duplicate record tx={tx} rx={rx}")
        total[tx - 1, j] = tot
        incident[tx - 1, j] = inc
        mask[tx - 1, j] = True

    if not np.any(np.abs(total - incident)[mask] > 0):
        raise FresnelError(
            "scattered field (total - incident) is identically zero; "
            "the file does not look like a scattering measurement")

    # Per-transmitter calibration at the diametrically opposite receiver.
    k0 = 2.0 * np.pi * f_hz / C0
    tx_pos = ring_points(np.deg2rad(tx_angles), RING_RADIUS)
    rx_pos = ring_points(np.deg2rad(rx_angles), RING_RADIUS)
    calibration = np.zeros(n_tx, dtype=np.complex128)
    for t in range(n_tx):
        want = (tx_angles[t] + 180.0) % 360.0
        cols = np.nonzero(mask[t])[0]
        gap = np.abs((rx_angles[cols] - want + 180.0) % 360.0 - 180.0)
        j = cols[int(np.argmin(gap))]
        meas = incident[t, j]
        if meas == 0:
            raise FresnelError(f"transmitter {t + 1}: zero incident field at the "
                               "calibration receiver")
        d = np.hypot(*(rx_pos[j] - tx_pos[t]))
        calibration[t] = line_source(k0, d) / meas

    return FresnelDataset(frequency=f_hz, tx_angles_deg=tx_angles, rx_angles_deg=rx_angles,
                          total=total, incident=incident, mask=mask,
                          calibration=calibration, frequencies=freqs_hz)


# ----------------------------------------------------------------------
# Inversion adapter


def fresnel_config(dataset: FresnelDataset, **overrides) -> ImagingConfig:
    """Defaults for inverting a bench measurement: 0.2 m domain, 64x64.

    The overrides are read like config JSON (see `config.from_dict`). The
    dataset fixes the frequency and the antennas, so an override of one of
    those fields raises ConfigError; the frequency slice is chosen when the
    file is loaded.
    """
    fixed = dict(frequency=dataset.frequency, n_tx=dataset.n_tx, n_rx=dataset.n_rx,
                 ring_radius=RING_RADIUS)
    clash = sorted(set(fixed) & set(overrides))
    if clash:
        raise ConfigError(f"fresnel: {', '.join(clash)} fixed by the dataset, not settable")
    return config_from_dict({"doi_side": 0.2, "m1": 64, "m2": 64, **overrides, **fixed})


def fresnel_reconstruct(dataset: FresnelDataset, **overrides) -> ReconstructionResult:
    """`reconstruct` of the dataset on its own array, under `fresnel_config`."""
    return reconstruct(fresnel_config(dataset, **overrides), dataset.scattered(),
                       array=dataset.array())


# ----------------------------------------------------------------------
# Synthetic stand-in generator (foam shell with an external plastic rod)


def foamdiel_scene() -> Scene:
    """Foam disk (80 mm diameter, eps 1.45) with a plastic rod (31 mm, eps 3) against it."""
    foam_r = 0.040
    rod_r = 0.0155
    return Scene(shapes=(
        Shape(kind="disk", eps_r=complex(1.45), center=(0.0, 0.0), radius=foam_r),
        Shape(kind="disk", eps_r=complex(3.0),
              center=(-(foam_r + rod_r), 0.0), radius=rod_r),
    ))


def write_synthetic_foamdiel(path, frequency: float = 2e9, n_tx: int = 8,
                             n_rx_per_tx: int = 241, gen_cells: int = 96) -> None:
    """Emit a measurement file in the ASCII format above.

    The fields come from the built-in forward solver on a generation grid
    (gen_cells, default 96) distinct from the usual 64-cell inversion grid,
    with a random complex gain per transmitter (drawn from GAIN_SEED) so the
    calibration path is exercised, and no noise. Floats are written with 17
    significant digits so a reload reproduces the matrices bit-exactly.
    """
    rng = np.random.default_rng(GAIN_SEED)
    tx_angles, arc = arc_angles(n_tx, n_rx_per_tx)
    rx_angles, col = np.unique(arc, return_inverse=True)
    col = col.reshape(arc.shape)               # column of each written (tx, rx) pair
    cfg = ImagingConfig(frequency=frequency, doi_side=0.2, m1=gen_cells, m2=gen_cells,
                        n_tx=n_tx, n_rx=len(rx_angles), ring_radius=RING_RADIUS)
    array = AntennaArray(tx_positions=ring_points(np.deg2rad(tx_angles), RING_RADIUS),
                         rx_positions=ring_points(np.deg2rad(rx_angles), RING_RADIUS))
    sim = simulate(cfg, foamdiel_scene(), rng=rng, array=array)
    sca = np.take_along_axis(sim.data.matrix, col, axis=1)      # (n_tx, n_rx_per_tx)
    d = np.linalg.norm(array.rx_positions[col] - array.tx_positions[:, None, :], axis=-1)
    inc = line_source(cfg.wavenumber, d)

    mag = rng.uniform(0.5, 2.0, size=n_tx)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n_tx)
    gains = mag * np.exp(1j * phase)
    total_meas = gains[:, None] * (inc + sca)
    inc_meas = gains[:, None] * inc

    ghz = frequency / 1e9
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# synthetic bistatic measurement, TM polarization\n")
        fh.write("# columns: tx rx freq_GHz re_total im_total re_inc im_inc\n")
        for t in range(n_tx):
            for j in range(n_rx_per_tx):
                fh.write(f"{t + 1} {j + 1} {ghz:.17g} "
                         f"{total_meas[t, j].real:.17g} {total_meas[t, j].imag:.17g} "
                         f"{inc_meas[t, j].real:.17g} {inc_meas[t, j].imag:.17g}\n")
