"""Experimental multistatic data: ASCII ingestion, calibration, inversion.

File format (one record per line, whitespace separated, 7 columns):

    tx_index  rx_index  frequency_GHz  re_total  im_total  re_incident  im_incident

Lines that do not parse as 7 numbers (headers, comments) are skipped.
Indices are 1-based. The geometry follows the published bistatic setup:
transmitter i of n sits on a ring of radius 1.67 m at angle 360*(i-1)/n
degrees; for each transmitter the receivers cover the arc from +60 to
+300 degrees relative to it, equally spaced (241 positions means a 1
degree step). Measured fields carry an unknown per-transmitter complex
gain; a single calibration ratio per transmitter is fixed by matching
the measured incident field at the diametrically opposite receiver to
the unit line-source model.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ImagingConfig
from .forward import ScatteredData, hankel1_0, simulate
from .geometry import AntennaArray
from .scenes import Scene, Shape

RING_RADIUS = 1.67          # meters, transmitter and receiver circles
ARC_START_DEG = 60.0        # receiver arc relative to the transmitter
ARC_END_DEG = 300.0


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
    receiver positions; mask marks combinations actually measured.
    calibration holds the per-transmitter complex ratio already applied
    to the scattered field.
    """

    frequency: float
    ring_radius: float
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
        tx = _ring_points(self.tx_angles_deg, self.ring_radius)
        rx = _ring_points(self.rx_angles_deg, self.ring_radius)
        return AntennaArray(tx_positions=tx, rx_positions=rx)

    def scattered(self) -> ScatteredData:
        """Calibrated scattered field, unit line-source scale."""
        sca = (self.total - self.incident) * self.calibration[:, None]
        sca = np.where(self.mask, sca, 0.0)
        return ScatteredData(matrix=sca, snr_db=None, mask=self.mask.copy())


def _ring_points(angles_deg: np.ndarray, radius: float) -> np.ndarray:
    th = np.deg2rad(np.asarray(angles_deg, dtype=float))
    return np.column_stack([radius * np.cos(th), radius * np.sin(th)])


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
            tx, rx = vals[0], vals[1]
            if tx != int(tx) or rx != int(rx) or tx < 1 or rx < 1:
                raise FresnelParseError(
                    f"line {line_no}: tx/rx indices must be positive integers")
            records.append((line_no, int(tx), int(rx), vals[2],
                            complex(vals[3], vals[4]), complex(vals[5], vals[6])))
    if not records:
        raise FresnelParseError(f"{path}: no data records found")
    return records


def load_fresnel(path, frequency: float, ring_radius: float = RING_RADIUS) -> FresnelDataset:
    """Load one frequency from an ASCII measurement file and calibrate it.

    frequency is in Hz; values below 1e3 are read as GHz for convenience.
    """
    if frequency < 1e3:
        frequency = frequency * 1e9
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
    n_rx_per = max(r[2] for r in records)
    if n_rx_per < 2:
        raise FresnelParseError("need at least 2 receiver positions per transmitter")
    tx_angles = 360.0 * np.arange(n_tx) / n_tx
    step = (ARC_END_DEG - ARC_START_DEG) / (n_rx_per - 1)

    # Absolute receiver angles, union over transmitters.
    abs_angle = {}
    for line_no, tx, rx, _, _, _ in records:
        ang = (tx_angles[tx - 1] + ARC_START_DEG + (rx - 1) * step) % 360.0
        abs_angle[(tx, rx)] = round(ang, 6)
    rx_angles = np.array(sorted(set(abs_angle.values())))
    col = {a: i for i, a in enumerate(rx_angles)}

    total = np.zeros((n_tx, len(rx_angles)), dtype=np.complex128)
    incident = np.zeros_like(total)
    mask = np.zeros(total.shape, dtype=bool)
    for line_no, tx, rx, _, tot, inc in records:
        j = col[abs_angle[(tx, rx)]]
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
    k0 = 2.0 * np.pi * f_hz / 299792458.0
    tx_pos = _ring_points(tx_angles, ring_radius)
    rx_pos = _ring_points(rx_angles, ring_radius)
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
        model = 0.25j * hankel1_0(k0 * d)
        calibration[t] = model / meas

    return FresnelDataset(frequency=f_hz, ring_radius=ring_radius,
                          tx_angles_deg=tx_angles, rx_angles_deg=rx_angles,
                          total=total, incident=incident, mask=mask,
                          calibration=calibration, frequencies=freqs_hz)


# ----------------------------------------------------------------------
# Inversion adapter


def fresnel_config(dataset: FresnelDataset, **overrides) -> ImagingConfig:
    """Defaults for inverting a bench measurement: 0.2 m domain, 64x64."""
    base = dict(frequency=dataset.frequency, doi_side=0.2, m1=64, m2=64,
                n_tx=dataset.n_tx, n_rx=dataset.n_rx,
                ring_radius=dataset.ring_radius)
    base.update(overrides)
    return ImagingConfig(**base).validate()


def fresnel_reconstruct(dataset: FresnelDataset, **overrides):
    from .reconstruct import reconstruct

    return reconstruct(fresnel_config(dataset, **overrides), dataset.scattered(),
                       array=dataset.array())


# ----------------------------------------------------------------------
# Synthetic stand-in generator (foam shell with an external plastic rod)


def foamdiel_scene(foam_eps: float = 1.45, plastic_eps: float = 3.0) -> Scene:
    """Foam disk (80 mm diameter) with a plastic rod (31 mm) against it."""
    foam_r = 0.040
    rod_r = 0.0155
    return Scene(shapes=(
        Shape(kind="disk", eps_r=complex(foam_eps), center=(0.0, 0.0), radius=foam_r),
        Shape(kind="disk", eps_r=complex(plastic_eps),
              center=(-(foam_r + rod_r), 0.0), radius=rod_r),
    ))


def write_synthetic_foamdiel(path, frequency: float = 2e9, n_tx: int = 8,
                             n_rx_per_tx: int = 241, ring_radius: float = RING_RADIUS,
                             gen_cells: int = 96, seed: int = 7,
                             snr_db: float = float("inf")) -> None:
    """Emit a measurement file in the ASCII format above.

    The fields come from the built-in forward solver on a generation grid
    (gen_cells, default 96) distinct from the usual 64-cell inversion grid,
    with a random complex gain per transmitter so the calibration path is
    exercised. Floats are written with 17 significant digits so a reload
    reproduces the matrices bit-exactly.
    """
    rng = np.random.default_rng(seed)
    cfg = ImagingConfig(frequency=frequency, doi_side=0.2, m1=gen_cells,
                        m2=gen_cells, n_tx=n_tx, n_rx=360,
                        ring_radius=ring_radius).validate()
    tx_angles = 360.0 * np.arange(n_tx) / n_tx
    rx_angles = np.arange(360.0)
    array = AntennaArray(tx_positions=_ring_points(tx_angles, ring_radius),
                         rx_positions=_ring_points(rx_angles, ring_radius))
    sim = simulate(cfg, foamdiel_scene(), snr_db=snr_db, rng=rng, array=array)
    sca = sim.data.matrix                       # (n_tx, 360)

    k0 = cfg.wavenumber
    d = np.linalg.norm(array.rx_positions[None, :, :] - array.tx_positions[:, None, :],
                       axis=-1)
    # a receiver can share an angle with the transmitter; those columns are
    # outside the written arc, so give them a dummy distance
    inc = 0.25j * hankel1_0(k0 * np.where(d > 0, d, 1.0))

    mag = rng.uniform(0.5, 2.0, size=n_tx)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n_tx)
    gains = mag * np.exp(1j * phase)
    total_meas = gains[:, None] * (inc + sca)
    inc_meas = gains[:, None] * inc

    step = (ARC_END_DEG - ARC_START_DEG) / (n_rx_per_tx - 1)
    ghz = frequency / 1e9
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# synthetic bistatic measurement, TM polarization\n")
        fh.write("# columns: tx rx freq_GHz re_total im_total re_inc im_inc\n")
        for t in range(n_tx):
            for j in range(n_rx_per_tx):
                ang = (tx_angles[t] + ARC_START_DEG + j * step) % 360.0
                c = int(round(ang)) % 360
                fh.write(f"{t + 1} {j + 1} {ghz:.17g} "
                         f"{total_meas[t, c].real:.17g} {total_meas[t, c].imag:.17g} "
                         f"{inc_meas[t, c].real:.17g} {inc_meas[t, c].imag:.17g}\n")
