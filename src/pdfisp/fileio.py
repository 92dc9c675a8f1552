"""Dataset and result persistence.

Binary formats share one layout: an ASCII magic line, a one-line JSON
header, a CRC line protecting the header, a 4-byte little-endian byte-order
marker, then raw little-endian float64 payload with real/imaginary parts
interleaved. Round trips are bit-exact.

`.emsca`  measured scattered matrices (plus the mask, when partly measured)
`.grid`   complex images on the imaging grid
`.pgm`    8-bit grayscale renders (binary P5)
"""
from __future__ import annotations

import hashlib
import json
import struct
import sys
import zlib
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .config import from_dict, read_json, write_json
from .forward import ScatteredData
from .geometry import ComplexGrid
from .reconstruct import IterationRecord

_MARKER = 0x1A2B3C4D


class FileFormatError(ValueError):
    """Malformed or foreign file."""


class CorruptHeaderError(FileFormatError):
    """Header bytes fail their checksum."""


class ByteOrderError(FileFormatError):
    """File was written by a big-endian producer."""


@dataclass(frozen=True)
class DatasetHeader:
    """The JSON header of an `.emsca` file."""

    n_tx: int
    n_rx: int
    byte_order: str = "little"
    snr_db: float | None = None
    has_mask: bool = False
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GridHeader:
    """The JSON header of a `.grid` file."""

    m1: int
    m2: int
    cell_size: float
    config_hash: str = ""
    byte_order: str = "little"


# ----------------------------------------------------------------------
# Shared header plumbing


def _write_header(fh, magic: str, meta: dict) -> None:
    blob = json.dumps(meta, sort_keys=True).encode()
    fh.write(f"{magic} 1\n".encode())
    fh.write(blob + b"\n")
    fh.write(f"CRC {zlib.crc32(blob):08x}\n".encode())
    fh.write(struct.pack("<I", _MARKER))


def _read_header(fh, magic: str, cls):
    """The header of `magic`, read into dataclass `cls` along its field types."""
    first = fh.readline()
    if first != f"{magic} 1\n".encode():
        raise FileFormatError(f"not a {magic} file (bad magic {first!r})")
    blob = fh.readline().rstrip(b"\n")
    crc_line = fh.readline()
    if not crc_line.startswith(b"CRC "):
        raise CorruptHeaderError("missing CRC line")
    try:
        expect = int(crc_line[4:].strip(), 16)
    except ValueError as exc:
        raise CorruptHeaderError("unreadable CRC") from exc
    if zlib.crc32(blob) != expect:
        raise CorruptHeaderError("header checksum mismatch")
    marker = fh.read(4)
    if marker == struct.pack(">I", _MARKER):
        raise ByteOrderError("file written big-endian; this format is little-endian")
    if marker != struct.pack("<I", _MARKER):
        raise FileFormatError("bad byte-order marker")
    try:
        header = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise CorruptHeaderError("header is not valid JSON") from exc
    return from_dict(cls, header, FileFormatError)


def _complex_from_bytes(buf: bytes, shape: tuple[int, ...]) -> np.ndarray:
    if min(shape) < 1:
        raise FileFormatError(f"header gives shape {shape}; every size must be >= 1")
    n = int(np.prod(shape))
    if len(buf) < n * 16:
        raise FileFormatError("truncated payload")
    return np.frombuffer(buf, dtype="<c16", count=n).reshape(shape).astype(np.complex128)


# ----------------------------------------------------------------------
# Scattered datasets


def save_dataset(path, data: ScatteredData, meta: dict | None = None) -> None:
    n_tx, n_rx = data.matrix.shape
    header = {"n_tx": int(n_tx), "n_rx": int(n_rx), "byte_order": "little",
              "snr_db": None if data.snr_db is None else float(data.snr_db),
              "has_mask": not data.mask.all()}
    if meta:
        header["meta"] = meta
    with open(path, "wb") as fh:
        _write_header(fh, "EMSCA", header)
        fh.write(np.asarray(data.matrix, dtype="<c16").tobytes())
        if header["has_mask"]:
            fh.write(np.ascontiguousarray(data.mask, dtype=np.uint8).tobytes())


def load_dataset(path) -> tuple[ScatteredData, dict]:
    with open(path, "rb") as fh:
        header = _read_header(fh, "EMSCA", DatasetHeader)
        shape = (header.n_tx, header.n_rx)
        payload = fh.read(int(np.prod(shape)) * 16)
        matrix = _complex_from_bytes(payload, shape)
        mask = None
        if header.has_mask:
            mbuf = fh.read(matrix.size)
            if len(mbuf) < matrix.size:
                raise FileFormatError(f"truncated mask: {len(mbuf)} of {matrix.size} bytes")
            mask = np.frombuffer(mbuf, dtype=np.uint8).reshape(shape).astype(bool)
    snr = header.snr_db
    data = ScatteredData(matrix=matrix, snr_db=None if snr is None else float(snr), mask=mask)
    return data, header.meta


# ----------------------------------------------------------------------
# Complex grids


def save_grid(path, grid: ComplexGrid, config_hash: str = "") -> None:
    m1, m2 = grid.values.shape
    header = {"m1": int(m1), "m2": int(m2), "cell_size": float(grid.cell_size),
              "config_hash": config_hash, "byte_order": "little"}
    with open(path, "wb") as fh:
        _write_header(fh, "GRID", header)
        fh.write(np.asarray(grid.values, dtype="<c16").tobytes())


def load_grid(path) -> ComplexGrid:
    with open(path, "rb") as fh:
        header = _read_header(fh, "GRID", GridHeader)
        values = _complex_from_bytes(fh.read(), (header.m1, header.m2))
    return ComplexGrid(values=values, cell_size=float(header.cell_size))


# ----------------------------------------------------------------------
# Images


def render_pgm(eps_map: np.ndarray, vmin: float, vmax: float, path) -> None:
    """Linear 8-bit grayscale render (binary P5), rounded to nearest level.

    Pixels map as clamp((x - vmin)/(vmax - vmin), 0, 1)*255 on the real
    part, written row-major: array row 0 is the top image row.
    """
    if not (np.isfinite(vmin) and np.isfinite(vmax) and vmin < vmax):
        raise ValueError(f"render range needs finite vmin < vmax, got {vmin=}, {vmax=}")
    x = np.clip((np.real(eps_map) - vmin) / (vmax - vmin), 0.0, 1.0)
    img = np.rint(x * 255.0).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(img.tobytes())


# ----------------------------------------------------------------------
# Traces, metrics, manifests


def write_csv(path, columns: list[str], rows) -> None:
    """A header of `columns`, then one line per dict row; a key a row lacks
    gives an empty cell. Floats are written as .17g, which round-trips every
    float64, so a rerun reproduces the file byte for byte; other cells as str."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = (row.get(c, "") for c in columns)
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in cells) + "\n")


def write_trace(path, trace: list[IterationRecord]) -> None:
    """One CSV row per iteration: its index, then the fields of
    `reconstruct.IterationRecord` in order."""
    write_csv(path, ["iteration", *(f.name for f in fields(IterationRecord))],
              ({"iteration": k, **asdict(rec)} for k, rec in enumerate(trace)))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, command: str, argv: list[str], seed: int | None,
                   inputs: list, outputs: list, wall_time: float,
                   solver: dict | None = None) -> None:
    """Record how a CLI run can be reproduced and what it produced.

    Output hashes capture every tracked artifact; wall time and the forward
    solve's diagnostics (`solver`, when given) live only here, so tracked
    outputs stay bit-identical across reruns.
    """
    import scipy

    from . import __version__

    manifest = {
        "command": command,
        "argv": list(argv),
        "seed": seed,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "pdfisp": __version__},
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": {str(p): sha256_file(p) for p in outputs},
        "wall_time_s": wall_time,
    }
    if solver is not None:
        manifest["solver"] = solver
    write_json(path, manifest)


def load_manifest(path) -> dict:
    """A manifest; FileFormatError unless it has what `rerun` checks and replays:
    `argv`, a list of strings, and `inputs` and `outputs`, objects of file hashes."""
    manifest = read_json(path)
    if not isinstance(manifest, dict):
        raise FileFormatError(f"{path}: a manifest is a JSON object")
    argv = manifest.get("argv")
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise FileFormatError(f"{path}: manifest argv must be a list of strings, got {argv!r}")
    for key in ("outputs", "inputs"):
        if not isinstance(value := manifest.get(key), dict):
            raise FileFormatError(f"{path}: manifest {key} must be an object, got {value!r}")
    return manifest

