"""Dataset and result persistence.

Binary formats share one layout: an ASCII magic line, a one-line JSON
header, a CRC line protecting the header, a 4-byte little-endian byte-order
marker, then raw little-endian float64 payload with real/imaginary parts
interleaved. Round trips are bit-exact.

`.emsca`  measured scattered matrices (plus an optional measurement mask)
`.grid`   complex images on the imaging grid
`.pgm`    8-bit grayscale renders (binary P5)
"""
from __future__ import annotations

import hashlib
import json
import struct
import sys
import zlib
from pathlib import Path

import numpy as np

from .config import read_json, write_json
from .forward import ScatteredData
from .geometry import ComplexGrid

_MARKER = 0x1A2B3C4D


class FileFormatError(ValueError):
    """Malformed or foreign file."""


class CorruptHeaderError(FileFormatError):
    """Header bytes fail their checksum."""


class ByteOrderError(FileFormatError):
    """File was written by a big-endian producer."""


# ----------------------------------------------------------------------
# Shared header plumbing


def _write_header(fh, magic: str, meta: dict) -> None:
    blob = json.dumps(meta, sort_keys=True).encode()
    fh.write(f"{magic} 1\n".encode())
    fh.write(blob + b"\n")
    fh.write(f"CRC {zlib.crc32(blob):08x}\n".encode())
    fh.write(struct.pack("<I", _MARKER))


def _read_header(fh, magic: str) -> dict:
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
        return json.loads(blob)
    except json.JSONDecodeError as exc:
        raise CorruptHeaderError("header is not valid JSON") from exc


def _complex_from_bytes(buf: bytes, shape: tuple[int, ...]) -> np.ndarray:
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
              "has_mask": data.mask is not None}
    if meta:
        header["meta"] = meta
    with open(path, "wb") as fh:
        _write_header(fh, "EMSCA", header)
        fh.write(np.asarray(data.matrix, dtype="<c16").tobytes())
        if data.mask is not None:
            fh.write(np.ascontiguousarray(data.mask, dtype=np.uint8).tobytes())


def load_dataset(path) -> tuple[ScatteredData, dict]:
    with open(path, "rb") as fh:
        header = _read_header(fh, "EMSCA")
        shape = (header["n_tx"], header["n_rx"])
        payload = fh.read(int(np.prod(shape)) * 16)
        matrix = _complex_from_bytes(payload, shape)
        mask = None
        if header.get("has_mask"):
            mbuf = fh.read(int(np.prod(shape)))
            mask = np.frombuffer(mbuf, dtype=np.uint8).reshape(shape).astype(bool)
    snr = header.get("snr_db")
    data = ScatteredData(matrix=matrix, snr_db=None if snr is None else float(snr), mask=mask)
    return data, header.get("meta", {})


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
        header = _read_header(fh, "GRID")
        shape = (header["m1"], header["m2"])
        values = _complex_from_bytes(fh.read(), shape)
    return ComplexGrid(values=values, cell_size=float(header["cell_size"]))


# ----------------------------------------------------------------------
# Images


def render_pgm(eps_map: np.ndarray, vmin: float, vmax: float, path) -> None:
    """Linear 8-bit grayscale render (binary P5), rounded to nearest level.

    Pixels map as clamp((x - vmin)/(vmax - vmin), 0, 1)*255 on the real
    part, written row-major: array row 0 is the top image row.
    """
    if vmax <= vmin:
        raise ValueError("vmax must exceed vmin")
    x = np.clip((np.real(eps_map) - vmin) / (vmax - vmin), 0.0, 1.0)
    img = np.rint(x * 255.0).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(img.tobytes())


# ----------------------------------------------------------------------
# Traces, metrics, manifests


def write_trace(path, trace, grad_norms, update_norms, clamped_counts,
                degenerate_counts) -> None:
    """One CSV row per iteration: its loss terms, the norm of their gradient
    over the network weights, the norm of the optimizer step taken after it,
    then the pixel counts of its least-squares contrast: on the clamped branch
    (Re chi < 0) and degenerate (`cie.ContrastRecovery.degenerate`)."""
    rows = zip(trace, grad_norms, update_norms, clamped_counts, degenerate_counts, strict=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,state,data,bound,tv,bridge,total,grad_norm,update_norm,"
                 "n_clamped,n_degenerate\n")
        for k, (bd, g, u, c, d) in enumerate(rows):
            fh.write(f"{k}," + ",".join(f"{v:.17g}" for v in (*bd.as_row(), g, u))
                     + f",{c:d},{d:d}\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, command: str, argv: list[str], seed: int | None,
                   inputs: list, outputs: list, wall_time: float) -> None:
    """Record how a CLI run can be reproduced and what it produced.

    Output hashes capture every tracked artifact; wall time lives only here,
    so tracked outputs stay bit-identical across reruns.
    """
    import numpy
    import scipy

    from . import __version__

    manifest = {
        "command": command,
        "argv": list(argv),
        "seed": seed,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "pdfisp": __version__},
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": {str(p): sha256_file(p) for p in outputs},
        "wall_time_s": wall_time,
    }
    write_json(path, manifest)


def load_manifest(path) -> dict:
    return read_json(path)


def workspace_paths(out_dir) -> dict[str, Path]:
    """Canonical file names of a reconstruction output directory."""
    out = Path(out_dir)
    return {"chi": out / "chi.grid", "eps_pgm": out / "eps_r.pgm",
            "trace": out / "trace.csv", "metrics": out / "metrics.json",
            "manifest": out / "manifest.json"}
