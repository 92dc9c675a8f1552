"""Binary formats, header integrity checks, renders, traces, manifests."""
import hashlib
import json
import re
import struct
import zlib

import numpy as np
import pytest

from pdfisp.fileio import (ByteOrderError, CorruptHeaderError, FileFormatError, _write_header,
                           load_dataset, load_grid, load_manifest, render_pgm,
                           save_dataset, save_grid, sha256_file,
                           write_manifest, write_trace)
from pdfisp.forward import ScatteredData
from pdfisp.geometry import ComplexGrid
from pdfisp.reconstruct import IterationRecord


def _dataset(mask=False):
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    m = None
    if mask:
        m = rng.random((4, 6)) > 0.3
    return ScatteredData(matrix=mat, snr_db=5.0 if mask else None, mask=m)


# ----------------------------------------------------------------------
# Round trips


def test_dataset_round_trip_bit_exact(tmp_path):
    data = _dataset()
    path = tmp_path / "d.emsca"
    save_dataset(path, data, meta={"scene": "austria"})
    back, meta = load_dataset(path)
    assert np.array_equal(back.matrix, data.matrix)
    assert back.mask.all() and back.snr_db is None
    assert meta == {"scene": "austria"}


def test_dataset_round_trip_with_mask(tmp_path):
    data = _dataset(mask=True)
    path = tmp_path / "d.emsca"
    save_dataset(path, data)
    back, meta = load_dataset(path)
    assert np.array_equal(back.matrix, data.matrix)
    assert np.array_equal(back.mask, data.mask)
    assert back.snr_db == 5.0 and meta == {}


def test_all_true_mask_saves_like_no_mask(tmp_path):
    data = _dataset()
    save_dataset(tmp_path / "a.emsca", data)
    save_dataset(tmp_path / "b.emsca", ScatteredData(matrix=data.matrix,
                                                     mask=np.ones((4, 6), dtype=bool)))
    raw = (tmp_path / "b.emsca").read_bytes()
    assert raw == (tmp_path / "a.emsca").read_bytes()
    assert b'"has_mask": false' in raw


def test_dataset_round_trip_keeps_signed_zeros_and_nonfinite_parts(tmp_path):
    mat = np.array([[complex(-0.0, 1.0), complex(1.0, np.inf)],
                    [complex(1.0, np.nan), complex(-np.inf, -0.0)]])
    path = tmp_path / "d.emsca"
    save_dataset(path, ScatteredData(matrix=mat))
    back, _ = load_dataset(path)
    assert back.matrix.tobytes() == mat.tobytes()


def test_grid_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    grid = ComplexGrid(values=vals, cell_size=0.0234375)
    path = tmp_path / "g.grid"
    save_grid(path, grid, config_hash="abc123")
    back = load_grid(path)
    assert np.array_equal(back.values, grid.values)
    assert back.cell_size == grid.cell_size


def test_save_is_deterministic(tmp_path):
    data = _dataset(mask=True)
    save_dataset(tmp_path / "a.emsca", data)
    save_dataset(tmp_path / "b.emsca", data)
    assert (tmp_path / "a.emsca").read_bytes() == (tmp_path / "b.emsca").read_bytes()


# ----------------------------------------------------------------------
# Corruption detection


def _flip_byte(path, offset):
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0xFF
    path.write_bytes(bytes(raw))


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "d.emsca"
    save_dataset(path, _dataset())
    with pytest.raises(FileFormatError, match="magic"):
        load_grid(path)


def test_corrupt_header_detected(tmp_path):
    path = tmp_path / "d.emsca"
    save_dataset(path, _dataset())
    # flip one byte inside the JSON header line (after the magic line)
    _flip_byte(path, len(b"EMSCA 1\n") + 3)
    with pytest.raises(CorruptHeaderError):
        load_dataset(path)


DAMAGED = {   # name -> (edit of the header line, CRC line and rest, error, its message)
    "no CRC line": (lambda blob, crc, rest: (blob, b"XRC" + crc[3:], rest),
                    CorruptHeaderError, "missing CRC line"),
    "unreadable CRC": (lambda blob, crc, rest: (blob, b"CRC 0x?", rest),
                       CorruptHeaderError, "unreadable CRC"),
    "bad marker": (lambda blob, crc, rest: (blob, crc, bytes(4) + rest[4:]),
                   FileFormatError, "bad byte-order marker"),
    "header not JSON": (lambda blob, crc, rest: (b"{n_tx: 4}", b"CRC %08x" % zlib.crc32(
        b"{n_tx: 4}"), rest), CorruptHeaderError, "header is not valid JSON"),
}


@pytest.mark.parametrize("name", sorted(DAMAGED))
def test_damaged_header_lines_rejected(name, tmp_path):
    edit, error, message = DAMAGED[name]
    path = tmp_path / "d.emsca"
    save_dataset(path, _dataset())
    magic, *parts = path.read_bytes().split(b"\n", 3)
    path.write_bytes(b"\n".join([magic, *edit(*parts)]))
    with pytest.raises(error, match=re.escape(message)):
        load_dataset(path)


def test_big_endian_marker_rejected(tmp_path):
    path = tmp_path / "d.emsca"
    save_dataset(path, _dataset())
    raw = bytearray(path.read_bytes())
    little = struct.pack("<I", 0x1A2B3C4D)
    idx = raw.index(little)
    raw[idx:idx + 4] = struct.pack(">I", 0x1A2B3C4D)
    path.write_bytes(bytes(raw))
    with pytest.raises(ByteOrderError):
        load_dataset(path)


def test_truncated_payload_detected(tmp_path):
    path = tmp_path / "d.emsca"
    save_dataset(path, _dataset())
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FileFormatError, match="truncated"):
        load_dataset(path)


def test_truncated_mask_detected(tmp_path):
    path = tmp_path / "d.emsca"
    save_dataset(path, _dataset(mask=True))
    path.write_bytes(path.read_bytes()[:-13])        # 11 of the 24 mask bytes left
    with pytest.raises(FileFormatError, match="truncated mask: 11 of 24 bytes"):
        load_dataset(path)


DATASET = {"n_tx": 4, "n_rx": 6, "byte_order": "little", "snr_db": None, "has_mask": False}
GRID = {"m1": 5, "m2": 7, "cell_size": 0.5, "config_hash": "", "byte_order": "little"}
BAD_HEADERS = {   # name -> (magic, header with a valid CRC, loader, what the error names)
    "emsca no n_tx": ("EMSCA", {k: v for k, v in DATASET.items() if k != "n_tx"},
                      load_dataset, "DatasetHeader.n_tx is missing"),
    "emsca n_rx text": ("EMSCA", {**DATASET, "n_rx": "6"}, load_dataset,
                        "DatasetHeader.n_rx: expected int, got '6'"),
    "emsca has_mask number": ("EMSCA", {**DATASET, "has_mask": 1}, load_dataset,
                              "DatasetHeader.has_mask: expected bool"),
    "emsca n_tx zero": ("EMSCA", {**DATASET, "n_tx": 0}, load_dataset, "shape (0, 6)"),
    "emsca unknown key": ("EMSCA", {**DATASET, "n_views": 4}, load_dataset,
                          "unknown DatasetHeader keys: ['n_views']"),
    "emsca not an object": ("EMSCA", [4, 6], load_dataset, "DatasetHeader: expected an object"),
    "grid no cell_size": ("GRID", {k: v for k, v in GRID.items() if k != "cell_size"},
                          load_grid, "GridHeader.cell_size is missing"),
    "grid m1 float": ("GRID", {**GRID, "m1": 5.0}, load_grid, "GridHeader.m1: expected int"),
}


@pytest.mark.parametrize("name", sorted(BAD_HEADERS))
def test_bad_header_names_the_key(name, tmp_path):
    magic, header, loader, message = BAD_HEADERS[name]
    path = tmp_path / "bad"
    with open(path, "wb") as fh:
        _write_header(fh, magic, header)
        fh.write(bytes(16 * 4 * 7))
    with pytest.raises(FileFormatError, match=re.escape(message)):
        loader(path)


# ----------------------------------------------------------------------
# Renders


def test_pgm_header_and_clamping(tmp_path):
    eps = np.array([[0.0, 1.0], [2.0, 4.0]])
    path = tmp_path / "x.pgm"
    render_pgm(eps, vmin=1.0, vmax=3.0, path=path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    pix = np.frombuffer(raw[len(b"P5\n2 2\n255\n"):], dtype=np.uint8)
    assert pix.tolist() == [0, 0, 128, 255]


def test_pgm_rejects_bad_range(tmp_path):
    # an empty, reversed or nonfinite range writes nothing (NaN and inf once gave black images)
    nan, inf = float("nan"), float("inf")
    for vmin, vmax in [(1.0, 1.0), (3.0, 1.0), (1.0, nan), (nan, 3.0), (1.0, inf), (-inf, 3.0)]:
        with pytest.raises(ValueError, match=f"vmin={vmin}, vmax={vmax}"):
            render_pgm(np.ones((2, 2)), vmin=vmin, vmax=vmax, path=tmp_path / "x.pgm")
    assert not (tmp_path / "x.pgm").exists()


# ----------------------------------------------------------------------
# Traces, manifests, hashes


def test_trace_csv_format(tmp_path):
    record = IterationRecord(state=1.0, data=2.0, bound=0.5, tv=0.25, bridge=0.125,
                             total=3.875, grad_norm=0.75, update_norm=0.0625,
                             n_clamped=12, n_degenerate=0)
    path = tmp_path / "t.csv"
    write_trace(path, [record])
    header = ("iteration,state,data,bound,tv,bridge,total,grad_norm,update_norm,"
              "n_clamped,n_degenerate")
    assert path.read_text().splitlines() == [
        header, "0,1,2,0.5,0.25,0.125,3.875,0.75,0.0625,12,0"]
    write_trace(path, [])                       # k_iters 0: the header alone
    assert path.read_text() == header + "\n"


def test_sha256_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"hello world" * 100)
    assert sha256_file(path) == hashlib.sha256(b"hello world" * 100).hexdigest()


def test_manifest_round_trip(tmp_path):
    inp = tmp_path / "in.bin"
    out = tmp_path / "out.bin"
    inp.write_bytes(b"a")
    out.write_bytes(b"b")
    mpath = tmp_path / "manifest.json"
    write_manifest(mpath, "simulate", ["--scene", "austria:2"], seed=0,
                   inputs=[inp], outputs=[out], wall_time=1.25)
    m = load_manifest(mpath)
    assert m["command"] == "simulate"
    assert m["seed"] == 0
    assert m["inputs"][str(inp)] == sha256_file(inp)
    assert m["outputs"][str(out)] == sha256_file(out)
    assert {"python", "numpy", "scipy", "pdfisp"} <= set(m["versions"])
    # the manifest itself is valid, sorted-key JSON
    assert json.loads(mpath.read_text()) == m
