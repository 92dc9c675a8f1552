"""ASCII measurement ingestion, calibration, and the synthetic generator."""
import numpy as np
import pytest
from scipy.special import hankel1

from pdfisp.config import ConfigError
from pdfisp.fresnel import (FresnelError, FresnelParseError, MissingFrequencyError,
                            foamdiel_scene, fresnel_config, fresnel_reconstruct,
                            load_fresnel, write_synthetic_foamdiel)

MINIMAL = """\
1 1 1.0 1.0 0.0 0.5 0.0
1 2 1.0 0.5 0.0 0.5 0.0
2 1 1.0 1.0 1.0 0.25 0.0
2 2 1.0 0.5 0.0 0.5 0.0
"""


def _write(tmp_path, text, name="data.exp"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ----------------------------------------------------------------------
# Parsing


def test_minimal_file_geometry(tmp_path):
    ds = load_fresnel(_write(tmp_path, MINIMAL), 1.0)
    assert ds.n_tx == 2
    assert np.array_equal(ds.tx_angles_deg, [0.0, 180.0])
    # two receivers per transmitter at +60 and +300 degrees
    assert np.array_equal(ds.rx_angles_deg, [60.0, 120.0, 240.0, 300.0])
    assert ds.mask.sum() == 4
    assert ds.frequency == 1e9 and ds.frequencies == (1e9,)


def test_header_lines_skipped(tmp_path):
    ds = load_fresnel(_write(tmp_path, "# comment\nfreq tx rx\n" + MINIMAL), 1.0)
    assert ds.mask.sum() == 4


def test_wrong_column_count(tmp_path):
    path = _write(tmp_path, "1 1 1.0 1.0 0.0 0.5\n")
    with pytest.raises(FresnelParseError, match="expected 7"):
        load_fresnel(path, 1.0)


def test_fractional_index_rejected(tmp_path):
    path = _write(tmp_path, "1.5 1 1.0 1.0 0.0 0.5 0.0\n")
    with pytest.raises(FresnelParseError, match="positive integers"):
        load_fresnel(path, 1.0)


@pytest.mark.parametrize("line", ["inf 1 5 1 1 1 1", "nan 1 5 1 1 1 1", "1 1 1.0 1.0 nan 0.5 0.0",
                                  "1 1 1.0 1.0 0.0 -inf 0.0"])
def test_nonfinite_column_rejected_naming_the_line(tmp_path, line):
    path = _write(tmp_path, MINIMAL + line + "\n")
    with pytest.raises(FresnelParseError, match="line 5: nonfinite value"):
        load_fresnel(path, 1.0)


def test_duplicate_record_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL + "1 1 1.0 2.0 0.0 0.5 0.0\n")
    with pytest.raises(FresnelParseError, match="duplicate"):
        load_fresnel(path, 1.0)


def test_empty_file_rejected(tmp_path):
    path = _write(tmp_path, "# nothing but comments\n")
    with pytest.raises(FresnelParseError, match="no data records"):
        load_fresnel(path, 1.0)


def test_zero_scattered_rejected(tmp_path):
    text = MINIMAL.replace("1.0 0.0 0.5 0.0", "0.5 0.0 0.5 0.0")
    text = text.replace("1.0 1.0 0.25 0.0", "0.25 0.0 0.25 0.0")
    with pytest.raises(FresnelError, match="identically zero"):
        load_fresnel(_write(tmp_path, text), 1.0)


def test_missing_frequency_lists_present_ones(tmp_path):
    path = _write(tmp_path, MINIMAL)
    with pytest.raises(MissingFrequencyError, match="file has: 1 GHz"):
        load_fresnel(path, 9.0)


def test_frequency_slice_selection(tmp_path):
    two = MINIMAL + MINIMAL.replace(" 1.0 ", " 2.0 ", 1).replace("\n1 2 1.0", "\n1 2 2.0") \
                           .replace("\n2 1 1.0", "\n2 1 2.0").replace("\n2 2 1.0", "\n2 2 2.0")
    ds = load_fresnel(_write(tmp_path, two), 2.0)
    assert ds.frequency == 2e9
    assert ds.frequencies == (1e9, 2e9)
    assert ds.mask.sum() == 4


def test_ghz_and_hz_requests_agree(foamdiel_file):
    a = load_fresnel(foamdiel_file, 5.0)
    b = load_fresnel(foamdiel_file, 5e9)
    assert np.array_equal(a.total, b.total)
    assert np.array_equal(a.calibration, b.calibration)


# ----------------------------------------------------------------------
# Synthetic generator and calibration


def test_synthetic_file_layout(foamdiel_file):
    ds = load_fresnel(foamdiel_file, 5.0)
    assert ds.n_tx == 8
    assert ds.n_rx == 360                       # arcs of 8 transmitters cover the ring
    assert np.array_equal(ds.rx_angles_deg, np.arange(360.0))
    assert np.array_equal(ds.mask.sum(axis=1), np.full(8, 241))


def test_calibration_recovers_line_source_everywhere(foamdiel_file):
    """The per-transmitter ratio must map measured incident fields onto the
    unit line-source model at every receiver, not just the calibration one."""
    ds = load_fresnel(foamdiel_file, 5.0)
    arr = ds.array()
    k0 = 2.0 * np.pi * ds.frequency / 299792458.0
    d = np.linalg.norm(arr.rx_positions[None, :, :] - arr.tx_positions[:, None, :],
                       axis=-1)
    model = 0.25j * hankel1(0, np.where(d > 0, k0 * d, 1.0))
    lhs = ds.calibration[:, None] * ds.incident
    err = np.abs(lhs - model)[ds.mask] / np.abs(model)[ds.mask]
    assert err.max() < 1e-10


def test_synthetic_file_matches_a_simulation_at_its_read_geometry(tmp_path):
    """With a fractional arc step (100 receivers over 240 degrees), every
    written field belongs to the receiver angle the reader assigns it."""
    from pdfisp.forward import simulate

    path = tmp_path / "frac.exp"
    write_synthetic_foamdiel(path, frequency=2e9, n_tx=4, n_rx_per_tx=100, gen_cells=32)
    ds = load_fresnel(path, 2.0)
    assert np.array_equal(ds.mask.sum(axis=1), np.full(4, 100))
    cfg = fresnel_config(ds, m1=32, m2=32)
    want = simulate(cfg, foamdiel_scene(), array=ds.array()).data.matrix[ds.mask]
    got = ds.scattered().matrix[ds.mask]
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_scattered_is_zero_outside_mask(foamdiel_file):
    ds = load_fresnel(foamdiel_file, 5.0)
    sca = ds.scattered()
    assert sca.mask is not ds.mask
    assert np.array_equal(sca.mask, ds.mask)
    assert not sca.matrix[~sca.mask].any()
    assert np.abs(sca.matrix[sca.mask]).min() > 0


def test_writer_needs_two_receivers_per_transmitter(tmp_path):
    with pytest.raises(FresnelParseError, match="got 1"):
        write_synthetic_foamdiel(tmp_path / "one.exp", n_rx_per_tx=1)
    assert not (tmp_path / "one.exp").exists()


def test_generator_is_deterministic(tmp_path):
    a = tmp_path / "a.exp"
    b = tmp_path / "b.exp"
    write_synthetic_foamdiel(a, frequency=2e9, n_tx=4, n_rx_per_tx=49, gen_cells=32)
    write_synthetic_foamdiel(b, frequency=2e9, n_tx=4, n_rx_per_tx=49, gen_cells=32)
    assert a.read_bytes() == b.read_bytes()


def test_foamdiel_scene_geometry():
    scene = foamdiel_scene()
    foam, rod = scene.shapes
    assert foam.radius == 0.040 and foam.center == (0.0, 0.0)
    assert rod.radius == 0.0155
    assert rod.center == (-0.0555, 0.0)        # rod touches the foam boundary
    assert foam.eps_r == 1.45 + 0j and rod.eps_r == 3.0 + 0j


# ----------------------------------------------------------------------
# Inversion adapter


def test_fresnel_config_defaults(foamdiel_file):
    ds = load_fresnel(foamdiel_file, 5.0)
    cfg = fresnel_config(ds)
    assert cfg.doi_side == 0.2 and cfg.m1 == cfg.m2 == 64
    assert cfg.frequency == 5e9
    assert cfg.ring_radius == 1.67
    assert (cfg.n_tx, cfg.n_rx) == (8, 360)
    small = fresnel_config(ds, m1=32, m2=32)
    assert small.m1 == 32


@pytest.mark.parametrize("field", ["frequency", "n_tx", "n_rx", "ring_radius"])
def test_reconstruct_refuses_dataset_fields(field, foamdiel_file):
    # even an override equal to the dataset's value is refused
    ds = load_fresnel(foamdiel_file, 5.0)
    with pytest.raises(ConfigError, match=field):
        fresnel_reconstruct(ds, **{field: getattr(fresnel_config(ds), field)})


def test_fresnel_reconstruct_smoke(foamdiel_file):
    ds = load_fresnel(foamdiel_file, 5.0)
    result = fresnel_reconstruct(ds, m1=16, m2=16, m_f=3, k_iters=2)
    assert result.chi_cco.values.shape == (16, 16)
    assert np.isfinite(result.final_loss.total)
    assert result.rel_error is None
