"""Initialization, the reference descent baseline, metrics, and the main loop."""
import importlib
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from pdfisp.config import ImagingConfig
from pdfisp.forward import ScatteredData, add_awgn, simulate
from pdfisp.losses import loss_total
from pdfisp.reconstruct import (NOISE_FREE_TAIL_ENERGY, NOISY_TAIL_ENERGY, CsiObjective,
                                Problem, bp_initialize, count_components, csi_descent, init_alpha,
                                principal_views, reconstruct, relative_error, result_metrics,
                                spurious_gap_pixels)
from pdfisp.scenes import builtin_scene


def _objective(setup, sim):
    _, r0 = bp_initialize(sim.data, setup.e_inc, setup.ops, setup.config.beta)
    return CsiObjective(r0=r0, e_inc=setup.e_inc.views, data=sim.data,
                        ops=setup.ops, basis=setup.basis, beta=setup.config.beta)


def test_backprojection_shapes_and_zero_data(tiny_setup, tiny_sim):
    chi0, r0 = bp_initialize(tiny_sim.data, tiny_setup.e_inc, tiny_setup.ops, 6.0)
    assert chi0.shape == r0.shape == (16, 16)
    assert np.isfinite(chi0).all()

    zero = ScatteredData(matrix=np.zeros_like(tiny_sim.data.matrix))
    chi0z, r0z = bp_initialize(zero, tiny_setup.e_inc, tiny_setup.ops, 6.0)
    assert not chi0z.any() and not r0z.any()


def test_frozen_objective_gradient_by_finite_differences(tiny_setup, tiny_sim):
    import oracles

    obj = _objective(tiny_setup, tiny_sim)
    rng = np.random.default_rng(0)
    n, m0 = 8, tiny_setup.basis.m0
    alpha = 0.1 * (rng.standard_normal((n, m0)) + 1j * rng.standard_normal((n, m0)))
    g = obj.grad(alpha)
    flat = np.concatenate([alpha.real.ravel(), alpha.imag.ravel()])

    def f(v):
        half = v.size // 2
        a = (v[:half] + 1j * v[half:]).reshape(n, m0)
        return sum(obj.value_parts(a))

    idx = rng.choice(flat.size, size=16, replace=False)
    fd = oracles.central_diff(f, flat, idx, h=1e-6)
    gflat = np.concatenate([g.real.ravel(), g.imag.ravel()])
    rel = np.abs(fd - gflat[idx]) / np.maximum(np.abs(fd), 1e-12)
    assert rel.max() < 1e-5


def test_exact_step_minimizes_along_gradient(tiny_setup, tiny_sim):
    """The closed-form step must be the parabola vertex of the objective
    restricted to the gradient ray."""
    obj = _objective(tiny_setup, tiny_sim)
    alpha = np.zeros((8, tiny_setup.basis.m0), dtype=complex)
    g = obj.grad(alpha)
    t = obj.exact_step(g)
    assert t > 0

    def f(tt):
        return sum(obj.value_parts(alpha - tt * g))

    # three-point parabola through the ray recovers the same vertex
    ts = np.array([0.0, t, 2.0 * t])
    vals = np.array([f(x) for x in ts])
    coef = np.polyfit(ts, vals, 2)
    vertex = -coef[1] / (2.0 * coef[0])
    assert vertex == pytest.approx(t, rel=1e-8)
    assert f(t) < f(0.5 * t) and f(t) < f(1.5 * t)


def test_init_alpha_is_one_exact_step(tiny_setup, tiny_sim):
    obj = _objective(tiny_setup, tiny_sim)
    _, r0 = bp_initialize(tiny_sim.data, tiny_setup.e_inc, tiny_setup.ops, 6.0)
    alpha0 = init_alpha(r0, tiny_sim.data, tiny_setup.e_inc, tiny_setup.ops,
                        tiny_setup.basis, 6.0)
    zero = np.zeros_like(alpha0)
    g = obj.grad(zero)
    t = obj.exact_step(g)
    assert np.abs(alpha0 - (-t * g)).max() < 1e-14
    assert sum(obj.value_parts(alpha0)) < sum(obj.value_parts(zero))


def test_descent_baseline_decreases_and_reports(tiny_setup, tiny_sim):
    obj = _objective(tiny_setup, tiny_sim)
    start = obj.value_parts(np.zeros((8, tiny_setup.basis.m0), dtype=complex))
    out = csi_descent(obj, n_views=8, target_data_loss=0.0, time_limit=0.5)
    assert out["iters"] > 0
    assert out["data_loss"] < start[1]
    assert not out["reached"]

    quick = csi_descent(obj, n_views=8, target_data_loss=10.0, time_limit=0.5)
    assert quick["reached"] and quick["iters"] == 0


def test_descent_stops_once_converged(tiny_setup, tiny_sim):
    """An unreachable target: the descent returns by convergence well
    before its time limit, at the exact minimum of the quadratic."""
    obj = _objective(tiny_setup, tiny_sim)
    out = csi_descent(obj, n_views=8, target_data_loss=0.0, time_limit=20.0)
    assert not out["reached"] and out["elapsed"] < 10.0

    # per view, least squares on the stacked normalized residuals, the state
    # part formed explicitly with the dense domain operator
    import oracles
    from pdfisp.spectral import expand

    ctx, n, m0 = obj.ctx, 8, tiny_setup.basis.m0
    setup = tiny_setup
    gd = oracles.dense_domain_greens(setup.config.wavenumber, setup.grid.centers,
                                     setup.grid.cell_size)
    e_inc = setup.e_inc.views.reshape(n, -1)

    def stacked(alpha, homogeneous):
        j = expand(setup.basis, alpha).reshape(n, -1)
        state = oracles.state_residuals(j, 0.0 if homogeneous else e_inc, gd,
                                        obj.r0.ravel(), obj.beta)
        data = ctx.data.masked(ctx.maps.measure(alpha) - (0.0 if homogeneous else ctx.data.matrix))
        return np.concatenate([state / np.sqrt(ctx.c_inc), data / np.sqrt(ctx.c_sca)], axis=1)

    a = np.stack([stacked(np.tile(e, (n, 1)), True) for e in np.eye(m0)], axis=-1)
    b = stacked(np.zeros((n, m0)), False)
    best = np.stack([np.linalg.lstsq(a[v], -b[v], rcond=None)[0] for v in range(n)])
    state, data = obj.value_parts(best)
    assert out["state_loss"] + out["data_loss"] == pytest.approx(state + data, rel=1e-12)
    assert out["data_loss"] == pytest.approx(data, rel=1e-10)


# ----------------------------------------------------------------------
# Metrics


def test_relative_error_basic():
    a = np.full((4, 4), 2.0)
    b = np.full((4, 4), 1.0)
    assert relative_error(a, b) == pytest.approx(1.0)
    assert relative_error(b, b) == 0.0


def test_count_components_four_connectivity():
    img = np.zeros((6, 6))
    img[1, 1] = img[2, 2] = 2.0          # diagonal touch: two components
    img[4, 4] = img[4, 5] = 2.0          # edge touch: one component
    assert count_components(img, 1.5) == 3


@pytest.mark.slow
def test_bridge_term_separates_the_eps2_scatterers(default_config, austria2_sim,
                                                   austria2_recon):
    # at eps 2 the bridge term keeps the two disks apart from the annulus;
    # without it the map merges into fewer components and fills the gaps
    # between the true scatterers
    no_bridge = reconstruct(replace(default_config, lambda3=0.0), austria2_sim.data,
                            chi_true=austria2_sim.chi_true)
    truth = austria2_sim.chi_true.values
    with_eps, without_eps = austria2_recon.eps_r.real, no_bridge.eps_r.real
    assert count_components(without_eps, 1.5) < count_components(with_eps, 1.5)
    assert spurious_gap_pixels(without_eps, truth) > spurious_gap_pixels(with_eps, truth)


# ----------------------------------------------------------------------
# Main loop


@pytest.fixture(scope="module")
def quick_cfg():
    return ImagingConfig(m1=16, m2=16, m_f=3, n_tx=8, n_rx=8, k_iters=5).validate()


def test_reconstruct_end_to_end_smoke(quick_cfg, tiny_sim):
    result = reconstruct(quick_cfg, tiny_sim.data, chi_true=tiny_sim.chi_true)
    assert result.chi_cco.values.shape == (16, 16)
    assert len(result.trace) == 5
    assert np.isfinite(result.final_loss.total)
    assert result.rel_error is not None and result.rel_error < 2.0
    assert result.wall_time > 0
    assert result.n_views == 8            # the 16x16 data are full rank
    assert np.array_equal(result.eps_r, result.chi_cco.values + 1.0)
    # loss must move from the first recorded iterate
    assert result.trace[-1].total != result.trace[0].total


def test_reconstruct_is_deterministic(quick_cfg, tiny_sim):
    a = reconstruct(quick_cfg, tiny_sim.data)
    b = reconstruct(quick_cfg, tiny_sim.data)
    assert np.array_equal(a.chi_cco.values, b.chi_cco.values)
    assert a.final_loss.total == b.final_loss.total


def test_reconstruct_seed_changes_solution(quick_cfg, tiny_sim):
    a = reconstruct(quick_cfg, tiny_sim.data)
    b = reconstruct(replace(quick_cfg, rng_seed=1), tiny_sim.data)
    assert not np.array_equal(a.chi_cco.values, b.chi_cco.values)


def test_reconstruct_without_truth_has_no_error(quick_cfg, tiny_sim):
    result = reconstruct(quick_cfg, tiny_sim.data)
    assert result.rel_error is None
    assert result.config is quick_cfg and result.chi_true is None
    metrics = result_metrics(result)
    assert metrics["rel_error"] is None and metrics["gap_spurious"] is None


def test_result_is_the_record_of_its_run(quick_cfg, tiny_sim):
    # the result keeps the config and the truth it ran with, and its
    # truth-based numbers are read against that truth alone
    truth = tiny_sim.chi_true
    result = reconstruct(quick_cfg, tiny_sim.data, chi_true=truth)
    assert result.config is quick_cfg and result.chi_true is truth
    want = relative_error(result.chi_cco.values.real + 1.0, truth.values.real + 1.0)
    assert np.float64(result.rel_error).tobytes() == np.float64(want).tobytes()
    metrics = result_metrics(result)
    assert metrics["rel_error"] == want
    assert metrics["gap_spurious"] == spurious_gap_pixels(result.eps_r.real, truth.values)


def test_reconstruct_rejects_mismatched_data(quick_cfg):
    bad = ScatteredData(matrix=np.ones((5, 8), dtype=complex))
    with pytest.raises(ValueError, match=r"shape \(5, 8\) .* 8 transmitters and 8 receivers"):
        reconstruct(quick_cfg, bad)


def test_modeling_switches_run(quick_cfg, tiny_sim):
    plain = reconstruct(replace(quick_cfg, use_cco=False), tiny_sim.data)
    assert np.array_equal(plain.chi_cco.values, plain.chi_hat.values)


def test_reconstruct_with_custom_array(quick_cfg):
    from pdfisp.geometry import build_array, perturb_array

    scene = builtin_scene("austria", 2.0, scale=0.9)
    nominal = build_array(quick_cfg)
    true_arr = perturb_array(nominal, 1e-3, np.random.default_rng(0))
    sim = simulate(quick_cfg, scene, array=true_arr)
    result = reconstruct(quick_cfg, sim.data, array=nominal, chi_true=sim.chi_true)
    assert np.isfinite(result.final_loss.total)


# ----------------------------------------------------------------------
# Principal views


def test_view_rotation_leaves_the_loss_unchanged(tiny_setup, tiny_sim, tiny_ctx):
    """Every view mixed by U^H (data rows, incident fields, coefficients):
    the composite loss is the same, at the start and at a perturbed point."""
    u, _, _ = np.linalg.svd(tiny_sim.data.matrix)
    uh = u.conj().T
    e_inc = tiny_setup.e_inc.views
    rotated = tiny_setup.loss_context(ScatteredData(matrix=uh @ tiny_sim.data.matrix),
                                      np.einsum("kn,nij->kij", uh, e_inc))
    _, r0 = bp_initialize(tiny_sim.data, tiny_setup.e_inc, tiny_setup.ops, 6.0)
    alpha0 = init_alpha(r0, tiny_sim.data, tiny_setup.e_inc, tiny_setup.ops,
                        tiny_setup.basis, 6.0)
    rng = np.random.default_rng(0)
    bumped = alpha0 * (1.0 + 0.3 * rng.standard_normal(alpha0.shape))
    for alpha in (alpha0, bumped):
        plain, mixed = loss_total(alpha, tiny_ctx), loss_total(uh @ alpha, rotated)
        assert mixed.total == pytest.approx(plain.total, rel=1e-12)
        # the view sums are summed in another order, and the per-pixel
        # contrast divides by them: single terms agree to a few 1e-12
        for term in ("state", "data", "bound", "tv", "bridge"):
            assert getattr(mixed, term) == pytest.approx(getattr(plain, term), rel=1e-11), term


def _check_shared_mix(datasets, e_inc, q, share):
    """The kept views of every dataset in datasets are q rows of one mix of
    the geometry: orthonormal, dropping at most share of the incident
    energy, with balanced row energies."""
    alpha0 = np.eye(36, dtype=complex)      # the helper hands back its view mix
    runs = [principal_views(data, e_inc, alpha0) for data in datasets]
    fields, mix = runs[0][1:]
    for data, (views, data_fields, data_mix) in zip(datasets, runs):
        assert views.matrix.shape == (q, 36) and views.mask.all()
        assert views.snr_db == data.snr_db
        assert np.array_equal(views.matrix, mix @ data.matrix)
        assert np.array_equal(data_fields, fields) and np.array_equal(data_mix, mix)
        # the kept rows look like views: comparable energies (the rows of
        # U^H span decades), as the physical rows have
        energy = np.sum(np.abs(views.matrix) ** 2, axis=1)
        assert energy.min() > 0.5 * energy.max(), data.snr_db
    assert fields.shape == (q, 64, 64)
    assert np.abs(mix @ mix.conj().T - np.eye(q)).max() < 1e-12
    dropped = 1.0 - np.linalg.norm(fields) ** 2 / np.linalg.norm(e_inc) ** 2
    assert 0.0 <= dropped <= share


def test_principal_views_of_noise_free_data(default_setup, austria2_sim):
    """Noise-free data of any contrast run on 17 of the default ring's 36
    incident-field principal views, by one mix of the geometry that drops
    at most NOISE_FREE_TAIL_ENERGY of the incident energy."""
    eps5 = simulate(default_setup.config, builtin_scene("austria", 5.0)).data
    _check_shared_mix([austria2_sim.data, eps5], default_setup.e_inc.views, 17,
                      NOISE_FREE_TAIL_ENERGY)


def test_principal_views_of_noisy_and_masked_data(default_setup, austria2_sim, tiny_setup,
                                                  tiny_sim):
    """Noisy data of any draw run on 21 of the default ring's incident-field
    principal views, by one mix of the geometry that drops at most
    NOISY_TAIL_ENERGY of the incident energy. A mix does not keep a partial
    mask, so masked data come back as the very inputs. The 16x16
    eight-antenna incident fields need all 8 views, so data there come back
    as the very inputs too."""
    e_inc = default_setup.e_inc.views
    clean = austria2_sim.data
    noisy = [add_awgn(clean, snr, np.random.default_rng(seed))
             for seed, snr in enumerate((60.0, 10.0, 1.0))]
    _check_shared_mix(noisy, e_inc, 21, NOISY_TAIL_ENERGY)

    alpha0 = np.eye(36, dtype=complex)
    mask = np.ones(clean.matrix.shape, bool)
    mask[:, :6] = False
    masked = ScatteredData(matrix=clean.matrix, mask=mask)
    out = principal_views(masked, e_inc, alpha0)
    assert out[0] is masked and out[1] is e_inc and out[2] is alpha0

    tiny_e_inc = tiny_setup.e_inc.views
    tiny_alpha0 = np.ones((8, tiny_setup.basis.m0), dtype=complex)
    for data in (tiny_sim.data, add_awgn(tiny_sim.data, 10.0, np.random.default_rng(0))):
        out = principal_views(data, tiny_e_inc, tiny_alpha0)
        assert out[0] is data and out[1] is tiny_e_inc and out[2] is tiny_alpha0


# the share of the clean austria data's energy outside the default ring's 17
# noise-free principal views, measured, by (eps, fine_forward)
CLEAN_DATA_TAIL = {(2.0, False): 5.5e-4, (5.0, False): 1.46e-3, (8.0, False): 6.5e-4,
                   (2.0, True): 5.7e-4}


@pytest.mark.parametrize("eps, fine", [
    (2.0, False), (5.0, False), (8.0, False),
    pytest.param(2.0, True, marks=pytest.mark.slow, id="2.0-fine_forward")])
def test_incident_views_hold_the_clean_data(default_config, default_setup, austria2_sim,
                                            eps, fine):
    """The premise of the view rule: clean data are linear in the incident
    fields, so the incident fields' principal views hold nearly all of the
    clean data's energy: all but at most NOISY_TAIL_ENERGY in the 21 views
    of noisy data, and all but their measured share in the 17 views of
    noise-free data. That holds off the inverse crime too: data simulated
    on the 2x finer grid (fine_forward) against the views of the coarse
    grid's incident fields."""
    e_inc = default_setup.e_inc.views
    noisy = add_awgn(austria2_sim.data, 10.0, np.random.default_rng(0))
    cfg = replace(default_config, fine_forward=fine)
    clean = simulate(cfg, builtin_scene("austria", eps)).data.matrix
    for data, share in ((noisy, NOISY_TAIL_ENERGY),
                        (austria2_sim.data, CLEAN_DATA_TAIL[eps, fine])):
        _, _, mix = principal_views(data, e_inc, np.eye(36))
        kept = np.linalg.norm(mix @ clean) ** 2 / np.linalg.norm(clean) ** 2
        assert 1.0 - share <= kept <= 1.0 + 1e-12, mix.shape


def test_nonfinite_data_rejected_before_the_view_rule(quick_cfg, tiny_sim, monkeypatch):
    def unreachable(*args):
        raise AssertionError("principal_views ran on nonfinite data")

    # the package exports the function `reconstruct` under the module's name
    monkeypatch.setattr(importlib.import_module("pdfisp.reconstruct"), "principal_views",
                        unreachable)
    matrix = tiny_sim.data.matrix.copy()
    matrix[2, 3] = np.inf
    with pytest.raises(ValueError, match="nonfinite entries: 1, in 1 of 8 rows"):
        reconstruct(quick_cfg, ScatteredData(matrix=matrix))


@pytest.mark.slow
def test_default_reconstruction_runs_on_principal_views(austria2_recon):
    assert austria2_recon.n_views == 17


# ----------------------------------------------------------------------
# One Problem per geometry


@pytest.mark.parametrize("change", [{"lambda3": 0.0}, {"beta": 4.0}, {"use_cco": False}])
def test_warm_cache_run_equals_cold_run(quick_cfg, tiny_sim, operator_builds, change):
    """A cached geometry carries the caller's config, not the first caller's."""
    cfg = replace(quick_cfg, **change)
    cold = reconstruct(cfg, tiny_sim.data, chi_true=tiny_sim.chi_true)
    Problem._cache.clear()
    reconstruct(quick_cfg, tiny_sim.data)
    warm = reconstruct(cfg, tiny_sim.data, chi_true=tiny_sim.chi_true)
    assert len(operator_builds) == 2        # the cold run and the warm-up only
    assert np.array_equal(warm.chi_cco.values, cold.chi_cco.values)
    assert np.array_equal(warm.chi_hat.values, cold.chi_hat.values)
    assert warm.final_loss == cold.final_loss
    assert warm.rel_error == cold.rel_error


@pytest.mark.parametrize("change", ["m_f", "frequency", "antenna"])
def test_geometry_change_rebuilds(quick_cfg, operator_builds, change):
    from pdfisp.geometry import AntennaArray, build_array

    array = build_array(quick_cfg)
    first = Problem.build(quick_cfg)
    same = AntennaArray(array.tx_positions.copy(), array.rx_positions.copy())
    assert Problem.build(replace(quick_cfg, k_iters=7), same).maps is first.maps
    assert len(operator_builds) == 1

    cfg = quick_cfg
    if change == "m_f":
        cfg = replace(cfg, m_f=2)
    elif change == "frequency":
        cfg = replace(cfg, frequency=2 * cfg.frequency)
    else:
        rx = array.rx_positions.copy()
        rx[3, 0] += 1e-4
        array = AntennaArray(array.tx_positions, rx)
    rebuilt = Problem.build(cfg, array)
    assert len(operator_builds) == 2 and rebuilt.maps is not first.maps
    assert len(Problem._cache) == 1         # only the last geometry is kept


def test_cached_arrays_are_read_only(tiny_setup):
    p = tiny_setup
    for arr in (p.array.tx_positions, p.array.rx_positions, p.grid.centers,
                p.ops.gd_kernel, p.ops.gd_kernel_hat, p.ops.gs_matrix, p.e_inc.views,
                p.basis.row_factor, p.basis.col_factor, p.maps.fields, p.maps.receivers):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    with pytest.raises(FrozenInstanceError):
        p.e_inc.views = np.zeros_like(p.e_inc.views)
