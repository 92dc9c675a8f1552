"""Forward model: operator assembly, FFT application, solves, and noise."""
import numpy as np
import pytest
from scipy import special as sp

import oracles
from pdfisp import forward
from pdfisp.config import ImagingConfig
from pdfisp.forward import (FieldSet, GeometryError, NoConvergenceError, ScatteredData, add_awgn,
                            apply_gd, apply_gs_adjoint, build_greens,
                            dense_gd_matrix, incident_fields, simulate,
                            solve_total_field, synthesize_scattered)
from pdfisp.geometry import ComplexGrid, build_array, build_grid
from pdfisp.scenes import Scene, Shape, builtin_scene, rasterize


def _setup(m1=12, m2=12, n_tx=6, n_rx=6, **kw):
    cfg = ImagingConfig(m1=m1, m2=m2, m_f=3, n_tx=n_tx, n_rx=n_rx, **kw).validate()
    grid = build_grid(cfg)
    arr = build_array(cfg)
    ops = build_greens(cfg, arr, grid)
    return cfg, grid, arr, ops


# ----------------------------------------------------------------------
# Operator assembly against the first-principles dense matrices


def test_domain_operator_matches_reference_matrix():
    cfg, grid, _, ops = _setup()
    got = dense_gd_matrix(ops)
    want = oracles.dense_domain_greens(cfg.wavenumber, grid.centers, grid.cell_size)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-12


def test_domain_operator_matches_reference_matrix_on_a_rectangular_grid():
    # row and column displacements index the unwrapped kernel separately
    cfg, grid, _, ops = _setup(m1=12, m2=20)
    got = dense_gd_matrix(ops)
    want = oracles.dense_domain_greens(cfg.wavenumber, grid.centers, grid.cell_size)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-12


def test_measurement_operator_matches_reference_matrix():
    cfg, grid, arr, ops = _setup()
    want = oracles.dense_measurement_greens(cfg.wavenumber, grid.centers,
                                            grid.cell_size, arr.rx_positions)
    assert np.abs(ops.gs_matrix - want).max() / np.abs(want).max() < 1e-12


def test_fft_application_equals_dense_matvec():
    cfg, grid, _, ops = _setup(m1=12, m2=10)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 12, 10)) + 1j * rng.standard_normal((4, 12, 10))
    dense = oracles.dense_domain_greens(cfg.wavenumber, grid.centers, grid.cell_size)
    want = (x.reshape(4, -1) @ dense.T).reshape(4, 12, 10)
    got = apply_gd(ops, x)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-10


def test_adjoint_inner_product_identities():
    cfg, grid, arr, ops = _setup()
    rng = np.random.default_rng(1)
    rows = rng.standard_normal(arr.n_rx) + 1j * rng.standard_normal(arr.n_rx)
    j = rng.standard_normal(144) + 1j * rng.standard_normal(144)
    lhs = np.vdot(rows, ops.gs_matrix @ j)
    rhs = np.vdot(apply_gs_adjoint(ops, rows).ravel(), j)
    assert abs(lhs - rhs) / abs(lhs) < 1e-12


def test_antenna_too_close_to_grid_rejected():
    # wide rectangular grid whose center row is y=0; the 0-degree antenna
    # lands on a cell center, inside the self-term radius of the quadrature
    cfg = ImagingConfig(m1=9, m2=31, m_f=3, n_tx=4, n_rx=4,
                        ring_radius=1.5).validate()
    grid = build_grid(cfg)
    arr = build_array(cfg)
    with pytest.raises(GeometryError):
        build_greens(cfg, arr, grid)


# ----------------------------------------------------------------------
# Incident fields and solves


def test_incident_field_is_line_source():
    cfg, grid, arr, _ = _setup()
    e = incident_fields(cfg, arr, grid)
    assert e.views.shape == (6, 12, 12)
    d = np.linalg.norm(arr.tx_positions[:, None, :] - grid.centers[None, :, :], axis=2)
    want = 0.25j * sp.hankel1(0, cfg.wavenumber * d).reshape(6, 12, 12)
    assert np.abs(e.views - want).max() / np.abs(want).max() < 1e-10


def test_dense_solve_satisfies_state_equation():
    # 12x12 = 144 cells: the support LU side of the size rule
    cfg, grid, arr, ops = _setup()
    chi = rasterize(builtin_scene("austria", 2.5, scale=0.9), grid)
    e_inc = incident_fields(cfg, arr, grid)
    e_tot = solve_total_field(chi, e_inc, ops)
    res = e_tot.views - e_inc.views - apply_gd(ops, chi.values * e_tot.views)
    rel = np.linalg.norm(res) / np.linalg.norm(e_inc.views)
    assert rel < 1e-10
    assert e_tot.residuals.max() < 1e-10


def _dense_reference(cfg, grid, chi, e_inc):
    """LU solve of the independently assembled full-grid system."""
    gd = oracles.dense_domain_greens(cfg.wavenumber, grid.centers, grid.cell_size)
    a_mat = np.eye(grid.n_cells) - gd * chi.values.ravel()[None, :]
    views = e_inc.views
    return np.linalg.solve(a_mat, views.reshape(len(views), -1).T).T.reshape(views.shape)


@pytest.fixture
def gmres_only(monkeypatch):
    # every support is above the LU limit, so the GMRES path runs
    monkeypatch.setattr(forward, "DENSE_MAX_CELLS", 0)


def test_krylov_solve_agrees_with_dense(gmres_only):
    # 40x40 = 1600 cells on the GMRES path; the reference is an LU solve of
    # the independently assembled dense system
    cfg, grid, arr, ops = _setup(m1=40, m2=40)
    chi = rasterize(builtin_scene("austria", 3.0, scale=0.9), grid)
    e_inc = incident_fields(cfg, arr, grid)
    want = _dense_reference(cfg, grid, chi, e_inc)
    krylov = solve_total_field(chi, e_inc, ops, tol=1e-10)
    assert krylov.path == "gmres"
    assert np.linalg.norm(krylov.views - want) / np.linalg.norm(want) < 1e-8
    assert krylov.residuals.max() < 1e-9


def test_gmres_solve_above_dense_limit_meets_tolerance(gmres_only):
    cfg, grid, arr, ops = _setup(m1=40, m2=40)
    chi = rasterize(builtin_scene("austria", 2.0, scale=0.9), grid)
    e_inc = incident_fields(cfg, arr, grid)
    e_tot = solve_total_field(chi, e_inc, ops, tol=1e-8)
    assert e_tot.residuals.max() < 1e-7


def test_solver_iteration_cap_raises(gmres_only):
    cfg, grid, arr, ops = _setup(m1=40, m2=40)
    chi = rasterize(builtin_scene("austria", 8.0, scale=0.9), grid)
    e_inc = incident_fields(cfg, arr, grid)
    with pytest.raises(NoConvergenceError, match=r"6 view\(s\) above tol after 2 iterations"):
        solve_total_field(chi, e_inc, ops, tol=1e-12, maxiter=2)


def test_gmres_restarts_until_the_iteration_cap(monkeypatch, gmres_only):
    # with a short restart one cycle cannot converge; the cap on iterations
    # per view, not the restart length, bounds the solve
    monkeypatch.setattr(forward, "GMRES_RESTART", 10)
    cfg, grid, arr, ops = _setup(m1=40, m2=40)
    chi = rasterize(builtin_scene("austria", 2.0, scale=0.9), grid)
    e_tot = solve_total_field(chi, incident_fields(cfg, arr, grid), ops, tol=1e-8)
    assert e_tot.residuals.max() <= 1e-8


def test_support_above_the_lu_limit_takes_gmres():
    # no patching: a full-domain square on 48x48 has 2304 support cells, more
    # than DENSE_MAX_CELLS, so the size rule itself picks GMRES
    cfg, grid, arr, ops = _setup(m1=48, m2=48)
    chi = ComplexGrid(values=np.ones((48, 48), dtype=complex), cell_size=grid.cell_size)
    assert np.count_nonzero(chi.values) > forward.DENSE_MAX_CELLS
    e_tot = solve_total_field(chi, incident_fields(cfg, arr, grid), ops, tol=1e-8)
    assert e_tot.path == "gmres"
    assert e_tot.residuals.max() <= 1e-8


@pytest.mark.slow
def test_default_eps8_solve_converges_well_inside_cap(gmres_only):
    # the strongest contrast the studies use, on the default 64x64 grid with
    # 36 views, converges to solver_tol within a tenth of the default cap
    cfg = ImagingConfig().validate()
    grid = build_grid(cfg)
    arr = build_array(cfg)
    ops = build_greens(cfg, arr, grid)
    chi = rasterize(builtin_scene("austria", 8.0), grid)
    e_tot = solve_total_field(chi, incident_fields(cfg, arr, grid), ops,
                              tol=cfg.solver_tol, maxiter=200)
    assert e_tot.residuals.max() <= cfg.solver_tol


@pytest.mark.parametrize("eps", [2.0, 8.0])
def test_support_solve_agrees_with_dense(eps):
    # 40x40: the support (austria) is a third of the grid; the reference
    # solves the independently assembled system on every cell
    cfg, grid, arr, ops = _setup(m1=40, m2=40)
    chi = rasterize(builtin_scene("austria", eps, scale=0.9), grid)
    e_inc = incident_fields(cfg, arr, grid)
    want = _dense_reference(cfg, grid, chi, e_inc)
    got = solve_total_field(chi, e_inc, ops, tol=1e-12)
    assert got.path == "support-lu"
    assert 0 < np.count_nonzero(chi.values) < grid.n_cells
    assert np.linalg.norm(got.views - want) / np.linalg.norm(want) < 1e-10
    assert got.residuals.max() <= 1e-12


def test_support_solve_of_empty_scene_is_incident_field():
    cfg, grid, arr, ops = _setup(m1=40, m2=40)
    e_inc = incident_fields(cfg, arr, grid)
    empty = ComplexGrid(values=np.zeros((40, 40), dtype=complex), cell_size=grid.cell_size)
    got = solve_total_field(empty, e_inc, ops)
    assert np.array_equal(got.views, e_inc.views)
    assert got.path == "support-lu" and got.steps == 0
    assert np.all(got.residuals == 0)


def test_gmres_and_support_solves_agree(monkeypatch):
    cfg, grid, arr, ops = _setup(m1=40, m2=40)
    chi = rasterize(builtin_scene("austria", 5.0, scale=0.9), grid)
    e_inc = incident_fields(cfg, arr, grid)
    lu = solve_total_field(chi, e_inc, ops, tol=1e-10)
    monkeypatch.setattr(forward, "DENSE_MAX_CELLS", 0)
    krylov = solve_total_field(chi, e_inc, ops, tol=1e-10)
    assert (lu.path, krylov.path) == ("support-lu", "gmres")
    assert krylov.steps > lu.steps > 0
    assert np.linalg.norm(lu.views - krylov.views) / np.linalg.norm(lu.views) < 1e-7


def test_support_solve_reports_its_residuals_and_one_gd_application_per_step(monkeypatch):
    cfg, grid, arr, ops = _setup(m1=40, m2=40)
    chi = rasterize(builtin_scene("austria", 5.0, scale=0.9), grid)
    e_inc = incident_fields(cfg, arr, grid)
    calls = []

    def counting_apply_gd(ops, x):
        calls.append(x.shape)
        return apply_gd(ops, x)

    monkeypatch.setattr(forward, "apply_gd", counting_apply_gd)
    got = solve_total_field(chi, e_inc, ops, tol=1e-12)
    assert got.path == "support-lu" and got.steps >= 1
    assert len(calls) == got.steps
    monkeypatch.undo()
    want = forward._relative_norms(
        forward._state_residual(chi.values, got.views, e_inc.views, ops), e_inc.views)
    assert got.residuals.max() <= 1e-12
    np.testing.assert_allclose(got.residuals, want, rtol=1e-12, atol=0)


def test_support_refinement_cap_raises():
    # one complex64 LU solve cannot reach 1e-14; the error names the steps
    # taken and the worst residual
    cfg, grid, arr, ops = _setup(m1=40, m2=40)
    chi = rasterize(builtin_scene("austria", 8.0, scale=0.9), grid)
    e_inc = incident_fields(cfg, arr, grid)
    with pytest.raises(NoConvergenceError,
                       match=r"6 view\(s\) above tol after 1 support LU refinement "
                             r"step\(s\) \(max residual \d\.\d{3}e-\d\d\)"):
        solve_total_field(chi, e_inc, ops, tol=1e-14, maxiter=1)


def test_support_refinement_stall_raises():
    # tol 0 is out of reach: refinement stops at rounding level, on the first
    # step that does not lower the worst residual, well before the cap
    cfg, grid, arr, ops = _setup(m1=40, m2=40)
    chi = rasterize(builtin_scene("austria", 5.0, scale=0.9), grid)
    e_inc = incident_fields(cfg, arr, grid)
    with pytest.raises(NoConvergenceError, match=r"after \d support LU refinement step"):
        solve_total_field(chi, e_inc, ops, tol=0.0, maxiter=50)


def test_shape_mismatch_rejected():
    cfg, grid, arr, ops = _setup()
    e_inc = incident_fields(cfg, arr, grid)
    bad = ComplexGrid(values=np.zeros((10, 10), dtype=complex), cell_size=grid.cell_size)
    with pytest.raises(ValueError, match=r"grid of shape \(10, 10\) .* shape \(6, 12, 12\)"):
        solve_total_field(bad, e_inc, ops)
    views = FieldSet(views=np.zeros((6, 10, 10), dtype=complex))
    with pytest.raises(ValueError, match=r"length 100 and G_S of shape \(6, 144\)"):
        synthesize_scattered(bad, views, ops)


def test_synthesize_scattered_is_projection_of_currents():
    cfg, grid, arr, ops = _setup()
    chi = rasterize(builtin_scene("austria", 2.0, scale=0.9), grid)
    e_inc = incident_fields(cfg, arr, grid)
    e_tot = solve_total_field(chi, e_inc, ops)
    data = synthesize_scattered(chi, e_tot, ops)
    want = (chi.values * e_tot.views).reshape(6, -1) @ ops.gs_matrix.T
    assert np.array_equal(data.matrix, want)


# ----------------------------------------------------------------------
# Noise injection


def test_awgn_hits_requested_snr():
    rng = np.random.default_rng(7)
    clean = ScatteredData(matrix=rng.standard_normal((36, 36))
                          + 1j * rng.standard_normal((36, 36)))
    noisy = add_awgn(clean, 10.0, np.random.default_rng(0))
    p_sig = np.vdot(clean.matrix, clean.matrix).real
    p_noise = np.vdot(noisy.matrix - clean.matrix, noisy.matrix - clean.matrix).real
    snr = 10.0 * np.log10(p_sig / p_noise)
    assert abs(snr - 10.0) < 0.5
    assert noisy.snr_db == 10.0


def test_awgn_deterministic_and_infinite_passthrough():
    m = np.ones((4, 4), dtype=complex)
    data = ScatteredData(matrix=m, mask=np.ones((4, 4)))
    a = add_awgn(data, 5.0, np.random.default_rng(3))
    b = add_awgn(data, 5.0, np.random.default_rng(3))
    assert np.array_equal(a.matrix, b.matrix)
    c = add_awgn(data, float("inf"), np.random.default_rng(3))
    assert np.array_equal(c.matrix, m)
    assert c.mask is data.mask
    for bad in (float("nan"), float("-inf")):
        with pytest.raises(ValueError, match=f"snr_db must be finite or \\+inf, got {bad}"):
            add_awgn(data, bad, np.random.default_rng(3))


def test_awgn_respects_the_mask():
    """The SNR holds over the measured entries; unmeasured ones, nonzero here,
    neither set the noise level nor get noise."""
    rng = np.random.default_rng(11)
    mask = rng.random((200, 200)) < 0.5
    clean = rng.standard_normal(mask.shape) + 1j * rng.standard_normal(mask.shape)
    clean[~mask] *= 10.0
    noisy = add_awgn(ScatteredData(matrix=clean, mask=mask), 10.0, np.random.default_rng(0))
    assert np.array_equal(noisy.matrix[~mask], clean[~mask])
    noise = (noisy.matrix - clean)[mask]
    snr = 10.0 * np.log10(np.vdot(clean[mask], clean[mask]).real / np.vdot(noise, noise).real)
    assert abs(snr - 10.0) <= 0.2


def test_mask_of_another_shape_rejected():
    with pytest.raises(ValueError, match=r"mask shape \(4, 5\).*matrix shape \(4, 6\)"):
        ScatteredData(matrix=np.ones((4, 6), dtype=complex), mask=np.ones((4, 5), dtype=bool))


def test_mask_is_a_boolean_array_all_true_by_default():
    data = ScatteredData(matrix=np.ones((3, 5), dtype=complex), mask=[[1, 0, 1, 1, 1]] * 3)
    assert data.mask.dtype == bool and data.mask.sum() == 12
    assert ScatteredData(matrix=np.ones((3, 5))).mask.all()


# ----------------------------------------------------------------------
# One-call simulation


def test_simulate_returns_truth_on_inversion_grid():
    cfg = ImagingConfig(m1=16, m2=16, m_f=3, n_tx=8, n_rx=8).validate()
    sim = simulate(cfg, builtin_scene("austria", 2.0, scale=0.9))
    assert sim.chi_true.values.shape == (16, 16)
    assert sim.data.matrix.shape == (8, 8)
    assert sim.solver_path == "support-lu" and sim.solver_steps >= 1
    assert sim.solver_residuals.shape == (8,) and sim.solver_residuals.max() <= cfg.solver_tol


def test_fine_forward_leaves_truth_coarse_but_changes_data():
    cfg = ImagingConfig(m1=16, m2=16, m_f=3, n_tx=8, n_rx=8).validate()
    scene = builtin_scene("austria", 2.0, scale=0.9)
    coarse = simulate(cfg, scene)
    from dataclasses import replace
    fine = simulate(replace(cfg, fine_forward=True), scene)
    assert fine.chi_true.values.shape == (16, 16)
    assert np.array_equal(fine.chi_true.values, coarse.chi_true.values)
    num = np.linalg.norm(fine.data.matrix - coarse.data.matrix)
    den = np.linalg.norm(coarse.data.matrix)
    assert 1e-4 < num / den < 0.3      # off-grid data, same physics


def test_simulate_reads_only_the_simulate_fields():
    """Studies share one clean dataset between configs that agree on
    SIMULATE_FIELDS, so no other field may change the noise-free data."""
    import dataclasses

    cfg = ImagingConfig(m1=16, m2=16, m_f=3, n_tx=8, n_rx=8).validate()
    scene = builtin_scene("austria", 2.0, scale=0.9)
    base = simulate(cfg, scene).data.matrix
    names = {f.name for f in dataclasses.fields(cfg)}
    assert set(forward.SIMULATE_FIELDS) <= names
    others = sorted(names - set(forward.SIMULATE_FIELDS))
    assert {"beta", "m_f", "k_iters", "rng_seed", "use_cco"} <= set(others)
    for name in others:
        value = getattr(cfg, name)
        if isinstance(value, bool):
            changed = not value
        elif isinstance(value, int):
            changed = value + 1
        else:
            changed = 2 * value
        data = simulate(dataclasses.replace(cfg, **{name: changed}), scene).data.matrix
        assert np.array_equal(data, base), name


def test_scattered_disk_matches_series_solution_small():
    # quick qualitative twin of the full-scale fidelity criterion
    cfg = ImagingConfig(m1=32, m2=32, m_f=7).validate()
    scene = Scene(shapes=(Shape(kind="disk", eps_r=2.0, center=(0.0, 0.0), radius=0.3),))
    sim = simulate(cfg, scene)
    arr = build_array(cfg)
    n_in = int(np.count_nonzero(sim.chi_true.values.real > 0.5))
    a_eq = build_grid(cfg).cell_size * np.sqrt(n_in / np.pi)
    want = oracles.cylinder_scattered(cfg.wavenumber, 2.0, a_eq,
                                      arr.tx_positions, arr.rx_positions)
    rel = np.linalg.norm(sim.data.matrix - want) / np.linalg.norm(want)
    assert rel < 0.05


# ----------------------------------------------------------------------
# Import cost


def test_entry_modules_load_no_scipy_solver_package():
    """`forward` imports scipy.linalg and scipy.sparse inside the solves that
    use them, because loading them adds tens of milliseconds to every
    `import pdfisp` and CLI start. A fresh interpreter checks it, since this
    one has loaded both."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import pdfisp

    code = ("import importlib, sys\n"
            "for name in ('pdfisp', 'pdfisp.cli', 'pdfisp.studies'):\n"
            "    importlib.import_module(name)\n"
            "    print(name, sorted({'scipy.linalg', 'scipy.sparse'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(pdfisp.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.splitlines() == ["pdfisp []", "pdfisp.cli []", "pdfisp.studies []"]
