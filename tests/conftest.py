"""Shared fixtures.

The heavy objects (default-scale simulations and reconstructions, ablation
studies) are session-scoped because several acceptance criteria and module
tests read the same runs; building them once keeps the suite inside its
wall-clock budget on a single core. The `*_setup` fixtures are
`reconstruct.Problem`s: the geometry, operators, incident fields, basis and
coefficient-space maps of one config, as `reconstruct` builds them.
"""
import pytest

from pdfisp.config import ImagingConfig
from pdfisp.forward import simulate
from pdfisp.reconstruct import Problem, reconstruct
from pdfisp.scenes import builtin_scene
from pdfisp.studies import StudySpec, run_ablation


# ----------------------------------------------------------------------
# Small problems for module-level checks


@pytest.fixture(scope="session")
def tiny_setup():
    cfg = ImagingConfig(m1=16, m2=16, m_f=3, n_tx=8, n_rx=8).validate()
    return Problem.build(cfg)


@pytest.fixture(scope="session")
def tiny_sim(tiny_setup):
    scene = builtin_scene("austria", 2.0, scale=0.9)
    return simulate(tiny_setup.config, scene)


@pytest.fixture(scope="session")
def tiny_ctx(tiny_setup, tiny_sim):
    return tiny_setup.loss_context(tiny_sim.data)


@pytest.fixture(scope="session")
def pole_alpha(tiny_setup, tiny_sim):
    """Coefficients whose least-squares contrast crosses the CIE pole.

    Spectral coefficients of the Born currents chi*E_inc for contrast -0.5
    on the scene support: the recovered contrast falls below -1/beta on
    dozens of pixels, where the unclamped map would give |R| > 1.
    """
    from pdfisp.spectral import truncate

    chi = -0.5 * (abs(tiny_sim.chi_true.values) > 0)
    return truncate(tiny_setup.basis, chi * tiny_setup.e_inc.views)


@pytest.fixture
def operator_builds(monkeypatch):
    """Start from an empty `Problem` cache and count `SpectralOperators.build` calls."""
    from pdfisp.spectral import SpectralOperators

    monkeypatch.setattr(Problem, "_cache", {})
    calls = []
    build = SpectralOperators.build.__func__

    def counted(cls, *args, **kwargs):
        calls.append(1)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(SpectralOperators, "build", classmethod(counted))
    return calls


# ----------------------------------------------------------------------
# Default-scale runs shared by the acceptance criteria


@pytest.fixture(scope="session")
def default_config():
    return ImagingConfig().validate()


@pytest.fixture(scope="session")
def default_setup(default_config):
    return Problem.build(default_config)


@pytest.fixture(scope="session")
def austria2_sim(default_config):
    """Noise-free default benchmark dataset (three-component scene, eps 2)."""
    return simulate(default_config, builtin_scene("austria", 2.0))


@pytest.fixture(scope="session")
def austria2_recon(default_config, austria2_sim):
    return reconstruct(default_config, austria2_sim.data,
                       chi_true=austria2_sim.chi_true)


@pytest.fixture(scope="session")
def eps5_ablation(default_config):
    """Full pipeline vs single-switch ablations, eps 5 noise-free, seed 0."""
    spec = StudySpec(config=default_config, kind="ablation", scene_eps=5.0,
                     snr_db=float("inf"), ablations=("no_cco", "no_bridge"), seed=0)
    return run_ablation(spec)


@pytest.fixture(scope="session")
def eps8_noisy_ablation(default_config):
    """Full pipeline vs the bound ablation, eps 8 at 1 dB, seed 0."""
    spec = StudySpec(config=default_config, kind="ablation", scene_eps=8.0,
                     snr_db=1.0, ablations=("no_bound",), seed=0)
    return run_ablation(spec)


# ----------------------------------------------------------------------
# Synthetic bench-style measurement file


@pytest.fixture(scope="session")
def foamdiel_file(tmp_path_factory):
    """Synthetic two-target bench file with a 5 GHz slice, written once."""
    from pdfisp.fresnel import write_synthetic_foamdiel

    path = tmp_path_factory.mktemp("fresnel") / "foamdiel_synth.exp"
    write_synthetic_foamdiel(path, frequency=5e9)
    return path
