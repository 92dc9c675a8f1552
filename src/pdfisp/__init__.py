"""pdfisp: physics-driven Fourier-spectral inverse scattering in 2-D.

Reconstructs complex relative-permittivity maps from multistatic
scattered-field measurements by optimizing an untrained network over a
truncated spectral basis of the induced currents, with the governing
integral equations as the only supervision. Ships its own method-of-moments
forward solver, an experiment harness, and a loader for bench measurements.
"""
from .config import (ConfigError, ImagingConfig, config_from_dict,
                     config_hash, config_to_dict, load_config, save_config)
from .forward import (FieldSet, GeometryError, NoConvergenceError, ScatteredData,
                      SimulationResult, add_awgn, build_greens, incident_fields,
                      simulate, solve_total_field, synthesize_scattered)
from .geometry import AntennaArray, ComplexGrid, GridGeometry, build_array, build_grid, perturb_array
from .reconstruct import ReconstructionResult, count_components, reconstruct, relative_error
from .scenes import Scene, SceneError, Shape, builtin_scene, load_scene, rasterize, resolve_scene, save_scene
from .spectral import SpectralBasis

__version__ = "0.1.0"

__all__ = [
    "AntennaArray", "ComplexGrid", "ConfigError", "FieldSet",
    "GeometryError", "GridGeometry", "ImagingConfig", "NoConvergenceError",
    "ReconstructionResult", "ScatteredData", "Scene", "SceneError", "Shape",
    "SimulationResult", "SpectralBasis", "add_awgn", "build_array", "build_greens",
    "build_grid", "builtin_scene", "config_from_dict", "config_hash",
    "config_to_dict", "count_components", "incident_fields", "load_config",
    "load_scene", "perturb_array", "rasterize", "reconstruct", "relative_error",
    "resolve_scene", "save_config", "save_scene", "simulate", "solve_total_field",
    "synthesize_scattered", "__version__",
]
