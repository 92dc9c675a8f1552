"""Scene construction, rasterization, and the preset catalog."""
import math

import numpy as np
import pytest

from pdfisp.config import ImagingConfig
from pdfisp.geometry import build_grid
from pdfisp.reconstruct import count_components
from pdfisp.scenes import (PRESET_NAMES, Scene, SceneError, Shape, austria_preset,
                           builtin_scene, load_scene, rasterize, resolve_scene, save_scene,
                           scene_from_dict, scene_to_dict)


GRID = build_grid(ImagingConfig(m1=16, m2=16, m_f=3))


def test_disk_membership_center_rule():
    scene = Scene(shapes=(Shape(kind="disk", eps_r=2.0, center=(0.0, 0.0), radius=0.3),))
    chi = rasterize(scene, GRID).values
    d = np.hypot(*GRID.centers.T).reshape(16, 16)
    assert np.array_equal(chi.real > 0.5, d <= 0.3)
    assert np.all(chi[d <= 0.3] == 1.0 + 0.0j)


def test_disk_boundary_inclusive():
    # place the boundary exactly through a cell center
    r = float(np.hypot(*GRID.centers[0]))
    scene = Scene(shapes=(Shape(kind="disk", eps_r=3.0, center=(0.0, 0.0), radius=r),))
    chi = rasterize(scene, GRID).values
    assert chi.reshape(-1)[0] == 2.0 + 0.0j


def test_annulus_excludes_hole():
    scene = Scene(shapes=(Shape(kind="annulus", eps_r=2.0, center=(0.0, 0.0),
                                r_inner=0.25, r_outer=0.6),))
    chi = rasterize(scene, GRID).values
    d = np.hypot(*GRID.centers.T).reshape(16, 16)
    assert np.array_equal(chi.real > 0.5, (d >= 0.25) & (d <= 0.6))


def test_polygon_square():
    verts = ((-0.3, -0.3), (0.3, -0.3), (0.3, 0.3), (-0.3, 0.3))
    scene = Scene(shapes=(Shape(kind="polygon", eps_r=2.0, vertices=verts),))
    chi = rasterize(scene, GRID).values
    xy = GRID.centers.reshape(16, 16, 2)
    inside = (np.abs(xy[..., 0]) < 0.3) & (np.abs(xy[..., 1]) < 0.3)
    assert np.array_equal(chi.real > 0.5, inside)


def test_later_shapes_overwrite():
    scene = Scene(shapes=(
        Shape(kind="disk", eps_r=2.0, center=(0.0, 0.0), radius=0.5),
        Shape(kind="disk", eps_r=4.0, center=(0.0, 0.0), radius=0.2),
    ))
    chi = rasterize(scene, GRID).values
    d = np.hypot(*GRID.centers.T).reshape(16, 16)
    assert np.all(chi[d <= 0.2] == 3.0)
    assert np.all(chi[(d > 0.2) & (d <= 0.5)] == 1.0)


def test_nonphysical_permittivity_rejected():
    with pytest.raises(SceneError):
        Scene(shapes=(Shape(kind="disk", eps_r=0.5, center=(0, 0), radius=0.1),))


@pytest.mark.parametrize("eps", ["nan", "inf", "2+nanj"])
def test_nonfinite_permittivity_rejected(eps):
    with pytest.raises(SceneError, match=r"Scene\.shapes\[0\]: needs a finite eps_r"):
        resolve_scene(f"austria:{eps}")


def test_unknown_kind_rejected():
    shape = Shape(kind="blob", eps_r=2.0)
    with pytest.raises(SceneError):
        shape.contains(np.zeros((1, 2)))


def test_scene_checks_each_shape_by_index():
    disk = Shape(kind="disk", eps_r=2.0, center=(0.0, 0.0), radius=0.1)
    with pytest.raises(SceneError, match=r"shapes\[1\]: unknown shape kind 'blob'"):
        Scene(shapes=(disk, Shape(kind="blob", eps_r=2.0)))
    with pytest.raises(SceneError, match=r"shapes\[0\] \(annulus\): missing r_inner"):
        Scene(shapes=(Shape(kind="annulus", eps_r=2.0, center=(0, 0), r_outer=0.2),))
    for shape, message in [
        (Shape(kind="disk", eps_r=2.0, center=(0, 0), radius=-0.3),
         "radius must be finite and > 0"),
        (Shape(kind="disk", eps_r=2.0, center=(0, 0), radius=math.nan), "radius must be finite"),
        (Shape(kind="disk", eps_r=2.0, center=(math.nan, 0), radius=0.3), "center must be finite"),
        (Shape(kind="annulus", eps_r=2.0, center=(0, 0), r_inner=0.5, r_outer=0.2),
         "needs 0 <= r_inner < r_outer"),
        (Shape(kind="annulus", eps_r=2.0, center=(0, 0), r_inner=-0.1, r_outer=0.2),
         "needs 0 <= r_inner < r_outer"),
        (Shape(kind="polygon", eps_r=2.0, vertices=((0, 0), (1, 0))),
         "vertices must be at least 3"),
        (Shape(kind="polygon", eps_r=2.0, vertices=((0, 0), (1, 0), (0, math.inf))),
         "vertices must be finite"),
    ]:
        with pytest.raises(SceneError, match=rf"shapes\[1\] \({shape.kind}\): {message}"):
            Scene(shapes=(disk, shape))
    with pytest.raises(SceneError, match=r"Shape.kind is missing"):
        scene_from_dict({"shapes": [{"eps_r": 2.0}]})
    back = scene_from_dict({"shapes": [{"kind": "disk", "eps_r": [2, 0.5], "center": [0, 0],
                                        "radius": 1}]})
    assert back.shapes[0].eps_r == 2 + 0.5j and back.shapes[0].center == (0, 0)


def test_three_component_preset_has_three_components():
    grid = build_grid(ImagingConfig())
    chi = rasterize(austria_preset(2.0), grid).values
    assert count_components(chi.real + 1.0, 1.5) == 3


def test_preset_fits_domain():
    grid = build_grid(ImagingConfig())
    chi = rasterize(austria_preset(2.0), grid).values
    # a one-cell empty margin all around
    assert not chi[0, :].any() and not chi[-1, :].any()
    assert not chi[:, 0].any() and not chi[:, -1].any()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_builtin_scenes_rasterize(name):
    grid = build_grid(ImagingConfig(m1=32, m2=32, m_f=7))
    chi = rasterize(builtin_scene(name, 2.0), grid).values
    assert (chi.real > 0).any()


def test_builtin_unknown_name():
    with pytest.raises(SceneError):
        builtin_scene("nonesuch")


def test_scene_json_round_trip(tmp_path):
    scene = builtin_scene("case4", 3.0)
    back = scene_from_dict(scene_to_dict(scene))
    assert back == scene
    path = tmp_path / "scene.json"
    save_scene(path, scene)
    assert load_scene(path) == scene


def test_resolve_scene_specs(tmp_path):
    s = resolve_scene("austria:2")
    assert len(s.shapes) == 3
    s2 = resolve_scene("case3:5:0.8")
    assert s2.shapes[0].eps_r == 5.0
    path = tmp_path / "s.json"
    save_scene(path, s)
    assert resolve_scene(str(path)) == s
