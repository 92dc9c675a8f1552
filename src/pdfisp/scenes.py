"""Parametric scenes and their rasterization into ground-truth contrast grids.

A scene is an ordered list of dielectric shapes (disks, annuli, polygons);
later shapes overwrite earlier ones where they overlap. Rasterization uses a
cell-center membership test, matching the pulse-basis forward discretization:
a pixel belongs to a shape iff its center lies inside the shape.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .config import from_dict, read_json, write_json
from .geometry import ComplexGrid, GridGeometry

# the names builtin_scene knows
PRESET_NAMES = ("austria", "case1", "case2", "case3", "case4")
# the fields each shape kind needs
KIND_FIELDS = {"disk": ("center", "radius"), "annulus": ("center", "r_inner", "r_outer"),
               "polygon": ("vertices",)}


class SceneError(ValueError):
    """Raised for nonphysical or malformed scenes."""


@dataclass(frozen=True)
class Shape:
    """One dielectric shape.

    kind is 'disk' (center, radius), 'annulus' (center, r_inner, r_outer) or
    'polygon' (vertices, an (n, 2) array). eps_r is the complex relative
    permittivity; Re{eps_r} >= 1 for a physical dielectric.
    """

    kind: str
    eps_r: complex
    center: tuple[float, float] | None = None
    radius: float | None = None
    r_inner: float | None = None
    r_outer: float | None = None
    vertices: tuple[tuple[float, float], ...] | None = None

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean membership of (n, 2) points (boundary counts as inside)."""
        if self.kind == "disk":
            d2 = ((points - np.asarray(self.center)) ** 2).sum(axis=1)
            return d2 <= self.radius ** 2
        if self.kind == "annulus":
            d2 = ((points - np.asarray(self.center)) ** 2).sum(axis=1)
            return (d2 >= self.r_inner ** 2) & (d2 <= self.r_outer ** 2)
        if self.kind == "polygon":
            return _points_in_polygon(points, np.asarray(self.vertices, dtype=float))
        raise SceneError(f"unknown shape kind {self.kind!r}")


def _points_in_polygon(points: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Even-odd ray casting, vectorized over points."""
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        crosses = (y1 > y) != (y2 > y)
        # x-coordinate where the edge crosses the horizontal ray through y
        with np.errstate(divide="ignore", invalid="ignore"):
            xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < np.where(crosses, xc, np.inf))
    return inside


def _geometry_fault(s: Shape) -> str | None:
    """What is wrong with a shape's geometry, naming the field, or None."""
    if s.center is not None and not np.isfinite(np.asarray(s.center, dtype=float)).all():
        return f"center must be finite, got {s.center}"
    if s.kind == "disk" and not (np.isfinite(s.radius) and s.radius > 0):
        return f"radius must be finite and > 0, got {s.radius}"
    if s.kind == "annulus" and not (0 <= s.r_inner < s.r_outer < np.inf):
        return f"needs 0 <= r_inner < r_outer < inf, got r_inner {s.r_inner}, r_outer {s.r_outer}"
    if s.kind == "polygon":
        verts = np.asarray(s.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
            return f"vertices must be at least 3 (x, y) points, got {s.vertices}"
        if not np.isfinite(verts).all():
            return f"vertices must be finite, got {s.vertices}"
    return None


@dataclass(frozen=True)
class Scene:
    """Shapes in paint order; each needs a known kind, that kind's fields, a
    finite geometry (a disk radius > 0, 0 <= r_inner < r_outer, at least 3
    polygon vertices) and a finite eps_r with Re{eps_r} >= 1 (a physical
    dielectric)."""

    shapes: tuple[Shape, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for i, s in enumerate(self.shapes):
            if s.kind not in KIND_FIELDS:
                raise SceneError(f"Scene.shapes[{i}]: unknown shape kind {s.kind!r}")
            missing = [n for n in KIND_FIELDS[s.kind] if getattr(s, n) is None]
            if missing:
                raise SceneError(f"Scene.shapes[{i}] ({s.kind}): missing {', '.join(missing)}")
            fault = _geometry_fault(s)
            if fault:
                raise SceneError(f"Scene.shapes[{i}] ({s.kind}): {fault}")
            eps = complex(s.eps_r)
            if not (np.isfinite(eps) and eps.real >= 1.0):
                raise SceneError(f"Scene.shapes[{i}]: needs a finite eps_r with Re{{eps_r}} "
                                 f">= 1 (physical dielectric), got {s.eps_r}")


def rasterize(scene: Scene, grid: GridGeometry) -> ComplexGrid:
    """Paint the scene onto the grid as a contrast image chi = eps_r - 1.

    Background contrast is zero; shapes are applied in order, later ones
    overwriting earlier ones at overlapping pixels.
    """
    chi = np.zeros(grid.n_cells, dtype=np.complex128)
    for shape in scene.shapes:
        mask = shape.contains(grid.centers)
        chi[mask] = complex(shape.eps_r) - 1.0
    return ComplexGrid(values=chi.reshape(grid.m1, grid.m2), cell_size=grid.cell_size)


# ----------------------------------------------------------------------
# Presets


def austria_preset(eps_r: complex, scale: float = 1.0) -> Scene:
    """Two disks over a large annulus: the classic three-component benchmark.

    The layout (disks of radius 0.2*s at (+-0.3*s, 0.6*s), annulus at
    (0, -0.2*s) with radii 0.3*s / 0.6*s) spans 1.6*s vertically, so s is
    sized to fit the default 1.5 m domain with a one-cell (1.5/64 m) margin
    at scale=1; `scale` shrinks or grows everything proportionally.
    """
    s = scale * (1.5 / 2.0 - 1.5 / 64) / 0.8
    return Scene(shapes=(
        Shape(kind="disk", eps_r=eps_r, center=(-0.3 * s, 0.6 * s), radius=0.2 * s),
        Shape(kind="disk", eps_r=eps_r, center=(0.3 * s, 0.6 * s), radius=0.2 * s),
        Shape(kind="annulus", eps_r=eps_r, center=(0.0, -0.2 * s), r_inner=0.3 * s,
              r_outer=0.6 * s),
    ))


def builtin_scene(name: str, eps_r: complex = 2.0, scale: float = 1.0) -> Scene:
    """Named preset scenes.

    'austria' is the three-component benchmark. 'case1'..'case4' are
    progressively harder layouts: a polygonal target, overlapping cylinders
    of differing permittivity, a concave U-shaped target, and a mixed scene.
    Their geometries are illustrative presets, not measured objects.
    """
    e = complex(eps_r)
    if name == "austria":
        return austria_preset(e, scale=scale)
    if name == "case1":  # rotated star-like polygon
        t = np.linspace(0, 2 * np.pi, 11)[:-1]
        r = np.where(np.arange(10) % 2 == 0, 0.55, 0.25) * scale
        verts = tuple((float(r[i] * np.cos(t[i])), float(r[i] * np.sin(t[i]))) for i in range(10))
        return Scene(shapes=(Shape(kind="polygon", eps_r=e, vertices=verts),))
    if name == "case2":  # overlapping cylinders, two permittivities
        return Scene(shapes=(
            Shape(kind="disk", eps_r=e, center=(-0.15 * scale, 0.0), radius=0.3 * scale),
            Shape(kind="disk", eps_r=1.0 + 0.5 * (e - 1.0), center=(0.2 * scale, 0.1 * scale),
                  radius=0.25 * scale),
        ))
    if name == "case3":  # concave U-shaped target
        w, h, t = 0.5 * scale, 0.5 * scale, 0.15 * scale
        verts = ((-w, -h), (w, -h), (w, h), (w - t, h), (w - t, -h + t),
                 (-w + t, -h + t), (-w + t, h), (-w, h))
        return Scene(shapes=(Shape(kind="polygon", eps_r=e, vertices=verts),))
    if name == "case4":  # mixed: annulus + bar + small disk
        bar = ((-0.55 * scale, 0.45 * scale), (0.55 * scale, 0.45 * scale),
               (0.55 * scale, 0.6 * scale), (-0.55 * scale, 0.6 * scale))
        return Scene(shapes=(
            Shape(kind="annulus", eps_r=e, center=(0.0, -0.15 * scale), r_inner=0.18 * scale,
                  r_outer=0.38 * scale),
            Shape(kind="polygon", eps_r=1.0 + 0.5 * (e - 1.0), vertices=bar),
            Shape(kind="disk", eps_r=e, center=(0.55 * scale, -0.45 * scale), radius=0.12 * scale),
        ))
    raise SceneError(f"unknown preset scene {name!r}; known: {list(PRESET_NAMES)}")


# ----------------------------------------------------------------------
# JSON round trip


def scene_to_dict(scene: Scene) -> dict:
    shapes = [{k: v for k, v in asdict(sh).items() if v is not None} for sh in scene.shapes]
    for d in shapes:
        d["eps_r"] = [complex(d["eps_r"]).real, complex(d["eps_r"]).imag]
    return {"shapes": shapes}


def scene_from_dict(d: dict) -> Scene:
    return from_dict(Scene, d, SceneError)


def save_scene(path, scene: Scene) -> None:
    write_json(path, scene_to_dict(scene))


def load_scene(path) -> Scene:
    return scene_from_dict(read_json(path))


def resolve_scene(spec: str) -> Scene:
    """Turn a CLI scene argument into a Scene.

    Accepts a JSON file path, or a preset spec 'name:eps_r[:scale]' such as
    'austria:2' or 'case3:5:0.8'.
    """
    if ":" in spec and not spec.lower().endswith(".json"):
        name, *parts = spec.split(":")
        if len(parts) > 2:
            raise SceneError(f"scene {spec!r}: expected name:eps_r[:scale]")
        values = {}
        for part, (key, parse) in zip(parts, (("eps_r", complex), ("scale", float))):
            try:
                values[key] = parse(part)
            except ValueError:
                raise SceneError(f"scene {spec!r}: {key} {part!r} is not a number") from None
        return builtin_scene(name, **values)
    return load_scene(spec)
