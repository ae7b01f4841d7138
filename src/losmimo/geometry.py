"""Hexagonal cell layout, circular antenna arrays, and seeded user drops.

All lengths are in meters. Hexagons are flat-top with circumradius
(center-to-vertex) R; the 7-cell cluster places six outer centers at
angles 30 + k*60 degrees and distance sqrt(3)*R from the origin.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

SQRT3 = np.sqrt(3.0)

# Edge-normal directions of a flat-top hexagon (towards edge midpoints).
_HEX_NORMALS = np.stack(
    [
        np.cos(np.deg2rad(30.0 + 60.0 * np.arange(6))),
        np.sin(np.deg2rad(30.0 + 60.0 * np.arange(6))),
    ],
    axis=1,
)  # (6, 2)


@dataclass(frozen=True)
class CellLayout:
    cell_count: int
    cell_radius: float  # center-to-vertex
    centers: np.ndarray  # (L, 2)


@dataclass(frozen=True)
class ArrayGeometry:
    antenna_count: int
    positions: np.ndarray  # (M, 3)


@dataclass(frozen=True)
class UserDrop:
    users_per_cell: int
    positions: np.ndarray  # (L, K, 3)


def hex_centers(cell_count: int, cell_radius: float) -> CellLayout:
    """Cell centers for a single cell (L=1) or the standard 7-cell cluster."""
    if cell_radius <= 0:
        raise ConfigurationError(f"cell radius must be positive, got {cell_radius}")
    if cell_count == 1:
        centers = np.zeros((1, 2))
    elif cell_count == 7:
        angles = np.deg2rad(30.0 + 60.0 * np.arange(6))
        outer = SQRT3 * cell_radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        centers = np.vstack([np.zeros((1, 2)), outer])
    else:
        raise ConfigurationError(f"unsupported cell count {cell_count}; use 1 or 7")
    return CellLayout(cell_count=cell_count, cell_radius=float(cell_radius), centers=centers)


def inradius(cell_radius: float) -> float:
    """Center-to-edge distance of a hexagon with circumradius `cell_radius`."""
    return SQRT3 / 2.0 * cell_radius


def cluster_reach(cell_count: int, cell_radius: float) -> float:
    """Bound on the horizontal distance from any cell center of the layout to
    any point of any of its cells: R for one cell, (2 sqrt(3) + 1) R for the
    7-cell cluster, whose opposite outer centers are 2 sqrt(3) R apart."""
    return (1.0 + (2.0 * SQRT3 if cell_count == 7 else 0.0)) * cell_radius


def circular_array(
    antenna_count: int,
    wavelength: float,
    height: float,
    center: np.ndarray | tuple[float, float] = (0.0, 0.0),
) -> ArrayGeometry:
    """Uniform circular array with lambda/2 arc separation.

    Circle radius M*lambda/(4*pi) makes the circumference M*lambda/2, so
    consecutive antennas are exactly lambda/2 apart along the arc.
    """
    if antenna_count < 1:
        raise ConfigurationError(f"antenna count must be >= 1, got {antenna_count}")
    if wavelength <= 0:
        raise ConfigurationError(f"wavelength must be positive, got {wavelength}")
    center = np.asarray(center, dtype=float)
    radius = antenna_count * wavelength / (4.0 * np.pi)
    angles = 2.0 * np.pi * np.arange(antenna_count) / antenna_count
    positions = np.stack(
        [
            center[0] + radius * np.cos(angles),
            center[1] + radius * np.sin(angles),
            np.full(antenna_count, float(height)),
        ],
        axis=1,
    )
    return ArrayGeometry(antenna_count=antenna_count, positions=positions)


def in_hexagon(points: np.ndarray, center: np.ndarray, cell_radius: float, tol: float = 1e-9) -> np.ndarray:
    """Membership test for a flat-top hexagon via six half-plane checks."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))[:, :2] - np.asarray(center, dtype=float)[:2]
    apothem = SQRT3 * cell_radius / 2.0
    proj = pts @ _HEX_NORMALS.T  # (N, 6)
    return np.max(proj, axis=1) <= apothem + tol


def drop_users(
    layout: CellLayout,
    users_per_cell: int,
    d_min: float,
    user_height: float,
    seed: int,
) -> UserDrop:
    """Uniform user positions per hexagon by rejection sampling.

    Points are drawn from the hexagon's bounding box and kept if they fall
    inside the hexagon at horizontal distance >= d_min from the cell center
    (where the base station stands). d_min must be below the inradius, so
    that at least 7 % of the box is kept. Deterministic given the seed.
    """
    if users_per_cell < 1:
        raise ConfigurationError(f"users_per_cell must be >= 1, got {users_per_cell}")
    if d_min >= inradius(layout.cell_radius):
        raise ConfigurationError(f"d_min={d_min} must be below the inradius sqrt(3)/2 R")
    rng = np.random.default_rng(seed)
    radius = layout.cell_radius
    half_h = SQRT3 * radius / 2.0
    batch = max(4 * users_per_cell, 64)
    positions = np.empty((layout.cell_count, users_per_cell, 3))
    for l, center in enumerate(layout.centers):
        accepted: list[np.ndarray] = []
        count = 0
        while count < users_per_cell:
            cand = np.stack(
                [
                    rng.uniform(-radius, radius, batch),
                    rng.uniform(-half_h, half_h, batch),
                ],
                axis=1,
            )
            keep = in_hexagon(cand, np.zeros(2), radius) & (np.linalg.norm(cand, axis=1) >= d_min)
            good = cand[keep]
            accepted.append(good)
            count += len(good)
        pts = np.concatenate(accepted)[:users_per_cell] + center
        positions[l, :, :2] = pts
        positions[l, :, 2] = user_height
    return UserDrop(users_per_cell=users_per_cell, positions=positions)
