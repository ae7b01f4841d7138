"""Hexagonal cell layout, circular antenna arrays, and seeded user drops,
each a plain array of positions.

All lengths are in meters. Hexagons are flat-top with circumradius
(center-to-vertex) R; the 7-cell cluster places six outer centers at
angles 30 + k*60 degrees and distance sqrt(3)*R from the origin.
"""

import numpy as np

from .errors import ConfigurationError

SQRT3 = np.sqrt(3.0)
HEX_TOL = 1e-9  # m: a point this far outside a hexagon's edge still counts as inside

# Edge-normal directions of a flat-top hexagon (towards edge midpoints).
_HEX_NORMALS = np.stack(
    [
        np.cos(np.deg2rad(30.0 + 60.0 * np.arange(6))),
        np.sin(np.deg2rad(30.0 + 60.0 * np.arange(6))),
    ],
    axis=1,
)  # (6, 2)


def hex_centers(cell_count: int, cell_radius: float) -> np.ndarray:
    """(L, 2) cell centers for a single cell (L=1) or the standard 7-cell cluster."""
    if cell_radius <= 0:
        raise ConfigurationError(f"cell radius must be positive, got {cell_radius}")
    if cell_count == 1:
        return np.zeros((1, 2))
    if cell_count == 7:
        return np.vstack([np.zeros((1, 2)), SQRT3 * cell_radius * _HEX_NORMALS])
    raise ConfigurationError(f"unsupported cell count {cell_count}; use 1 or 7")


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
    centers: np.ndarray | tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """(..., M, 3) antenna positions of uniform circular arrays with lambda/2
    arc separation in the horizontal plane at `height`, one around each of
    the (..., 2) `centers`: (L, M, 3) for the (L, 2) cell centers.

    Circle radius M*lambda/(4*pi) makes the circumference M*lambda/2, so
    consecutive antennas are exactly lambda/2 apart along the arc.
    """
    if antenna_count < 1:
        raise ConfigurationError(f"antenna count must be >= 1, got {antenna_count}")
    if wavelength <= 0:
        raise ConfigurationError(f"wavelength must be positive, got {wavelength}")
    centers = np.asarray(centers, dtype=float)
    radius = antenna_count * wavelength / (4.0 * np.pi)
    angles = 2.0 * np.pi * np.arange(antenna_count) / antenna_count
    # filled in place, not stacked: no (..., M) temporaries
    positions = np.full(centers.shape[:-1] + (antenna_count, 3), float(height))
    np.add(centers[..., 0, None], radius * np.cos(angles), out=positions[..., 0])
    np.add(centers[..., 1, None], radius * np.sin(angles), out=positions[..., 1])
    return positions


def in_hexagon(points: np.ndarray, center: np.ndarray, cell_radius: float) -> np.ndarray:
    """(N,) membership of (N, 2 or 3) points in a flat-top hexagon, by six
    half-plane checks on the horizontal coordinates."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))[:, :2] - np.asarray(center, dtype=float)[:2]
    proj = pts @ _HEX_NORMALS.T  # (N, 6)
    return np.max(proj, axis=1) <= inradius(cell_radius) + HEX_TOL


def drop_users(
    centers: np.ndarray,
    cell_radius: float,
    users_per_cell: int,
    d_min: float,
    user_height: float,
    seed: int,
) -> np.ndarray:
    """(L, K, 3) user positions, uniform in the hexagon of radius
    `cell_radius` around each of the (L, 2) `centers`, by rejection sampling.

    Points are drawn from the hexagon's bounding box and kept if they fall
    inside the hexagon at horizontal distance >= d_min from the cell center
    (where the base station stands). d_min must be below the inradius, so
    that at least 7 % of the box is kept. Deterministic given the seed.
    """
    if users_per_cell < 1:
        raise ConfigurationError(f"users_per_cell must be >= 1, got {users_per_cell}")
    if d_min >= inradius(cell_radius):
        raise ConfigurationError(f"d_min={d_min} must be below the inradius sqrt(3)/2 R")
    rng = np.random.default_rng(seed)
    half_h = inradius(cell_radius)
    batch = max(4 * users_per_cell, 64)
    positions = np.empty((len(centers), users_per_cell, 3))
    for l, center in enumerate(centers):
        accepted: list[np.ndarray] = []
        count = 0
        while count < users_per_cell:
            cand = np.stack(
                [
                    rng.uniform(-cell_radius, cell_radius, batch),
                    rng.uniform(-half_h, half_h, batch),
                ],
                axis=1,
            )
            keep = in_hexagon(cand, np.zeros(2), cell_radius) & (np.linalg.norm(cand, axis=1) >= d_min)
            good = cand[keep]
            accepted.append(good)
            count += len(good)
        pts = np.concatenate(accepted)[:users_per_cell] + center
        positions[l, :, :2] = pts
        positions[l, :, 2] = user_height
    return positions
