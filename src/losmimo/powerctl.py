"""Target-SINR power control and max-min fairness.

Every scheme/link pair reduces to a KL x KL linear system
(D - diag(zeta) C) eta = zeta, with D diagonal and C nonnegative; a target
vector is achievable iff the solution is elementwise nonnegative and each
cell's power norm (1-norm downlink, inf-norm uplink) is at most 1.
Stacking is cell-major: index j = l*K + k.

All four systems of a drop come from one set of cross-Gram products and
serving-Gram inverses (`cross_gram`), and every closed-form SINR is
`PcSystem.sinr`: d * eta / (1 + C eta).
"""

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet
from .linproc import (
    DOWNLINK,
    MR,
    UPLINK,
    ZF,
    PowerAllocation,
    gram_inverse,
)

RESIDUAL_TOL = 1e-8
NEG_SLACK = 1e-12
NORM_SLACK = 1e-9


@dataclass(frozen=True)
class CrossGram:
    """One drop's cross-Gram products and serving-Gram inverses.

    z[l, lp][k, k'] = <g of user (l, k), g of user (lp, k')>, both channels
    taken at base station l; z[l, l] is cell l's Gram matrix.
    """

    z: np.ndarray  # (L, L, K, K) complex
    igram: np.ndarray | None  # (L, K, K) serving-Gram inverses, None if not inverted

    @property
    def inv_diag(self) -> np.ndarray:
        """(L, K) real diagonals of the serving-Gram inverses."""
        if self.igram is None:
            raise ValueError("cross-Gram built without Gram inverses (invert=False)")
        return np.real(np.diagonal(self.igram, axis1=1, axis2=2))


def cross_gram(channels: ChannelSet, invert: bool = True) -> CrossGram:
    """Cross-Gram products, one serving cell at a time so the only transient
    is that cell's conjugated M x K matrix; the guarded Gram inverses are
    computed only if `invert` (ZF needs them, MR allows K > M)."""
    cells, users = channels.cell_count, channels.users_per_cell
    z = np.empty((cells, cells, users, users), dtype=np.complex128)
    for l in range(cells):
        np.matmul(channels.serving(l).conj().T, channels.matrices[l], out=z[l])
    igram = None
    if invert:
        igram = np.stack([gram_inverse(channels.serving(l)) for l in range(cells)])
    return CrossGram(z=z, igram=igram)


@dataclass(frozen=True)
class PcSystem:
    d: np.ndarray  # (KL,) diagonal of D, positive
    c: np.ndarray  # (KL, KL) nonnegative
    scheme: str
    link: str
    rho: float
    cells: int
    users_per_cell: int

    def sinr(self, eta: np.ndarray) -> np.ndarray:
        """Closed-form SINRs d * eta / (1 + C eta), in the shape of `eta`
        ((L, K) or flat cell-major)."""
        flat = np.ravel(eta)
        return (self.d * flat / (1.0 + self.c @ flat)).reshape(np.shape(eta))


@dataclass(frozen=True)
class PcSolution:
    eta: np.ndarray  # (KL,) clamped to >= 0
    feasible: bool
    reason: str | None  # None | "singular" | "constraint"
    per_cell_norms: np.ndarray  # (L,)
    achieved: np.ndarray  # (KL,) D eta / (1 + C eta)

    def allocation(self, system: PcSystem) -> PowerAllocation:
        kind = "total" if system.link == DOWNLINK else "individual"
        return PowerAllocation(
            eta=self.eta.reshape(system.cells, system.users_per_cell), kind=kind
        )


@dataclass(frozen=True)
class MaxminResult:
    target: float  # largest feasible common SINR target (linear)
    solution: PcSolution
    trace: list = field(default_factory=list)  # (probed target, feasible) pairs


def build_pc_system(
    source: CrossGram | ChannelSet, scheme: str, link: str, rho: float
) -> PcSystem:
    """Construct D and C for one of the four scheme/link pairs.

    `source` is a drop's `CrossGram`, or its channels to compute one from.
    Uplink entries, row (l, k), column (lp, k'):
      MR  d = ||g_lk||^2,           c = |z[l, lp][k, k']|^2 / ||g_lk||^2
      ZF  d = 1 / [Gram_l^-1]_kk,   c = d_lk |(Gram_l^-1 z[l, lp])[k, k']|^2
    with MR's self terms and ZF's whole diagonal blocks zero. The downlink
    has the same D and the transposed C (uplink/downlink duality); both
    are then scaled by the link's rho.
    """
    if isinstance(source, ChannelSet):
        source = cross_gram(source, invert=scheme == ZF)
    if link not in (DOWNLINK, UPLINK):
        raise ValueError(f"unknown link {link!r}")
    cells, _, users, _ = source.z.shape
    own = np.arange(cells)
    if scheme == MR:
        v = np.real(np.diagonal(source.z[own, own], axis1=1, axis2=2))
        power = np.abs(source.z) ** 2
        power[own[:, None], own[:, None], np.arange(users), np.arange(users)] = 0.0
        c = power / v[:, None, :, None]
    elif scheme == ZF:
        v = 1.0 / source.inv_diag
        power = np.abs(source.igram[:, None] @ source.z) ** 2
        power[own, own] = 0.0
        c = v[:, None, :, None] * power
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    n = cells * users
    c = c.transpose(0, 2, 1, 3).reshape(n, n)
    if link == DOWNLINK:
        c = c.T
    return PcSystem(
        d=rho * v.ravel(), c=rho * c, scheme=scheme, link=link, rho=rho,
        cells=cells, users_per_cell=users,
    )


def _per_cell_norms(eta: np.ndarray, system: PcSystem) -> np.ndarray:
    per_cell = eta.reshape(system.cells, system.users_per_cell)
    if system.link == DOWNLINK:
        return np.sum(per_cell, axis=1)
    return np.max(per_cell, axis=1)


def solve_targets(system: PcSystem, targets: np.ndarray) -> PcSolution:
    """Solve (D - diag(zeta) C) eta = zeta and check admissibility."""
    zeta = np.asarray(targets, dtype=float).ravel()
    n = len(system.d)
    if len(zeta) != n:
        raise ValueError(f"expected {n} targets, got {len(zeta)}")
    a = np.diag(system.d) - zeta[:, None] * system.c
    try:
        eta = np.linalg.solve(a, zeta)
    except np.linalg.LinAlgError:
        eta = np.zeros(n)
        return PcSolution(eta=eta, feasible=False, reason="singular",
                          per_cell_norms=_per_cell_norms(eta, system),
                          achieved=np.zeros(n))
    residual = np.linalg.norm(a @ eta - zeta) / max(np.linalg.norm(zeta), 1.0)
    if not np.all(np.isfinite(eta)) or residual > RESIDUAL_TOL:
        eta = np.zeros(n)
        return PcSolution(eta=eta, feasible=False, reason="singular",
                          per_cell_norms=_per_cell_norms(eta, system),
                          achieved=np.zeros(n))
    ok = bool(np.min(eta) >= -NEG_SLACK)
    eta = np.clip(eta, 0.0, None)
    norms = _per_cell_norms(eta, system)
    ok = ok and bool(np.all(norms <= 1.0 + NORM_SLACK))
    return PcSolution(eta=eta, feasible=ok, reason=None if ok else "constraint",
                      per_cell_norms=norms, achieved=system.sinr(eta))


def maxmin_common_target(system: PcSystem, rel_tol: float = 1e-6) -> MaxminResult:
    """Largest feasible common SINR target of a built system, by bisection.

    Upper bound: the best interference-free SINR (max diagonal of D at full
    power), which no common target can exceed.
    """
    n = len(system.d)
    trace: list[tuple[float, bool]] = []

    def probe(target: float) -> PcSolution:
        sol = solve_targets(system, np.full(n, target))
        trace.append((target, sol.feasible))
        return sol

    hi = float(np.max(system.d))
    sol = probe(hi)
    if sol.feasible:
        return MaxminResult(target=hi, solution=sol, trace=trace)
    lo = 0.0
    best = solve_targets(system, np.zeros(n))
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        sol = probe(mid)
        if sol.feasible:
            lo, best = mid, sol
        else:
            hi = mid
    return MaxminResult(target=lo, solution=best, trace=trace)


def single_cell_zf_maxmin_dl(inv_diag: np.ndarray, rho_d: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-cell ZF downlink max-min from the inverse-Gram diagonals
    (..., K): eta_k proportional to them, total power 1 per cell; every user
    of a cell gets the same SINR. Returns eta (..., K) and the SINRs (...)."""
    total = np.sum(inv_diag, axis=-1, keepdims=True)
    return inv_diag / total, rho_d / total[..., 0]


def single_cell_zf_maxmin_ul(inv_diag: np.ndarray, rho_u: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-cell ZF uplink max-min from the inverse-Gram diagonals
    (..., K): the worst user of a cell transmits at full power; every user
    of a cell gets the same SINR. Returns eta (..., K) and the SINRs (...)."""
    peak = np.max(inv_diag, axis=-1, keepdims=True)
    return inv_diag / peak, rho_u / peak[..., 0]
