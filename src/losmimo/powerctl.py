"""Target-SINR power control and max-min fairness.

Every scheme/link pair reduces to a KL x KL linear system
(D - diag(zeta) C) eta = zeta, with D diagonal and C nonnegative; a target
vector is achievable iff the solution is elementwise nonnegative and each
cell's power norm (1-norm downlink, inf-norm uplink) is at most 1.
Stacking is cell-major: index j = l*K + k.

All four systems of a drop come from one `channel.CrossGram`, which takes
its serving-Gram inverses the first time ZF reads them, from one stacked
eigendecomposition of the L Grams. Every function here returns powers
(`solve_targets` returns None when its targets are not achievable), and
every closed-form SINR is `PcSystem.sinr` of them: d * eta / (1 + C eta).

Max-min looks for the largest common target 1/mu: with a common target the
powers are eta = (mu D - C)^-1 1, feasible iff mu exceeds the Perron root
rho(D^-1 C) and eta's largest per-cell norm is at most 1 (standard
interference functions: Yates, IEEE JSAC 1995; Boche & Schubert, IEEE TVT
2004). `maxmin_common_target` finds it by safeguarded Newton steps in mu,
each probe certified by the sign of eta, with no eigensolver.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .channel import CrossGram
from .errors import MaxminError
from .linproc import DOWNLINK, MR, NORM_SLACK, UPLINK, ZF, per_cell_norms

RESIDUAL_TOL = 1e-8
NEG_SLACK = 1e-12
REL_TOL = 1e-12  # max-min stops once its bracket on 1/target is this tight
MAX_PROBES = 64  # max-min probes before giving up; bisection alone needs ~45
POWER_ITERATIONS = 8  # matvecs behind the first bound on rho(D^-1 C)
PERRON_FLOOR = 1e-12  # relative floor that keeps the power iterate positive
PERRON_MARGIN = 1e-6  # probes stay relatively this far above the bound on rho


@dataclass(frozen=True)
class PcSystem:
    d: np.ndarray  # (KL,) diagonal of D, positive
    c: np.ndarray  # (KL, KL) nonnegative
    scheme: str
    link: str
    cells: int
    users_per_cell: int

    def sinr(self, eta: np.ndarray) -> np.ndarray:
        """Closed-form SINRs d * eta / (1 + C eta), in the shape of `eta`
        ((L, K) or flat cell-major)."""
        flat = np.ravel(eta)
        return (self.d * flat / (1.0 + self.c @ flat)).reshape(np.shape(eta))


@dataclass(frozen=True)
class MaxminResult:
    target: float  # largest feasible common SINR target (linear)
    eta: np.ndarray  # (KL,) powers that meet it
    trace: list  # (probed target, feasible) pairs


def build_pc_system(xg: CrossGram, scheme: str, link: str, rho: float) -> PcSystem:
    """Construct D and C for one of the four scheme/link pairs from a drop's
    cross-Gram products; only ZF reads (and so computes) the Gram inverses.

    Uplink entries, row (l, k), column (lp, k'):
      MR  d = ||g_lk||^2,           c = |z[l, lp][k, k']|^2 / ||g_lk||^2
      ZF  d = 1 / [Gram_l^-1]_kk,   c = d_lk |(Gram_l^-1 z[l, lp])[k, k']|^2
    with MR's self terms and ZF's whole diagonal blocks zero. The downlink
    has the same D and the transposed C (uplink/downlink duality); both
    are then scaled by the link's rho.
    """
    if link not in (DOWNLINK, UPLINK):
        raise ValueError(f"unknown link {link!r}")
    cells, _, users, _ = xg.z.shape
    own = np.arange(cells)
    if scheme == MR:
        v = np.real(np.diagonal(xg.z[own, own], axis1=1, axis2=2))
        power = np.abs(xg.z) ** 2
        power[own[:, None], own[:, None], np.arange(users), np.arange(users)] = 0.0
        c = power / v[:, None, :, None]
    elif scheme == ZF:
        v = 1.0 / xg.inv_diag
        power = np.abs(xg.igram[:, None] @ xg.z) ** 2
        power[own, own] = 0.0
        c = v[:, None, :, None] * power
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    n = cells * users
    c = c.transpose(0, 2, 1, 3).reshape(n, n)
    if link == DOWNLINK:
        c = c.T
    return PcSystem(d=rho * v.ravel(), c=rho * c, scheme=scheme, link=link, cells=cells,
                    users_per_cell=users)


def _solve(system: PcSystem, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """A = D - diag(zeta) C and the solution of A eta = zeta, or None if A
    is singular or the solve's normwise backward error exceeds RESIDUAL_TOL."""
    a = np.diag(system.d) - zeta[:, None] * system.c
    try:
        eta = np.linalg.solve(a, zeta)
    except np.linalg.LinAlgError:
        return a, None
    if not np.all(np.isfinite(eta)):
        return a, None
    # in inf-norms: near the Perron root eta grows like 1/(mu - rho), and a
    # backward-stable solve's residual with ||A|| ||eta||, not with ||zeta||
    norm = partial(np.linalg.norm, ord=np.inf)
    if norm(a @ eta - zeta) > RESIDUAL_TOL * (norm(a) * norm(eta) + norm(zeta)):
        return a, None
    return a, eta


def solve_targets(system: PcSystem, targets: np.ndarray) -> np.ndarray | None:
    """The (KL,) powers, clipped at 0, that solve (D - diag(zeta) C) eta = zeta,
    or None if the solve fails or they are not admissible."""
    zeta = np.asarray(targets, dtype=float).ravel()
    n = len(system.d)
    if len(zeta) != n:
        raise ValueError(f"expected {n} targets, got {len(zeta)}")
    _, eta = _solve(system, zeta)
    if eta is None or np.min(eta) < -NEG_SLACK:
        return None
    eta = np.clip(eta, 0.0, None)
    norms = per_cell_norms(eta.reshape(system.cells, system.users_per_cell), system.link)
    return eta if np.all(norms <= 1.0 + NORM_SLACK) else None


def _binding(system: PcSystem, eta: np.ndarray) -> slice:
    """Entries of eta whose sum is its largest per-cell norm: the binding
    cell on the downlink, the binding user on the uplink."""
    k = system.users_per_cell
    if system.link == DOWNLINK:
        cell = int(np.argmax(eta.reshape(-1, k).sum(axis=1)))
        return slice(cell * k, (cell + 1) * k)
    user = int(np.argmax(eta))
    return slice(user, user + 1)


def _perron_upper_bound(system: PcSystem) -> float:
    """Collatz-Wielandt bound max_i (Bx)_i / x_i >= rho(B), B = D^-1 C, for
    any positive x; x comes from a few power iterations started at 1."""
    b = system.c / system.d[:, None]
    x = np.ones(len(system.d))
    bound = np.inf
    for _ in range(POWER_ITERATIONS):
        y = b @ x
        bound = min(bound, float(np.max(y / x)))
        top = float(np.max(y))
        if top == 0.0:
            return 0.0
        x = y / top + PERRON_FLOOR  # stays positive where a row of B is zero
    return bound


def _probe(system: PcSystem, mu: float) -> tuple[np.ndarray | None, float | None, float]:
    """Powers of the common target 1/mu if it is feasible (else None), the
    next mu to try, and an upper bound on rho(D^-1 C).

    eta = (mu D - C)^-1 1 holds the target's powers and psi(mu) is their
    largest per-cell norm; the target is feasible iff eta >= 0 and psi <= 1.
    A positive eta certifies that mu D - C is a nonsingular M-matrix, i.e.
    mu > rho(D^-1 C), where psi falls monotonically in mu. Only then are the
    other two returned (else None and inf). The next mu is a Newton step on
    1/psi aimed at psi = 1, pushed a quarter tolerance past it so that a
    converged step crosses the root. The bound is Collatz-Wielandt's at the
    next inverse-iteration vector x = (mu D - C)^-1 D eta, where
    D^-1 C x = mu x - eta.
    """
    gamma = 1.0 / mu
    a, eta = _solve(system, np.full(len(system.d), gamma))
    if eta is None or not np.all(eta > 0.0):
        return None, None, np.inf
    rows = _binding(system, eta)
    psi = float(np.sum(eta[rows]))
    x = gamma * np.linalg.solve(a, system.d * eta)  # = -d eta / d mu
    t = mu + psi * (psi - 1.0) / float(np.sum(x[rows]))
    nxt = t + np.copysign(0.25 * REL_TOL * t, t - mu) if np.isfinite(t) else None
    return (eta if psi <= 1.0 else None), nxt, mu - float(np.min(eta / x))


def maxmin_common_target(system: PcSystem) -> MaxminResult:
    """Largest feasible common SINR target of a built system, within REL_TOL.

    Works on mu = 1/target with a bracket lo < mu* <= hi. lo starts at the
    interference-free bound max norm(D^-1 1), below which no target is
    feasible, and hi at infinity; every probe moves one end. The first probe
    sits just above a power-iteration bound on rho(D^-1 C). Each next probe
    is the last probe's Newton step, moved to just above the best bound on
    rho so far if it is at or below that bound (a probe below rho certifies
    nothing), or, if that is not inside the bracket or the last probe was
    not certified, the bracket's midpoint. Once the feasible end hi is
    within REL_TOL of lo, the result is the target 1/hi with the powers its
    probe certified. Raises `MaxminError` if D is not finite and positive or
    C not finite, or after MAX_PROBES probes.
    """
    where = f"{system.scheme} {system.link}"
    d = system.d
    if not (np.all(np.isfinite(d) & (d > 0.0)) and np.all(np.isfinite(system.c))):
        raise MaxminError(f"{where}: max-min needs a finite, positive D and a finite C; "
                          f"D ranges over [{np.min(d)!r}, {np.max(d)!r}]")
    cells, users = system.cells, system.users_per_cell
    lo = float(np.max(per_cell_norms((1.0 / d).reshape(cells, users), system.link)))
    hi = np.inf
    perron = _perron_upper_bound(system)
    mu = max(perron * (1.0 + PERRON_MARGIN), lo)
    trace: list[tuple[float, bool]] = []
    for _ in range(MAX_PROBES):
        eta, nxt, bound = _probe(system, mu)
        trace.append((1.0 / mu, eta is not None))
        if eta is not None:
            hi, best = mu, eta
        else:
            lo = mu
        if hi - lo <= REL_TOL * hi < np.inf:
            return MaxminResult(target=1.0 / hi, eta=best, trace=trace)
        perron = min(perron, bound)
        if nxt is not None and nxt <= perron:
            nxt = perron * (1.0 + PERRON_MARGIN)
        if nxt is None or not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < np.inf else 2.0 * mu
        mu = nxt
    raise MaxminError(f"{where}: no certified max-min target within {len(trace)} probes")


def single_cell_zf_maxmin(inv_diag: np.ndarray, link: str) -> np.ndarray:
    """Single-cell ZF max-min powers (L, K) from the inverse-Gram diagonals
    (L, K): eta_k proportional to them, each cell's `per_cell_norms` exactly
    1 (total power on the downlink, the worst user at full power on the
    uplink), so every user of a cell gets the same single-cell SINR."""
    return inv_diag / per_cell_norms(inv_diag, link)[:, None]
