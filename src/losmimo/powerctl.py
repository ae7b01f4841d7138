"""Target-SINR power control and max-min fairness.

Every scheme/link pair reduces to a KL x KL linear system
(D - diag(zeta) C) eta = zeta, with D diagonal and C nonnegative; a target
vector is achievable iff the solution is elementwise nonnegative and each
cell's power norm (1-norm downlink, inf-norm uplink) is at most 1.
Stacking is cell-major: index j = l*K + k.

All four systems of a drop come from one `CrossGram` (`cross_gram`, or
`stream_cross_gram` straight from the geometry), which takes its
serving-Gram inverses the first time ZF reads them, and every closed-form
SINR is `PcSystem.sinr`: d * eta / (1 + C eta).

Max-min looks for the largest common target 1/mu: with a common target the
powers are eta = (mu D - C)^-1 1, feasible iff mu exceeds the Perron root
rho(D^-1 C) and eta's largest per-cell norm is at most 1 (standard
interference functions: Yates, IEEE JSAC 1995; Boche & Schubert, IEEE TVT
2004). `maxmin_common_target` finds it by safeguarded Newton steps in mu,
each probe certified by the sign of eta, with no eigensolver.
"""

import os
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import ChannelSet, station_channels
from .errors import MaxminError
from .geometry import ArrayGeometry, UserDrop
from .linproc import (
    DOWNLINK,
    MR,
    UPLINK,
    ZF,
    gram_inverse,
    per_cell_norms,
)

RESIDUAL_TOL = 1e-8
NEG_SLACK = 1e-12
NORM_SLACK = 1e-9
MAX_PROBES = 64  # max-min probes before giving up; bisection alone needs ~45
POWER_ITERATIONS = 8  # matvecs behind the first bound on rho(D^-1 C)
PERRON_FLOOR = 1e-12  # relative floor that keeps the power iterate positive
PERRON_MARGIN = 1e-6  # probes stay relatively this far above the bound on rho
WORKERS = len(os.sched_getaffinity(0))  # threads that build a drop's channels, at most L

_local = threading.local()  # each thread's station buffers, kept across drops
_pool = None  # (threads, executor), made the first time more than one worker runs
_pool_lock = threading.Lock()


@dataclass(frozen=True)
class CrossGram:
    """One drop's cross-Gram products, with its serving-Gram inverses taken
    on first use (only ZF needs them; MR allows K > M).

    z[l, lp][k, k'] = <g of user (l, k), g of user (lp, k')>, both channels
    taken at base station l; z[l, l] is cell l's Gram matrix.
    """

    z: np.ndarray  # (L, L, K, K) complex
    antennas: int  # M

    @cached_property
    def igram(self) -> np.ndarray:
        """(L, K, K) guarded serving-Gram inverses, computed on the reading thread."""
        return np.stack([gram_inverse(self.z[l, l], self.antennas) for l in range(len(self.z))])

    @property
    def inv_diag(self) -> np.ndarray:
        """(L, K) real diagonals of the serving-Gram inverses."""
        return np.real(np.diagonal(self.igram, axis1=1, axis2=2))


def cross_gram(channels: ChannelSet) -> CrossGram:
    """Cross-Gram products, one serving cell at a time so the only transient
    is that cell's conjugated M x K matrix."""
    cells, users = channels.cell_count, channels.users_per_cell
    z = np.empty((cells, cells, users, users), dtype=np.complex128)
    for l in range(cells):
        np.matmul(channels.serving(l).conj().T, channels.matrices[l], out=z[l])
    return CrossGram(z=z, antennas=channels.antenna_count)


def _stream_stations(stations, arrays, drop, wavelength, z) -> None:
    """z[l] = G[l, l]^H G[l, :] for each base station l, with G[l] built in
    this thread's (L, M, K) buffers, which are kept across drops."""
    shape = (len(arrays), arrays[0].antenna_count, drop.users_per_cell)
    buffers = getattr(_local, "buffers", None)
    if buffers is None or buffers[0].shape != shape:
        buffers = (np.empty(shape, dtype=np.complex128), np.empty(shape), np.empty(shape))
        _local.buffers = buffers
    block, r, tmp = buffers
    for l in stations:
        station_channels(arrays[l], drop, wavelength, block, r, tmp)
        np.matmul(block[l].conj().T, block, out=z[l])


def _executor(threads: int):
    """The shared thread pool, made on first use and remade only to grow."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] < threads:
            from concurrent.futures import ThreadPoolExecutor

            _pool = (threads, ThreadPoolExecutor(threads, thread_name_prefix="losmimo-station"))
        return _pool[1]


def stream_cross_gram(arrays: list[ArrayGeometry], drop: UserDrop, wavelength: float) -> CrossGram:
    """`cross_gram` of a drop's channels without the (L, L, M, K) tensor.

    Each base station's (L, M, K) channels are built into a per-thread
    buffer and reduced to its row of z at once. min(WORKERS, L) threads
    share the stations round-robin, and the calling thread takes the first
    share. z is bit-identical to `cross_gram` of `build_channel_set` for any
    worker count. An error in any share is raised once every share has ended.
    """
    cells, users = len(arrays), drop.users_per_cell
    z = np.empty((cells, cells, users, users), dtype=np.complex128)
    workers = min(WORKERS, cells)
    shares = [range(w, cells, workers) for w in range(workers)]
    futures = []
    if workers > 1:
        pool = _executor(workers - 1)
        futures = [pool.submit(_stream_stations, share, arrays, drop, wavelength, z)
                   for share in shares[1:]]
    try:
        _stream_stations(shares[0], arrays, drop, wavelength, z)
    finally:
        for future in futures:  # wait for every share before raising
            future.exception()
    for future in futures:
        future.result()
    return CrossGram(z=z, antennas=arrays[0].antenna_count)


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


@dataclass(frozen=True)
class MaxminResult:
    target: float  # largest feasible common SINR target (linear)
    solution: PcSolution
    trace: list = field(default_factory=list)  # (probed target, feasible) pairs


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
    return PcSystem(
        d=rho * v.ravel(), c=rho * c, scheme=scheme, link=link, rho=rho,
        cells=cells, users_per_cell=users,
    )


def _solve(system: PcSystem, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """A = D - diag(zeta) C and the solution of A eta = zeta, or None if A
    is singular or the solve is inaccurate."""
    a = np.diag(system.d) - zeta[:, None] * system.c
    try:
        eta = np.linalg.solve(a, zeta)
    except np.linalg.LinAlgError:
        return a, None
    residual = np.linalg.norm(a @ eta - zeta) / max(np.linalg.norm(zeta), 1.0)
    if not np.all(np.isfinite(eta)) or residual > RESIDUAL_TOL:
        return a, None
    return a, eta


def solve_targets(system: PcSystem, targets: np.ndarray) -> PcSolution:
    """Solve (D - diag(zeta) C) eta = zeta and check admissibility."""
    zeta = np.asarray(targets, dtype=float).ravel()
    n = len(system.d)
    if len(zeta) != n:
        raise ValueError(f"expected {n} targets, got {len(zeta)}")
    _, eta = _solve(system, zeta)
    if eta is None:
        return PcSolution(eta=np.zeros(n), feasible=False, reason="singular",
                          per_cell_norms=np.zeros(system.cells),
                          achieved=np.zeros(n))
    ok = bool(np.min(eta) >= -NEG_SLACK)
    eta = np.clip(eta, 0.0, None)
    norms = per_cell_norms(eta.reshape(system.cells, system.users_per_cell), system.link)
    ok = ok and bool(np.all(norms <= 1.0 + NORM_SLACK))
    return PcSolution(eta=eta, feasible=ok, reason=None if ok else "constraint",
                      per_cell_norms=norms, achieved=system.sinr(eta))


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


def _probe(system: PcSystem, mu: float, rel_tol: float) -> tuple[bool, float | None, float]:
    """Feasibility of the common target 1/mu, the next mu to try, and an
    upper bound on rho(D^-1 C).

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
        return False, None, np.inf
    rows = _binding(system, eta)
    psi = float(np.sum(eta[rows]))
    x = gamma * np.linalg.solve(a, system.d * eta)  # = -d eta / d mu
    t = mu + psi * (psi - 1.0) / float(np.sum(x[rows]))
    nxt = t + np.copysign(0.25 * rel_tol * t, t - mu) if np.isfinite(t) else None
    return psi <= 1.0, nxt, mu - float(np.min(eta / x))


def maxmin_common_target(system: PcSystem, rel_tol: float = 1e-12) -> MaxminResult:
    """Largest feasible common SINR target of a built system, within rel_tol.

    Works on mu = 1/target with a bracket lo < mu* <= hi. lo starts at the
    interference-free bound max norm(D^-1 1), below which no target is
    feasible, and hi at infinity; every probe moves one end. The first probe
    sits just above a power-iteration bound on rho(D^-1 C). Each next probe
    is the last probe's Newton step, raised to just above the best bound on
    rho so far (a probe below rho certifies nothing), or, if that is not
    inside the bracket or the last probe was not certified, the bracket's
    midpoint. Once the feasible end hi is within rel_tol of lo, the result
    is `solve_targets` at the target 1/hi. Raises `MaxminError` if D is not
    finite and positive or C not finite, or after MAX_PROBES probes.
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
        feasible, nxt, bound = _probe(system, mu, rel_tol)
        trace.append((1.0 / mu, feasible))
        if feasible:
            hi = mu
        else:
            lo = mu
        if hi - lo <= rel_tol * hi < np.inf:
            solution = solve_targets(system, np.full(len(d), 1.0 / hi))
            if solution.feasible:
                return MaxminResult(target=1.0 / hi, solution=solution, trace=trace)
            break
        perron = min(perron, bound)
        if nxt is not None:
            nxt = max(nxt, perron * (1.0 + PERRON_MARGIN))
        if nxt is None or not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < np.inf else 2.0 * mu
        mu = nxt
    raise MaxminError(f"{where}: no certified max-min target within {len(trace)} probes")


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
