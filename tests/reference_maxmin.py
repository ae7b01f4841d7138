"""Reference max-min: open-ended bisection on the common SINR target, and
the exact optimum from an eigensolver.

Both are independent of the package's Newton solve. Bisection only uses
`solve_targets` as the feasibility test; its upper bound is the best
interference-free SINR (max diagonal of D at full power), which no common
target can exceed.
"""

import numpy as np

from losmimo import MaxminResult, PcSystem, solve_targets


def bisection_maxmin(system: PcSystem, rel_tol: float = 1e-6) -> MaxminResult:
    """Largest feasible common SINR target, within `rel_tol` from below."""
    n = len(system.d)
    trace: list[tuple[float, bool]] = []

    def probe(target: float):
        eta = solve_targets(system, np.full(n, target))
        trace.append((target, eta is not None))
        return eta

    hi = float(np.max(system.d))
    eta = probe(hi)
    if eta is not None:
        return MaxminResult(target=hi, eta=eta, trace=trace)
    lo = 0.0
    best = solve_targets(system, np.zeros(n))
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        eta = probe(mid)
        if eta is not None:
            lo, best = mid, eta
        else:
            hi = mid
    return MaxminResult(target=lo, eta=best, trace=trace)


def perron_maxmin(system: PcSystem) -> float:
    """Exact largest common target 1 / max_a rho(D^-1 (C + 1 a^T)), a over the
    power constraint rows: cell indicators on the downlink, unit vectors on the
    uplink. At the optimum the binding row has a^T eta = 1, so the powers are
    a Perron eigenvector of D^-1 (C + 1 a^T) with eigenvalue 1 / target (Cai,
    Quek, Tan & Low, IEEE TSP 2012)."""
    n, users = len(system.d), system.users_per_cell
    rows = np.eye(n) if system.link == "UL" else np.kron(np.eye(system.cells), np.ones(users))
    inv_d = 1.0 / system.d
    b = system.c * inv_d[:, None]
    return 1.0 / max(np.max(np.abs(np.linalg.eigvals(b + np.outer(inv_d, a)))) for a in rows)
