"""Reference max-min: open-ended bisection on the common SINR target.

Independent of the package's Newton solve; it only uses `solve_targets` as
the feasibility test. The upper bound is the best interference-free SINR
(max diagonal of D at full power), which no common target can exceed.
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
