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
