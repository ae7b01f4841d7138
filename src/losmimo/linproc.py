"""Per-cell power norms and the guarded Gram inverse.

Notation: for a serving matrix G (M x K), the Gram matrix is G^H G and its
inverse's diagonal governs ZF performance. Powers are plain (L, K) arrays
eta of per-user coefficients, admissible when nonnegative and each cell's
`per_cell_norms` is at most 1 + NORM_SLACK. The closed-form SINRs built on
these live in `powerctl` (`PcSystem.sinr`), and the MR/ZF processing they
assume is simulated in `mcsim`.
"""

import numpy as np

from .errors import SingularChannelError

COND_LIMIT = 1e12
NORM_SLACK = 1e-9  # a cell's power norm may exceed 1 by this much and stay admissible

DOWNLINK = "DL"
UPLINK = "UL"
MR = "MR"
ZF = "ZF"


def per_cell_norms(eta: np.ndarray, link: str) -> np.ndarray:
    """Per-cell power norms of (L, K) coefficients: the 1-norm on the
    downlink (total per-cell power), the inf-norm on the uplink (per-user
    power)."""
    if link == DOWNLINK:
        return np.sum(eta, axis=1)
    return np.max(eta, axis=1) if eta.size else np.zeros(len(eta))


def gram_inverse(gram: np.ndarray, eig=None) -> np.ndarray:
    """Inverses V diag(1/lam) V^H of a (..., K, K) stack of Grams G^H G =
    V diag(lam) V^H from one stacked `np.linalg.eigh(gram)`, or its (lam, V)
    `eig` where the caller has it. Raises `SingularChannelError` if any Gram is
    not finite or its condition number lam_max / lam_min exceeds COND_LIMIT (K > M)."""
    if not np.isfinite(gram).all():  # eigh may not converge on it
        raise SingularChannelError("channel Gram matrix is not finite")
    lam, v = np.linalg.eigh(gram) if eig is None else eig
    low = lam[..., 0] * COND_LIMIT
    if not np.all((0.0 < low) & (low >= lam[..., -1])):  # a NaN fails too
        raise SingularChannelError("channel Gram matrix is rank deficient")
    return (v / lam[..., None, :]) @ v.conj().swapaxes(-1, -2)
