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
    """Inverse V diag(1/lam) V^H of a K x K Gram matrix G^H G = V diag(lam) V^H,
    from one eigendecomposition: `eig`, the (lam, V) of `np.linalg.eigh(gram)`
    where the caller has taken it already. Raises `SingularChannelError` unless
    the exact 2-norm condition number lam_max / lam_min is at most
    COND_LIMIT, which fails when K > M."""
    lam, v = np.linalg.eigh(gram) if eig is None else eig
    if not 0.0 < lam[0] * COND_LIMIT >= lam[-1]:
        raise SingularChannelError("channel Gram matrix is rank deficient")
    return (v / lam) @ v.conj().T
