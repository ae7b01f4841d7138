"""Power allocations, MR and ZF precoders, and the guarded Gram inverse.

Notation: for a serving matrix G (M x K), the Gram matrix is G^H G and its
inverse's diagonal governs ZF performance. The closed-form SINRs built on
these live in `powerctl` (`PcSystem.sinr`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChannelError, SingularChannelError

COND_LIMIT = 1e12

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


@dataclass(frozen=True)
class PowerAllocation:
    """Per-cell power-control coefficients of one link, each cell's
    `per_cell_norms` at most 1."""

    eta: np.ndarray  # (L, K), nonnegative
    link: str  # DOWNLINK or UPLINK

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        object.__setattr__(self, "eta", eta)
        if self.link not in (DOWNLINK, UPLINK):
            raise ValueError(f"unknown link {self.link!r}")
        # written so that a NaN coefficient fails both checks
        if not np.all(eta >= 0):
            raise ValueError("power coefficients must be nonnegative and not NaN")
        norms = self.per_cell_norms()
        if not np.all(norms <= 1.0 + 1e-9):
            raise ValueError(f"per-cell power constraint violated: norms {norms}")

    def per_cell_norms(self) -> np.ndarray:
        return per_cell_norms(self.eta, self.link)


def dl_allocation(eta: np.ndarray) -> PowerAllocation:
    return PowerAllocation(eta=np.atleast_2d(eta), link=DOWNLINK)


def ul_allocation(eta: np.ndarray) -> PowerAllocation:
    return PowerAllocation(eta=np.atleast_2d(eta), link=UPLINK)


def gram_inverse(gram: np.ndarray, antennas: int) -> np.ndarray:
    """Inverse of the K x K Gram matrix G^H G of an M x K serving matrix
    (M = `antennas`), with a rank-deficiency guard."""
    if gram.shape[0] > antennas:
        raise SingularChannelError(f"need K <= M for ZF, got K={gram.shape[0]}, M={antennas}")
    if np.linalg.cond(gram) > COND_LIMIT:
        raise SingularChannelError("channel Gram matrix is rank deficient")
    return np.linalg.inv(gram)


def mr_precoder(serving: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """(M, K) matrix with column k conj(g_k) * sqrt(eta_k) / ||g_k||.
    Transmit power = sum(eta)."""
    norms = np.linalg.norm(serving, axis=0)
    if np.any(norms == 0):
        raise DegenerateChannelError("zero channel column")
    return serving.conj() * (np.sqrt(np.asarray(eta, dtype=float)) / norms)[None, :]


def zf_precoder(serving: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """(M, K) zero-forcing precoder: G^T times it is diagonal with entries
    sqrt(eta_k / [(G^H G)^-1]_kk); transmit power = sum(eta)."""
    igram = gram_inverse(serving.conj().T @ serving, serving.shape[0])
    d = np.real(np.diag(igram))
    scale = np.sqrt(np.asarray(eta, dtype=float) / d)
    return (serving.conj() @ igram.conj()) * scale[None, :]
