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


@dataclass(frozen=True)
class PowerAllocation:
    """Per-cell power-control coefficients.

    Downlink uses a total per-cell constraint (1-norm <= 1), uplink an
    individual per-user constraint (inf-norm <= 1).
    """

    eta: np.ndarray  # (L, K), nonnegative
    kind: str  # "total" (DL) or "individual" (UL)

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        object.__setattr__(self, "eta", eta)
        if self.kind not in ("total", "individual"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if np.any(eta < 0):
            raise ValueError("power coefficients must be nonnegative")
        norms = self.per_cell_norms()
        if np.any(norms > 1.0 + 1e-9):
            raise ValueError(f"per-cell power constraint violated: norms {norms}")

    def per_cell_norms(self) -> np.ndarray:
        if self.kind == "total":
            return np.sum(self.eta, axis=1)
        return np.max(self.eta, axis=1) if self.eta.size else np.zeros(len(self.eta))


def dl_allocation(eta: np.ndarray) -> PowerAllocation:
    return PowerAllocation(eta=np.atleast_2d(eta), kind="total")


def ul_allocation(eta: np.ndarray) -> PowerAllocation:
    return PowerAllocation(eta=np.atleast_2d(eta), kind="individual")


@dataclass(frozen=True)
class Precoder:
    matrix: np.ndarray  # (M, K)
    scheme: str


def gram_inverse(serving: np.ndarray) -> np.ndarray:
    """Inverse of G^H G with a rank-deficiency guard."""
    if serving.shape[1] > serving.shape[0]:
        raise SingularChannelError(
            f"need K <= M for ZF, got K={serving.shape[1]}, M={serving.shape[0]}"
        )
    gram = serving.conj().T @ serving
    if np.linalg.cond(gram) > COND_LIMIT:
        raise SingularChannelError("channel Gram matrix is rank deficient")
    return np.linalg.inv(gram)


def mr_precoder(serving: np.ndarray, eta: np.ndarray) -> Precoder:
    """Column k: conj(g_k) * sqrt(eta_k) / ||g_k||. Transmit power = sum(eta)."""
    norms = np.linalg.norm(serving, axis=0)
    if np.any(norms == 0):
        raise DegenerateChannelError("zero channel column")
    matrix = serving.conj() * (np.sqrt(np.asarray(eta, dtype=float)) / norms)[None, :]
    return Precoder(matrix=matrix, scheme=MR)


def zf_precoder(serving: np.ndarray, eta: np.ndarray) -> Precoder:
    """Zero-forcing precoder: G^T times it is diagonal with entries
    sqrt(eta_k / [(G^H G)^-1]_kk); transmit power = sum(eta)."""
    igram = gram_inverse(serving)
    d = np.real(np.diag(igram))
    scale = np.sqrt(np.asarray(eta, dtype=float) / d)
    matrix = (serving.conj() @ igram.conj()) * scale[None, :]
    return Precoder(matrix=matrix, scheme=ZF)


def _check_kind(alloc: PowerAllocation, link: str) -> None:
    want = "total" if link == DOWNLINK else "individual"
    if alloc.kind != want:
        raise ValueError(f"{link} needs a {want!r} allocation, got {alloc.kind!r}")
