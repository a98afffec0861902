"""Adaptive source selection for both link directions.

Downlink: for a target spectral efficiency R and target bit error rate,
try every admissible number of active access points, pair it with the
PAM order that keeps R fixed, and keep the choice with the lowest
required received SNR.

Uplink: order the transmit sources by channel column norm and activate
the largest power-of-two group whose weakest member alone sustains
M-PAM at the target error rate.
"""

from dataclasses import dataclass

import numpy as np

from .sm import (build_constellation, received_snr, union_bound_ber,
                 _bound_tables, _bound_from_tables)
from .util import db_to_linear, linear_to_db

#: Error floor contributed by symbol pairs that the channel cannot
#: separate; when it exceeds the target BER no SNR can reach the target.
_BRACKET_LO_DB = -20.0
_BRACKET_HI_DB = 80.0
_BRACKET_MAX_DB = 200.0


@dataclass(frozen=True)
class RequiredSnr:
    """Bisection result for one constellation and channel."""

    feasible: bool
    gamma_tx_db: float = np.inf
    gamma_rx_db: float = np.inf


def required_snr(constellation, H, target_ber, tol_db=0.01):
    """Smallest SNR whose union-bound BER meets the target.

    Bisects the monotone bound on the transmit SNR in dB down to
    tol_db, then reports the matching received SNR. Pairs mapped to
    identical channel outputs put a floor under the bound; when that
    floor exceeds the target the search is infeasible (the device
    has to move or rotate instead).
    """
    if not 0 < target_ber < 0.5:
        raise ValueError("target_ber must lie in (0, 0.5)")
    H = np.atleast_2d(H)
    d2, d_ham = _bound_tables(constellation, H)

    # Zero-distance pairs keep Q(0) = 1/2 regardless of SNR.
    K = constellation.K
    floor = 0.5 * float(d_ham[d2 <= 0.0].sum()) / (K * constellation.bits_per_symbol)
    if floor > target_ber:
        return RequiredSnr(feasible=False)

    def bound(db):
        return _bound_from_tables(d2, d_ham, constellation, db_to_linear(db))

    lo, hi = _BRACKET_LO_DB, _BRACKET_HI_DB
    while bound(hi) > target_ber:
        hi += 20.0
        if hi > _BRACKET_MAX_DB:
            return RequiredSnr(feasible=False)
    while bound(lo) <= target_ber:
        lo -= 20.0
        if lo < -_BRACKET_MAX_DB:
            break
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if bound(mid) <= target_ber:
            hi = mid
        else:
            lo = mid

    gamma_tx = db_to_linear(hi)
    gamma_rx = received_snr(H, constellation.n_active, gamma_tx)
    return RequiredSnr(feasible=True, gamma_tx_db=float(hi),
                       gamma_rx_db=float(linear_to_db(gamma_rx)))


def strongest_columns(H, n):
    """Indices of the n largest-norm columns, ascending index order.

    Equal norms resolve to the smaller original index so selections are
    deterministic.
    """
    H = np.atleast_2d(H)
    norms = np.linalg.norm(H, axis=0)
    order = np.argsort(-norms, kind="stable")
    return np.sort(order[:n])


@dataclass(frozen=True)
class AsmDecision:
    """Chosen operating point of the downlink adaptive scheme."""

    feasible: bool
    n_active: int = 0
    M: int = 0
    active_set: tuple = ()
    gamma_tx_db: float = np.inf
    gamma_rx_db: float = np.inf


def asm_select_downlink(H_full, target_ber, spectral_efficiency,
                        mean_power=1.0, candidates=(1, 2, 4, 8, 16)):
    """Pick the number and set of access points minimizing required SNR.

    Each candidate count N_a uses the N_a strongest columns of H_full
    and the PAM order M = 2^(R - log2 N_a); candidates that would need
    M < 2 are skipped (every symbol must carry at least one level bit).
    Ties in required received SNR go to the smaller N_a. Returns an
    infeasible decision when no candidate can reach the target.
    """
    H_full = np.atleast_2d(H_full)
    best = AsmDecision(feasible=False)
    for n_active in sorted(candidates):
        if n_active > H_full.shape[1]:
            continue
        spatial_bits = np.log2(n_active)
        if spatial_bits != int(spatial_bits):
            raise ValueError("candidate counts must be powers of two")
        M = 2 ** int(round(spectral_efficiency - spatial_bits))
        if M < 2 or M * n_active != 2 ** spectral_efficiency:
            continue
        idx = strongest_columns(H_full, n_active)
        c = build_constellation(M, n_active, mean_power)
        res = required_snr(c, H_full[:, idx], target_ber)
        if res.feasible and res.gamma_rx_db < best.gamma_rx_db:
            best = AsmDecision(feasible=True, n_active=n_active, M=M,
                               active_set=tuple(int(i) for i in idx),
                               gamma_tx_db=res.gamma_tx_db,
                               gamma_rx_db=res.gamma_rx_db)
    return best


@dataclass(frozen=True)
class LedSelection:
    """Outcome of the uplink source-selection sweep."""

    n_active: int                 # 0 means communication failed
    active_set: tuple             # original column indices

    @property
    def failed(self):
        return self.n_active == 0


def admissible_group_starts(n_tx):
    """Sorted start indices i with log2(n_tx - i + 1) integer (1-based)."""
    return [i for i in range(1, n_tx + 1)
            if float(np.log2(n_tx - i + 1)).is_integer()]


def led_selection_uplink(H, M, gamma_tx, target_ber, mean_power=1.0):
    """Power-of-two source group selection for the uplink.

    Columns are sorted ascending by norm (stable, so equal norms keep
    their original order). Scanning the admissible group starts from
    the largest group down, the first group whose weakest column alone
    achieves the single-source M-PAM union-bound BER at or below the
    target is activated; n_active = 0 signals that communication fails
    and the user should change orientation or location.

    Args:
        H: (n_rx, n_tx) channel matrix.
        M: PAM order per source (2 ** target spectral efficiency).
        gamma_tx: transmit SNR I^2 / sigma_n^2, linear.

    Returns:
        LedSelection with the active original column indices.
    """
    H = np.atleast_2d(H)
    n_tx = H.shape[1]
    norms = np.linalg.norm(H, axis=0)
    order = np.argsort(norms, kind="stable")      # ascending
    single = build_constellation(M, 1, mean_power)

    for start in admissible_group_starts(n_tx):
        weakest = H[:, order[start - 1]][:, None]
        if union_bound_ber(single, weakest, gamma_tx) <= target_ber:
            active = np.sort(order[start - 1:])
            return LedSelection(n_active=n_tx - start + 1,
                                active_set=tuple(int(i) for i in active))
    return LedSelection(n_active=0, active_set=())
