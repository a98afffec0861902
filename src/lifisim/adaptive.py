"""Adaptive source selection for both link directions.

Downlink: for a target spectral efficiency R and target bit error rate,
try every admissible number of active access points, pair it with the
PAM order that keeps R fixed, and keep the choice with the lowest
required received SNR. required_snr finds each candidate's SNR with a
safeguarded Newton iteration on the union bound, bracketed analytically
by the closest symbol pairs; asm_select_downlink skips, after one bound
evaluation, every candidate that provably cannot beat the best so far.

Uplink: order the transmit sources by channel column norm and activate
the largest power-of-two group whose weakest member alone sustains
M-PAM at the target error rate.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .sm import UnionBound, build_constellation, received_snr, union_bound_ber
from .util import db_to_linear, linear_to_db

#: The search never looks above this transmit SNR: a bound still above
#: the target there makes the point infeasible.
_MAX_DB = 200.0
#: Transmit SNR taken to miss the target without an evaluation.
_MIN_DB = -_MAX_DB - 20.0

#: Margin on the pruning test of asm_select_downlink, so that rounding
#: in the received-SNR conversion can never prune a candidate that ties.
_PRUNE_MARGIN = 1e-9


@dataclass(frozen=True)
class RequiredSnr:
    """Required-SNR search result for one constellation and channel."""

    feasible: bool
    gamma_tx_db: float = np.inf
    gamma_rx_db: float = np.inf


def required_snr(constellation, H, target_ber, tol_db=0.01):
    """Smallest SNR whose union-bound BER meets the target.

    Finds the transmit SNR in dB where the monotone bound crosses the
    target, to within tol_db, and reports the matching received SNR.
    The answer hi always meets the target (bound(hi) <= target) and a
    point at most tol_db below it was evaluated and misses it. Pairs
    mapped to identical channel outputs put a floor under the bound;
    when that floor, or the bound at 200 dB, exceeds the target the
    search is infeasible (the device has to move or rotate instead).
    """
    _check_target(target_ber)
    if not tol_db > 0:
        raise ValueError("tol_db must be positive")
    H = np.atleast_2d(H)
    bound = UnionBound(constellation, H)
    if bound.floor > target_ber:
        return RequiredSnr(feasible=False)
    hi = _crossing_db(bound, target_ber, tol_db)
    if hi is None:
        return RequiredSnr(feasible=False)
    gamma_rx = received_snr(H, constellation.n_active, db_to_linear(hi))
    return RequiredSnr(feasible=True, gamma_tx_db=float(hi),
                       gamma_rx_db=float(linear_to_db(gamma_rx)))


def _check_target(target_ber):
    if not 0 < target_ber < 0.5:
        raise ValueError("target_ber must lie in (0, 0.5)")


def _qinv(p):
    """Inverse of the Gaussian tail probability, Q(_qinv(p)) = p."""
    return -float(ndtri(p))


def _bracket(bound, target):
    """(q_star, u_lo, u_top): the crossing lies in [u_lo, u_top].

    In u = sqrt(gamma_tx), with W the total pair weight and W1 the
    weight of the closest pairs (root_a = r_min), every Q term lies
    between those of the closest and the farthest pair, so
    floor + W1 Q(u r_min) <= bound(u) <= floor + W Q(u r_min) and
    bound(u) >= floor + W Q(u r_max). Solving each for the target gives
    u_lo and u_top; q_star = Q^-1((target - floor) / W). Exact in exact
    arithmetic only: the search evaluates the ends before trusting them.
    """
    weight, root_a = bound.weight, bound.root_a
    r_min = float(root_a.min())
    if not math.isfinite(r_min):
        raise ValueError("the channel must be finite")
    excess = target - bound.floor
    q_star = _qinv(excess / float(weight.sum()))
    closest = float(weight[root_a == r_min].sum())
    u_lo = q_star / float(root_a.max())
    if excess / closest < 0.5:
        u_lo = max(u_lo, _qinv(excess / closest) / r_min)
    return q_star, u_lo, q_star / r_min


def _crossing_db(bound, target, tol_db):
    """Transmit SNR hi (dB) where the bound crosses the target.

    Returns hi with bound(hi) <= target such that some lo >= hi - tol_db
    was evaluated with bound(lo) > target, or None when
    bound(200 dB) > target. -220 dB counts as missing the target
    without an evaluation, as it did for the bisection this search
    replaced.

    Starts in the middle of _bracket and takes Newton steps on
    y(u) = Q^-1(tail(u) / W) - q_star against u = sqrt(gamma_tx), which
    is exactly linear when all pairs are equally far apart and nearly
    so otherwise. Each point is put just past the Newton estimate, on
    its far side from the last point, so that once the estimate is good
    two evaluations tol_db apart finish the search. A Newton step that
    is not at most half the previous one, or leaves the bracket, is
    replaced by bisection. The analytic ends are widened when rounding
    breaks them.
    """
    q_star, u_lo, u_top = _bracket(bound, target)
    weight, root_a = bound.weight, bound.root_a
    total = float(weight.sum())
    # lo misses the target and top meets it; each is trusted once seen
    # (evaluated). The analytic ends start unseen.
    top, top_seen = min(max(_to_db(u_top), _MIN_DB), _MAX_DB), False
    lo, lo_seen = min(_to_db(u_lo), top - tol_db), False
    if lo <= _MIN_DB:
        lo, lo_seen = _MIN_DB, True
    weight_r = weight * root_a
    x = 0.5 * (lo + top)
    last_step = math.inf
    while True:
        gamma = float(db_to_linear(x))
        tail = bound.tail(gamma)
        met = bound.floor + tail <= target
        if met:
            top, top_seen = x, True
            if x <= lo:
                # rounding broke the analytic lo: widen as bisection did
                lo = x - 20.0
                lo_seen = lo <= _MIN_DB
        elif x >= _MAX_DB:
            return None
        else:
            lo, lo_seen = x, True
            if x >= top:
                # rounding broke the analytic top: search up to 200 dB
                top = _MAX_DB
        width = top - lo
        if width <= tol_db:
            if top_seen and lo_seen:
                return top
            x = top if not top_seen else lo
            continue

        guess = None
        if tail > 0:
            u = math.sqrt(gamma)
            q = _qinv(tail / total)
            z = u * root_a
            scale = total * math.exp(-0.5 * q * q)
            slope = float(weight_r @ np.exp(-0.5 * z * z)) / scale \
                if scale > 0 else 0.0
            if slope > 0 and u > (q - q_star) / slope:
                guess = _to_db(u - (q - q_star) / slope)
        step = abs(guess - x) if guess is not None and lo < guess < top \
            else math.inf
        if step > 0.5 * last_step or step == math.inf:
            x, last_step = 0.5 * (lo + top), math.inf
        else:
            last_step = step
            if step < 0.97 * tol_db:
                # the crossing lies within reach: close the bracket from x
                x = x - 0.99 * tol_db if met else x + 0.99 * tol_db
            else:
                x = guess - 0.45 * tol_db if met else guess + 0.45 * tol_db
        # keep strictly inside the evaluated ends
        margin = 0.25 * min(tol_db, width)
        x = min(max(x, lo + margin if lo_seen else lo),
                top - margin if top_seen else top)


def _to_db(u):
    """sqrt(gamma) to dB."""
    return 20.0 * math.log10(u) if u > 0 else -math.inf


def _strength_order(H):
    """Column indices by decreasing norm, ties to the smaller index."""
    return np.argsort(-np.linalg.norm(H, axis=0), kind="stable")


def strongest_columns(H, n):
    """Indices of the n largest-norm columns, ascending index order.

    Equal norms resolve to the smaller original index so selections are
    deterministic.
    """
    return np.sort(_strength_order(np.atleast_2d(H))[:n])


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

    The candidates are searched in the order of an analytic upper
    bound on their received SNR, so the winner tends to come first.
    Once a feasible best exists, a candidate whose bound still misses
    the target at the transmit SNR that would give the best received
    SNR is skipped without a search: the bound is monotone, so its
    received SNR would exceed the best one. The decision is the one an
    exhaustive search over the candidates gives.
    """
    _check_target(target_ber)
    H_full = np.atleast_2d(H_full)
    order = _strength_order(H_full)
    options = []
    for n_active in sorted(candidates):
        if n_active > H_full.shape[1]:
            continue
        spatial_bits = np.log2(n_active)
        if spatial_bits != int(spatial_bits):
            raise ValueError("candidate counts must be powers of two")
        M = 2 ** int(round(spectral_efficiency - spatial_bits))
        if M < 2 or M * n_active != 2 ** spectral_efficiency:
            continue
        idx = np.sort(order[:n_active])
        H = H_full[:, idx]
        c = build_constellation(M, n_active, mean_power)
        bound = UnionBound(c, H)
        if bound.floor > target_ber:
            continue
        # received SNR = k gamma_tx
        row_sums = H.sum(axis=1)
        k = float(row_sums @ row_sums) / n_active ** 2
        u_top = _bracket(bound, target_ber)[2]
        options.append((k * u_top ** 2, n_active, M, idx, c, H, bound, k))

    best = AsmDecision(feasible=False)
    for _, n_active, M, idx, c, H, bound, k in sorted(
            options, key=lambda o: o[:2]):
        # a search could only find gamma_tx above this probe, and a
        # received SNR above the best
        if best.feasible and k > 0 and bound(
                float(db_to_linear(best.gamma_rx_db))
                * (1.0 + _PRUNE_MARGIN) / k) > target_ber:
            continue
        res = required_snr(c, H, target_ber)
        if res.feasible and ((res.gamma_rx_db, n_active)
                             < (best.gamma_rx_db, best.n_active)):
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
