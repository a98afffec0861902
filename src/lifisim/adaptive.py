"""Adaptive source selection for both link directions.

Downlink: asm_select_downlink is the one operating-point selector. It
tries each of a list of signal sets of one alphabet size on each
channel's strongest columns, as many as the set has sources, and keeps
the set of lowest required received SNR. ASM, for a target spectral
efficiency R, passes asm_signal_sets(R): every admissible number of
active access points with the PAM order that keeps R fixed. The fixed
schemes (sm and mimo) pass their one set; required_snr is the
one-channel, one-set form. The required-SNR search works on a stack of
B channels at once: sm.bound_tables builds one (B, n_pairs) table per
signal set, _bracket brackets every channel's crossing analytically by
its closest symbol pairs, and _search runs a safeguarded Newton
iteration on all of them with per-channel masks, dropping each channel
once it is done. Every row is computed on its own, with row-wise
reductions of one length per signal set, so a channel's result is
bit-identical whatever stack it comes in. Each set's table is built
once per channel; every channel's best-ranked set is searched first,
then, after one vectorized bound evaluation, every set that provably
cannot beat the best so far is skipped.

Uplink: order the transmit sources by channel column norm and activate
the largest power-of-two group whose weakest member alone sustains
M-PAM at the target error rate. led_selection_uplink selects at every
point of a transmit-SNR grid, for one channel or a stack of them, in
one call: the weakest columns of all admissible groups of every channel
are stacked into one bound_tables call and bounded at every point by
sm.point_bounds; a single SNR is the one-point case.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .sm import (bound_tables, bound_tails, build_constellation,
                 point_bounds, received_snr)
from .util import db_to_linear, linear_to_db, positive

#: The search never looks above this transmit SNR: a bound still above
#: the target there makes the point infeasible.
_MAX_DB = 200.0
#: Transmit SNR taken to miss the target without an evaluation.
_MIN_DB = -_MAX_DB - 20.0
#: Width in dB of the bracket a search closes on each crossing.
_TOL_DB = 0.01

#: Margin on the pruning test of asm_select_downlink, so that rounding
#: in the received-SNR conversion can never prune a candidate that ties.
_PRUNE_MARGIN = 1e-9

#: Most table entries (channels x K^2) one search builds at once; larger
#: stacks are searched in parts, which gives the same results.
_TABLE_ENTRIES = 1 << 20

#: Numbers of active access points that ASM chooses among.
ASM_COUNTS = (1, 2, 4, 8, 16)


def required_snr(constellation, H, target_ber):
    """Smallest SNR whose union-bound BER meets the target.

    The one-channel, one-set form of asm_select_downlink: H is
    (n_rx, n_active), and the AsmDecision uses all of its columns.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    if H.ndim != 2 or H.shape[1] != constellation.n_active:
        raise ValueError("H must be (n_rx, n_active)")
    return asm_select_downlink(H, target_ber, [constellation])


def _check_target(target_ber):
    if not 0 < target_ber < 0.5:
        raise ValueError("target_ber must lie in (0, 0.5)")


def _parts(Hs, K):
    """Consecutive sub-stacks of Hs within the table budget."""
    step = max(1, _TABLE_ENTRIES // (K * K))
    return [Hs[i:i + step] for i in range(0, len(Hs), step)]


def _qinv(p):
    """Inverse of the Gaussian tail probability, Q(_qinv(p)) = p."""
    return -ndtri(p)


def _to_db(u):
    """sqrt(gamma) to dB; -inf where u is not positive."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(u > 0, 20.0 * np.log10(np.where(u > 0, u, 1.0)),
                        -np.inf)


#: Per-channel search inputs of one signal set: the bound tables,
#: _bracket's total pair weight, q_star, u_lo and u_top, the channel's
#: received SNR per unit transmit SNR (sm.received_snr at gamma_tx = 1),
#: and whether the floor admits the target.
_Tables = namedtuple("_Tables", "floor weight root_a total q_star u_lo u_top "
                                "gain ok")


def _tables(constellation, Hs, target):
    """_Tables of the signal set on each channel of Hs.

    Raises ValueError when a channel whose floor admits the target is
    not finite.
    """
    Hs = np.ascontiguousarray(Hs, dtype=float)
    floor, weight, root_a = bound_tables(constellation, Hs)
    ok = floor <= target
    total, q_star, u_lo, u_top = _bracket(floor, weight, root_a, ok, target)
    gain = received_snr(Hs, constellation.n_active, 1.0)
    return _Tables(floor, weight, root_a, total, q_star, u_lo, u_top, gain, ok)


def _bracket(floor, weight, root_a, ok, target):
    """(W, q_star, u_lo, u_top) per channel: the crossing lies in
    [u_lo, u_top].

    In u = sqrt(gamma_tx), with W the total pair weight and W1 the
    weight of the closest pairs (root_a = r_min), every Q term lies
    between those of the closest and the farthest pair, so
    floor + W1 Q(u r_min) <= bound(u) <= floor + W Q(u r_min) and
    bound(u) >= floor + W Q(u r_max). Solving each for the target gives
    u_lo and u_top; q_star = Q^-1((target - floor) / W). Exact in exact
    arithmetic only: the search evaluates the ends before trusting them.
    Meaningful for the channels ok, whose floors admit the target; one
    of them with a non-finite r_min raises ValueError.
    """
    r_min = np.where(weight > 0, root_a, np.inf).min(axis=1)
    if not np.isfinite(r_min[ok]).all():
        raise ValueError("the channel must be finite")
    total = weight.sum(axis=1)
    closest = np.where(root_a == r_min[:, None], weight, 0.0).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = target - floor
        q_star = _qinv(excess / total)
        u_lo = q_star / root_a.max(axis=1)
        near = excess / closest
        u_lo = np.where(near < 0.5, np.maximum(
            u_lo, _qinv(np.minimum(near, 0.5)) / r_min), u_lo)
        return total, q_star, u_lo, q_star / r_min


def _rows(t, rows):
    """The tables t of the channels rows only."""
    return _Tables(*(field[rows] for field in t))


def _search(t, target, tol_db):
    """Transmit and received SNR (dB) where each bound crosses the target.

    For the channels of the tables t, whose floors admit the target,
    returns (hi, rx): hi with bound(hi) <= target such that some
    lo >= hi - tol_db was evaluated with bound(lo) > target, or inf
    where bound(200 dB) > target, and rx = hi times the channel's gain.
    -220 dB counts as missing the target without an evaluation.

    Starts in the middle of the bracket and takes Newton steps on
    y(u) = Q^-1(tail(u) / W) - q_star against u = sqrt(gamma_tx), which
    is exactly linear when all pairs are equally far apart and nearly
    so otherwise. Each point is put just past the Newton estimate, on
    its far side from the last point, so that once the estimate is good
    two evaluations tol_db apart finish the search. A Newton step that
    is not at most half the previous one, or leaves the bracket, is
    replaced by bisection. The analytic ends are widened when rounding
    breaks them. Every channel takes its own steps; a channel drops out
    of the evaluations once it is done.
    """
    n = len(t.floor)
    hi = np.full(n, np.inf)
    act = np.arange(n)
    floor, total, q_star, weight, root_a = (t.floor, t.total, t.q_star,
                                            t.weight, t.root_a)
    weight_r = weight * root_a
    # lo misses the target and top meets it; each is trusted once seen
    # (evaluated). The analytic ends start unseen.
    top = np.clip(_to_db(t.u_top), _MIN_DB, _MAX_DB)
    top_seen = np.zeros(n, dtype=bool)
    lo = np.minimum(_to_db(t.u_lo), top - tol_db)
    lo_seen = lo <= _MIN_DB
    lo[lo_seen] = _MIN_DB
    x = 0.5 * (lo + top)
    last_step = np.full(n, np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while act.size:
            u = np.sqrt(db_to_linear(x))
            z = u[:, None] * root_a
            tail = bound_tails(weight, z)
            met = floor + tail <= target
            failed = ~met & (x >= _MAX_DB)
            top = np.where(met, x, top)
            top_seen |= met
            # rounding broke the analytic lo: widen as bisection did
            widen = met & (x <= lo)
            lo = np.where(widen, x - 20.0, lo)
            lo_seen = np.where(widen, lo <= _MIN_DB, lo_seen)
            missed = ~met & ~failed
            lo = np.where(missed, x, lo)
            lo_seen |= missed
            # rounding broke the analytic top: search up to 200 dB
            top = np.where(missed & (x >= top), _MAX_DB, top)
            width = top - lo
            closed = width <= tol_db
            done = closed & top_seen & lo_seen
            hi[act[done]] = top[done]

            q = _qinv(tail / total)
            scale = total * np.exp(-0.5 * q * q)
            z *= z
            z *= -0.5
            np.exp(z, out=z)
            z *= weight_r
            slope = np.where(scale > 0, np.sum(z, axis=1) / scale, 0.0)
            shift = (q - q_star) / slope
            newton = (tail > 0) & (slope > 0) & (u > shift)
            guess = np.where(newton, _to_db(u - shift), np.nan)
            step = np.where(newton & (lo < guess) & (guess < top),
                            np.abs(guess - x), np.inf)
            bisect = (step > 0.5 * last_step) | (step == np.inf)
            # the crossing lies within reach: close the bracket from x
            reach = np.where(met, x - 0.99 * tol_db, x + 0.99 * tol_db)
            past = np.where(met, guess - 0.45 * tol_db, guess + 0.45 * tol_db)
            nxt = np.where(bisect, 0.5 * (lo + top),
                           np.where(step < 0.97 * tol_db, reach, past))
            # keep strictly inside the evaluated ends
            margin = 0.25 * np.minimum(tol_db, width)
            nxt = np.minimum(np.maximum(nxt, np.where(lo_seen, lo + margin,
                                                      lo)),
                             np.where(top_seen, top - margin, top))
            # a closed bracket evaluates its unseen end instead
            x = np.where(closed, np.where(top_seen, lo, top), nxt)
            last_step = np.where(closed, last_step,
                                 np.where(bisect, np.inf, step))

            keep = ~(done | failed)
            if not keep.all():
                (act, x, lo, top, lo_seen, top_seen, last_step, floor, total,
                 q_star, weight, root_a, weight_r) = (
                    a[keep] for a in (act, x, lo, top, lo_seen, top_seen,
                                      last_step, floor, total, q_star, weight,
                                      root_a, weight_r))
        rx = linear_to_db(db_to_linear(hi) * t.gain)
    return hi, rx


def _strength_order(Hs):
    """Column indices of each channel of a (B, n_rx, n_tx) stack by
    decreasing norm, ties to the smaller index. On a C-ordered stack the
    norms are summed row by row, so each channel's order is its own."""
    norms = np.linalg.norm(np.ascontiguousarray(Hs), axis=1)
    return np.argsort(-norms, axis=1, kind="stable")


def strongest_columns(H, n):
    """Indices of the n largest-norm columns of an (n_rx, n_tx) channel,
    ascending; a (B, n_rx, n_tx) stack gives one such row per channel,
    each its channel's own. Equal norms resolve to the smaller original
    index so selections are deterministic."""
    H = np.asarray(H, dtype=float)
    if H.ndim < 3:
        return strongest_columns(np.atleast_2d(H)[None], n)[0]
    return np.sort(_strength_order(H)[:, :n], axis=1)


@dataclass(frozen=True)
class AsmDecision:
    """Chosen operating point of a downlink signal-set choice."""

    feasible: bool
    n_active: int = 0
    M: int = 0
    active_set: tuple = ()
    gamma_tx_db: float = np.inf
    gamma_rx_db: float = np.inf


def asm_signal_sets(R):
    """The spatial-modulation sets ASM chooses among at R bits per symbol.

    One set per count N_a of ASM_COUNTS, ascending, with the PAM order
    M = 2^R / N_a; counts that would need M < 2 are left out (every
    symbol must carry at least one level bit). R is an integer.
    """
    return [build_constellation(2 ** R // n, n) for n in ASM_COUNTS
            if 2 ** R >= 2 * n]


def asm_select_downlink(H_full, target_ber, signal_sets):
    """The signal set and active access points of least required SNR.

    H_full is one (n_rx, n_tx) channel, which gives one AsmDecision, or
    a (B, n_rx, n_tx) stack, which gives a list of B decisions, each the
    one its channel alone gives. The sets must share one alphabet size
    K. Each set c is tried on the c.n_active strongest columns of the
    channel (strongest_columns); sets wider than the channel are
    skipped. For each set, the search finds the transmit SNR in dB
    where the monotone union bound crosses the target, to within
    _TOL_DB: the answer meets the target (union_bound_ber <= target)
    and a point at most _TOL_DB below it was evaluated and misses it.
    Pairs mapped to identical channel outputs put a floor under the
    bound; when that floor, or the bound at 200 dB, exceeds the target,
    the set cannot reach it. The decision keeps the set of lowest
    received SNR, ties to the smaller n_active, and is infeasible when
    no set reaches the target (the device has to move or rotate
    instead).

    Each channel's sets are searched in the order of an analytic upper
    bound on their received SNR, k u_top^2, so the winner tends to come
    first. Once a channel has a feasible best, a set whose bound still
    misses the target at the transmit SNR that would give the best
    received SNR is skipped without a search: the bound is monotone, so
    its received SNR would exceed the best one. The decision is the one
    an exhaustive search over the sets gives.
    """
    _check_target(target_ber)
    H_full = np.asarray(H_full, dtype=float)
    if H_full.ndim < 3:
        return asm_select_downlink(np.atleast_2d(H_full)[None], target_ber,
                                   signal_sets)[0]
    if len({c.K for c in signal_sets}) > 1:
        raise ValueError("the signal sets must share one alphabet size")
    sets = [c for c in signal_sets if c.n_active <= H_full.shape[2]]
    if not sets:
        return [AsmDecision(feasible=False)] * len(H_full)
    out = []
    for part in _parts(H_full, sets[0].K):
        out += _asm_part(part, target_ber, sets)
    return out


def _asm_part(Hs, target, sets):
    """asm_select_downlink on one sub-stack, for the signal sets.

    All the sets' tables have one width, so the channels' candidates of
    one rank are probed and searched as one stack.
    """
    order = _strength_order(Hs)
    cands = []
    for c in sets:
        idx = np.sort(order[:, :c.n_active], axis=1)
        cands.append((idx, _tables(
            c, np.take_along_axis(Hs, idx[:, None, :], axis=2), target)))
    counts = np.array([c.n_active for c in sets])
    # received SNR = k gamma_tx; rank by the bound k u_top^2 on it
    k = np.stack([t.gain for _, t in cands], axis=1)
    ok = np.stack([t.ok for _, t in cands], axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        key = k * np.stack([t.u_top for _, t in cands], axis=1) ** 2
    rank = np.argsort(np.where(ok, key, np.inf), axis=1, kind="stable")

    n_ch = len(Hs)
    best = np.full(n_ch, -1)              # candidate index, -1: none yet
    best_tx = np.full(n_ch, np.inf)
    best_rx = np.full(n_ch, np.inf)
    for r in range(len(cands)):
        rows = np.flatnonzero(ok[np.arange(n_ch), rank[:, r]])
        if not rows.size:
            continue
        # this rank's candidates of all channels as one stack, ordered by
        # candidate, then by channel
        ci = rank[rows, r]
        by_cand = np.argsort(ci, kind="stable")
        rows, ci = rows[by_cand], ci[by_cand]
        t = _Tables(*(np.concatenate(f) for f in zip(
            *(_rows(tc, rows[ci == i]) for i, (_, tc) in enumerate(cands)))))
        # a search could only find gamma_tx above this probe, and a
        # received SNR above the best
        probe = np.flatnonzero((best[rows] >= 0) & (k[rows, ci] > 0))
        if probe.size:
            u = np.sqrt(db_to_linear(best_rx[rows[probe]])
                        * (1.0 + _PRUNE_MARGIN) / k[rows[probe], ci[probe]])
            missed = t.floor[probe] + bound_tails(
                t.weight[probe], u[:, None] * t.root_a[probe]) > target
            keep = np.ones(len(rows), dtype=bool)
            keep[probe[missed]] = False
            rows, ci, t = rows[keep], ci[keep], _rows(t, keep)
        if not rows.size:
            continue
        hi, rx = _search(t, target, _TOL_DB)
        # rx == best_rx only where a best exists
        better = np.isfinite(hi) & (
            (rx < best_rx[rows])
            | ((rx == best_rx[rows]) & (counts[ci] < counts[best[rows]])))
        win = rows[better]
        best[win], best_tx[win], best_rx[win] = ci[better], hi[better], \
            rx[better]

    out = []
    for b in range(n_ch):
        if best[b] < 0:
            out.append(AsmDecision(feasible=False))
            continue
        c, (idx, _) = sets[best[b]], cands[best[b]]
        out.append(AsmDecision(feasible=True, n_active=c.n_active, M=c.M,
                               active_set=tuple(int(i) for i in idx[b]),
                               gamma_tx_db=float(best_tx[b]),
                               gamma_rx_db=float(best_rx[b])))
    return out


def admissible_group_starts(n_tx):
    """Sorted start indices i with log2(n_tx - i + 1) integer (1-based)."""
    return [i for i in range(1, n_tx + 1)
            if float(np.log2(n_tx - i + 1)).is_integer()]


def led_selection_uplink(H, M, gamma_tx, target_ber):
    """Power-of-two source group selection for the uplink.

    Columns are sorted ascending by norm (stable, so equal norms keep
    their original order). Scanning the admissible group starts from
    the largest group down, the first group whose weakest column alone
    achieves the single-source M-PAM union-bound BER at or below the
    target is activated; an empty group signals that communication
    fails and the user should change orientation or location.

    The weakest columns of all admissible groups of all channels are
    stacked and their single-source tables built in one bound_tables
    call; point_bounds then bounds every group at every SNR, each bound
    the one a one-point union_bound_ber call on that column gives. Each
    channel's columns are sorted by its own 2-D norm call.

    Args:
        H: (n_rx, n_tx) channel matrix, or a (B, n_rx, n_tx) stack.
        M: PAM order per source (2 ** target spectral efficiency).
        gamma_tx: transmit SNR I^2 / sigma_n^2, linear: one value, or
            a 1-D grid.

    Returns:
        The active original column indices, ascending, as a tuple, or
        for a grid a list of one such tuple per point; for a stack, a
        list of B such results, each the one its channel alone gives.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim < 3:
        return led_selection_uplink(np.atleast_2d(H)[None], M, gamma_tx,
                                    target_ber)[0]
    gamma_tx = positive(gamma_tx, "gamma_tx")
    n_tx = H.shape[2]
    order = np.array([np.argsort(np.linalg.norm(h, axis=0), kind="stable")
                      for h in H])
    starts = np.array(admissible_group_starts(n_tx))
    weakest = np.take_along_axis(H, order[:, None, starts - 1], axis=2)
    weakest = weakest.transpose(0, 2, 1).reshape(-1, H.shape[1], 1)
    rows = len(weakest)                              # B x groups
    met = point_bounds(bound_tables(build_constellation(M, 1), weakest),
                       np.repeat(gamma_tx.ravel(), rows),
                       np.tile(np.arange(rows), gamma_tx.size)) <= target_ber
    met = met.reshape(gamma_tx.size, len(H), len(starts))
    first = np.where(met.any(axis=2), met.argmax(axis=2), len(starts))
    out = []
    for b, row in enumerate(order):
        groups = [tuple(int(i) for i in np.sort(row[start - 1:]))
                  for start in starts] + [()]
        picks = [groups[k] for k in first[:, b]]
        out.append(picks[0] if gamma_tx.ndim == 0 else picks)
    return out
