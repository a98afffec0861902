"""Link occlusion by people modeled as vertical rectangular prisms.

Two blocker kinds exist: the user's own body, standing a fixed distance
behind the device opposite the facing direction, and other people
scattered uniformly over the room at a given density. A link is blocked
when the open segment between its endpoints meets a prism's closed
volume; the test is an exact slab intersection in the prism's frame,
run only on the (segment, prism) pairs whose bounding boxes meet. A
SegmentSet keeps those boxes for segments whose endpoints never move,
so that only the cull and the slab tests are repeated per blocker list.
One call can also test the links of many realizations, each group of
segments against its own blocker list.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Blocker:
    """Vertical prism standing on the floor.

    The footprint is a rectangle centered on ``center``: extent
    ``width`` along the facing direction (body depth) and ``length``
    across it (shoulder span). The prism spans z in [0, height].
    """

    center: tuple                 # (x, y) on the floor, m
    facing_deg: float
    length: float = 0.7           # L_b
    width: float = 0.2            # W_b
    height: float = 1.75          # H_b
    kind: str = "non-user"

    def __post_init__(self):
        if min(self.length, self.width, self.height) <= 0:
            raise ValueError("blocker dimensions must be positive")


@dataclass(frozen=True)
class BlockageConfig:
    """Density and geometry of blockers around the user."""

    kappa_b: float = 0.0          # non-user blockers per m^2
    d_p: float = 0.3              # device-to-body distance, m
    length: float = 0.7
    width: float = 0.2
    height: float = 1.75
    self_blocker: bool = True

    def __post_init__(self):
        if self.kappa_b < 0:
            raise ValueError("kappa_b must be nonnegative")
        if self.d_p <= 0:
            raise ValueError("d_p must be positive")


def place_blockers(cfg, room, pose, rng):
    """Sample the blocker population for one channel realization.

    The self-blocker stands d_p behind the device against the facing
    direction and faces the device. round(kappa_b * floor area) further
    prisms are placed uniformly with uniform facings.
    """
    blockers = []
    dims = dict(length=cfg.length, width=cfg.width, height=cfg.height)
    if cfg.self_blocker:
        omega = np.deg2rad(pose.omega_deg)
        cx = pose.position[0] - cfg.d_p * np.cos(omega)
        cy = pose.position[1] - cfg.d_p * np.sin(omega)
        blockers.append(Blocker(center=(float(cx), float(cy)),
                                facing_deg=float(pose.omega_deg),
                                kind="self", **dims))
    n_extra = int(np.floor(cfg.kappa_b * room.width * room.depth + 0.5))
    for _ in range(n_extra):
        x = rng.uniform(0.0, room.width)
        y = rng.uniform(0.0, room.depth)
        facing = rng.uniform(0.0, 360.0)
        blockers.append(Blocker(center=(float(x), float(y)),
                                facing_deg=float(facing), **dims))
    return blockers


#: Padding of the culling boxes, m. The slab test rounds at the 1e-15 m
#: level for room-scale coordinates, so no segment it reports as blocked
#: can lie this far outside a box.
_CULL_MARGIN = 1e-9


def _prism_frames(blockers):
    """Per-blocker slab parameters as arrays over the blocker list.

    Returns (cos, sin, center, lo, hi): cos/sin of each facing (m,),
    footprint centers (2, m) and the prism box corners in its own frame
    (3, m), u along the facing, v across it, z unchanged.
    """
    # One scalar cos/sin per blocker: a vectorized cos may round
    # differently, and a prism's hits must not depend on its neighbours.
    cos, sin = [], []
    for blocker in blockers:
        phi = np.deg2rad(blocker.facing_deg)
        cos.append(np.cos(phi))
        sin.append(np.sin(phi))
    center = np.array([blocker.center for blocker in blockers], dtype=float).T
    hi = np.array([(blocker.width / 2, blocker.length / 2, blocker.height)
                   for blocker in blockers]).T
    lo = -hi
    lo[2] = 0.0
    return np.array(cos), np.array(sin), center, lo, hi


def _segment_prism_hits(a, b, cos, sin, center, lo, hi):
    """Slab test of segment columns a->b against prism columns.

    Args:
        a, b: (3, n) segment endpoints.
        cos, sin, center, lo, hi: column i's prism, as columns of
            _prism_frames.

    Returns:
        (n,) bool; True where the open segment (a, b) meets the closed
        prism volume. Touching only at an endpoint does not count.
    """
    p0 = np.empty(a.shape)
    p1 = np.empty(a.shape)
    for p, q in ((p0, a), (p1, b)):
        dx = q[0] - center[0]
        dy = q[1] - center[1]
        np.add(cos * dx, sin * dy, out=p[0])
        np.add(-sin * dx, cos * dy, out=p[1])
        p[2] = q[2]
    d = p1 - p0

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t1 = (lo - p0) / d
        t2 = (hi - p0) / d
    tmin = np.minimum(t1, t2)
    tmax = np.maximum(t1, t2)
    # A degenerate axis constrains membership, not the parameter range.
    degenerate = d == 0.0
    if degenerate.any():
        inside = (p0 >= lo) & (p0 <= hi)
        tmin = np.where(degenerate, np.where(inside, -np.inf, np.inf), tmin)
        tmax = np.where(degenerate, np.where(inside, np.inf, -np.inf), tmax)

    t_enter = np.maximum(np.maximum(tmin[0], tmin[1]), tmin[2])
    t_exit = np.minimum(np.minimum(tmax[0], tmax[1]), tmax[2])
    return (t_enter <= t_exit) & (t_exit > 0.0) & (t_enter < 1.0)


class SegmentSet:
    """Fixed segments a->b, tested against one blocker list at a time
    (or one list per group of segments).

    Only (segment, prism) pairs that can meet go through the slab test.
    Segments lying wholly above the tallest prism are dropped; the rest
    are clipped to that height, and the xy bounding box of each clipped
    segment is compared with each prism's footprint box. Both boxes are
    padded by _CULL_MARGIN, so the result equals the slab test of every
    pair. The endpoints never change, so the clipped boxes are computed
    on the first test at each tallest-prism height and kept: a set built
    once for links whose ends do not move (access points to the
    reflection mesh) pays only the box cull and the slab tests per
    blocker list.
    """

    def __init__(self, a, b):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.broadcast_to(np.asarray(b, dtype=float), a.shape)
        self.a = np.ascontiguousarray(a.T)        # (3, n)
        self.b = np.ascontiguousarray(b.T)
        self._boxes = {}          # height -> _below's result

    def _below(self, top):
        """(segments, lo, hi): the indices of the segments reaching
        below `top` (None for all of them) and the (2, n) xy corners of
        the bounding box of each one's part below that height."""
        boxes = self._boxes.get(top)
        if boxes is not None:
            return boxes
        a, b = self.a, self.b
        low = (a[2] <= top) | (b[2] <= top)
        seg = None
        if not low.all():
            seg = np.flatnonzero(low)
            a = a[:, seg]
            b = b[:, seg]
        # Move an endpoint above `top` to where the segment crosses that
        # height (the other endpoint is below it).
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            frac = (top - a[2]) / (b[2] - a[2])
            cross = a[:2] + frac * (b[:2] - a[:2])
        a = np.where(a[2] > top, cross, a[:2])
        b = np.where(b[2] > top, cross, b[:2])
        boxes = (seg, np.minimum(a, b), np.maximum(a, b))
        self._boxes[top] = boxes
        return boxes

    def blocked(self, blockers, group=None):
        """(n,) bool: which segments any of the blockers occludes.

        With group, blockers is a sequence of blocker lists and segment k
        is tested only against blockers[group[k]]: the links of many
        realizations, each among its own prisms, in one call.
        """
        hit = np.zeros(self.a.shape[1], dtype=bool)
        prisms = blockers if group is None else [
            blocker for part in blockers for blocker in part]
        if not prisms:
            return hit
        cos, sin, center, lo, hi = _prism_frames(prisms)
        seg, box_lo, box_hi = self._below(hi[2].max() + _CULL_MARGIN)

        # Axis-aligned box around each rotated footprint rectangle, padded
        # for both boxes.
        abs_c, abs_s = np.abs(cos), np.abs(sin)
        ex = abs_c * hi[0] + abs_s * hi[1] + 2 * _CULL_MARGIN
        ey = abs_s * hi[0] + abs_c * hi[1] + 2 * _CULL_MARGIN
        # (prism slot, segment) layout: long rows make the comparisons
        # cheap. Ungrouped, slot i is prism i for every segment; grouped,
        # it is the i-th prism of the segment's own group, where it has one.
        if group is None:
            prism, valid = np.arange(len(prisms))[:, None], True
        else:
            group = np.asarray(group, dtype=np.intp)
            if seg is not None:
                group = group.take(seg)
            counts = np.array([len(part) for part in blockers], dtype=np.intp)
            slot = np.arange(counts.max())[:, None]
            valid = slot < counts.take(group)
            prism = np.where(valid, (np.cumsum(counts) - counts).take(group)
                             + slot, 0)
        near = (valid
                & (box_lo[0] <= (center[0] + ex).take(prism))
                & (box_hi[0] >= (center[0] - ex).take(prism))
                & (box_lo[1] <= (center[1] + ey).take(prism))
                & (box_hi[1] >= (center[1] - ey).take(prism)))

        slots, si = np.nonzero(near)
        bi = slots if group is None else prism[slots, si]
        if seg is not None:
            si = seg.take(si)
        hits = _segment_prism_hits(
            self.a.take(si, axis=1), self.b.take(si, axis=1), cos.take(bi),
            sin.take(bi), center.take(bi, axis=1), lo.take(bi, axis=1),
            hi.take(bi, axis=1))
        hit[si[hits]] = True
        return hit


def segments_blocked(a, b, blockers, group=None):
    """(n,) bool: which of n segments a->b any of the blockers occludes.

    The one-off form of SegmentSet(a, b).blocked(blockers, group): with
    group, segment k is tested only against the list blockers[group[k]].
    """
    return SegmentSet(a, b).blocked(blockers, group)


def blockage_mask(tx_positions, rx_positions, blockers, where=None):
    """Occlusion matrix over all transmitter-receiver pairs.

    Entry (i, j) is True when any blocker cuts the segment from
    transmitter j to receiver i. With a boolean (n_rx, n_tx) `where`,
    only the pairs it marks are tested and the others read False; a
    caller zeroing blocked gains passes `gain > 0`.
    """
    tx = np.atleast_2d(np.asarray(tx_positions, dtype=float))
    rx = np.atleast_2d(np.asarray(rx_positions, dtype=float))
    if tx.size == 0 or rx.size == 0:
        raise ValueError("position lists must be nonempty")
    shape = (rx.shape[0], tx.shape[0])
    if where is None:
        where = np.ones(shape, dtype=bool)
    i, j = np.nonzero(where)
    mask = np.zeros(shape, dtype=bool)
    mask[i, j] = segments_blocked(tx[j], rx[i], blockers)
    return mask
