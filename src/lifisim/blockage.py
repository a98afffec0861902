"""Link occlusion by people modeled as vertical rectangular prisms.

Two blocker kinds exist: the user's own body, standing a fixed distance
behind the device opposite the facing direction, and other people
scattered uniformly over the room at a given density. A link is blocked
when the open segment between its endpoints meets a prism's closed
volume; the test is an exact slab intersection in the prism's frame,
run only on the (segment, prism) pairs whose bounding boxes meet.
segments_blocked is the one dense test: each group of segments against
its own blocker list, so that one call can test the links of many
realizations (one list for all of them is the one-group case). For
segments whose endpoints never move (the access points to the
reflection mesh), a SegmentSet keeps an index of them, grouped by start
point and sorted by the azimuth of the far end, with their clipped
boxes, so that a test against several blocker lists looks up only the
links each prism's footprint covers as seen from their start.
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

    def __post_init__(self):
        if min(self.length, self.width, self.height) <= 0:
            raise ValueError("blocker dimensions must be positive")


def place_blockers(sc, pose, rng):
    """Sample the blocker population of one channel realization.

    Reads the scenario's blocker size, density and body distance. With
    sc.self_blockage, the self-blocker comes first: it stands
    sc.user_distance behind the device against the facing direction and
    faces the device.
    round(kappa_b * floor area) further prisms are placed uniformly
    over the room with uniform facings: one draw of an (n, 3) array of
    (x, y, facing), row by row.
    """
    blockers = []
    dims = dict(length=sc.blocker_length, width=sc.blocker_width,
                height=sc.blocker_height)
    if sc.self_blockage:
        omega = np.deg2rad(pose.omega_deg)
        cx = pose.position[0] - sc.user_distance * np.cos(omega)
        cy = pose.position[1] - sc.user_distance * np.sin(omega)
        blockers.append(Blocker(center=(float(cx), float(cy)),
                                facing_deg=float(pose.omega_deg), **dims))
    n_extra = int(np.floor(sc.kappa_b * sc.room_width * sc.room_depth + 0.5))
    spots = rng.random((n_extra, 3)) * (sc.room_width, sc.room_depth, 360.0)
    for x, y, facing in spots.tolist():
        blockers.append(Blocker(center=(x, y), facing_deg=facing, **dims))
    return blockers


#: Prisms that SegmentSet.blocked_each takes through its box and slab
#: tests at once, and prism slots that segments_blocked's grouped test
#: takes at once. Both bound a call's memory at any blocker count; a
#: row is the OR of independent pair tests, so every result is the same.
FAN_PRISMS = 128
DENSE_SLOTS = 8

#: Padding of the culling boxes, m. The slab test rounds at the 1e-15 m
#: level for room-scale coordinates, so no segment it reports as blocked
#: can lie this far outside a box.
_CULL_MARGIN = 1e-9

#: Spacing of the start points' azimuth ranges in the fan index key: it
#: exceeds 2 pi, so each start point's keys form one sorted run. Float
#: rounding of the key is monotone, so a window's run stays a superset.
_FAN_STRIDE = 8.0

#: Widening of each angular window, rad, far above the rounding of the
#: azimuths (~1e-15 rad); a wider window only adds pairs that the box
#: test then drops.
_FAN_PAD = 1e-9


def _columns(a, b):
    """(3, n) contiguous copies of the (n, 3) segment ends a and b; b
    may be one point shared by every segment."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.broadcast_to(np.asarray(b, dtype=float), a.shape)
    return np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)


def _prism_frames(blockers):
    """Per-blocker slab parameters and culling boxes, as arrays over the
    blocker list.

    Returns (frames, box): frames is (cos, sin, center, lo, hi), the
    cos/sin of each facing (m,), the footprint centers (2, m) and the
    prism box corners in its own frame (3, m), u along the facing, v
    across it, z unchanged; box is (x0, x1, y0, y1), the axis-aligned
    box around each rotated footprint, padded for both boxes.
    """
    # One scalar cos/sin per blocker: a vectorized cos may round
    # differently, and a prism's hits must not depend on its neighbours.
    cos, sin = [], []
    for blocker in blockers:
        phi = np.deg2rad(blocker.facing_deg)
        cos.append(np.cos(phi))
        sin.append(np.sin(phi))
    cos, sin = np.array(cos), np.array(sin)
    center = np.array([blocker.center for blocker in blockers], dtype=float).T
    hi = np.array([(blocker.width / 2, blocker.length / 2, blocker.height)
                   for blocker in blockers]).T
    lo = -hi
    lo[2] = 0.0
    abs_c, abs_s = np.abs(cos), np.abs(sin)
    ex = abs_c * hi[0] + abs_s * hi[1] + 2 * _CULL_MARGIN
    ey = abs_s * hi[0] + abs_c * hi[1] + 2 * _CULL_MARGIN
    return ((cos, sin, center, lo, hi),
            (center[0] - ex, center[0] + ex, center[1] - ey, center[1] + ey))


def _segment_prism_hits(a, b, si, bi, frames):
    """Slab test of the (segment, prism) pairs (si[k], bi[k]).

    Args:
        a, b: (3, n) segment endpoints.
        si, bi: segment and prism index of each pair.
        frames: _prism_frames's frames of the prisms.

    Returns:
        bool per pair; True where the open segment (a, b) meets the
        closed prism volume. Touching only at an endpoint does not count.
    """
    cos, sin, center, lo, hi = (v.take(bi, axis=-1) for v in frames)
    p0 = np.empty((3, si.size))
    p1 = np.empty((3, si.size))
    for p, q in ((p0, a.take(si, axis=1)), (p1, b.take(si, axis=1))):
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


def _clipped_boxes(a, b, top):
    """(segments, lo, hi) of segment columns a->b: the indices of the
    segments reaching below `top` (None for all of them) and the (2, n)
    xy corners of the bounding box of each one's part below that height."""
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
    return seg, np.minimum(a, b), np.maximum(a, b)


class SegmentSet:
    """Fan index of segments a->b whose ends do not move (access points
    to the reflection mesh), tested against each of several blocker
    lists at once.

    On the first call, blocked_each builds an index of the segments by
    start point and azimuth, and it keeps the clipped boxes in that
    order per tallest-prism height, so that each call pays only for the
    pairs that the index finds and their tests. Its rows equal the
    dense segments_blocked of each list, bit for bit.
    """

    def __init__(self, a, b):
        self.a, self.b = _columns(a, b)         # (3, n)
        self._fans = None         # _fan_index's result
        self._fan_boxes_at = {}   # height -> _fan_boxes's result

    def _fan_index(self):
        """(order, start, key): the segment indices sorted by start point
        and then by the azimuth of the far end, the (2, g) xy of each
        distinct start point, and the sort key of each sorted segment,
        its azimuth in [-pi, pi] plus _FAN_STRIDE times its start
        point's number."""
        if self._fans is None:
            a, b = self.a, self.b
            azimuth = np.arctan2(b[1] - a[1], b[0] - a[0])
            order = np.lexsort((azimuth, a[2], a[1], a[0]))
            a = a.take(order, axis=1)
            new = np.ones(order.size, dtype=bool)
            new[1:] = (a[:, 1:] != a[:, :-1]).any(axis=0)
            fan = np.cumsum(new) - 1
            self._fans = (order, a[:2, new],
                          azimuth.take(order) + _FAN_STRIDE * fan)
        return self._fans

    def _fan_boxes(self, top):
        """(4, n) clipped boxes of the segments in index order, rows
        (lo x, hi x, lo y, hi y); an empty box (lo inf, hi -inf) where a
        segment lies wholly above `top`. Kept per height."""
        boxes = self._fan_boxes_at.get(top)
        if boxes is None:
            order = self._fan_index()[0]
            seg, lo, hi = _clipped_boxes(self.a.take(order, axis=1),
                                         self.b.take(order, axis=1), top)
            boxes = np.empty((4, order.size))
            boxes[0::2] = np.inf
            boxes[1::2] = -np.inf
            seg = slice(None) if seg is None else seg
            boxes[0::2, seg] = lo
            boxes[1::2, seg] = hi
            self._fan_boxes_at[top] = boxes
        return boxes

    def blocked_each(self, lists):
        """(len(lists), n) bool: row r tests every segment against
        lists[r], equal to segments_blocked(a, b, lists[r]) bit for bit.

        Seen from a start point outside a prism's padded footprint box,
        the box spans an angular window of less than pi (split where it
        crosses +-pi); the links of that start point whose far end lies
        in the window are found by two searchsorted calls in the index,
        and only they go through the box test and the slab test. A
        start point inside the box keeps all of its links. Every link
        the slab test can report crosses the box, so its azimuth lies in
        the window. The prisms of all lists go through FAN_PRISMS at a
        time.
        """
        hit = np.zeros((len(lists), self.a.shape[1]), dtype=bool)
        prisms = [blocker for part in lists for blocker in part]
        if not prisms:
            return hit
        owner = np.repeat(np.arange(len(lists)),
                          [len(part) for part in lists])
        boxes = self._fan_boxes(max(p.height for p in prisms) + _CULL_MARGIN)
        for i in range(0, len(prisms), FAN_PRISMS):
            si, bi = self._fan_hits(prisms[i:i + FAN_PRISMS], boxes)
            hit[owner.take(bi + i), si] = True
        return hit

    def _fan_hits(self, prisms, boxes):
        """(segment, prism) index pairs of the blocked links among the
        prisms, through the fan index and the clipped boxes `boxes`."""
        frames, (x0, x1, y0, y1) = _prism_frames(prisms)
        center = frames[2]
        order, start, key = self._fan_index()

        # (start point, prism) windows of azimuth
        sx, sy = start[0][:, None], start[1][:, None]
        inside = (x0 <= sx) & (sx <= x1) & (y0 <= sy) & (sy <= y1)
        mid = np.arctan2(center[1] - sy, center[0] - sx)
        rel = [(np.arctan2(y - sy, x - sx) - mid + np.pi) % (2 * np.pi)
               - np.pi for x in (x0, x1) for y in (y0, y1)]
        w_lo = mid + np.minimum.reduce(rel) - _FAN_PAD
        w_hi = mid + np.maximum.reduce(rel) + _FAN_PAD
        # A window across -pi or pi goes on from the other end: a second
        # window, empty (from inf) for the others. Offsets of +-4 from a
        # start point's base key lie between its run and its neighbours',
        # so -4 to 4 takes its whole run, as a start point inside needs.
        base = _FAN_STRIDE * np.arange(start.shape[1])[:, None]
        q_lo = base + np.stack([
            np.where(inside, -4.0, np.maximum(w_lo, -4.0)),
            np.select([inside, w_lo < -np.pi, w_hi > np.pi],
                      [np.inf, w_lo + 2 * np.pi, -np.pi], np.inf)])
        q_hi = base + np.stack([
            np.where(inside, 4.0, np.minimum(w_hi, 4.0)),
            np.where(w_lo < -np.pi, np.pi, w_hi - 2 * np.pi)])
        first = np.searchsorted(key, q_lo.ravel(), side="left")
        count = np.searchsorted(key, q_hi.ravel(), side="right") - first
        np.maximum(count, 0, out=count)

        # every (segment, prism) pair in a window, through the box test
        pos = np.arange(count.sum()) + np.repeat(
            first - (np.cumsum(count) - count), count)
        bi = np.repeat(np.tile(np.arange(len(prisms)), 2 * start.shape[1]),
                       count)
        near = np.flatnonzero((boxes[0].take(pos) <= x1.take(bi))
                              & (boxes[1].take(pos) >= x0.take(bi))
                              & (boxes[2].take(pos) <= y1.take(bi))
                              & (boxes[3].take(pos) >= y0.take(bi)))
        si, bi = order.take(pos.take(near)), bi.take(near)
        hits = _segment_prism_hits(self.a, self.b, si, bi, frames)
        return si[hits], bi[hits]


def segments_blocked(a, b, blockers, group=None, segments=None):
    """(n,) bool: which of n segments a->b any of the blockers occludes.

    With group, blockers is a sequence of blocker lists and segment k is
    tested only against blockers[group[k]]: the links of many
    realizations, each among its own prisms, in one call. With
    segments, a SegmentSet already built over a->b, blockers is a
    sequence of lists and the result is segments.blocked_each(blockers):
    (len(blockers), n), row r testing every segment against blockers[r].

    Only (segment, prism) pairs that can meet go through the slab test.
    Segments lying wholly above the tallest prism are dropped; the rest
    are clipped to that height, and the xy bounding box of each clipped
    segment is compared with the footprint box of each prism of its
    group, DENSE_SLOTS prisms of each group at a time. Both boxes are
    padded by _CULL_MARGIN, so the result equals the slab test of every
    pair.
    """
    if segments is not None:
        return segments.blocked_each(blockers)
    a, b = _columns(a, b)
    hit = np.zeros(a.shape[1], dtype=bool)
    if group is None:
        blockers, group = [blockers], np.zeros(a.shape[1], dtype=np.intp)
    prisms = [blocker for part in blockers for blocker in part]
    if not prisms:
        return hit
    frames, (x0, x1, y0, y1) = _prism_frames(prisms)
    seg, box_lo, box_hi = _clipped_boxes(a, b,
                                         frames[4][2].max() + _CULL_MARGIN)
    # (prism slot, segment) layout, slot i the i-th prism of the
    # segment's own group where it has one: long rows make the
    # comparisons cheap.
    group = np.asarray(group, dtype=np.intp)
    if seg is not None:
        group = group.take(seg)
    counts = np.array([len(part) for part in blockers], dtype=np.intp)
    first = (np.cumsum(counts) - counts).take(group)
    for i in range(0, counts.max(), DENSE_SLOTS):
        slot = np.arange(i, min(i + DENSE_SLOTS, counts.max()))[:, None]
        valid = slot < counts.take(group)
        prism = np.where(valid, first + slot, 0)
        near = (valid
                & (box_lo[0] <= x1.take(prism)) & (box_hi[0] >= x0.take(prism))
                & (box_lo[1] <= y1.take(prism)) & (box_hi[1] >= y0.take(prism)))
        slots, si = np.nonzero(near)
        bi = prism[slots, si]
        if seg is not None:
            si = seg.take(si)
        hit[si[_segment_prism_hits(a, b, si, bi, frames)]] = True
    return hit


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
