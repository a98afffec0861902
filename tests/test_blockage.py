"""Prism placement and segment occlusion, checked against point sampling."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifisim import (Blocker, DevicePose, Scenario, blockage_mask,
                     element_world_pose, place_blockers, scenario_from_dict,
                     segments_blocked)
from lifisim import blockage
from lifisim.blockage import SegmentSet
from lifisim.harness import ChannelBuilder, _tasks


def _point_in_prism(points, blocker):
    """Closed-volume membership of (n, 3) points, in the prism frame."""
    phi = np.deg2rad(blocker.facing_deg)
    c, s = np.cos(phi), np.sin(phi)
    dx = points[:, 0] - blocker.center[0]
    dy = points[:, 1] - blocker.center[1]
    u = c * dx + s * dy
    v = -s * dx + c * dy
    return ((np.abs(u) <= blocker.width / 2)
            & (np.abs(v) <= blocker.length / 2)
            & (points[:, 2] >= 0.0) & (points[:, 2] <= blocker.height))


def _sampled_hit(a, b, blocker, n=10_000):
    """Dense-sampling oracle over the open segment interior."""
    t = (np.arange(n) + 0.5) / n
    pts = a[None, :] + t[:, None] * (b - a)[None, :]
    return bool(_point_in_prism(pts, blocker).any())


def segment_blocked(a, b, blocker):
    """The one-segment, one-prism case of segments_blocked."""
    return bool(segments_blocked([a], [b], [blocker])[0])


def test_segment_through_prism():
    blocker = Blocker(center=(0.0, 0.0), facing_deg=0.0)
    assert segment_blocked([-1, 0, 1.0], [1, 0, 1.0], blocker)
    assert segment_blocked([0, -1, 1.0], [0, 1, 1.0], blocker)


def test_segment_misses_prism():
    blocker = Blocker(center=(0.0, 0.0), facing_deg=0.0)
    # blocker entirely beyond the far endpoint
    assert not segment_blocked([5, 0, 1.0], [2, 0, 1.0], blocker)
    # passing above the prism
    assert not segment_blocked([-1, 0, 2.0], [1, 0, 2.0], blocker)


def test_segment_grazing_face_counts():
    blocker = Blocker(center=(0.0, 0.0), facing_deg=0.0)
    # runs inside the face plane x = width/2: closed-volume convention
    assert segment_blocked([0.1, -1, 1.0], [0.1, 1, 1.0], blocker)


def test_endpoint_touch_does_not_count():
    blocker = Blocker(center=(0.0, 0.0), facing_deg=0.0)
    # far endpoint exactly on the face, segment otherwise outside
    assert not segment_blocked([5.0, 0, 1.0], [0.1, 0, 1.0], blocker)
    assert not segment_blocked([0.1, 0, 1.0], [5.0, 0, 1.0], blocker)


def test_vertical_segment_inside_footprint():
    # degenerate x and y axes: membership decided per axis
    blocker = Blocker(center=(0.0, 0.0), facing_deg=30.0)
    assert segment_blocked([0, 0, -1.0], [0, 0, 3.0], blocker)
    assert not segment_blocked([2, 2, -1.0], [2, 2, 3.0], blocker)


def test_agreement_with_sampling_oracle():
    rng = np.random.default_rng(17)
    mismatches = 0
    for _ in range(1000):
        blocker = Blocker(center=tuple(rng.uniform(1, 4, size=2)),
                          facing_deg=rng.uniform(0, 360))
        a = rng.uniform([0, 0, 0], [5, 5, 3])
        b = rng.uniform([0, 0, 0], [5, 5, 3])
        got = segment_blocked(a, b, blocker)
        oracle = _sampled_hit(a, b, blocker)
        if oracle:
            assert got, f"missed hit for a={a} b={b} blocker={blocker}"
        elif got:
            mismatches += 1      # thinner than the sampling resolution
    assert mismatches <= 20


def test_segments_blocked_vectorized_matches_scalar():
    rng = np.random.default_rng(23)
    blockers = [Blocker(center=tuple(rng.uniform(1, 4, size=2)),
                        facing_deg=rng.uniform(0, 360)) for _ in range(3)]
    a = rng.uniform([0, 0, 0], [5, 5, 3], size=(40, 3))
    b = rng.uniform([0, 0, 0], [5, 5, 3], size=(40, 3))
    got = segments_blocked(a, b, blockers)
    expected = [any(segment_blocked(ai, bi, bl) for bl in blockers)
                for ai, bi in zip(a, b)]
    np.testing.assert_array_equal(got, expected)


def test_mask_shape_and_monotonicity():
    rng = np.random.default_rng(31)
    tx = rng.uniform([0, 0, 2.5], [5, 5, 3], size=(4, 3))
    rx = rng.uniform([0, 0, 0.5], [5, 5, 1.5], size=(6, 3))
    blockers = [Blocker(center=tuple(rng.uniform(0, 5, size=2)),
                        facing_deg=rng.uniform(0, 360)) for _ in range(6)]
    base = blockage_mask(tx, rx, blockers[:3])
    extended = blockage_mask(tx, rx, blockers)
    assert base.shape == (6, 4)
    assert np.all(extended | base == extended)   # adding never unmasks
    assert not blockage_mask(tx, rx, []).any()


def test_blockage_mask_rejects_empty_positions():
    with pytest.raises(ValueError):
        blockage_mask(np.empty((0, 3)), np.ones((1, 3)), [])


def test_self_blocker_placement():
    sc = Scenario(kappa_b=0.0, user_distance=0.3)
    pose = DevicePose(position=np.array([2.0, 3.0, 0.8]), omega_deg=90.0)
    blockers = place_blockers(sc, pose, np.random.default_rng(0))
    assert len(blockers) == 1
    # body stands user_distance behind the device, against the facing direction
    np.testing.assert_allclose(blockers[0].center, (2.0, 2.7), atol=1e-12)
    assert blockers[0].facing_deg == pytest.approx(90.0)


def test_self_blocker_can_be_disabled():
    sc = Scenario(kappa_b=0.0, self_blockage=False)
    pose = DevicePose(position=np.array([2.0, 3.0, 0.8]), omega_deg=0.0)
    assert place_blockers(sc, pose, np.random.default_rng(0)) == []


def test_blocker_count_rounds_half_up():
    pose = DevicePose(position=np.array([2.5, 2.5, 0.8]), omega_deg=0.0)
    rng = np.random.default_rng(1)

    def count(kappa):
        sc = Scenario(kappa_b=kappa, self_blockage=False)
        return len(place_blockers(sc, pose, rng))

    assert count(0.2) == 5          # 0.2 * 25 = 5
    assert count(0.18) == 5         # 4.5 rounds half up
    assert count(0.179) == 4
    assert count(0.0) == 0


def test_blockers_inside_room():
    sc = Scenario(kappa_b=1.0)
    pose = DevicePose(position=np.array([2.5, 2.5, 0.8]), omega_deg=45.0)
    blockers = place_blockers(sc, pose, np.random.default_rng(7))
    assert len(blockers) == 26      # 25 non-user + self
    centers = np.array([b.center for b in blockers[1:]])
    assert (centers >= 0).all() and (centers <= 5).all()
    facings = np.array([b.facing_deg for b in blockers[1:]])
    assert (facings >= 0).all() and (facings < 360).all()


def _scalar_placement(sc, pose, rng):
    """A frozen copy of the per-blocker form the one-array draw replaces:
    three scalar uniform draws per extra blocker."""
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
    for _ in range(n_extra):
        x = rng.uniform(0.0, sc.room_width)
        y = rng.uniform(0.0, sc.room_depth)
        facing = rng.uniform(0.0, 360.0)
        blockers.append(Blocker(center=(float(x), float(y)),
                                facing_deg=float(facing), **dims))
    return blockers


@settings(max_examples=200, deadline=None)
@given(kappa=st.one_of(st.sampled_from([0.0, 0.18, 0.179, 0.2, 1.0]),
                       st.floats(0.0, 4.0)),
       width=st.floats(0.5, 12.0), depth=st.floats(0.5, 12.0),
       self_blocker=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_one_array_placement_equals_scalar_draws(kappa, width, depth,
                                                 self_blocker, seed):
    # the same blockers bit for bit, and the stream left where the
    # scalar draws leave it, for every nonnegative kappa_b
    sc = Scenario(kappa_b=kappa, self_blockage=self_blocker,
                  room_width=width, room_depth=depth)
    pose = DevicePose(position=(width / 2, depth / 2, 0.8), omega_deg=30.0)
    got_rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    got = place_blockers(sc, pose, got_rng)
    assert got == _scalar_placement(sc, pose, ref_rng)
    assert all(type(v) is float for b in got
               for v in (*b.center, b.facing_deg))
    assert got_rng.random() == ref_rng.random()


def test_self_blocker_spares_high_elevation_links():
    # link clears the 1.75 m body when it crosses the footprint high up
    pose = DevicePose(position=np.array([2.5, 2.5, 1.4]), omega_deg=90.0)
    sc = Scenario(kappa_b=0.0, user_distance=0.3)
    body = place_blockers(sc, pose, np.random.default_rng(0))[0]
    np.testing.assert_allclose(body.center, (2.5, 2.2), atol=1e-12)
    high_ap = np.array([2.5, 2.2, 2.95])
    low_ap = np.array([2.5, 2.2, 1.6])
    device = np.array([2.5, 2.5, 1.4])
    assert not segment_blocked(high_ap, device, body)
    assert segment_blocked(low_ap, device, body)


def test_config_validation():
    with pytest.raises(ValueError):
        Blocker(center=(0, 0), facing_deg=0.0, height=0.0)


# -- culled test against the per-blocker slab test it replaced ------------

def _oracle_prism_hits(a, b, blocker):
    """The slab test of one prism over every segment, without culling."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    phi = np.deg2rad(blocker.facing_deg)
    c, s = np.cos(phi), np.sin(phi)
    cx, cy = blocker.center

    def to_local(p):
        dx = p[:, 0] - cx
        dy = p[:, 1] - cy
        return np.stack([c * dx + s * dy, -s * dx + c * dy, p[:, 2]], axis=1)

    p0 = to_local(a)
    p1 = to_local(b)
    d = p1 - p0
    lo = np.array([-blocker.width / 2, -blocker.length / 2, 0.0])
    hi = np.array([blocker.width / 2, blocker.length / 2, blocker.height])

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t1 = (lo - p0) / d
        t2 = (hi - p0) / d
    tmin = np.minimum(t1, t2)
    tmax = np.maximum(t1, t2)
    degenerate = d == 0.0
    inside = (p0 >= lo) & (p0 <= hi)
    tmin = np.where(degenerate, np.where(inside, -np.inf, np.inf), tmin)
    tmax = np.where(degenerate, np.where(inside, np.inf, -np.inf), tmax)

    t_enter = tmin.max(axis=1)
    t_exit = tmax.min(axis=1)
    return (t_enter <= t_exit) & (t_exit > 0.0) & (t_enter < 1.0)


def _oracle_blocked(a, b, blockers):
    hit = np.zeros(np.atleast_2d(a).shape[0], dtype=bool)
    for blocker in blockers:
        hit |= _oracle_prism_hits(a, b, blocker)
    return hit


# Quarter-metre grid values make exact ties (faces, edges, axis-aligned
# segments) common; uniform values cover the general position.
COORD = st.one_of(st.sampled_from(np.arange(-1.0, 6.01, 0.25).tolist()),
                  st.floats(-1.0, 6.0))
HEIGHT = st.one_of(st.sampled_from([0.5, 1.2, 1.75]), st.floats(0.1, 2.5))
FACING = st.one_of(st.sampled_from([0.0, 30.0, 45.0, 90.0, 180.0, 270.0]),
                   st.floats(0.0, 360.0))
BLOCKER = st.builds(
    lambda x, y, f, l, w, h: Blocker(center=(x, y), facing_deg=f, length=l,
                                     width=w, height=h),
    COORD, COORD, FACING,
    st.one_of(st.just(0.7), st.floats(0.05, 1.5)),
    st.one_of(st.just(0.2), st.floats(0.05, 1.5)), HEIGHT)


def _on_prism(blocker, u, v, z):
    """World point at local (u, v) in units of the half extents, height z."""
    phi = np.deg2rad(blocker.facing_deg)
    c, s = np.cos(phi), np.sin(phi)
    lu, lv = u * blocker.width / 2, v * blocker.length / 2
    return [blocker.center[0] + c * lu - s * lv,
            blocker.center[1] + s * lu + c * lv, z]


@st.composite
def segment_set(draw, blockers):
    """Segments of every shape the culling distinguishes."""
    top = max((b.height for b in blockers), default=1.75)
    kinds = ("general", "horizontal", "vertical", "above", "below",
             "from_prism", "at_height", "through_top")
    a_list, b_list = [], []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(kinds))
        a = [draw(COORD), draw(COORD), draw(st.floats(-0.5, 3.5))]
        b = [draw(COORD), draw(COORD), draw(st.floats(-0.5, 3.5))]
        if kind == "horizontal":
            b[2] = a[2]
        elif kind == "vertical":
            b[:2] = a[:2]
        elif kind == "above":
            a[2] = top + draw(st.floats(1e-12, 1.0))
            b[2] = top + draw(st.floats(1e-12, 1.0))
        elif kind == "below":
            a[2] = -draw(st.floats(1e-12, 1.0))
            b[2] = -draw(st.floats(1e-12, 1.0))
        elif kind == "at_height":
            a[2] = top
            b[2] = draw(st.sampled_from([top, top + 0.5, 0.0]))
        elif kind == "from_prism" and blockers:
            # an endpoint inside a prism, on a face, edge or corner
            blocker = draw(st.sampled_from(blockers))
            u = draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0]))
            v = draw(st.sampled_from([-1.0, 0.0, 1.0]))
            z = draw(st.sampled_from([0.0, blocker.height / 2,
                                      blocker.height]))
            a = _on_prism(blocker, u, v, z)
        elif kind == "through_top" and blockers:
            # a long rising segment through a prism just under its top,
            # so only the part near the height crossing can hit
            blocker = draw(st.sampled_from(blockers))
            unit = st.floats(-1.0, 1.0)
            p = np.array(_on_prism(blocker, draw(unit), draw(unit),
                                   blocker.height - draw(st.floats(0, 0.3))))
            d = np.array([draw(unit), draw(unit), draw(st.floats(0.05, 1.0))])
            a = p - draw(st.floats(0.5, 4.0)) * d
            b = p + draw(st.floats(0.5, 4.0)) * d
            if draw(st.booleans()):
                a, b = b, a
        a_list.append(a)
        b_list.append(b)
    return np.array(a_list, dtype=float), np.array(b_list, dtype=float)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_culled_segments_blocked_equals_per_blocker_slab_test(data):
    blockers = data.draw(st.lists(BLOCKER, max_size=5))
    a, b = data.draw(segment_set(blockers))
    got = segments_blocked(a, b, blockers)
    assert got.shape == (a.shape[0],) and got.dtype == bool
    np.testing.assert_array_equal(got, _oracle_blocked(a, b, blockers))
    if not blockers:
        assert not got.any()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_segment_set_reused_across_blocker_lists(data):
    # one set tested against several blocker lists of mixed heights, one
    # list at a time and through the fan index, so that the index's
    # clipped boxes are built at one height and reused at it after tests
    # at other heights
    lists = data.draw(st.lists(st.lists(BLOCKER, max_size=4), min_size=2,
                               max_size=4))
    a, b = data.draw(segment_set([bl for blockers in lists
                                  for bl in blockers]))
    segments = SegmentSet(a, b)
    for blockers in lists + lists[::-1]:
        np.testing.assert_array_equal(segments_blocked(a, b, blockers),
                                      _oracle_blocked(a, b, blockers))
        np.testing.assert_array_equal(segments.blocked_each([blockers])[0],
                                      _oracle_blocked(a, b, blockers))
    tops = {max(bl.height for bl in blockers) for blockers in lists
            if blockers}
    assert len(segments._fan_boxes_at) == len(tops)   # one clip per height


@st.composite
def fan_set(draw):
    """(a, b, lists): links from a few start points to many ends, as from
    access points to mesh cells, and blocker lists that meet them in
    every way the fan index distinguishes."""
    starts = [[draw(COORD), draw(COORD), draw(st.floats(0.5, 3.5))]
              for _ in range(draw(st.integers(1, 4)))]
    ends = [[draw(COORD), draw(COORD), draw(st.floats(-0.5, 3.0))]
            for _ in range(draw(st.integers(0, 24)))]
    for x, y, z in starts:
        if draw(st.booleans()):             # straight below a start point
            ends.append([x, y, draw(st.floats(-0.5, z - 0.1))])
    a = np.repeat(np.array(starts), len(ends), axis=0)
    b = np.tile(np.array(ends).reshape(-1, 3), (len(starts), 1))

    def placed(kind):
        x, y, z = draw(st.sampled_from(starts))
        if kind == "over_start":    # the start point inside the box
            dx, dy = draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.1, 0.1))
        else:                       # due west: a window across +-pi
            dx = -draw(st.floats(0.3, 3.0))
            dy = draw(st.sampled_from([0.0, 1e-12, -1e-12, 0.05, -0.05]))
        height = (draw(st.floats(z + 0.01, z + 2.0)) if kind == "tall"
                  else draw(HEIGHT))
        return Blocker(center=(x + dx, y + dy), facing_deg=draw(FACING),
                       height=height)

    lists = []
    for _ in range(draw(st.integers(0, 4))):
        blockers = draw(st.lists(BLOCKER, max_size=3))
        for kind in draw(st.lists(st.sampled_from(
                ["over_start", "west", "tall"]), max_size=3)):
            blockers.append(placed(kind))
        lists.append(blockers)
    if lists:                               # repeated lists
        lists += draw(st.lists(st.sampled_from(lists), max_size=3))
    return a, b, lists


@settings(max_examples=300, deadline=None)
@given(fan_set(), st.integers(1, 8), st.integers(1, 4))
def test_fan_index_equals_one_dense_test_per_list(case, prisms, slots):
    # chunk sizes this small put most inputs past them
    a, b, lists = case
    segments = SegmentSet(a, b)
    with mock.patch.multiple(blockage, FAN_PRISMS=prisms, DENSE_SLOTS=slots):
        got = segments_blocked(a, b, lists, segments=segments)
    assert got.shape == (len(lists), a.shape[0]) and got.dtype == bool
    for row, blockers in zip(got, lists):
        dense = segments_blocked(a, b, blockers)
        np.testing.assert_array_equal(row, dense)
        np.testing.assert_array_equal(row, _oracle_blocked(a, b, blockers))
    # the index is built once and kept
    index = segments._fan_index()
    np.testing.assert_array_equal(
        segments.blocked_each(lists), got)
    assert segments._fan_index() is index


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fan_index_on_any_segments(data):
    # segments of every shape the culling distinguishes, most with a
    # start point of their own
    lists = data.draw(st.lists(st.lists(BLOCKER, max_size=3), max_size=4))
    a, b = data.draw(segment_set([bl for blockers in lists
                                  for bl in blockers]))
    got = SegmentSet(a, b).blocked_each(lists)
    assert got.shape == (len(lists), a.shape[0])
    for row, blockers in zip(got, lists):
        np.testing.assert_array_equal(row, segments_blocked(a, b, blockers))


def test_culled_test_on_walking_user_segments():
    # the segments a downlink realization tests: AP -> mesh, mesh ->
    # photodiodes and AP -> photodiodes, among 6 prisms per pose
    sc = scenario_from_dict(dict(activity="walking", scheme="sm",
                                 n_active=4, kappa_b=0.2, seed=5))
    builder = ChannelBuilder(sc)
    mesh = builder.solver.mesh
    aps = builder.aps.positions
    rng = np.random.default_rng(2)
    n_blocked = 0
    for idx in range(20):
        x, y = rng.uniform(0.3, 4.7, size=2)
        pose, blockers = builder.realize(idx, x, y, rng.uniform(0, 360),
                                         (0.0, 30.0, 0.0))
        pd, _ = element_world_pose(pose, builder.layout)
        n_pd = pd.shape[0]
        a = np.concatenate([np.repeat(aps, mesh.n_elements, axis=0),
                            np.repeat(mesh.centers, n_pd, axis=0),
                            np.repeat(aps, n_pd, axis=0)])
        b = np.concatenate([np.tile(mesh.centers, (aps.shape[0], 1)),
                            np.tile(pd, (mesh.n_elements, 1)),
                            np.tile(pd, (aps.shape[0], 1))])
        got = segments_blocked(a, b, blockers)
        np.testing.assert_array_equal(got, _oracle_blocked(a, b, blockers))
        n_blocked += int(got.sum())
    assert n_blocked > 0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_grouped_segments_blocked_equals_one_call_per_group(data):
    # groups with no segments and groups with no blockers included, in
    # prism slots of 1 or 2 at a time as well as the default
    lists = data.draw(st.lists(st.lists(BLOCKER, max_size=3), min_size=1,
                               max_size=5))
    a, b = data.draw(segment_set([bl for blockers in lists
                                  for bl in blockers]))
    group = np.array(data.draw(st.lists(
        st.integers(0, len(lists) - 1), min_size=len(a), max_size=len(a))))
    slots = data.draw(st.sampled_from([1, 2, blockage.DENSE_SLOTS]))
    with mock.patch.object(blockage, "DENSE_SLOTS", slots):
        got = segments_blocked(a, b, lists, group)
    assert got.shape == (a.shape[0],) and got.dtype == bool
    for g, blockers in enumerate(lists):
        mine = group == g
        np.testing.assert_array_equal(
            got[mine], segments_blocked(a[mine], b[mine], blockers))
        np.testing.assert_array_equal(
            got[mine], _oracle_blocked(a[mine], b[mine], blockers))


def test_grouped_segments_blocked_without_segments_or_blockers():
    blocker = Blocker(center=(0.0, 0.0), facing_deg=0.0)
    none = np.empty((0, 3))
    assert segments_blocked(none, none, [[blocker]], []).shape == (0,)
    a = np.array([[-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]])
    b = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
    # the same segment is cut in the group of its prism only
    assert segments_blocked(a, b, [[], [blocker]], [0, 1]).tolist() == [
        False, True]
    assert not segments_blocked(a, b, [[], []], [0, 1]).any()


def _dense_walk(kappa_b):
    """A walking ChannelBuilder among kappa_b blockers per m^2, and the
    tasks of its first sub-block."""
    sc = scenario_from_dict(dict(activity="walking", scheme="sm", n_active=4,
                                 kappa_b=kappa_b, n_waypoints=2, seed=3))
    builder = ChannelBuilder(sc)
    spots, _ = _tasks(sc)                   # one draw per walking sample
    return builder, [(i, *spot) for i, spot
                     in enumerate(spots[:builder.sub_block])]


def test_both_blockage_tests_past_their_chunk_sizes():
    # 51 prisms per list: the fan index takes three lists' 153 prisms in
    # two parts, the grouped test every list in seven parts of slots
    builder, tasks = _dense_walk(2.0)
    lists = [builder.realize(*task)[1] for task in tasks[:3]]
    assert sum(map(len, lists)) > blockage.FAN_PRISMS
    assert min(map(len, lists)) > blockage.DENSE_SLOTS
    seg = builder._ap_mesh
    a, b = seg.a.T, seg.b.T
    got = segments_blocked(a, b, lists, segments=seg)
    for row, blockers in zip(got, lists):
        np.testing.assert_array_equal(row, _oracle_blocked(a, b, blockers))
    # each list among a third of the links, as the device links of three
    # poses are
    group = np.arange(len(a)) % 3
    got = segments_blocked(a, b, lists, group)
    for g, blockers in enumerate(lists):
        mine = group == g
        np.testing.assert_array_equal(
            got[mine], _oracle_blocked(a[mine], b[mine], blockers))
    assert got.any() and not got.all()


def test_dense_blockage_memory_per_sub_block():
    # 201 prisms per pose: testing every prism slot, and every fan prism,
    # at once held 212 MiB in one sub-block
    builder, tasks = _dense_walk(8.0)
    assert len(tasks) == builder.sub_block == 16
    tracemalloc.start()
    try:
        builder.channels(tasks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
