"""Static orientation draws, AR(1) stepping and the mobility generator."""

from dataclasses import fields

import numpy as np
import pytest

from lifisim import (AR1Params, OrientationStats, SITTING_STATS, Scenario,
                     TrajectorySample, WALKING_STATS, ar1_params, ar1_sequence,
                     ar1_step, orwp_generate, sample_static_orientation)


def test_builtin_stats_values():
    assert SITTING_STATS.family == "laplace"
    assert WALKING_STATS.family == "gaussian"
    assert SITTING_STATS.beta_mean == pytest.approx(40.78)
    assert SITTING_STATS.stds[1] == pytest.approx(2.39)
    assert WALKING_STATS.gamma_mean == pytest.approx(-1.35)
    assert WALKING_STATS.stds[2] == pytest.approx(5.42)
    assert SITTING_STATS.coherence_times[0] == pytest.approx(0.342)


def test_means_track_facing_direction():
    # yaw mean is Omega - 90; facing North means zero mean yaw
    assert SITTING_STATS.means(90.0) == pytest.approx((0.0, 40.78, -0.84))
    assert WALKING_STATS.means(0.0)[0] == pytest.approx(-90.0)


def test_stats_validation():
    with pytest.raises(ValueError):
        OrientationStats(family="uniform", alpha_mean_offset=0.0,
                         beta_mean=0.0, gamma_mean=0.0,
                         stds=(1, 1, 1), coherence_times=(1, 1, 1))
    with pytest.raises(ValueError):
        OrientationStats(family="laplace", alpha_mean_offset=0.0,
                         beta_mean=0.0, gamma_mean=0.0,
                         stds=(1, 0, 1), coherence_times=(1, 1, 1))


def test_degenerate_stats_return_means():
    # in the zero-variance limit the draw is the mean triple
    tiny = OrientationStats(family="laplace", alpha_mean_offset=0.0,
                            beta_mean=40.78, gamma_mean=-0.84,
                            stds=(1e-15, 1e-15, 1e-15),
                            coherence_times=(0.3, 0.3, 0.3))
    draw = sample_static_orientation(tiny, 90.0, np.random.default_rng(0))
    np.testing.assert_allclose(draw, (0.0, 40.78, -0.84), atol=1e-12)


def test_sitting_draw_moments():
    rng = np.random.default_rng(11)
    betas = np.array([sample_static_orientation(SITTING_STATS, 90.0, rng)[1]
                      for _ in range(200_000)])
    assert betas.mean() == pytest.approx(40.78, rel=0.02)
    assert betas.std() == pytest.approx(2.39, rel=0.025)
    z = betas - betas.mean()
    kurtosis = np.mean(z ** 4) / np.mean(z ** 2) ** 2
    assert kurtosis == pytest.approx(6.0, rel=0.08)


def test_walking_draw_moments():
    rng = np.random.default_rng(12)
    draws = np.array([sample_static_orientation(WALKING_STATS, 90.0, rng)
                      for _ in range(100_000)])
    np.testing.assert_allclose(draws.mean(axis=0), [0.0, 28.81, -1.35],
                               atol=0.12)
    np.testing.assert_allclose(draws.std(axis=0), [10.0, 3.26, 5.42],
                               rtol=0.02)
    z = draws[:, 1] - draws[:, 1].mean()
    kurtosis = np.mean(z ** 4) / np.mean(z ** 2) ** 2
    assert kurtosis == pytest.approx(3.0, rel=0.05)


def _array_draw(stats, omega_deg, rng):
    """The broadcast form the scalar draws replace: one array call over
    the three angles."""
    means = stats.means(omega_deg)
    if stats.family == "laplace":
        draws = rng.laplace(means, np.asarray(stats.stds) / np.sqrt(2.0))
    else:
        draws = rng.normal(means, stats.stds)
    return tuple(float(v) for v in draws)


@pytest.mark.parametrize("stats", [SITTING_STATS, WALKING_STATS])
def test_static_draws_equal_one_array_draw(stats):
    # same values bit for bit and the same stream position after each
    # draw: 20,000 draws over 4 facings and 5,000 seeds
    for seed in range(5000):
        got_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        for omega in (0.0, 37.5, 90.0, 271.25):
            got = sample_static_orientation(stats, omega, got_rng)
            assert got == _array_draw(stats, omega, ref_rng)
            assert all(type(v) is float for v in got)
        assert got_rng.random() == ref_rng.random()
    assert stats.scales == tuple(np.asarray(stats.stds) / np.sqrt(2.0)
                                 if stats.family == "laplace"
                                 else stats.stds)


def test_ar1_params_pins():
    p = ar1_params(mean=10.0, std=2.0, t_coherence=0.25, t_sample=0.25)
    assert p.c1 == pytest.approx(0.05)
    p0 = ar1_params(mean=0.0, std=1.0, t_coherence=0.3, t_sample=0.1)
    assert p0.c0 == 0.0
    # hand arithmetic: c0 = (1 - 0.05) * 28.81
    p2 = ar1_params(mean=28.81, std=3.26, t_coherence=0.176, t_sample=0.176)
    assert p2.c0 == pytest.approx(27.3695, abs=1e-4)


def test_ar1_params_stationary_algebra():
    rng = np.random.default_rng(4)
    for _ in range(50):
        mean = rng.uniform(-50, 50)
        std = rng.uniform(0.1, 10)
        tc = rng.uniform(0.05, 1.0)
        ts = rng.uniform(0.01, tc)
        p = ar1_params(mean, std, tc, ts)
        assert abs(p.c1) < 1
        assert p.mean == pytest.approx(mean, abs=1e-9)
        assert p.sigma_w ** 2 / (1 - p.c1 ** 2) == pytest.approx(std ** 2)


def test_ar1_params_validation():
    with pytest.raises(ValueError):
        ar1_params(0.0, 1.0, -0.1, 0.1)
    with pytest.raises(ValueError):
        ar1_params(0.0, 0.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        AR1Params(c0=0.0, c1=1.0, sigma_w=1.0)


def test_ar1_step_fixed_point():
    p = AR1Params(c0=0.5 * 30.0, c1=0.5, sigma_w=0.0)
    assert ar1_step(30.0, p, np.random.default_rng(0)) == pytest.approx(30.0)


def test_ar1_sequence_matches_scalar_recursion():
    # the vectorized path must reproduce the step-by-step recursion
    p = ar1_params(mean=5.0, std=2.0, t_coherence=0.342, t_sample=0.1)
    drive = p.c0 + np.random.default_rng(9).normal(0.0, p.sigma_w, size=300)
    expected = np.empty(300)
    x = p.mean
    for k in range(300):
        x = drive[k] + p.c1 * x
        expected[k] = x
    got = ar1_sequence(300, p, np.random.default_rng(9))
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_ar1_long_run_moments_and_autocorrelation():
    tc, ts = 0.342, 0.0342
    p = ar1_params(mean=3.0, std=1.5, t_coherence=tc, t_sample=ts)
    x = ar1_sequence(400_000, p, np.random.default_rng(21))
    assert x.mean() == pytest.approx(3.0, abs=0.02)
    assert x.var() == pytest.approx(1.5 ** 2, rel=0.02)
    lag = round(tc / ts)
    z = x - x.mean()
    r = np.dot(z[:-lag], z[lag:]) / np.dot(z, z)
    assert r == pytest.approx(0.05, abs=0.02)
    assert np.abs(x - 3.0).max() < 50 * 1.5   # bounded in probability


class _ScriptedRng:
    """Deterministic stand-in: scripted uniforms, zero-noise normals."""

    def __init__(self, uniform_pairs):
        self._queue = list(uniform_pairs)

    def uniform(self, lo, hi, size=None):
        if size == 2:
            return np.asarray(self._queue.pop(0), dtype=float)
        raise AssertionError("unexpected uniform call")

    def normal(self, loc, scale, size=None):
        if size is None:
            return float(loc)
        return np.full(size, float(loc))


def test_orwp_pinned_leg_step_count():
    # a 1 m leg at 1 m/s sampled every 0.131 s: 7 full steps + 1 partial
    stats = OrientationStats(family="gaussian", alpha_mean_offset=0.0,
                             beta_mean=28.81, gamma_mean=-1.35,
                             stds=(10.0, 3.26, 5.42),
                             coherence_times=(0.131, 0.176, 0.142))
    sc = Scenario(n_waypoints=1, speed=1.0, room_width=5.0, room_depth=5.0)
    rng = _ScriptedRng([(0.0, 0.0), (0.2, 0.0)])   # start (0,0) -> wp (1,0)
    samples = orwp_generate(sc, stats, rng)
    assert len(samples) == 8
    steps = [np.hypot(s.position[0] - s.prev_position[0],
                      s.position[1] - s.prev_position[1]) for s in samples]
    np.testing.assert_allclose(steps[:7], 0.131, rtol=1e-12)
    assert steps[7] == pytest.approx(1.0 - 7 * 0.131, abs=1e-12)
    np.testing.assert_allclose(samples[-1].position, (1.0, 0.0), atol=1e-12)
    assert samples[0].omega_deg == pytest.approx(0.0)
    # zero innovation noise keeps every angle at its AR(1) mean
    np.testing.assert_allclose(samples[3].angles_deg, (-90.0, 28.81, -1.35),
                               atol=1e-9)


def _orwp_two_block_reference(sc, stats, rng):
    """orwp_generate as it was written with a loop of full steps and a
    separate block for the partial last step of a leg; kept frozen as
    the oracle of the one-loop form."""
    t_c = min(stats.coherence_times)
    step = sc.speed * t_c
    hi = np.array([sc.room_width, sc.room_depth])

    pos = rng.uniform(0.0, 1.0, size=2) * hi
    angles = None
    samples = []
    for _ in range(sc.n_waypoints):
        wp = rng.uniform(0.0, 1.0, size=2) * hi
        while np.allclose(wp, pos):
            wp = rng.uniform(0.0, 1.0, size=2) * hi
        delta = wp - pos
        omega = np.degrees(np.arctan2(delta[1], delta[0]))
        leg = float(np.hypot(*delta))
        direction = delta / leg

        means = stats.means(omega)
        params = tuple(
            ar1_params(means[i], stats.stds[i], stats.coherence_times[i], t_c)
            for i in range(3)
        )
        if angles is None:
            angles = [p.mean for p in params]

        n_full = int(np.floor(leg / step + 1e-12))
        remainder = leg - n_full * step
        for k in range(n_full):
            new_pos = pos + direction * step
            angles = [ar1_step(angles[i], params[i], rng) for i in range(3)]
            samples.append(TrajectorySample(
                prev_position=tuple(pos), position=tuple(new_pos),
                speed=sc.speed, angles_deg=tuple(angles), omega_deg=float(omega),
            ))
            pos = new_pos
        if remainder > 1e-9:
            angles = [ar1_step(angles[i], params[i], rng) for i in range(3)]
            samples.append(TrajectorySample(
                prev_position=tuple(pos), position=tuple(wp),
                speed=sc.speed, angles_deg=tuple(angles), omega_deg=float(omega),
            ))
        pos = wp
    return samples


def _assert_same_samples(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in fields(TrajectorySample):
            assert getattr(a, f.name) == getattr(b, f.name), f.name


@pytest.mark.parametrize("speed", [0.3, 1.0, 1.7, 2.9])
@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_orwp_matches_two_block_reference(seed, speed):
    stats = WALKING_STATS if seed % 2 else SITTING_STATS
    sc = Scenario(n_waypoints=6, speed=speed, room_width=5.0, room_depth=4.0)
    rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
    _assert_same_samples(orwp_generate(sc, stats, rng),
                         _orwp_two_block_reference(sc, stats, ref_rng))
    assert rng.random() == ref_rng.random()       # the same draws were used


def test_orwp_exact_leg_has_no_partial_step():
    # step 0.125 m: the 1 m first leg is exactly 8 full steps, the 0.65 m
    # second leg 5 full steps and a partial one
    stats = OrientationStats(family="gaussian", alpha_mean_offset=0.0,
                             beta_mean=28.81, gamma_mean=-1.35,
                             stds=(10.0, 3.26, 5.42),
                             coherence_times=(0.125, 0.176, 0.142))
    sc = Scenario(n_waypoints=2, speed=1.0, room_width=5.0, room_depth=5.0)
    script = [(0.0, 0.0), (0.2, 0.0), (0.2, 0.13)]   # (0,0) (1,0) (1,0.65)
    samples = orwp_generate(sc, stats, _ScriptedRng(script))
    _assert_same_samples(samples, _orwp_two_block_reference(
        sc, stats, _ScriptedRng(script)))
    assert len(samples) == 8 + 6
    assert samples[7].position == (1.0, 0.0)
    assert samples[8].prev_position == (1.0, 0.0)
    assert samples[-1].position == (1.0, 0.65)


def test_orwp_step_geometry_and_footprint():
    sc = Scenario(n_waypoints=40, speed=1.0, room_width=5.0, room_depth=4.0)
    samples = orwp_generate(sc, WALKING_STATS, np.random.default_rng(2))
    step = 1.0 * min(WALKING_STATS.coherence_times)
    pos = np.array([s.position for s in samples])
    assert (pos[:, 0] >= 0).all() and (pos[:, 0] <= 5.0).all()
    assert (pos[:, 1] >= 0).all() and (pos[:, 1] <= 4.0).all()
    for prev, cur in zip(samples, samples[1:]):
        np.testing.assert_allclose(cur.prev_position, prev.position,
                                   atol=1e-12)
    for k, s in enumerate(samples):
        d = np.hypot(s.position[0] - s.prev_position[0],
                     s.position[1] - s.prev_position[1])
        last_of_leg = (k + 1 == len(samples)
                       or samples[k + 1].omega_deg != s.omega_deg)
        if last_of_leg:
            assert d <= step + 1e-9
        else:
            assert d == pytest.approx(step, rel=1e-9)
        # omega is the direction actually walked
        expected = np.degrees(np.arctan2(s.position[1] - s.prev_position[1],
                                         s.position[0] - s.prev_position[0]))
        assert expected == pytest.approx(s.omega_deg, abs=1e-6)


def test_orwp_waypoints_uniform():
    from scipy.stats import chisquare
    sc = Scenario(n_waypoints=2000, speed=1.0, room_width=5.0, room_depth=5.0)
    samples = orwp_generate(sc, WALKING_STATS, np.random.default_rng(5))
    # a leg ends where the facing direction changes
    ends = [s.position for k, s in enumerate(samples)
            if k + 1 == len(samples)
            or samples[k + 1].omega_deg != s.omega_deg]
    ends = np.array(ends)
    counts, _, _ = np.histogram2d(ends[:, 0], ends[:, 1],
                                  bins=10, range=[[0, 5], [0, 5]])
    assert chisquare(counts.ravel()).pvalue > 0.01

