"""Random device orientation and orientation-aware mobility.

Static orientations are drawn per angle from measurement-fitted
distributions: Laplace for sitting users, Gaussian for walking users.
The yaw mean tracks the facing direction Omega as E[alpha] = Omega - 90
(degrees); pitch and roll have fixed means. Walking sessions evolve the
angles along a random-waypoint path as first-order autoregressive
processes sampled every coherence time.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class OrientationStats:
    """Per-angle orientation statistics for one activity.

    The yaw mean is parameterized by the facing direction: the stored
    alpha_mean_offset is added to (Omega - 90). Standard deviations are
    in degrees and coherence_times (one per angle, seconds) govern the
    autoregressive stepping during mobility.
    """

    family: str                      # "laplace" or "gaussian"
    alpha_mean_offset: float
    beta_mean: float
    gamma_mean: float
    stds: tuple                      # (std_alpha, std_beta, std_gamma)
    coherence_times: tuple           # (Tc_alpha, Tc_beta, Tc_gamma)

    def __post_init__(self):
        if self.family not in ("laplace", "gaussian"):
            raise ValueError(f"unknown distribution family: {self.family!r}")
        if min(self.stds) <= 0 or min(self.coherence_times) <= 0:
            raise ValueError("stds and coherence times must be positive")

    @cached_property
    def scales(self):
        """Scale of each angle's draw: the Laplace scale std / sqrt(2),
        so that the sample standard deviation matches the tabulated
        value, or the Gaussian std itself."""
        if self.family == "laplace":
            return tuple(std / np.sqrt(2.0) for std in self.stds)
        return tuple(self.stds)

    def means(self, omega_deg):
        """Angle means (degrees) for a user facing direction omega_deg."""
        return (
            omega_deg - 90.0 + self.alpha_mean_offset,
            self.beta_mean,
            self.gamma_mean,
        )


# Measurement-fitted statistics for hand-held devices. Sitting angles
# follow a Laplace distribution, walking angles a Gaussian one.
SITTING_STATS = OrientationStats(
    family="laplace",
    alpha_mean_offset=0.0,
    beta_mean=40.78,
    gamma_mean=-0.84,
    stds=(3.67, 2.39, 2.21),
    coherence_times=(0.342, 0.377, 0.331),
)

WALKING_STATS = OrientationStats(
    family="gaussian",
    alpha_mean_offset=0.0,
    beta_mean=28.81,
    gamma_mean=-1.35,
    stds=(10.0, 3.26, 5.42),
    coherence_times=(0.131, 0.176, 0.142),
)

BUILTIN_STATS = {"sitting": SITTING_STATS, "walking": WALKING_STATS}


def sample_static_orientation(stats, omega_deg, rng):
    """Draw one (alpha, beta, gamma) triple in degrees, one scalar draw
    per angle with stats.scales (the same values, in the same order, as
    one array draw over the three angles)."""
    draw = rng.laplace if stats.family == "laplace" else rng.normal
    return tuple(float(draw(mean, scale)) for mean, scale
                 in zip(stats.means(omega_deg), stats.scales))


@dataclass(frozen=True)
class AR1Params:
    """Coefficients of x[k] = c0 + c1 x[k-1] + w[k], w ~ N(0, sigma_w^2)."""

    c0: float
    c1: float
    sigma_w: float

    def __post_init__(self):
        if not abs(self.c1) < 1.0:
            raise ValueError("|c1| must be < 1 for wide-sense stationarity")

    @property
    def mean(self):
        return self.c0 / (1.0 - self.c1)


def ar1_params(mean, std, t_coherence, t_sample):
    """AR(1) coefficients matching a stationary mean, std and decay.

    The lag-1 coefficient is chosen so the autocorrelation falls to
    0.05 after one coherence time: c1 = 0.05^(Ts/Tc). The bias and the
    innovation variance then reproduce the stationary moments exactly:
    c0 = (1 - c1) mean and sigma_w^2 = (1 - c1^2) std^2.
    """
    if t_sample <= 0 or t_coherence <= 0:
        raise ValueError("time constants must be positive")
    if std <= 0:
        raise ValueError("std must be positive")
    c1 = 0.05 ** (t_sample / t_coherence)
    c0 = (1.0 - c1) * mean
    sigma_w = np.sqrt(1.0 - c1 * c1) * std
    return AR1Params(c0=c0, c1=c1, sigma_w=sigma_w)


def ar1_step(prev, params, rng):
    """One recursion step of the AR(1) process."""
    return params.c0 + params.c1 * prev + rng.normal(0.0, params.sigma_w)


def ar1_sequence(n, params, rng):
    """Vectorized AR(1) sample path of length n.

    Equivalent to n repeated ar1_step calls starting from the stationary
    mean; implemented as an IIR filter over the innovation sequence for
    speed.
    """
    # Imported here: scipy.signal dominates the package import time and
    # nothing else needs it.
    from scipy.signal import lfilter

    if n < 0:
        raise ValueError("n must be nonnegative")
    drive = params.c0 + rng.normal(0.0, params.sigma_w, size=n)
    # lfilter computes x[k] = drive[k] + c1 x[k-1]; zi carries the mean in.
    out, _ = lfilter([1.0], [1.0, -params.c1], drive,
                     zi=np.array([params.c1 * params.mean]))
    return out


@dataclass(frozen=True)
class TrajectorySample:
    """One mobility sample: previous and current position plus angles."""

    prev_position: tuple          # (x, y) m
    position: tuple               # (x, y) m
    speed: float                  # m/s
    angles_deg: tuple             # (alpha, beta, gamma)
    omega_deg: float              # leg direction, degrees from East


def orwp_generate(sc, stats, rng):
    """Orientation-correlated random-waypoint trajectory of a scenario.

    Reads sc.n_waypoints, sc.speed and the room footprint
    (sc.room_width x sc.room_depth); stats gives the angles' statistics.
    Waypoints are uniform over the footprint. Between consecutive
    waypoints the user moves on a straight line at constant speed,
    sampled every T_c = min of the three coherence times, so each
    inter-sample displacement has length v * T_c except the final
    partial step of a leg which lands exactly on the waypoint. Angles
    evolve as independent AR(1) processes, one per angle with its own
    coherence time entering c1; the yaw mean switches to the new leg
    direction from that leg's first sample. Processes start at their
    stationary means.

    Returns:
        list of TrajectorySample.
    """
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
        for k in range(n_full + (leg - n_full * step > 1e-9)):
            new_pos = pos + direction * step if k < n_full else wp
            angles = [ar1_step(angles[i], params[i], rng) for i in range(3)]
            samples.append(TrajectorySample(
                prev_position=tuple(pos), position=tuple(new_pos),
                speed=sc.speed, angles_deg=tuple(angles), omega_deg=float(omega),
            ))
            pos = new_pos
        pos = wp
    return samples
