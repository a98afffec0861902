"""
Device orientation: static draws and a correlated walk
======================================================

Samples the measured orientation statistics two ways: independent draws
for a seated user, and an autoregressive trajectory along a random
waypoint path for a walking user.
"""

import numpy as np

from lifisim import (SITTING_STATS, WALKING_STATS, ar1_params, ar1_sequence,
                     orwp_generate, rotation_matrix, sample_static_orientation,
                     scenario_from_dict)

rng = np.random.default_rng(0)

# independent draws while seated, facing North (yaw 90, measured from East)
draws = np.array([sample_static_orientation(SITTING_STATS, 90.0, rng)
                  for _ in range(20_000)])
print("seated, facing North:")
for name, col in zip(("alpha", "beta", "gamma"), draws.T):
    print(f"  {name}: mean {col.mean():8.3f} deg, std {col.std():6.3f} deg")

# polar angle of the device normal: how far the screen tilts from
# straight up, the quantity that drives the received optical power
normals = np.array([rotation_matrix(*d) @ np.array([0.0, 0.0, 1.0])
                    for d in draws[:2000]])
theta = np.degrees(np.arccos(np.clip(normals[:, 2], -1.0, 1.0)))
print(f"  device tilt: mean {theta.mean():.2f} deg, "
      f"95th percentile {np.percentile(theta, 95):.2f} deg")

# a walking trajectory: waypoints in the room, sampled every coherence
# time; the pitch evolves as an AR(1) process along the path
walk = scenario_from_dict(dict(activity="walking", n_waypoints=6, speed=1.0,
                               room_width=5.0, room_depth=5.0))
samples = orwp_generate(walk, WALKING_STATS, np.random.default_rng(3))
pos = np.array([s.position for s in samples])
print(f"\nwalk across {len(samples)} samples, "
      f"net displacement {pos[-1] - pos[0]} m")

# the same correlation rule, shown standalone: autocorrelation decays
# to 0.05 after one coherence time
tc = WALKING_STATS.coherence_times[1]
par = ar1_params(WALKING_STATS.beta_mean, WALKING_STATS.stds[1],
                 t_coherence=tc, t_sample=tc / 10.0)
beta = ar1_sequence(50_000, par, np.random.default_rng(4))
lag = 10
ac = np.corrcoef(beta[:-lag], beta[lag:])[0, 1]
print(f"pitch AR(1): mean {beta.mean():.2f} deg, "
      f"autocorrelation at one coherence time {ac:.3f}")
walk_beta = np.array([s.angles_deg[1] for s in samples])
print(f"pitch along the walk: mean {walk_beta.mean():.2f} deg, "
      f"std {walk_beta.std():.2f} deg")
