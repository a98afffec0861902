"""
Downlink coverage map: multi-face receiver vs screen receiver
=============================================================

Builds a small required-SNR map over the room for the adaptive scheme
and compares the two receiver designs under random sitting orientations.
Writes the two CSV maps and their charts under out/ in the working
directory.
"""

import numpy as np

from lifisim import emit, run_cdf_map, scenario_from_dict

# one reduced-scale scenario per receiver design; same seed so the
# sampled positions, orientations, and blockers match realization by
# realization
base = dict(
    direction="downlink",
    activity="sitting",
    scheme="asm",
    spectral_efficiency=5,
    grid_step=1.0,
    n_directions=4,
    orientations_per_point=20,
    seed=7,
)

results = {}
for device in ("mdr", "sr"):
    sc = scenario_from_dict(dict(base, device=device))
    res = run_cdf_map(sc)
    results[device] = res
    paths = emit(res, "out", f"coverage_{device}", plots=True)
    print(f"{device}: wrote " + ", ".join(paths))

# summarize: median required receive SNR to hit the BER target, and the
# fraction of realizations that are infeasible (fully blocked)
for device, res in results.items():
    snr = res.column("gamma_rx_db")
    feasible = res.column("feasible") > 0
    med = np.median(np.where(feasible, snr, np.inf))
    print(f"{device}: median required SNR {med:.2f} dB, "
          f"outage {1.0 - feasible.mean():.1%} of realizations")

gain = (np.median(results['sr'].column('gamma_rx_db'))
        - np.median(results['mdr'].column('gamma_rx_db')))
print(f"multi-face receiver saves {gain:.1f} dB at the median")
