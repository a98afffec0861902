"""Link-level simulator for indoor bidirectional optical wireless.

Measurement-grounded channel matrices under random device orientation,
mobility and blockage, with spatial-modulation link evaluation: bit
error rates, required SNR, achievable-rate lower bounds and energy
efficiency for fixed, adaptive and multiplexing schemes on both link
directions.
"""

from .adaptive import (AsmDecision, admissible_group_starts,
                       asm_select_downlink, asm_signal_sets,
                       led_selection_uplink, required_snr, strongest_columns)
from .blockage import (Blocker, blockage_mask, place_blockers,
                       segments_blocked)
from .channel import (RadiosityError, RadiositySolver, SurfaceMesh,
                      build_environment_mesh, lambertian_order,
                      los_gain_matrix, nlos_gain)
from .config import (ConfigError, PRESET_LOCATIONS, Scenario, load_scenario,
                     scenario_from_dict, scenario_hash)
from .geometry import (APLayout, DeviceLayout, DevicePose, ap_positions,
                       device_layout, element_world_pose, grid_positions,
                       mdr_layout, rotation_matrix, sr_layout)
from .harness import (ChannelBuilder, RunResult, emit, empirical_cdf,
                      facing_directions, read_csv, run_ber_sweep, run_cdf_map,
                      run_orwp_eval, run_uplink_eval, write_csv)
from .orientation import (AR1Params, BUILTIN_STATS, OrientationStats,
                          SITTING_STATS, TrajectorySample, WALKING_STATS,
                          ar1_params, ar1_sequence, ar1_step, orwp_generate,
                          sample_static_orientation)
from .rates import (RateBounds, achievable_rate, energy_efficiency,
                    high_snr_gaps, input_power_variance, lower_bound_l1,
                    lower_bound_l2, mi_monte_carlo, rate_bounds)
from .sm import (Constellation, build_constellation,
                 build_mimo_constellation, gray_code, hamming_matrix,
                 ml_detect, monte_carlo_ber, pairwise_sq_distances,
                 pam_levels, pep, received_snr, union_bound_ber)
from .util import db_to_linear, linear_to_db, qfunc, wilson_interval

__version__ = "0.1.0"
