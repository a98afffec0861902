"""Scenario schema: defaults, validation, file loading and hashing."""

import math
from dataclasses import fields
from typing import Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from lifisim import (ConfigError, PRESET_LOCATIONS, Scenario, load_scenario,
                     run_ber_sweep, run_cdf_map, run_orwp_eval,
                     run_uplink_eval, scenario_from_dict, scenario_hash)
from lifisim import cli
from lifisim.config import MAX_SNR_POINTS, _CHOICES


def test_defaults_are_the_measurement_setup():
    sc = Scenario()
    assert (sc.room_width, sc.room_depth, sc.room_height) == (5.0, 5.0, 3.0)
    assert (sc.rho_walls, sc.rho_floor, sc.rho_ceiling) == (0.6, 0.2, 0.8)
    assert sc.ap_height == 2.95
    assert sc.semiangle_deg == 60.0 and sc.fov_deg == 60.0
    assert sc.pd_area == 0.25e-4
    assert (sc.blocker_length, sc.blocker_width, sc.blocker_height) == \
        (0.7, 0.2, 1.75)
    assert sc.user_distance == 0.3
    assert sc.target_ber == 3.8e-3
    assert sc.direction == "downlink" and sc.device == "mdr"


def test_activity_sets_device_height():
    assert Scenario(activity="sitting").ue_height_m() == 0.8
    assert Scenario(activity="walking").ue_height_m() == 1.4
    assert Scenario(activity="sitting", ue_height=1.0).ue_height_m() == 1.0


def test_location_presets():
    assert Scenario(location="L1").location_xy() == (2.5, 2.5)
    assert Scenario(location="L2").location_xy() == (1.25, 2.5)
    assert Scenario(location="L3").location_xy() == (2.5, 0.5)
    assert Scenario(location="L1").omega() == 90.0
    assert Scenario(location="L2").omega() == 0.0
    assert Scenario(location="L3").omega() == 180.0
    assert Scenario(location="L1", omega_deg=45.0).omega() == 45.0


def test_derived_objects():
    sc = Scenario()
    assert sc.layout().variant == "mdr"
    assert sc.stats().family == "laplace"
    assert Scenario(activity="walking").stats().family == "gaussian"
    assert Scenario(uplink_tse=2.0).uplink_pam_order() == 4


def test_snr_grids():
    sc = Scenario(snr_start_db=0, snr_stop_db=10, snr_step_db=5)
    assert list(sc.snr_grid_db()) == [0.0, 5.0, 10.0]
    up = Scenario(uplink_snr_start_db=100, uplink_snr_stop_db=108,
                  uplink_snr_step_db=4)
    assert list(up.uplink_snr_grid_db()) == [100.0, 104.0, 108.0]


def test_from_dict_roundtrip_and_defaults():
    sc = scenario_from_dict({"seed": 7, "grid_step": 1.0})
    assert sc.seed == 7
    assert sc.grid_step == 1.0
    assert sc.room_width == 5.0            # untouched default
    assert scenario_from_dict({}) == Scenario()


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        scenario_from_dict({"unknown_knob": 3})


def test_type_coercion_and_errors():
    sc = scenario_from_dict({"seed": 3, "speed": 2})   # int ok for float
    assert sc.speed == 2.0
    with pytest.raises(ConfigError):
        scenario_from_dict({"seed": "seven"})
    with pytest.raises(ConfigError):
        scenario_from_dict({"grid_step": "wide"})
    with pytest.raises(ConfigError):
        scenario_from_dict({"include_nlos": "yes please"})


@pytest.mark.parametrize("key", ["grid_step", "room_width", "kappa_b",
                                 "ue_height", "snr_stop_db"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400])
def test_non_finite_numbers_rejected(key, value):
    # a NaN passes every range check, since each one compares
    with pytest.raises(ConfigError, match=f"{key}: expected a finite"):
        scenario_from_dict({key: value})


@pytest.mark.parametrize("key", ["n_active", "seed", "n_waypoints"])
def test_integers_beyond_64_bits_rejected(key):
    # n_active = 10**30 used to escape as a TypeError from np.log2
    with pytest.raises(ConfigError, match=f"{key}: .* 64-bit"):
        scenario_from_dict({key: 10 ** 30})
    assert scenario_from_dict({"seed": 2 ** 63 - 1}).seed == 2 ** 63 - 1


def test_choice_validation():
    with pytest.raises(ConfigError):
        scenario_from_dict({"direction": "sideways"})
    with pytest.raises(ConfigError):
        scenario_from_dict({"device": "corner"})
    with pytest.raises(ConfigError):
        scenario_from_dict({"activity": "running"})
    with pytest.raises(ConfigError):
        scenario_from_dict({"scheme": "qam"})
    with pytest.raises(ConfigError):
        scenario_from_dict({"orientation": "wobbly"})


def test_range_validation():
    with pytest.raises(ConfigError):
        scenario_from_dict({"rho_walls": 1.3})
    with pytest.raises(ConfigError):
        scenario_from_dict({"target_ber": 0.9})
    with pytest.raises(ConfigError):
        scenario_from_dict({"ap_height": 3.5})        # above the ceiling
    with pytest.raises(ConfigError):
        scenario_from_dict({"ue_height": 4.0})
    with pytest.raises(ConfigError):
        scenario_from_dict({"n_active": 3})           # not a power of two
    with pytest.raises(ConfigError):
        scenario_from_dict({"snr_start_db": 50, "snr_stop_db": 10})
    with pytest.raises(ConfigError):
        scenario_from_dict({"mc_symbols": -1})
    assert scenario_from_dict({"mc_symbols": 0}).mc_symbols == 0
    with pytest.raises(ConfigError):
        scenario_from_dict({"mi_samples": 50})        # too few to estimate
    assert scenario_from_dict({"mi_samples": 1000}).mi_samples == 1000
    assert scenario_from_dict({"fov_deg": 90.0}).fov_deg == 90.0


@pytest.mark.parametrize("name", ["snr_step_db", "uplink_snr_step_db"])
def test_snr_grids_have_a_size_limit(name):
    # a 1e-9 dB step asks for 7e10 (downlink) or 8e10 (uplink) points
    with pytest.raises(ConfigError, match=f"^{name} .* SNR points, above"):
        scenario_from_dict({name: 1e-9})
    # the largest grid allowed still validates
    start, stop = (0.0, 70.0) if name == "snr_step_db" else (100.0, 180.0)
    step = (stop - start) / (MAX_SNR_POINTS - 1)
    assert scenario_from_dict({name: step})


@pytest.mark.parametrize("grid", ["snr", "uplink_snr"])
@pytest.mark.parametrize("step", [3.0, 20.0, 0.3, 4.0 / 3.0])
def test_snr_step_must_divide_the_span(grid, step):
    # 3 dB over 0-10 dB used to become a 3.33 dB step, and 20 dB the
    # lone point 0 dB, dropping the configured stop
    span = {f"{grid}_start_db": 100.0, f"{grid}_stop_db": 110.0}
    with pytest.raises(ConfigError,
                       match=f"^{grid}_step_db .* does not divide"):
        scenario_from_dict({**span, f"{grid}_step_db": step})


@pytest.mark.parametrize("grid", ["snr", "uplink_snr"])
@pytest.mark.parametrize("start,stop,step", [
    (100.0, 110.0, 2.5), (100.0, 110.0, 10.0), (0.0, 1.0, 0.1),
    (28.0, 46.0, 2.0), (120.0, 170.0, 5.0), (150.0, 150.0, 4.0),
    (0.3, 0.9, 0.2)])
def test_snr_steps_that_divide_the_span_keep_it(grid, start, stop, step):
    sc = scenario_from_dict({f"{grid}_start_db": start,
                             f"{grid}_stop_db": stop,
                             f"{grid}_step_db": step})
    values = sc.snr_grid_db() if grid == "snr" else sc.uplink_snr_grid_db()
    assert values[0] == start and values[-1] == stop
    np.testing.assert_allclose(np.diff(values), step, rtol=1e-9)


def test_uplink_sm_n_active_is_at_most_the_device_elements():
    for device in ("sr", "mdr"):
        n = Scenario(device=device).layout().n_elements
        over = dict(direction="uplink", scheme="sm", device=device,
                    spectral_efficiency=12)
        assert scenario_from_dict({**over, "n_active": n}).n_active == n
        with pytest.raises(ConfigError, match="n_active"):
            scenario_from_dict({**over, "n_active": 2 * n})
    # the downlink's n_active counts access points, not device elements
    assert scenario_from_dict({"scheme": "sm", "n_active": 8}).n_active == 8


@pytest.mark.parametrize("key,value,message", [
    ("room_width", 0.0, "room_width must be positive"),
    ("pd_area", 0.0, "pd_area must be positive"),
    ("fov_deg", 0.0, "fov_deg must be positive"),
    ("fov_deg", 120.0, r"fov_deg must lie in \(0, 90\] degrees"),
    ("semiangle_deg", 90.0, r"semiangle must lie in \(0, 90\) degrees"),
    ("user_distance", 0.0, "user_distance must be positive"),
    ("user_distance", -0.1, "user_distance must be positive"),
    ("kappa_b", -0.1, "kappa_b must be nonnegative"),
    ("speed", 0.0, "speed must be positive"),
    ("n_waypoints", 0, "n_waypoints must be positive"),
])
def test_link_and_body_ranges_name_their_key(tmp_path, capsys, key, value,
                                             message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        scenario_from_dict({key: value})
    path = tmp_path / "scenario.yaml"
    path.write_text(f"{key}: {value}\n")
    assert cli.main(["validate-config", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_scheme_consistency():
    # R = 4 with 16 sources leaves no level bit for SM
    with pytest.raises(ConfigError):
        scenario_from_dict({"scheme": "sm", "n_active": 16,
                            "spectral_efficiency": 4})
    sc = scenario_from_dict({"scheme": "sm", "n_active": 4,
                             "spectral_efficiency": 5})
    assert sc.n_active == 4
    with pytest.raises(ConfigError):
        scenario_from_dict({"scheme": "mimo", "n_active": 4,
                            "spectral_efficiency": 5})


def test_yaml_loading(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text("seed: 11\nactivity: walking\nkappa_b: 0.2\n")
    sc = load_scenario(str(path))
    assert sc.seed == 11
    assert sc.activity == "walking"
    assert sc.kappa_b == 0.2
    with pytest.raises(ConfigError):
        load_scenario(str(tmp_path / "missing.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: [unclosed\n")
    with pytest.raises(ConfigError):
        load_scenario(str(bad))


def test_scenario_hash_stability():
    a = scenario_from_dict({"seed": 1})
    b = scenario_from_dict({"seed": 1})
    c = scenario_from_dict({"seed": 2})
    assert scenario_hash(a) == scenario_hash(b)
    assert scenario_hash(a) != scenario_hash(c)
    assert len(scenario_hash(a)) == 12
    assert scenario_hash(Scenario()) != scenario_hash(
        Scenario(grid_step=1.0))


# -- fuzzing: a scenario either fails validation or runs ---------------------

_WRONG_TYPE = st.sampled_from(["x", [1], None, True])
_BAD_NUMBER = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf,
                                         0.0, -1.0, 10 ** 400]), _WRONG_TYPE)

#: Fields that set how much work a run does, with small values only, so
#: that every example runs in well under a second.
_SMALL = {
    "grid_step": st.sampled_from([2.0, 2.5]),
    "n_directions": st.integers(1, 2),
    "orientations_per_point": st.integers(1, 2),
    "n_waypoints": st.integers(1, 2),
    "speed": st.floats(0.8, 1.5),
    "mc_symbols": st.sampled_from([0, 500]),
    "mi_samples": st.sampled_from([0, 1000]),
    "mesh_resolution": st.sampled_from([1.0, 1.5]),
    "n_ap_side": st.integers(1, 3),
    "room_width": st.floats(3.0, 4.5),
    "room_depth": st.floats(3.0, 4.5),
    "spectral_efficiency": st.sampled_from([1.0, 3.0, 4.0, 5.0]),
    "uplink_tse": st.sampled_from([1.0, 2.0]),
    "snr_start_db": st.just(20.0),
    "snr_stop_db": st.sampled_from([20.0, 40.0]),
    "snr_step_db": st.just(10.0),
    "uplink_snr_start_db": st.just(120.0),
    "uplink_snr_stop_db": st.sampled_from([120.0, 160.0]),
    "uplink_snr_step_db": st.just(20.0),
}


def _plausible(f):
    """Values near a field's default, or one of its choices."""
    default = f.default
    if f.name in _SMALL:
        return _SMALL[f.name]
    if f.type is bool:
        return st.booleans()
    if f.type is str:
        return st.sampled_from(list(_CHOICES.get(f.name, PRESET_LOCATIONS)))
    if f.name == "n_active":
        return st.sampled_from([1, 2, 4, 8, 3])
    if f.type is int:
        return st.integers(0, 8)
    if f.type == Optional[float]:
        return st.one_of(st.none(), st.floats(0.0, 2.0))
    if default == 0:
        return st.floats(0.0, 0.5)
    return st.floats(min(0.5 * default, 1.5 * default),
                     max(0.5 * default, 1.5 * default))


#: The runners that accept a scenario of each (direction, activity).
_RUNNERS = {("downlink", "sitting"): [run_cdf_map, run_ber_sweep],
            ("downlink", "walking"): [run_orwp_eval, run_ber_sweep],
            ("uplink", "sitting"): [run_uplink_eval],
            ("uplink", "walking"): [run_uplink_eval]}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_any_scenario_dict_is_rejected_or_runs(data):
    names = sorted(f.name for f in fields(Scenario))
    plausible = {f.name: _plausible(f) for f in fields(Scenario)}
    chosen = data.draw(st.sets(st.sampled_from(names), max_size=10))
    broken = data.draw(st.sets(st.sampled_from(names), max_size=2))
    overrides = {}
    for key in names:
        if key in broken:
            overrides[key] = data.draw(_BAD_NUMBER, label=key)
        elif key in chosen or key in _SMALL:
            overrides[key] = data.draw(plausible[key], label=key)
    try:
        sc = scenario_from_dict(overrides)
        run = data.draw(st.sampled_from(_RUNNERS[sc.direction, sc.activity]),
                        label="runner")
        result = run(sc)
    except ConfigError:
        event("rejected")
        return
    event("ran")
    for res in result if isinstance(result, tuple) else (result,):
        assert res.rows
