"""Scenario configuration: defaults, file loading, and validation.

A scenario is a flat mapping of primitive values so it pickles cheaply
into worker processes and hashes stably into result-file headers. Every
key has a default matching the measurement campaign the simulator is
grounded in; a config file only lists overrides. Unknown keys are
rejected rather than ignored so typos cannot silently run the wrong
experiment.
"""

import hashlib
import json
import math
from dataclasses import dataclass, asdict, fields
from typing import Optional

import numpy as np
import yaml

from .blockage import BlockageConfig
from .channel import LambertianSource
from .geometry import Room, ap_positions, device_layout, grid_size
from .orientation import BUILTIN_STATS, OrwpConfig
from .sm import MAX_SYMBOLS


class ConfigError(ValueError):
    """Raised for malformed, inconsistent, or unknown configuration."""


#: Labeled evaluation spots: (x, y, default facing direction in degrees).
PRESET_LOCATIONS = {
    "L1": (2.5, 2.5, 90.0),
    "L2": (1.25, 2.5, 0.0),
    "L3": (2.5, 0.5, 180.0),
}

#: Most realizations a scenario may ask for: the sitting lattice x facing
#: directions x draws, and the estimated samples of its walk. The
#: paper's default survey is 361 x 24 x 500 = 4.33 M realizations.
MAX_REALIZATIONS = 10_000_000
#: Most environment-mesh elements: the radiosity solve keeps dense
#: n x n matrices (0.8 GB each at this limit).
MAX_MESH_ELEMENTS = 10_000
#: Most access points (n_ap_side squared).
MAX_ACCESS_POINTS = 1024

_CHOICES = {
    "direction": ("downlink", "uplink"),
    "device": ("sr", "mdr"),
    "activity": ("sitting", "walking"),
    "scheme": ("asm", "sm", "mimo"),
    "orientation": ("fixed", "random"),
}


@dataclass(frozen=True)
class Scenario:
    """Complete experiment description with measurement-backed defaults."""

    direction: str = "downlink"
    device: str = "mdr"
    activity: str = "sitting"
    scheme: str = "asm"
    n_active: int = 4               # fixed active count for scheme="sm"

    room_width: float = 5.0
    room_depth: float = 5.0
    room_height: float = 3.0
    rho_walls: float = 0.6
    rho_floor: float = 0.2
    rho_ceiling: float = 0.8
    ap_height: float = 2.95
    n_ap_side: int = 4

    semiangle_deg: float = 60.0     # half-power semiangle of every emitter
    fov_deg: float = 60.0           # receiver field of view
    pd_area: float = 0.25e-4        # m^2

    noise_power: float = 1.0e-14    # sigma_n^2 = N0 * B, W^2
    mesh_resolution: float = 0.5
    include_nlos: bool = True

    kappa_b: float = 0.0            # blockers per m^2
    self_blockage: bool = True
    blocker_length: float = 0.7
    blocker_width: float = 0.2
    blocker_height: float = 1.75
    user_distance: float = 0.3      # body prism offset behind the device

    target_ber: float = 3.8e-3
    spectral_efficiency: float = 5.0   # downlink bits per channel use
    uplink_tse: float = 2.0            # per-source PAM bits; M = 2**uplink_tse
    symbol_rate: float = 1.0

    ue_height: Optional[float] = None   # None derives from activity
    location: str = "L1"
    omega_deg: Optional[float] = None   # None takes the preset facing
    orientation: str = "fixed"          # single-point sweeps: fixed | random

    speed: float = 1.0
    n_waypoints: int = 500

    grid_step: float = 0.25
    orientations_per_point: int = 500
    n_directions: int = 24
    mc_symbols: int = 100_000
    mi_samples: int = 0             # 0 disables the MI estimate columns
    snr_start_db: float = 0.0       # target received SNR grid (downlink)
    snr_stop_db: float = 70.0
    snr_step_db: float = 2.0
    uplink_snr_start_db: float = 100.0   # transmit SNR E_s/sigma^2 grid
    uplink_snr_stop_db: float = 180.0
    uplink_snr_step_db: float = 4.0

    seed: int = 0

    # -- derived helpers -------------------------------------------------

    def room(self):
        return Room(width=self.room_width, depth=self.room_depth,
                    height=self.room_height, rho_walls=self.rho_walls,
                    rho_floor=self.rho_floor, rho_ceiling=self.rho_ceiling)

    def aps(self):
        return ap_positions(self.room(), n_per_side=self.n_ap_side,
                            height=self.ap_height)

    def stats(self):
        return BUILTIN_STATS[self.activity]

    def layout(self):
        return device_layout(self.device)

    def source(self):
        return LambertianSource(semiangle_deg=self.semiangle_deg,
                                area=self.pd_area, fov_deg=self.fov_deg)

    def blockage(self):
        return BlockageConfig(kappa_b=self.kappa_b, d_p=self.user_distance,
                              length=self.blocker_length,
                              width=self.blocker_width,
                              height=self.blocker_height,
                              self_blocker=self.self_blockage)

    def orwp(self):
        return OrwpConfig(n_waypoints=self.n_waypoints, speed=self.speed,
                          width=self.room_width, depth=self.room_depth)

    def ue_height_m(self):
        if self.ue_height is not None:
            return self.ue_height
        return 0.8 if self.activity == "sitting" else 1.4

    def location_xy(self):
        x, y, _ = PRESET_LOCATIONS[self.location]
        return x, y

    def omega(self):
        if self.omega_deg is not None:
            return self.omega_deg
        return PRESET_LOCATIONS[self.location][2]

    def uplink_pam_order(self):
        M = 2.0 ** self.uplink_tse
        if M != int(M) or M < 2:
            raise ConfigError("uplink_tse must give an integer PAM order >= 2")
        return int(M)

    def snr_grid_db(self):
        n = int(round((self.snr_stop_db - self.snr_start_db)
                      / self.snr_step_db)) + 1
        return np.linspace(self.snr_start_db, self.snr_stop_db, n)

    def uplink_snr_grid_db(self):
        n = int(round((self.uplink_snr_stop_db - self.uplink_snr_start_db)
                      / self.uplink_snr_step_db)) + 1
        return np.linspace(self.uplink_snr_start_db,
                           self.uplink_snr_stop_db, n)


_FIELD_TYPES = {f.name: f.type for f in fields(Scenario)}


def _coerce(key, value):
    """Check one entry's type, allowing int where float is declared.

    NaN and infinite numbers are rejected: every range check below
    compares, and a NaN passes them all. Integers must fit 64 bits, as
    numpy needs them to.
    """
    expected = _FIELD_TYPES[key]
    if expected is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{key}: expected true/false, got {value!r}")
        return value
    if expected is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key}: expected integer, got {value!r}")
        if not -2 ** 63 <= value < 2 ** 63:
            raise ConfigError(f"{key}: {value} is outside the 64-bit "
                              "integer range")
        return value
    if expected is float or expected == Optional[float]:
        if value is None and expected == Optional[float]:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key}: expected number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{key}: expected a finite number, "
                              f"got {value!r}")
        return number
    if expected is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key}: expected string, got {value!r}")
        return value
    raise ConfigError(f"{key}: unsupported field type {expected}")


def _validate(s):
    for key, choices in _CHOICES.items():
        if getattr(s, key) not in choices:
            raise ConfigError(f"{key} must be one of {choices}")
    if s.location not in PRESET_LOCATIONS:
        raise ConfigError(f"location must be one of {sorted(PRESET_LOCATIONS)}")
    positive = ("room_width", "room_depth", "room_height", "ap_height",
                "semiangle_deg", "fov_deg", "pd_area", "noise_power",
                "mesh_resolution", "blocker_length", "blocker_width",
                "blocker_height", "speed", "grid_step", "snr_step_db",
                "symbol_rate", "orientations_per_point",
                "n_directions", "n_waypoints", "n_ap_side", "n_active")
    for key in positive:
        if getattr(s, key) <= 0:
            raise ConfigError(f"{key} must be positive")
    if s.mc_symbols < 0:
        raise ConfigError("mc_symbols must be nonnegative (0 disables)")
    for key in ("rho_walls", "rho_floor", "rho_ceiling"):
        v = getattr(s, key)
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"{key} must lie in [0, 1]")
    if s.kappa_b < 0 or s.user_distance < 0:
        raise ConfigError("kappa_b and user_distance must be nonnegative")
    if not 0.0 < s.target_ber < 0.5:
        raise ConfigError("target_ber must lie in (0, 0.5)")
    if s.ap_height > s.room_height:
        raise ConfigError("ap_height cannot exceed room_height")
    if s.ue_height is not None and not 0 <= s.ue_height <= s.room_height:
        raise ConfigError("ue_height must lie inside the room")
    if np.log2(s.n_active) % 1 != 0:
        raise ConfigError("n_active must be a power of two")
    if s.snr_stop_db < s.snr_start_db:
        raise ConfigError("snr_stop_db must be >= snr_start_db")
    if s.uplink_snr_stop_db < s.uplink_snr_start_db:
        raise ConfigError("uplink_snr_stop_db must be >= uplink_snr_start_db")
    if s.uplink_snr_step_db <= 0:
        raise ConfigError("uplink_snr_step_db must be positive")
    if s.seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    r = s.spectral_efficiency
    if r != int(r) or r < 1:
        raise ConfigError("spectral_efficiency must be a positive integer")
    if s.scheme == "sm":
        m = r - np.log2(s.n_active)
        if m % 1 != 0 or m < 1:
            raise ConfigError(
                "sm scheme needs spectral_efficiency - log2(n_active) >= 1")
    if s.scheme == "mimo" and r % s.n_active != 0:
        raise ConfigError(
            "mimo scheme needs spectral_efficiency divisible by n_active")
    if s.mi_samples != 0 and s.mi_samples < 1000:
        raise ConfigError("mi_samples must be 0 (disabled) or >= 1000")
    # Every downlink scheme sends 2**R symbols; the uplink one of
    # 2**uplink_tse levels on any of the device elements. Compared in
    # bits, so that no huge power is ever formed.
    max_bits = np.log2(MAX_SYMBOLS)
    if r > max_bits:
        raise ConfigError(f"spectral_efficiency above {max_bits:g} exceeds "
                          f"the {MAX_SYMBOLS}-symbol limit")
    if s.uplink_tse + np.log2(s.layout().n_elements) > max_bits:
        raise ConfigError(f"uplink_tse {s.uplink_tse:g} exceeds the "
                          f"{MAX_SYMBOLS}-symbol limit")
    s.uplink_pam_order()
    _check_work(s)
    # The derived objects check their own ranges (semiangle, FOV, ...).
    try:
        s.room(), s.source(), s.blockage(), s.orwp()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_work(s):
    """Reject a scenario whose work no run could finish.

    Counted from the fields alone, before anything is built, whichever
    command runs the scenario: the sitting lattice (grid_size at
    `grid_step`) x facing directions x draws; the walk, about
    n_waypoints legs of at most the room diagonal, sampled every
    `speed` x T_c (the shortest walking coherence time); the mesh cells
    (round(side / mesh_resolution) per face axis) and the access points.
    """
    # in floats, which overflow to inf instead of growing without bound
    def cells(length):
        return max(1.0, float(np.round(length / s.mesh_resolution)))

    lattice = grid_size(s.room_width, s.room_depth, s.grid_step)
    sitting = lattice * s.n_directions * float(s.orientations_per_point)
    if sitting > MAX_REALIZATIONS:
        raise ConfigError(
            f"the sitting survey asks for {sitting:.3g} realizations "
            f"({lattice:.3g} points x {s.n_directions} directions x "
            f"{s.orientations_per_point} draws), above {MAX_REALIZATIONS:,}")
    t_c = min(BUILTIN_STATS["walking"].coherence_times)
    diagonal = math.hypot(s.room_width, s.room_depth)
    walk = s.n_waypoints * (diagonal / s.speed / t_c + 1.0)
    if walk > MAX_REALIZATIONS:
        raise ConfigError(
            f"the walk asks for about {walk:.3g} samples ({s.n_waypoints} "
            f"waypoints at {s.speed:g} m/s), above {MAX_REALIZATIONS:,}")
    w, d, h = (cells(v) for v in (s.room_width, s.room_depth, s.room_height))
    mesh = 2 * (w * d + w * h + d * h)
    if mesh > MAX_MESH_ELEMENTS:
        raise ConfigError(
            f"mesh_resolution {s.mesh_resolution:g} gives {mesh:.3g} mesh "
            f"elements, above {MAX_MESH_ELEMENTS:,}")
    if s.n_ap_side ** 2 > MAX_ACCESS_POINTS:
        raise ConfigError(f"n_ap_side {s.n_ap_side} gives more than "
                          f"{MAX_ACCESS_POINTS} access points")


def scenario_from_dict(overrides):
    """Build a validated Scenario from a mapping of overrides."""
    if overrides is None:
        overrides = {}
    if not isinstance(overrides, dict):
        raise ConfigError("config root must be a mapping")
    unknown = sorted(set(overrides) - set(_FIELD_TYPES))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {k: _coerce(k, v) for k, v in overrides.items()}
    s = Scenario(**values)
    _validate(s)
    return s


def load_scenario(path):
    """Read a YAML config file and return the validated Scenario."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    return scenario_from_dict(data)


def scenario_hash(scenario):
    """Short stable digest of every field, for result-file headers."""
    payload = json.dumps(asdict(scenario), sort_keys=True)
    return hashlib.sha1(payload.encode()).hexdigest()[:12]
