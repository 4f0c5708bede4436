"""Run configuration: defaults, JSON ingestion, overrides, validation and builders.

One JSON document with sections scenario / channel / uav / env / nn / rl.
Precedence, lowest to highest: package defaults, config file, environment
variables prefixed AIRS_ (double underscores become dots, e.g.
AIRS_ENV__HORIZON=100 sets env.horizon), explicit key=value overrides.
The fully resolved document is what lands in the run manifest, so a run never
depends on hidden defaults.

DEFAULT_CONFIG is the only home of a default: the records built from a
section declare none, and each field has the name of the key it reads.
"""

import copy
import hashlib
import json
import math
import os
from dataclasses import fields
from functools import reduce
from pathlib import Path

from . import env as env_mod
from . import scenario as sc
from .channel import IrsGeometry, LinkBudget, PathLossModel
from .rl.agents import AGENT_SPECS
from .uav import EnergyModel

ENV_PREFIX = "AIRS_"

DEFAULT_CONFIG = {
    "scenario": {
        "scenario_version": 1,
        "area_x_min": 0.0,
        "area_x_max": 620.0,
        "area_y_min": 0.0,
        "area_y_max": 620.0,
        "alt_min": 80.0,
        "alt_max": 120.0,
        "grid_cells_per_side": 3,
        "cell_side": 200.0,
        "road_width": 10.0,
        "buildings_per_cell": 8,
        "building_height_range": [20.0, 70.0],
        "su_position": [-200.0, 0.0, 25.0],
        "user_initial_positions": [[305.0, 205.0, 0.0]],
        "user_speed": 1.0,
        "seed": 0,
    },
    "channel": {
        "irs_rows": 4,
        "irs_cols": 4,
        "wavelength": 0.01,
        "element_spacing": 0.005,
        "ref_distance": 1.0,
        "ref_loss_db": 30.0,
        "path_loss_exponent": 2.2,
        "rician_k": 10.0,
        "pure_los": False,
        "tx_power_w": 15.0,
        "noise_psd_w_per_hz": 3.9810717055349695e-21,  # -174 dBm/Hz
        "bandwidth_hz": 2.0e6,
    },
    "uav": {
        "blade_power_w": 199.4,
        "induced_power_w": 88.66,
        "tip_speed_ms": 120.0,
        "hover_induced_velocity_ms": 4.03,
        "drag_ratio": 0.6,
        "rotor_solidity": 0.05,
        "air_density_kg_m3": 1.225,
        "disc_area_m2": 0.53,
        "mass_kg": 2.0,
        "gravity_ms2": 9.8,
        "slot_duration_s": 1.0,
    },
    "env": {
        "horizon": 300,
        "d_max": 30.0,
        "penalty": 0.04,
        "users": 1,
        "rate_window": None,  # null: running average over the episode
        "observe_all_users": False,
        # Rate units entering the reward; 1e-6 expresses rates in Mbit/s so the
        # penalty stays commensurate with per-slot rewards.
        "rate_scale": 1e-6,
        "log_slots": True,
        "log_trajectory": True,
    },
    "nn": {
        "hidden": 64,
        "log_std_init": -0.5,
        "bptt_chunk": 16,
    },
    "rl": {
        "agent": "eppo",
        "clip_epsilon": 0.02,
        "discount": 0.99,
        "gae_lambda": 0.95,
        "epochs": 10,
        "batch_size": 1024,
        "critic_weight": 0.5,
        "entropy_weight": 0.01,
        "learning_rate": 3e-4,
        "episodes": 3000,
        "checkpoint_every": 500,
        "necsa": {"bins": 5, "order": 1, "weight": 0.2},
    },
}


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(path, message)  # both, so the error survives pickling
        self.path = path

    def __str__(self):
        return f"{self.path}: {self.args[1]}"


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


def _merge(base: dict, update: dict):
    """Merges objects key by key; anything else replaces what it lands on.  Keys
    and types are checked afterwards, by validate_config."""
    for key, value in update.items():
        if isinstance(base.get(key), dict) and isinstance(value, dict):
            _merge(base[key], value)
        else:
            base[key] = value


def load_config(path=None) -> dict:
    """Defaults merged with an optional JSON file."""
    config = default_config()
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(str(path), f"cannot read config file: {exc.strerror}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(str(path), "top level must be a JSON object")
        _merge(config, doc)
    return config


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _set_path(config: dict, dotted: str, value):
    for part in reversed(dotted.split(".")):
        value = {part: value}
    _merge(config, value)


def apply_env_overrides(config: dict, environ=None):
    environ = os.environ if environ is None else environ
    for name in sorted(environ):
        if not name.startswith(ENV_PREFIX):
            continue
        dotted = name[len(ENV_PREFIX):].lower().replace("__", ".")
        _set_path(config, dotted, _parse_value(environ[name]))


def apply_overrides(config: dict, overrides):
    """Apply key=value pairs addressed by dotted paths."""
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(item, "override must look like section.key=value")
        dotted, _, raw = item.partition("=")
        _set_path(config, dotted.strip(), _parse_value(raw.strip()))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _fits(value, default) -> bool:
    """Whether `value` has the type, and a list the shape, of its default: a float
    takes any finite number, unconverted; a None default is left to its range rule."""
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, int):
        return _is_int(value)
    if isinstance(default, float):
        return _is_int(value) or isinstance(value, float) and math.isfinite(value)
    if isinstance(default, list):
        if not isinstance(value, list):
            return False
        if isinstance(default[0], list):  # rows of any number, each shaped like the first
            return all(_fits(row, default[0]) for row in value)
        return len(value) == len(default) and all(map(_fits, value, default))
    return default is None or isinstance(value, type(default))


def _describe(default) -> str:
    if isinstance(default, list):
        if isinstance(default[0], list):
            return f"a list of lists of {len(default[0])} numbers"
        return f"a list of {len(default)} numbers"
    names = {bool: "true or false", int: "an integer", float: "a finite number"}
    return names.get(type(default), "a string")


def _check_types(doc: dict, defaults: dict, prefix: str = ""):
    for name in doc:
        if name not in defaults:
            raise ConfigError(prefix + name, "unknown configuration key")
    for name, default in defaults.items():
        key, value = prefix + name, doc.get(name)
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(key, f"expected an object, got {value!r}")
            _check_types(value, default, key + ".")
        elif not _fits(value, default):
            raise ConfigError(key, f"expected {_describe(default)}, got {value!r}")


# Range of each key by rule, checked once the types hold.  The area, altitude
# and height bounds are tied to each other and checked by ScenarioConfig.
RANGE_RULES = (
    (">= 1", lambda v: v >= 1, (
        "scenario.grid_cells_per_side", "channel.irs_rows", "channel.irs_cols",
        "env.horizon", "env.users", "nn.hidden", "rl.epochs", "rl.batch_size",
        "rl.necsa.bins", "rl.necsa.order")),
    (">= 0", lambda v: v >= 0, (
        "scenario.buildings_per_cell", "scenario.user_speed", "scenario.seed",
        "channel.rician_k", "env.penalty", "nn.bptt_chunk", "rl.critic_weight",
        "rl.entropy_weight", "rl.episodes", "rl.checkpoint_every", "rl.necsa.weight")),
    ("> 0", lambda v: v > 0, (
        "scenario.cell_side", "scenario.road_width", "channel.wavelength",
        "channel.element_spacing", "channel.ref_distance", "channel.path_loss_exponent",
        "channel.tx_power_w", "channel.noise_psd_w_per_hz", "channel.bandwidth_hz",
        *(f"uav.{key}" for key in DEFAULT_CONFIG["uav"]),
        "env.d_max", "env.rate_scale", "rl.learning_rate")),
    ("in (0, 1)", lambda v: 0 < v < 1, ("rl.clip_epsilon",)),
    ("in (0, 1]", lambda v: 0 < v <= 1, ("rl.discount",)),
    ("in [0, 1]", lambda v: 0 <= v <= 1, ("rl.gae_lambda",)),
    ("1, the only version", lambda v: v == 1, ("scenario.scenario_version",)),
    ("null or an integer >= 1", lambda v: v is None or _is_int(v) and v >= 1,
     ("env.rate_window",)),
)


def validate_config(config: dict):
    """Checks every leaf of a resolved document before anything is built: its
    type against DEFAULT_CONFIG, its range by RANGE_RULES, then the rules that
    span keys.  Every failure is a ConfigError naming its dotted key."""
    _check_types(config, DEFAULT_CONFIG)
    for text, holds, keys in RANGE_RULES:
        for key in keys:
            value = reduce(dict.__getitem__, key.split("."), config)
            if not holds(value):
                raise ConfigError(key, f"must be {text}, got {value!r}")
    if config["rl"]["agent"] not in AGENT_SPECS:
        raise ConfigError("rl.agent", f"unknown agent kind {config['rl']['agent']!r}; "
                                      f"choose from {sorted(AGENT_SPECS)}")
    users, placed = config["env"]["users"], len(config["scenario"]["user_initial_positions"])
    if users != placed:
        raise ConfigError("env.users", f"{users} users declared but the scenario places {placed}")
    build_scenario(config)


# -- builders -----------------------------------------------------------------


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def from_section(cls, section: dict):
    """A `cls` whose fields take the section's keys of the same name, lists as
    tuples."""
    return cls(**{f.name: _tuples(section[f.name]) for f in fields(cls)})


def build_scenario(config: dict) -> sc.ScenarioConfig:
    try:
        return from_section(sc.ScenarioConfig, config["scenario"])
    except sc.ScenarioError as exc:
        raise ConfigError("scenario", str(exc)) from exc


def build_env(config: dict, seed: int, phase_control: bool = True) -> env_mod.AirsEnv:
    channel, flight = config["channel"], config["uav"]
    rician = float("inf") if channel["pure_los"] else channel["rician_k"]
    try:
        return env_mod.AirsEnv(
            build_scenario(config), from_section(env_mod.EpisodeConfig, config["env"]),
            from_section(IrsGeometry, channel), from_section(PathLossModel, channel),
            from_section(LinkBudget, channel), from_section(EnergyModel, flight),
            rician_k=rician, slot_duration=flight["slot_duration_s"],
            phase_control=phase_control, seed=seed)
    except sc.ScenarioError as exc:  # a cell cannot fit its buildings
        raise ConfigError("scenario.buildings_per_cell", str(exc)) from exc


def code_version() -> str:
    """Content hash of the package sources, recorded in run manifests."""
    package_root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for source in sorted(package_root.rglob("*.py")):
        digest.update(str(source.relative_to(package_root)).encode())
        digest.update(source.read_bytes())
    return digest.hexdigest()
