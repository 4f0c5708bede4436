"""Run configuration: defaults, JSON ingestion, overrides, and object builders.

One JSON document with sections scenario / channel / uav / env / nn / rl.
Precedence, lowest to highest: package defaults, config file, environment
variables prefixed AIRS_ (double underscores become dots, e.g.
AIRS_ENV__HORIZON=100 sets env.horizon), explicit key=value overrides.
The fully resolved document is what lands in the run manifest, so a run never
depends on hidden defaults.
"""

import copy
import hashlib
import json
import os
from pathlib import Path

from . import env as env_mod
from . import scenario as sc
from .channel import IrsGeometry, LinkBudget, PathLossModel
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
        "rate_window": None,
        "observe_all_users": False,
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
        super().__init__(f"{path}: {message}")
        self.path = path


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


def _merge(base: dict, update: dict, path: str = ""):
    for key, value in update.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(here, "unknown configuration key")
        if isinstance(base[key], dict) and not isinstance(value, dict):
            raise ConfigError(here, f"expected an object, got {type(value).__name__}")
        if isinstance(base[key], dict):
            _merge(base[key], value, here)
        else:
            base[key] = value


def load_config(path=None) -> dict:
    """Defaults merged with an optional JSON file; unknown keys are errors."""
    config = default_config()
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(str(path), "config file not found")
        try:
            doc = json.loads(path.read_text())
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
    parts = dotted.split(".")
    node = config
    for i, part in enumerate(parts[:-1]):
        here = ".".join(parts[: i + 1])
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(here, "unknown configuration section")
        node = node[part]
    leaf = parts[-1]
    if leaf not in node:
        raise ConfigError(dotted, "unknown configuration key")
    if isinstance(node[leaf], dict):
        raise ConfigError(dotted, "cannot override an object with a scalar")
    node[leaf] = value


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


def validate_config(config: dict):
    from .rl.agents import AGENT_SPECS  # airs.rl imports this module

    rl = config["rl"]
    if not isinstance(rl["agent"], str) or rl["agent"] not in AGENT_SPECS:
        raise ConfigError("rl.agent", f"unknown agent kind {rl['agent']!r}; "
                                      f"choose from {sorted(AGENT_SPECS)}")
    for key, low in (("episodes", 0), ("epochs", 1), ("batch_size", 1)):
        if not isinstance(rl[key], int) or rl[key] < low:
            raise ConfigError(f"rl.{key}", f"expected an integer >= {low}, got {rl[key]!r}")
    if not 0.0 < rl["clip_epsilon"] < 1.0:
        raise ConfigError("rl.clip_epsilon", f"must be in (0, 1), got {rl['clip_epsilon']}")
    if not 0.0 < rl["discount"] <= 1.0:
        raise ConfigError("rl.discount", f"must be in (0, 1], got {rl['discount']}")
    env = config["env"]
    if not isinstance(env["horizon"], int) or env["horizon"] < 1:
        raise ConfigError("env.horizon", f"expected an integer >= 1, got {env['horizon']!r}")
    if env["penalty"] < 0:
        raise ConfigError("env.penalty", "must be >= 0")
    if env["users"] != len(config["scenario"]["user_initial_positions"]):
        raise ConfigError(
            "env.users",
            f"{env['users']} users declared but the scenario places "
            f"{len(config['scenario']['user_initial_positions'])}",
        )


# -- builders -----------------------------------------------------------------


def build_scenario(config: dict) -> sc.ScenarioConfig:
    s = config["scenario"]
    try:
        return sc.ScenarioConfig(
            area_x_min=s["area_x_min"],
            area_x_max=s["area_x_max"],
            area_y_min=s["area_y_min"],
            area_y_max=s["area_y_max"],
            alt_min=s["alt_min"],
            alt_max=s["alt_max"],
            grid_cells_per_side=s["grid_cells_per_side"],
            cell_side=s["cell_side"],
            road_width=s["road_width"],
            buildings_per_cell=s["buildings_per_cell"],
            building_height_range=tuple(s["building_height_range"]),
            su_position=tuple(s["su_position"]),
            user_initial_positions=tuple(tuple(p) for p in s["user_initial_positions"]),
            user_speed=s["user_speed"],
            seed=s["seed"],
        )
    except sc.ScenarioError as exc:
        raise ConfigError("scenario", str(exc)) from exc


def build_env(config: dict, seed: int, phase_control: bool = True) -> env_mod.AirsEnv:
    c = config["channel"]
    u = config["uav"]
    e = config["env"]
    geometry = IrsGeometry(c["irs_rows"], c["irs_cols"], c["element_spacing"], c["wavelength"])
    loss = PathLossModel(c["ref_distance"], c["ref_loss_db"], c["path_loss_exponent"])
    budget = LinkBudget(c["tx_power_w"], c["noise_psd_w_per_hz"], c["bandwidth_hz"])
    energy = EnergyModel(
        blade_power=u["blade_power_w"],
        induced_power=u["induced_power_w"],
        tip_speed=u["tip_speed_ms"],
        hover_induced_velocity=u["hover_induced_velocity_ms"],
        drag_ratio=u["drag_ratio"],
        rotor_solidity=u["rotor_solidity"],
        air_density=u["air_density_kg_m3"],
        disc_area=u["disc_area_m2"],
        mass=u["mass_kg"],
        gravity=u["gravity_ms2"],
    )
    episode = env_mod.EpisodeConfig(
        horizon=e["horizon"],
        d_max=e["d_max"],
        penalty=e["penalty"],
        users=e["users"],
        rate_window=e["rate_window"],
        observe_all_users=e["observe_all_users"],
        rate_scale=e["rate_scale"],
    )
    rician = float("inf") if c["pure_los"] else c["rician_k"]
    return env_mod.AirsEnv(
        scenario_config=build_scenario(config),
        episode_config=episode,
        geometry=geometry,
        loss_model=loss,
        budget=budget,
        energy_model=energy,
        rician_k=rician,
        slot_duration=u["slot_duration_s"],
        phase_control=phase_control,
        seed=seed,
    )


def code_version() -> str:
    """Content hash of the package sources, recorded in run manifests."""
    package_root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for source in sorted(package_root.rglob("*.py")):
        digest.update(str(source.relative_to(package_root)).encode())
        digest.update(source.read_bytes())
    return digest.hexdigest()
