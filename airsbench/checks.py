"""Correctness checks on a finished run directory, made apart from the program.

Each check re-derives logged quantities from the paper's definitions, reading
only the files the run wrote and the resolved configuration, and raises
`CheckError` at the first mismatch.  Nothing here imports the program.
"""

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ENERGY_RTOL = 1e-9
EXACT_RTOL = 1e-12
LOG_STD_RANGE = (-5.0, 1.0)


class CheckError(Exception):
    pass


@dataclass(frozen=True)
class RunSpec:
    """What one `train` or `evaluate` call was asked to do."""

    episodes: int
    horizon: int
    users: int
    rate_scale: float
    penalty: float
    uav: dict  # the resolved `uav` configuration section
    metrics_name: str
    batch_size: int | None  # None for an evaluation run


def spec_for(config: dict, mode: str, episodes: int) -> RunSpec:
    env = config["env"]
    return RunSpec(
        episodes=episodes,
        horizon=env["horizon"],
        users=env["users"],
        rate_scale=env["rate_scale"],
        penalty=env["penalty"],
        uav=dict(config["uav"]),
        metrics_name="metrics.csv" if mode == "train" else "eval_metrics.csv",
        batch_size=config["rl"]["batch_size"] if mode == "train" else None,
    )


def read_csv(path) -> dict:
    """Columns of a numeric CSV file by header name, as float arrays."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise CheckError(f"{Path(path).name} is empty")
    header, body = rows[0], rows[1:]
    data = np.array(body, dtype=float).reshape(len(body), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _close(actual, expected, rtol, atol=0.0):
    return np.abs(actual - expected) <= rtol * np.maximum(np.abs(actual), np.abs(expected)) + atol


def _first_bad(ok) -> int:
    return int(np.flatnonzero(~ok)[0])


def slot_energy(uav: dict, ax, ay, az):
    """Rotary-wing slot energy in joules for displacements (ax, ay, az) in metres.

    E = (P_B (1 + 3 v^2/U^2) + P_I (sqrt(1 + v^4/(4 v0^4)) - v^2/(2 v0^2))^(1/2)
         + d0 rho s A v^3 / 2 + m g v_z) * dt
    with v the horizontal and v_z the vertical speed over the slot.
    """
    dt = uav["slot_duration_s"]
    v = np.hypot(ax, ay) / dt
    v_z = np.abs(az) / dt
    v0 = uav["hover_induced_velocity_ms"]
    blade = uav["blade_power_w"] * (1.0 + 3.0 * v**2 / uav["tip_speed_ms"] ** 2)
    induced = uav["induced_power_w"] * np.sqrt(
        np.sqrt(1.0 + v**4 / (4.0 * v0**4)) - v**2 / (2.0 * v0**2)
    )
    parasite = (
        0.5 * uav["drag_ratio"] * uav["air_density_kg_m3"] * uav["rotor_solidity"]
        * uav["disc_area_m2"] * v**3
    )
    climb = uav["mass_kg"] * uav["gravity_ms2"] * v_z
    return (blade + induced + parasite + climb) * dt


# -- the checks ------------------------------------------------------------------


def check_layout(metrics, slots, trajectory, spec: RunSpec):
    """One finite metrics row per episode, one slot row per (episode, t)."""
    rows = len(metrics["episode"])
    if rows != spec.episodes:
        raise CheckError(f"{spec.metrics_name} has {rows} rows for {spec.episodes} episodes")
    if not np.array_equal(metrics["episode"], np.arange(spec.episodes)):
        raise CheckError(f"{spec.metrics_name} episodes are not 0..{spec.episodes - 1}")
    for name, column in metrics.items():
        if not np.all(np.isfinite(column)):
            raise CheckError(f"{spec.metrics_name} column {name} is not finite")
    episode = np.repeat(np.arange(spec.episodes), spec.horizon)
    t = np.tile(np.arange(spec.horizon), spec.episodes)
    for name, table in (("slots.csv", slots), ("trajectory.csv", trajectory)):
        if not (np.array_equal(table["episode"], episode) and np.array_equal(table["t"], t)):
            raise CheckError(f"{name} rows are not the {spec.episodes}x{spec.horizon} slots in order")


def check_energy(metrics, trajectory, spec: RunSpec):
    """Slot energies follow the propulsion formula; episode energy is their sum."""
    logged = trajectory["energy_joules"]
    expected = slot_energy(spec.uav, trajectory["ax"], trajectory["ay"], trajectory["az"])
    ok = _close(logged, expected, ENERGY_RTOL)
    if not ok.all():
        i = _first_bad(ok)
        raise CheckError(
            f"trajectory.csv row {i + 1}: energy {logged[i]!r} J, formula gives {expected[i]!r} J"
        )
    sums = np.array([
        math.fsum(logged[trajectory["episode"] == e]) for e in range(spec.episodes)
    ])
    cumulative = metrics["cumulative_energy"]
    ok = _close(cumulative, sums, ENERGY_RTOL)
    if not ok.all():
        e = _first_bad(ok)
        raise CheckError(
            f"episode {e}: cumulative_energy {cumulative[e]!r} J, slot sum {sums[e]!r} J"
        )


def check_jain(slots, spec: RunSpec):
    """Each slot's Jain index matches the running per-user mean rates."""
    n = spec.users
    jain = slots["jain"]
    if np.any(jain < 1.0 / n - EXACT_RTOL) or np.any(jain > 1.0 + EXACT_RTOL):
        raise CheckError(f"slots.csv jain leaves [1/{n}, 1]")
    sums = [0.0] * n
    counts = [0] * n
    for i, (t, user, rate) in enumerate(zip(slots["t"], slots["served_user"], slots["rate_bps"])):
        if t == 0:
            sums = [0.0] * n
            counts = [0] * n
        sums[int(user)] += rate
        counts[int(user)] += 1
        means = [s / c if c else 0.0 for s, c in zip(sums, counts)]
        total = sum(means)
        expected = 1.0 / n if total == 0.0 else total**2 / (n * sum(m * m for m in means))
        if not abs(jain[i] - expected) <= EXACT_RTOL * expected:
            raise CheckError(
                f"slots.csv row {i + 1}: jain {jain[i]!r}, running means give {expected!r}"
            )


def check_reward(slots, spec: RunSpec):
    """reward = jain*rate*scale/energy - penalty*violated on LoS slots, else 0;
    users are served round robin."""
    served = slots["served_user"]
    ok = served == slots["t"] % spec.users
    if not ok.all():
        i = _first_bad(ok)
        raise CheckError(f"slots.csv row {i + 1}: served_user {served[i]:.0f} is not t mod users")
    reward = slots["reward"]
    los = slots["los"] == 1.0
    expected = (
        slots["jain"] * slots["rate_bps"] * spec.rate_scale / slots["energy_j"]
        - spec.penalty * slots["violated"]
    )
    ok = np.where(los, _close(reward, expected, EXACT_RTOL, 1e-15), reward == 0.0)
    if not ok.all():
        i = _first_bad(ok)
        want = expected[i] if los[i] else 0.0
        raise CheckError(
            f"slots.csv row {i + 1}: reward {reward[i]!r} with los={los[i]:d}, expected {want!r}"
        )


def check_training(out_dir: Path, spec: RunSpec):
    """Update count and leftover match the batch size; the final checkpoint is sane."""
    summary = json.loads((out_dir / "summary.json").read_text())
    total = spec.episodes * spec.horizon
    want = (total // spec.batch_size, total % spec.batch_size)
    got = (summary.get("updates_run"), summary.get("buffer_leftover"))
    if got != want:
        raise CheckError(f"summary.json (updates_run, buffer_leftover) = {got}, expected {want}")
    final = out_dir / "checkpoints" / "final"
    manifest = json.loads((final / "manifest.json").read_text())
    raw = (final / "params.bin").read_bytes()
    seen_log_std = False
    for entry in manifest["params"]:
        blob = raw[entry["offset"]: entry["offset"] + entry["nbytes"]]
        values = np.frombuffer(blob, dtype="<f8")
        if values.size != math.prod(entry["shape"]):
            raise CheckError(f"checkpoint parameter {entry['name']} has the wrong size")
        if not np.all(np.isfinite(values)):
            raise CheckError(f"checkpoint parameter {entry['name']} is not finite")
        if entry["name"] == "actor.log_std":
            seen_log_std = True
            lo, hi = LOG_STD_RANGE
            if values.min() < lo or values.max() > hi:
                raise CheckError(f"actor.log_std {values.tolist()} leaves [{lo}, {hi}]")
    if not seen_log_std:
        raise CheckError("checkpoint has no actor.log_std")


def check_run(out_dir, spec: RunSpec) -> list:
    """Run every check on one run directory; returns the failure messages."""
    out_dir = Path(out_dir)
    try:
        metrics = read_csv(out_dir / spec.metrics_name)
        slots = read_csv(out_dir / "slots.csv")
        trajectory = read_csv(out_dir / "trajectory.csv")
    except (OSError, ValueError, CheckError) as exc:
        return [f"unreadable run output: {exc}"]
    checks = [
        lambda: check_layout(metrics, slots, trajectory, spec),
        lambda: check_energy(metrics, trajectory, spec),
        lambda: check_jain(slots, spec),
        lambda: check_reward(slots, spec),
    ]
    if spec.batch_size is not None:
        checks.append(lambda: check_training(out_dir, spec))
    problems = []
    for check in checks:
        try:
            check()
        except (CheckError, OSError, KeyError, ValueError) as exc:
            problems.append(f"{type(exc).__name__}: {exc}")
    return problems
