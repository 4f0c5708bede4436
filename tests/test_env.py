import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from airs import channel as ch
from airs import env as env_mod
from airs import scenario as sc
from airs import uav
from airs.config import build_env, default_config
from airs.env import jain_index
from airs.rl.agents import build_agent
from airs.rl.ppo import PpoConfig
from airs.rl.train import Learner
from conftest import toy_overrides


def make_env(users=1, pure_los=True, buildings_per_cell=5, seed=0, **env_updates):
    cfg = toy_overrides(default_config(), users=users, pure_los=pure_los,
                        buildings_per_cell=buildings_per_cell)
    cfg["env"].update(env_updates)
    return build_env(cfg, seed=seed), cfg


# -- records built from the config ----------------------------------------------

# Each record the builders make, its config section and where a built run holds it.
RECORDS = [
    (sc.ScenarioConfig, "scenario", lambda env, learner: env.scenario),
    (env_mod.EpisodeConfig, "env", lambda env, learner: env.cfg),
    (ch.IrsGeometry, "channel", lambda env, learner: env.geometry),
    (ch.PathLossModel, "channel", lambda env, learner: env.loss_model),
    (ch.LinkBudget, "channel", lambda env, learner: env.budget),
    (uav.EnergyModel, "uav", lambda env, learner: env.energy_model),
    (PpoConfig, "rl", lambda env, learner: learner.updater.config),
]


@pytest.mark.parametrize("cls, section, built", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_fields_are_their_section_keys(toy_config, tmp_path, cls, section, built):
    env = build_env(toy_config, seed=0)
    agent = build_agent("eppo", env, np.random.default_rng(0), **toy_config["nn"])
    record = built(env, Learner(agent, toy_config, tmp_path))
    assert type(record) is cls
    names = {field.name for field in dataclasses.fields(cls)}
    if cls is sc.ScenarioConfig:  # the scenario record reads its whole section
        assert names == set(toy_config["scenario"]) - {"scenario_version"}
    for field in dataclasses.fields(cls):
        assert field.name in toy_config[section], field.name
        assert field.default is dataclasses.MISSING, field.name
        assert field.default_factory is dataclasses.MISSING, field.name
        value = toy_config[section][field.name]
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        assert getattr(record, field.name) == value, field.name


# -- fairness helpers ------------------------------------------------------------


def test_jain_equal_rates_is_one():
    assert jain_index([2.0, 2.0, 2.0]) == pytest.approx(1.0)


def test_jain_single_beneficiary():
    for r in (0.5, 7.0, 1e9):
        assert jain_index([r, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)


def test_jain_hand_value():
    # (1+2+3)^2 / (3 * (1+4+9)) = 36/42 = 6/7
    assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(6.0 / 7.0, abs=1e-15)


def test_jain_all_zero_convention():
    assert jain_index([0.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


def test_jain_empty_rejected():
    with pytest.raises(ValueError):
        jain_index([])


def test_jain_negative_rejected():
    with pytest.raises(ValueError):
        jain_index([1.0, -0.1])


def test_jain_scale_invariance(rng):
    for _ in range(100):
        rates = rng.uniform(0.0, 10.0, size=rng.integers(1, 6))
        if rates.sum() == 0:
            continue
        for c in (1e-6, 0.5, 3.0, 1e9):
            assert abs(jain_index(c * rates) - jain_index(rates)) < 1e-12


def test_jain_bounds(rng):
    for _ in range(2000):
        n = int(rng.integers(1, 8))
        rates = rng.uniform(0.0, 1.0, size=n)
        value = jain_index(rates)
        assert 1.0 / n - 1e-12 <= value <= 1.0 + 1e-12


@pytest.mark.parametrize("n", range(1, 21))
def test_jain_index_keeps_numpy_pairwise_sums(n):
    """Bit-equal to numpy's reductions on both sides of the 8-rate edge where
    jain_index turns from a Python loop to numpy; from 8 rates a left-to-right
    sum would differ, because numpy's pairwise sum unrolls by 8."""
    rng = np.random.default_rng(n)
    for _ in range(300):
        r = rng.uniform(0.0, 1e7, n) * rng.uniform(0.0, 1.0, n) ** 4
        expected = float(r.sum() ** 2 / (n * np.square(r).sum()))
        assert jain_index(r) == expected
        assert jain_index(r.tolist()) == expected


# The layer functions airsbench/tracing.py times by wrapping their module
# attributes.
TRACED_LAYERS = [
    (sc, "is_los"), (sc, "step_user"), (uav, "apply_action"), (uav, "propulsion_energy"),
    (ch, "sample_channel"), (ch, "optimal_phases"), (ch, "achievable_rate"),
]


def test_step_reaches_each_traced_layer_through_its_module(monkeypatch):
    """`step` looks each traced layer up on its module every slot, so a
    wrapper put there sees every call; an inlined layer would leave its span
    empty."""
    env, _ = make_env(users=3, buildings_per_cell=0, seed=5)  # open sky
    calls = Counter()
    for module, name in TRACED_LAYERS:
        def counting(*args, _layer=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _layer(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    env.reset()
    rng = np.random.default_rng(5)
    for slot in range(1, 7):
        _, record, _ = env.step(rng.uniform(-1, 1, 3))
        assert record.los
        assert calls == {
            "is_los": slot, "step_user": 3 * slot, "apply_action": slot,
            "propulsion_energy": slot, "sample_channel": slot, "optimal_phases": slot,
            "achievable_rate": slot,
        }


# -- reset ------------------------------------------------------------------------


def test_reset_deterministic_for_seed():
    env, _ = make_env(seed=42)
    a = env.reset()
    env2, _ = make_env(seed=42)
    b = env2.reset()
    assert np.array_equal(a, b)


def test_observation_in_unit_box():
    env, _ = make_env(users=3, seed=1)
    obs = env.reset()
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert np.all(obs >= 0.0) and np.all(obs <= 1.0)
        obs, _, done = env.step(rng.uniform(-1, 1, env.action_dim))
        if done:
            obs = env.reset()


def test_reset_positions_uniform_in_envelope():
    env, cfg = make_env()
    xs = []
    for _ in range(1000):
        env.reset()
        xs.append(env.position[0])
    midpoint = (cfg["scenario"]["area_x_min"] + cfg["scenario"]["area_x_max"]) / 2
    width = cfg["scenario"]["area_x_max"] - cfg["scenario"]["area_x_min"]
    assert abs(np.mean(xs) - midpoint) < 0.05 * width


# -- stepping ----------------------------------------------------------------------


def test_episode_runs_exactly_horizon_steps():
    env, cfg = make_env()
    env.reset()
    done = False
    steps = 0
    while not done:
        _, _, done = env.step(np.zeros(3))
        steps += 1
    assert steps == cfg["env"]["horizon"]
    with pytest.raises(env_mod.EnvError):
        env.step(np.zeros(3))


def test_wrong_action_shape_rejected():
    env, _ = make_env()
    env.reset()
    with pytest.raises(env_mod.EnvError):
        env.step(np.zeros(5))


def test_nlos_slots_have_exactly_zero_reward():
    env, _ = make_env(pure_los=True, buildings_per_cell=6, seed=3)
    rng = np.random.default_rng(5)
    env.reset()
    nlos_seen = 0
    for _ in range(500):
        _, record, done = env.step(rng.uniform(-1, 1, 3))
        if not record.los:
            nlos_seen += 1
            assert record.reward == 0.0
            assert record.rate_bps == 0.0
        if done:
            env.reset()
    assert nlos_seen > 0


def test_single_user_reward_formula():
    env, cfg = make_env(buildings_per_cell=0, seed=2)  # open sky: always line of sight
    env.reset()
    _, b, _ = env.step(np.array([0.1, -0.2, 0.05]))
    assert b.los and b.penalty == 0.0
    assert b.jain == pytest.approx(1.0)  # one user
    scale = cfg["env"]["rate_scale"]
    assert b.reward == pytest.approx(b.rate_bps * scale / b.energy_j, rel=1e-12)


def test_out_of_bounds_penalty_applied():
    env, cfg = make_env(buildings_per_cell=0, seed=2)
    env.reset()
    # Fly straight up well beyond the ceiling until a violation happens.
    violated = None
    for _ in range(10):
        _, b, _ = env.step(np.array([0.0, 0.0, 1.0]))
        if b.penalty > 0:
            violated = b
            break
    assert violated is not None
    assert violated.penalty == cfg["env"]["penalty"] == 0.04
    scale = cfg["env"]["rate_scale"]
    expected = violated.jain * violated.rate_bps * scale / violated.energy_j - 0.04
    assert violated.reward == pytest.approx(expected, rel=1e-12)


def test_running_fairness_stays_in_bounds():
    env, _ = make_env(users=3, seed=1)
    rng = np.random.default_rng(1)
    env.reset()
    for _ in range(300):
        _, b, done = env.step(rng.uniform(-1, 1, 3))
        assert 1.0 / 3.0 - 1e-12 <= b.jain <= 1.0 + 1e-12
        if done:
            env.reset()


@pytest.mark.parametrize("window", [None, 7])
def test_running_fairness_matches_history_resum(window):
    """Running sums equal re-summing each user's served-slot rate history."""
    env, _ = make_env(users=3, rate_window=window, seed=2)
    rng = np.random.default_rng(2)
    env.reset()
    history = [[], [], []]  # (slot, rate) pairs per user
    done = False
    t = 0
    while not done:
        _, b, done = env.step(rng.uniform(-1, 1, 3))
        history[t % 3].append((t, b.rate_bps))
        means = []
        for served in history:
            if window is not None:
                served = [(s, r) for s, r in served if s > t - window]
            means.append(sum(r for _, r in served) / len(served) if served else 0.0)
        expected = 1.0 / 3.0 if sum(means) == 0.0 else jain_index(means)
        assert b.jain == expected
        t += 1
    assert all(any(r > 0.0 for _, r in served) for served in history)
    averages = [sum(r for _, r in h) / len(h) for h in history]
    assert env.per_user_average_rates() == averages


def test_observe_all_users_dimension():
    env, _ = make_env(users=3, observe_all_users=True)
    obs = env.reset()
    assert env.observation_dim == 12
    assert obs.shape == (12,)


def test_integer_config_numbers_fly_as_floats():
    """A config number may be an integer.  A craft clamped to the envelope and
    a user spawned on a road or stopped on its border node still hold floats,
    which the records write as float text."""
    cfg = toy_overrides(default_config(), buildings_per_cell=0)
    cfg["scenario"].update({"area_x_min": 0, "area_x_max": 100, "area_y_min": 0, "area_y_max": 100,
                            "alt_min": 25, "alt_max": 60,
                            "su_position": [-20, 50, 15], "user_initial_positions": [[50, 50, 0]],
                            "user_speed": 1})
    cfg["uav"]["slot_duration_s"] = 1
    env = build_env(cfg, seed=0)
    env.reset()
    assert all(type(v) is float for v in env.tracks[0].position)
    clamped = 0
    for _ in range(60):  # the user reaches a border node 50 m away in slot 50
        _, record, _ = env.step(np.array([1.0, 0.0, 1.0]))
        clamped += record.violated
        (track,) = env.tracks
        values = record.uav_position + record.displacement + track.position + track.heading
        assert all(type(v) is float for v in values), values
    assert clamped > 0


SLOT_FLOAT_FIELDS = ("rate_bps", "energy_j", "jain", "reward", "f_t", "penalty")


@pytest.mark.parametrize("integers", [False, True], ids=["float_config", "integer_config"])
@pytest.mark.parametrize("phase_control", [True, False], ids=["computed", "learned"])
def test_slot_record_floats_are_python_floats(phase_control, integers):
    """Every float field of a SlotRecord, the position and displacement
    included, is a Python float and never np.float64, on line-of-sight and
    occluded slots, penalised or not, with computed or learned phases and with
    integer config numbers: `RunWriter.slot` writes each with `!r`, which
    reads np.float64(...) for a numpy scalar."""
    cfg = toy_overrides(default_config(), users=3, pure_los=False)
    if integers:
        cfg["env"].update({"penalty": 1, "rate_scale": 1})
        cfg["channel"].update({"tx_power_w": 15, "bandwidth_hz": 2000000})
        cfg["uav"].update({"slot_duration_s": 1, "mass_kg": 2})
    env = build_env(cfg, seed=3, phase_control=phase_control)
    rng = np.random.default_rng(3)
    seen = Counter()
    for _ in range(3):
        env.reset()
        done = False
        while not done:
            _, record, done = env.step(rng.uniform(-1.0, 1.0, env.action_dim))
            values = ([getattr(record, name) for name in SLOT_FLOAT_FIELDS]
                      + list(record.uav_position) + list(record.displacement))
            assert all(type(v) is float for v in values), record
            seen[record.los, record.violated] += 1
    assert seen[True, True] and seen[True, False] and seen[False, False], seen


def eval_city_env(seed=0, **scenario_updates):
    """The eval-city benchmark's env: the default 72-building city, three
    users, Rician channel."""
    cfg = default_config()
    cfg["env"]["users"] = 3
    cfg["scenario"]["user_initial_positions"] = [[305.0, 205.0, 0.0], [205.0, 305.0, 0.0],
                                                 [415.0, 515.0, 0.0]]
    cfg["scenario"].update(scenario_updates)
    return build_env(cfg, seed=seed)


def fly(envs, actions):
    """Each env's records when every action steps each env in turn, a
    finished episode followed by a reset."""
    records = [[] for _ in envs]
    for env in envs:
        env.reset()
    for action in actions:
        for env, out in zip(envs, records):
            _, record, done = env.step(action)
            out.append(record)
            if done:
                env.reset()
    return records


def test_occluder_list_changes_no_slot_record():
    """The line-of-sight cache only orders the box tests: an env whose index
    starts with every box listed as a recent occluder, and two envs of
    different cities stepped in turn, write the records each env writes
    fresh and alone."""
    actions = np.random.default_rng(11).uniform(-1.0, 1.0, (600, 3))
    (alone,) = fly([eval_city_env()], actions)
    assert {record.los for record in alone} == {True, False}
    prefilled = eval_city_env()
    prefilled.index.occluders[:] = range(len(prefilled.index))
    assert fly([prefilled], actions) == [alone]
    # A city of another size, so box numbers of one index are no boxes of the other.
    (other,) = fly([eval_city_env(seed=1, buildings_per_cell=3)], actions)
    assert fly([eval_city_env(), eval_city_env(seed=1, buildings_per_cell=3)],
               actions) == [alone, other]


def test_round_robin_service_order():
    env, _ = make_env(users=3)
    env.reset()
    for t in range(9):
        env.step(np.zeros(3))
        assert env.last_slot.served_user == t % 3


def test_learned_phase_action_dimension():
    cfg = toy_overrides(default_config())
    env = build_env(cfg, seed=0, phase_control=False)
    assert env.action_dim == 3 + 16
    env.reset()
    obs, b, done = env.step(np.zeros(env.action_dim))
    assert obs.shape == (6,)


def test_computed_phases_never_beaten_by_random(rng):
    """With deterministic hops, the closed-form phases maximize the slot rate."""
    env, _ = make_env(buildings_per_cell=0, seed=4)
    env.reset()
    env.step(np.array([0.2, 0.1, 0.0]))
    irs = env.position
    user = env.tracks[0].position
    profiles = ch.hop_profile(env.geometry, irs, (env.su, user))
    g, h = ch.sample_channel(
        profiles,
        (ch.path_loss_db(env.loss_model, float(np.linalg.norm(np.subtract(env.su, irs)))),
         ch.path_loss_db(env.loss_model, float(np.linalg.norm(np.subtract(user, irs))))),
        float("inf"),
        None,
    )
    best = ch.achievable_rate(env.budget, g, ch.optimal_phases(*profiles), h)
    for _ in range(100):
        random_phases = ch.PhaseShifts(rng.uniform(-math.pi, math.pi, env.geometry.size))
        assert ch.achievable_rate(env.budget, g, random_phases, h) <= best


def test_rate_window_limits_fairness_memory():
    env, _ = make_env(users=1, buildings_per_cell=0, rate_window=5)
    env.reset()
    for _ in range(10):
        _, b, _ = env.step(np.zeros(3))
    assert b.jain == pytest.approx(1.0)
