import math

import numpy as np
import pytest

from airs import channel as ch
from airs import env as env_mod
from airs.config import build_env, default_config
from airs.env import jain_index, objective_ratio
from conftest import toy_overrides


def make_env(users=1, pure_los=True, buildings_per_cell=5, seed=0, **env_updates):
    cfg = toy_overrides(default_config(), users=users, pure_los=pure_los,
                        buildings_per_cell=buildings_per_cell)
    cfg["env"].update(env_updates)
    return build_env(cfg, seed=seed), cfg


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


def test_objective_ratio_values():
    assert objective_ratio([0.0, 0.0], 5.0) == 0.0
    assert objective_ratio([4.0], 2.0) == pytest.approx(2.0)
    assert objective_ratio([1.0, 1.0], 2.0) == pytest.approx(1.0)


def test_objective_ratio_rejects_bad_energy():
    with pytest.raises(ValueError):
        objective_ratio([1.0], 0.0)


# -- reset ------------------------------------------------------------------------


def test_reset_deterministic_for_seed():
    env, _ = make_env()
    a = env.reset(seed=42)
    env2, _ = make_env()
    b = env2.reset(seed=42)
    assert np.array_equal(a, b)


def test_observation_in_unit_box():
    env, _ = make_env(users=3)
    obs = env.reset(seed=1)
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
        xs.append(env.state.position[0])
    midpoint = (cfg["scenario"]["area_x_min"] + cfg["scenario"]["area_x_max"]) / 2
    width = cfg["scenario"]["area_x_max"] - cfg["scenario"]["area_x_min"]
    assert abs(np.mean(xs) - midpoint) < 0.05 * width


# -- stepping ----------------------------------------------------------------------


def test_episode_runs_exactly_horizon_steps():
    env, cfg = make_env()
    env.reset(seed=0)
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
    env.reset(seed=0)
    with pytest.raises(env_mod.EnvError):
        env.step(np.zeros(5))


def test_nlos_slots_have_exactly_zero_reward():
    env, _ = make_env(pure_los=True, buildings_per_cell=6)
    rng = np.random.default_rng(5)
    env.reset(seed=3)
    nlos_seen = 0
    for _ in range(500):
        _, breakdown, done = env.step(rng.uniform(-1, 1, 3))
        if not breakdown.los:
            nlos_seen += 1
            assert breakdown.reward == 0.0
            assert breakdown.rate == 0.0
        if done:
            env.reset()
    assert nlos_seen > 0


def test_single_user_reward_formula():
    env, cfg = make_env(buildings_per_cell=0)  # open sky: always line of sight
    env.reset(seed=2)
    _, b, _ = env.step(np.array([0.1, -0.2, 0.05]))
    assert b.los and b.penalty == 0.0
    assert b.fairness == pytest.approx(1.0)  # one user
    scale = cfg["env"]["rate_scale"]
    assert b.reward == pytest.approx(b.rate * scale / b.energy, rel=1e-12)


def test_out_of_bounds_penalty_applied():
    env, cfg = make_env(buildings_per_cell=0)
    env.reset(seed=2)
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
    expected = violated.fairness * violated.rate * scale / violated.energy - 0.04
    assert violated.reward == pytest.approx(expected, rel=1e-12)


def test_running_fairness_stays_in_bounds():
    env, _ = make_env(users=3)
    rng = np.random.default_rng(1)
    env.reset(seed=1)
    for _ in range(300):
        _, b, done = env.step(rng.uniform(-1, 1, 3))
        assert 1.0 / 3.0 - 1e-12 <= b.fairness <= 1.0 + 1e-12
        if done:
            env.reset()


@pytest.mark.parametrize("window", [None, 7])
def test_running_fairness_matches_history_resum(window):
    """Running sums equal re-summing each user's served-slot rate history."""
    env, _ = make_env(users=3, rate_window=window)
    rng = np.random.default_rng(2)
    env.reset(seed=2)
    history = [[], [], []]  # (slot, rate) pairs per user
    done = False
    t = 0
    while not done:
        _, b, done = env.step(rng.uniform(-1, 1, 3))
        history[t % 3].append((t, b.rate))
        means = []
        for served in history:
            if window is not None:
                served = [(s, r) for s, r in served if s > t - window]
            means.append(sum(r for _, r in served) / len(served) if served else 0.0)
        expected = 1.0 / 3.0 if sum(means) == 0.0 else jain_index(means)
        assert b.fairness == expected
        t += 1
    assert all(any(r > 0.0 for _, r in served) for served in history)
    averages = [sum(r for _, r in h) / len(h) for h in history]
    assert env.per_user_average_rates() == averages


def test_observe_all_users_dimension():
    env, _ = make_env(users=3, observe_all_users=True)
    obs = env.reset(seed=0)
    assert env.observation_dim == 12
    assert obs.shape == (12,)


def test_round_robin_service_order():
    env, _ = make_env(users=3)
    env.reset(seed=0)
    for t in range(9):
        env.step(np.zeros(3))
        assert env.last_slot.served_user == t % 3


def test_learned_phase_action_dimension():
    cfg = toy_overrides(default_config())
    env = build_env(cfg, seed=0, phase_control=False)
    assert env.action_dim == 3 + 16
    env.reset(seed=0)
    obs, b, done = env.step(np.zeros(env.action_dim))
    assert obs.shape == (6,)


def test_user_count_mismatch_rejected():
    cfg = toy_overrides(default_config(), users=1)
    cfg["env"]["users"] = 2
    with pytest.raises(Exception):
        build_env(cfg, seed=0)


def test_computed_phases_never_beaten_by_random(rng):
    """With deterministic hops, the closed-form phases maximize the slot rate."""
    env, _ = make_env(buildings_per_cell=0)
    env.reset(seed=4)
    env.step(np.array([0.2, 0.1, 0.0]))
    irs = env.state.position
    user = env.tracks[0].position
    g = ch.sample_channel(
        env.geometry,
        ch.path_loss_db(env.loss_model, float(np.linalg.norm(env.su - irs))),
        float("inf"),
        *ch.angles_between(irs, env.su),
        None,
    )
    h = ch.sample_channel(
        env.geometry,
        ch.path_loss_db(env.loss_model, float(np.linalg.norm(user - irs))),
        float("inf"),
        *ch.angles_between(irs, user),
        None,
    )
    best = ch.achievable_rate(
        env.budget, g, ch.optimal_phases(env.geometry, env.su, irs, user), h
    )
    for _ in range(100):
        random_phases = ch.PhaseShifts(rng.uniform(-math.pi, math.pi, env.geometry.size))
        assert ch.achievable_rate(env.budget, g, random_phases, h) <= best


def test_rate_window_limits_fairness_memory():
    env, _ = make_env(users=1, buildings_per_cell=0, rate_window=5)
    env.reset(seed=0)
    for _ in range(10):
        _, b, _ = env.step(np.zeros(3))
    assert b.fairness == pytest.approx(1.0)
