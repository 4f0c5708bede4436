import gc
import importlib
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

import tape as T
from airs.config import build_env, default_config
from airs.rl.agents import AGENT_SPECS, AgentSpec, PpoAgent, build_agent
from airs.rl.necsa import NecsaShaper
import airs.rl.ppo as ppo_module
from airs.nn.layers import MogrifierLstm, SequenceWorkspace
from airs.nn.policy import LOG_STD_MAX, LOG_STD_MIN, ActorCritic
from airs.rl.ppo import (
    NumericAbort,
    PackedBatch,
    PpoConfig,
    PpoUpdater,
    RolloutBuffer,
    gae_advantages,
    normalize_advantages,
    ppo_loss,
)
from airs.env import AirsEnv, SlotRecord
from airs.nn.checkpoint import load_checkpoint, save_checkpoint
from airs.rl.train import SLOTS_HEADER, TRAJECTORY_HEADER, RunWriter, _row, train
from conftest import nn_section, record, toy_overrides
from test_nn import cut_every, owned_arrays
from tape import Tensor


def small_ppo_config(**kw):
    return record(PpoConfig, "rl", **{"clip_epsilon": 0.2, "epochs": 3, **kw})


# -- NECSA: state abstraction --------------------------------------------------


def visited_keys(observations, bins, order=1):
    """The keys a fresh shaper gives one episode's observations, in order."""
    shaper = NecsaShaper(bins=bins, order=order, weight=0.0, discount=1.0)
    for obs in observations:
        shaper.revise(np.array(obs, dtype=float), 0.0)
    return shaper._visited


def test_abstract_state_zero_observation():
    assert visited_keys([np.zeros(4)], bins=5) == [(0, 0, 0, 0)]


def test_abstract_state_upper_boundary_clamps():
    assert visited_keys([[0.999, 1.0]], bins=5) == [(4, 4)]


def test_abstract_state_same_cell_same_key():
    # Two observations in the same hypercube always share a key.
    a, b = visited_keys([np.full(3, 0.42), np.full(3, 0.45)], bins=10)
    assert a == b == (4, 4, 4)


def test_abstract_state_order_two_concatenates():
    """A key joins the previous step's cells before the current one's; the
    episode's first step has no predecessor."""
    keys = visited_keys([[0.15, 0.25], [0.55, 0.05], [0.95, 0.35]], bins=10, order=2)
    assert keys == [(1, 2), (1, 2, 5, 0), (5, 0, 9, 3)]


# -- NECSA: episodic revision --------------------------------------------------


def one_step_episode(shaper, obs, reward: float):
    """Records `reward` as the return of one visit to the key of `obs`."""
    shaper.revise(np.array(obs, dtype=float), reward)
    shaper.end_episode()


def test_revision_disabled_at_zero_weight():
    shaper = NecsaShaper(bins=2, order=1, weight=0.0, discount=1.0)
    one_step_episode(shaper, [0.9], 10.0)
    for r in (0.0, -2.5, 7.25):
        assert shaper.revise(np.array([0.9]), r) == r


def test_empty_table_gives_neutral_prior():
    shaper = NecsaShaper(bins=2, order=1, weight=0.4, discount=1.0)
    assert shaper.score((0,)) == 0.5
    assert shaper.revise(np.array([0.1]), 1.0) == pytest.approx(1.0 + 0.2)


def test_two_key_normalization_by_hand():
    shaper = NecsaShaper(bins=2, order=1, weight=0.2, discount=1.0)
    one_step_episode(shaper, [0.1], 1.0)
    one_step_episode(shaper, [0.9], 3.0)
    assert shaper.score((0,)) == pytest.approx(0.0)
    assert shaper.score((1,)) == pytest.approx(1.0)
    assert shaper.revise(np.array([0.9]), 0.5) == pytest.approx(0.7)
    # Unknown key falls back to the neutral prior.
    assert shaper.score((9,)) == 0.5


def test_single_value_table_neutral():
    shaper = NecsaShaper(bins=2, order=1, weight=0.2, discount=1.0)
    one_step_episode(shaper, [0.1], 2.0)
    one_step_episode(shaper, [0.9], 2.0)
    assert shaper.score((0,)) == 0.5


def test_episodic_table_mean_is_exact(rng):
    shaper = NecsaShaper(bins=3, order=1, weight=0.2, discount=1.0)
    keys = [(0,), (1,), (2,)]
    recorded_by_key = {key: [] for key in keys}
    for _ in range(500):
        key = keys[int(rng.integers(3))]
        episode_return = float(rng.standard_normal())
        one_step_episode(shaper, [(key[0] + 0.5) / 3], episode_return)
        recorded_by_key[key].append(episode_return)
    for key in keys:
        recorded = recorded_by_key[key]
        assert shaper.table[key][0] == len(recorded)
        assert shaper.table[key][1] == pytest.approx(np.mean(recorded), abs=1e-12)


def test_extremes_only_widen():
    """A key whose mean moves inward leaves min_mean/max_mean where they were,
    so scores normalize against the widest means the table has held."""
    shaper = NecsaShaper(bins=2, order=1, weight=0.2, discount=1.0)
    one_step_episode(shaper, [0.1], 0.0)
    one_step_episode(shaper, [0.9], 10.0)
    one_step_episode(shaper, [0.9], 2.0)  # (1,) moves in from 10 to 6
    one_step_episode(shaper, [0.1], 4.0)  # (0,) moves in from 0 to 2
    assert shaper.table == {(0,): [2, 2.0], (1,): [2, 6.0]}
    assert (shaper.min_mean, shaper.max_mean) == (0.0, 10.0)
    assert shaper.score((0,)) == pytest.approx(0.2)
    assert shaper.score((1,)) == pytest.approx(0.6)


def test_shaper_updates_table_with_discounted_return():
    """Every step's key gets the episode's discounted return of the raw rewards,
    once per visit."""
    shaper = NecsaShaper(bins=5, order=1, weight=0.1, discount=0.5)
    shaper.begin_episode()
    shaper.revise(np.array([0.1] * 4), 1.0)
    shaper.revise(np.array([0.9] * 4), 2.0)
    shaper.revise(np.array([0.1] * 4), 4.0)
    shaper.end_episode()
    expected_return = 1.0 + 0.5 * 2.0 + 0.25 * 4.0
    assert shaper.table == {(0, 0, 0, 0): [2, expected_return],
                            (4, 4, 4, 4): [1, expected_return]}


def grid_cells(obs, bins: int) -> tuple:
    """One observation's bin per dimension, clamped to the last bin."""
    cells = np.minimum((np.asarray(obs, dtype=float) * bins).astype(int), bins - 1)
    return tuple(int(c) for c in cells)


def joined_key(current: tuple, order: int, history: list) -> tuple:
    """`current` after the last order-1 entries of `history`."""
    if order <= 1:
        return current
    key = ()
    for item in history[-(order - 1):]:
        key += item
    return key + current


@pytest.mark.parametrize("order", [1, 2, 3])
def test_shaper_discretizes_each_observation_once(order, rng):
    """`revise` keys each step from the one discretized observation and the
    history: over a 200-step trajectory its keys and revised rewards equal
    those of discretizing the observation again with the history."""
    shaper = NecsaShaper(bins=3, order=order, weight=0.3, discount=0.9)
    for _ in range(2):  # the first episode fills the table the second scores against
        shaper.begin_episode()
        history = []
        for _ in range(200):
            obs, reward = rng.uniform(size=2), float(rng.standard_normal())
            key = joined_key(grid_cells(obs, shaper.bins), order, history)
            expected = reward + shaper.weight * shaper.score(key)
            assert shaper.revise(obs, reward) == expected
            assert shaper._visited[-1] == key
            history.append(grid_cells(obs, shaper.bins))
        shaper.end_episode()
    assert len({shaper.score(key) for key in shaper.table}) > 1


# -- advantage estimation -----------------------------------------------------------


def gae_oracle(rewards, values, dones, gamma, lam):
    n = len(rewards)
    advantages = np.zeros(n)
    for t in range(n):
        acc = 0.0
        weight = 1.0
        for k in range(t, n):
            nonterminal = 0.0 if dones[k] else 1.0
            delta = rewards[k] + gamma * values[k + 1] * nonterminal - values[k]
            acc += weight * delta
            if dones[k]:
                break
            weight *= gamma * lam
        advantages[t] = acc
    return advantages


def test_gae_lambda_zero_is_one_step_td(rng):
    rewards = rng.standard_normal(6)
    values = rng.standard_normal(7)
    dones = np.zeros(6, dtype=bool)
    adv, _ = gae_advantages(rewards, values, dones, 0.9, 0.0)
    deltas = rewards + 0.9 * values[1:] - values[:-1]
    assert np.allclose(adv, deltas, atol=1e-12)


def test_gae_undiscounted_reward_to_go(rng):
    rewards = rng.standard_normal(5)
    values = np.zeros(6)
    dones = np.zeros(5, dtype=bool)
    adv, returns = gae_advantages(rewards, values, dones, 1.0, 1.0)
    to_go = np.array([rewards[t:].sum() for t in range(5)])
    assert np.allclose(adv, to_go, atol=1e-12)
    assert np.allclose(returns, to_go, atol=1e-12)


def test_gae_matches_double_sum_oracle(rng):
    for _ in range(25):
        n = 10
        rewards = rng.standard_normal(n)
        values = rng.standard_normal(n + 1)
        dones = rng.uniform(size=n) < 0.2
        gamma, lam = rng.uniform(0.8, 1.0), rng.uniform(0.0, 1.0)
        adv, returns = gae_advantages(rewards, values, dones, gamma, lam)
        expected = gae_oracle(rewards, values, dones, gamma, lam)
        assert np.max(np.abs(adv - expected)) < 1e-10
        assert np.allclose(returns, expected + values[:-1], atol=1e-10)


def test_gae_length_mismatch_rejected(rng):
    with pytest.raises(ValueError):
        gae_advantages(np.zeros(5), np.zeros(5), np.zeros(5, dtype=bool), 0.9, 0.9)


def test_normalized_advantages_have_unit_stats(rng):
    adv = rng.standard_normal(512) * 13.0 + 5.0
    out = normalize_advantages(adv)
    assert abs(out.mean()) < 1e-10
    assert abs(out.var() - 1.0) < 1e-10


# -- surrogate loss -------------------------------------------------------------------


def loss_oracle(new_lp, old_lp, adv, values, returns, entropy, cfg):
    actor = 0.0
    critic = 0.0
    for i in range(len(new_lp)):
        rho = math.exp(new_lp[i] - old_lp[i])
        clipped = min(max(rho, 1.0 - cfg.clip_epsilon), 1.0 + cfg.clip_epsilon)
        actor += min(rho * adv[i], clipped * adv[i])
        critic += 0.5 * (returns[i] - values[i]) ** 2
    n = len(new_lp)
    return -(actor / n) + cfg.critic_weight * (critic / n) - cfg.entropy_weight * entropy


def entropy_oracle(log_std):
    """Entropy of a diagonal Gaussian with each log-std clamped to [-5, 1]."""
    return sum(min(max(s, -5.0), 1.0) + 0.5 * (1.0 + math.log(2.0 * math.pi))
               for s in log_std)


def test_ppo_loss_unit_ratio_reduces_to_mean_advantage(rng):
    cfg = small_ppo_config(critic_weight=0.0, entropy_weight=0.0)
    lp = rng.standard_normal(32)
    adv = rng.standard_normal(32)
    loss, *_ = ppo_loss(lp, lp, adv, np.zeros(32), np.zeros(32), np.zeros(3), cfg)
    assert loss == pytest.approx(-adv.mean(), abs=1e-12)


def test_ppo_loss_clip_ceiling():
    cfg = small_ppo_config(critic_weight=0.0, entropy_weight=0.0)
    eps = cfg.clip_epsilon
    new_lp = np.array([math.log(1.0 + 2.0 * eps)])
    loss, *_ = ppo_loss(new_lp, np.zeros(1), np.ones(1), np.zeros(1), np.zeros(1),
                        np.zeros(3), cfg)
    assert loss == pytest.approx(-(1.0 + eps), abs=1e-12)


def test_ppo_loss_matches_scalar_oracle(rng):
    cfg = small_ppo_config()
    n = 64
    new_lp = rng.standard_normal(n) * 0.3
    old_lp = new_lp + rng.standard_normal(n) * 0.2
    adv = rng.standard_normal(n)
    values = rng.standard_normal(n)
    returns = rng.standard_normal(n)
    log_std = np.array([-6.0, -0.5, 0.3, 1.5])
    loss, *_ = ppo_loss(new_lp, old_lp, adv, values, returns, log_std, cfg)
    expected = loss_oracle(new_lp, old_lp, adv, values, returns, entropy_oracle(log_std), cfg)
    assert loss == pytest.approx(expected, abs=1e-12)


def taped_ppo_loss(new_lp, old_lp, adv, values, returns, log_std, cfg):
    """The primitive composition `ppo_loss` differentiates, on the reference tape;
    new_lp, values and log_std are its leaves."""
    ratio = T.exp(T.sub(new_lp, Tensor(old_lp)))
    clipped = T.clip(ratio, 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon)
    surrogate = T.minimum(T.mul(ratio, Tensor(adv)), T.mul(clipped, Tensor(adv)))
    actor = T.neg(T.mean_all(surrogate))
    critic = T.mean_all(T.mul(0.5, T.square(T.sub(Tensor(returns), values))))
    entropy = T.add(T.sum_all(T.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)),
                    Tensor(0.5 * log_std.value.size * (1.0 + math.log(2.0 * math.pi))))
    return T.add(T.add(actor, T.mul(cfg.critic_weight, critic)),
                 T.mul(-cfg.entropy_weight, entropy))


@pytest.mark.parametrize("log_std", [[-0.5, 0.3, -4.9], [-5.0, 1.0, -5.0], [-6.0, 1.5, 7.0]],
                         ids=["inside", "on", "outside"])
@pytest.mark.parametrize("ratios", ["tie", "spread"])
def test_ppo_loss_gradients_match_tape(ratios, log_std, rng):
    """The closed-form gradients equal the reference tape's bit for bit.  "tie" is
    epoch 0 (ratio 1: both terms equal); "spread" puts ratios on both sides of the
    clip range with advantages of both signs, so each term is the minimum somewhere."""
    cfg = small_ppo_config(clip_epsilon=0.1, critic_weight=0.7, entropy_weight=0.03)
    for n in (1, 7, 1000):
        old_lp = rng.standard_normal(n)
        new_lp = old_lp.copy() if ratios == "tie" else old_lp + rng.standard_normal(n) * 0.3
        adv, values, returns = rng.standard_normal((3, n))
        loss, g_new, g_values, g_log_std = ppo_loss(new_lp, old_lp, adv, values, returns,
                                                    np.array(log_std), cfg)
        leaves = [Tensor(a, requires_grad=True) for a in (new_lp, values, log_std)]
        reference = taped_ppo_loss(leaves[0], old_lp, adv, leaves[1], returns, leaves[2], cfg)
        T.backward(reference)
        assert np.array_equal(loss, reference.value)
        for mine, leaf in zip((g_new, g_values, g_log_std), leaves):
            assert np.array_equal(mine, leaf.grad)


# -- trainer behaviour ------------------------------------------------------------------


def small_cfg(agent="eppo", episodes=3, horizon=10, batch_size=40, **rl_kw):
    cfg = toy_overrides(default_config(), buildings_per_cell=0)
    cfg["env"].update({"horizon": horizon, "log_slots": False, "log_trajectory": False})
    cfg["rl"].update({"agent": agent, "episodes": episodes, "batch_size": batch_size,
                      "epochs": 3, "clip_epsilon": 0.2, "checkpoint_every": 0})
    cfg["rl"].update(rl_kw)
    return cfg


def test_no_update_below_batch_threshold(tmp_path):
    cfg = small_cfg(episodes=1, horizon=5, batch_size=6)
    summary = train(cfg, tmp_path / "run", seed=0)
    assert summary["updates_run"] == 0
    assert summary["buffer_leftover"] == 5


def test_update_fires_when_buffer_fills(tmp_path):
    cfg = small_cfg(episodes=4, horizon=10, batch_size=20)
    summary = train(cfg, tmp_path / "run", seed=0)
    assert summary["updates_run"] == 2
    assert summary["buffer_leftover"] == 0


def test_manifest_echoes_defaults(tmp_path):
    cfg = small_cfg(episodes=1, horizon=5)
    train(cfg, tmp_path / "run", seed=3)
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["config"]["rl"]["discount"] == 0.99
    assert manifest["seed"] == 3
    assert manifest["config"]["env"]["penalty"] == 0.04
    assert len(manifest["code_version"]) == 64
    assert manifest["hyperparameter_ledger"]["rl"]["learning_rate"] == 3e-4


def test_hover_agent_holds_position_and_hover_energy(tmp_path):
    cfg = small_cfg(agent="hover", episodes=1, horizon=8)
    cfg["env"]["log_trajectory"] = True
    train(cfg, tmp_path / "run", seed=0)
    rows = (tmp_path / "run" / "trajectory.csv").read_text().strip().splitlines()[1:]
    positions = {tuple(r.split(",")[2:5]) for r in rows}
    assert len(positions) == 1
    energies = [float(r.split(",")[8]) for r in rows]
    assert all(abs(e - 288.06) < 1e-9 for e in energies)


def test_slot_rows_are_the_bytes_row_formats(tmp_path):
    """`RunWriter.slot` writes what `_row` makes of the same values, for numpy
    integers and flags as well as Python ones.  Float fields are Python floats,
    as the env makes them (`test_env.py::test_slot_record_floats_are_python_floats`)."""
    records = [
        SlotRecord(np.int64(3), 7, 2, 1234.5678, 1.0 / 3.0, 0.1, -0.04, 1e-300,
                   np.bool_(True), False, 0.0, (1.5, 2.25, -0.0), (0.1, 0.2, 1e20)),
        SlotRecord(0, 0, 0, 0.0, 288.06, 1.0, 0.0, 0.0, False, np.bool_(True), 0.0,
                   (620.0, 0.0, 80.0), (-17.320508075688775, 0.0, -0.0)),
    ]
    writer = RunWriter(tmp_path, users=3, log_slots=True, log_trajectory=True)
    for record in records:
        writer.slot(record)
    writer.close()
    slots, trajectory = SLOTS_HEADER, TRAJECTORY_HEADER
    for r in records:
        slots += _row(r.episode, r.t, r.served_user, r.rate_bps, r.energy_j, r.jain,
                      r.reward, r.f_t, r.los, r.violated)
        trajectory += _row(r.episode, r.t, *r.uav_position, *r.displacement, r.energy_j,
                           r.violated)
    assert (tmp_path / "slots.csv").read_bytes() == slots.encode()
    assert (tmp_path / "trajectory.csv").read_bytes() == trajectory.encode()
    assert "np." not in slots + trajectory


def test_random_agent_observations_stay_normalized():
    cfg = small_cfg()
    env = build_env(cfg, seed=0)
    agent = build_agent("random", env)
    rng = np.random.default_rng(0)
    obs = env.reset()
    for _ in range(100):
        action = agent.act(obs, rng)
        obs, _, done = env.step(action)
        assert np.all(obs >= 0.0) and np.all(obs <= 1.0)
        if done:
            obs = env.reset()


def test_vanilla_agent_action_dimension(rng):
    env = build_env(small_cfg(), seed=0, phase_control=False)
    agent = build_agent("ppo_vanilla", env, init_rng=rng, **nn_section())
    assert agent.policy.action_dim == 19


def test_unknown_agent_kind_rejected():
    env = build_env(small_cfg(), seed=0)
    with pytest.raises(ValueError, match="unknown agent kind"):
        build_agent("sarsa", env)


@pytest.mark.parametrize("users, observe_all", [(1, False), (3, True)])
@pytest.mark.parametrize("phase_control", [True, False])
@pytest.mark.parametrize("kind", list(AGENT_SPECS))
def test_build_agent_is_sized_by_its_env(kind, phase_control, users, observe_all):
    """Every kind acts with the env's action width, and a trainable kind's
    policy reads the env's observation width."""
    cfg = toy_overrides(default_config(), users=users, buildings_per_cell=0)
    cfg["env"]["observe_all_users"] = observe_all
    env = build_env(cfg, seed=0, phase_control=phase_control)
    assert (env.observation_dim, env.action_dim) == (12 if observe_all else 6,
                                                     3 if phase_control else 19)
    agent = build_agent(kind, env, np.random.default_rng(0), **cfg["nn"])
    if AGENT_SPECS[kind].trainable:
        assert agent.policy.trunk.W.value.shape[0] == env.observation_dim
    action = agent.act(env.reset(), np.random.default_rng(1))
    assert action.shape == (env.action_dim,)
    env.step(action)


def test_agent_specs_toggle_exactly_one_enhancement():
    base = AGENT_SPECS["ppo_vanilla"]
    full = AGENT_SPECS["eppo"]
    assert (base.phase_control, base.mogrifier_rounds, base.use_necsa) == (False, 0, False)
    assert (full.phase_control, full.mogrifier_rounds, full.use_necsa) == (True, 5, True)
    for kind, field in (
        ("ppo_necsa", "use_necsa"),
        ("ppo_phasectl", "phase_control"),
        ("ppo_mogrifier", "mogrifier_rounds"),
    ):
        spec = AGENT_SPECS[kind]
        diffs = [
            spec.phase_control != base.phase_control,
            spec.mogrifier_rounds != base.mogrifier_rounds,
            spec.use_necsa != base.use_necsa,
        ]
        assert sum(diffs) == 1, kind


def test_necsa_zero_weight_trace_matches_disabled(tmp_path):
    """With zero episodic weight, training is bit-identical to no shaping."""
    cfg_on = small_cfg(agent="eppo", episodes=4, horizon=10, batch_size=20,
                       necsa={"bins": 5, "order": 1, "weight": 0.0})
    train(cfg_on, tmp_path / "on", seed=5)
    AGENT_SPECS["eppo_noshape"] = AgentSpec("eppo_noshape", True, True, 5, False)
    try:
        cfg_off = small_cfg(agent="eppo_noshape", episodes=4, horizon=10, batch_size=20)
        train(cfg_off, tmp_path / "off", seed=5)
    finally:
        del AGENT_SPECS["eppo_noshape"]
    a = (tmp_path / "on" / "metrics.csv").read_bytes()
    b = (tmp_path / "off" / "metrics.csv").read_bytes()
    assert a == b
    pa = (tmp_path / "on" / "checkpoints" / "final" / "params.bin").read_bytes()
    pb = (tmp_path / "off" / "checkpoints" / "final" / "params.bin").read_bytes()
    assert pa == pb


def replay_segments(policy, buffer):
    """Log-probs of the buffer's actions, each segment replayed alone at batch 1."""
    out = np.zeros(len(buffer))
    ends = buffer.starts[1:] + [len(buffer)]
    for start, end, h0, c0 in zip(buffer.starts, ends, buffer.h0, buffer.c0):
        state = (h0, c0)
        for i in range(start, end):
            mean, state = policy.actor_step(buffer.states[i][None], state)
            out[i] = policy.log_prob(mean, buffer.actions[i][None])[0][0]
    return out


def collect_and_update(monkeypatch, tmp_path, batch_size=30, episodes=4, horizon=10):
    """Trains with spies on `PpoUpdater.update` and `ppo_loss`.

    Returns one record per update: the buffer's segment layout, its batch-1
    replay under the pre-update policy and its packed row order, then the
    inputs and value of every epoch's loss (log-probs and advantages in packed
    order, values and returns in buffer order).
    """
    cfg = small_cfg(episodes=episodes, horizon=horizon, batch_size=batch_size)
    updates = []

    def spy_loss(new_lp, old_lp, adv, values, returns, log_std, config):
        result = ppo_loss(new_lp, old_lp, adv, values, returns, log_std, config)
        updates[-1]["epochs"].append({
            "new": new_lp.copy(), "old": old_lp.copy(), "adv": adv.copy(),
            "values": values.copy(), "returns": returns.copy(),
            "entropy": entropy_oracle(log_std), "config": config, "loss": result[0],
        })
        return result

    real_update = PpoUpdater.update

    def spy_update(updater, buffer):
        updates.append({
            "segments": list(zip(buffer.starts,
                                 np.diff(buffer.starts, append=len(buffer)).tolist(),
                                 [h0.copy() for h0 in buffer.h0])),
            "replay": replay_segments(updater.policy, buffer),
            "order": PackedBatch(buffer).order,
            "epochs": [],
        })
        return real_update(updater, buffer)

    monkeypatch.setattr(ppo_module, "ppo_loss", spy_loss)
    monkeypatch.setattr(PpoUpdater, "update", spy_update)
    train(cfg, tmp_path / "run", seed=0)
    assert updates and all(len(u["epochs"]) == cfg["rl"]["epochs"] for u in updates)
    return updates


def test_first_epoch_ratios_are_exactly_one(monkeypatch, tmp_path):
    for update in collect_and_update(monkeypatch, tmp_path):
        first = update["epochs"][0]
        assert np.array_equal(first["new"], first["old"])
        assert np.array_equal(np.exp(first["new"] - first["old"]), np.ones(first["new"].size))


def test_every_epoch_loss_matches_oracle(monkeypatch, tmp_path):
    for update in collect_and_update(monkeypatch, tmp_path):
        for e in update["epochs"]:
            expected = loss_oracle(e["new"], e["old"], e["adv"], e["values"], e["returns"],
                                   e["entropy"], e["config"])
            assert abs(e["loss"] - expected) < 1e-12


def test_batch_advantages_are_normalized(monkeypatch, tmp_path):
    for update in collect_and_update(monkeypatch, tmp_path):
        adv = update["epochs"][0]["adv"]
        assert abs(adv.mean()) < 1e-10
        assert abs(adv.var() - 1.0) < 1e-10


def test_batched_log_probs_match_per_segment_replay(monkeypatch, tmp_path):
    updates = collect_and_update(monkeypatch, tmp_path, batch_size=25, episodes=5, horizon=10)
    segments = [seg for u in updates for seg in u["segments"]]
    assert len({length for _, length, _ in segments}) > 1  # the packed batch shrinks
    assert any(np.any(h0 != 0.0) for _, _, h0 in segments)  # some start mid-episode
    for update in updates:
        batched = update["epochs"][0]["new"][update["order"]]  # in buffer order
        assert np.max(np.abs(batched - update["replay"])) < 1e-12


def test_buffered_reward_is_raw_without_shaper(monkeypatch, tmp_path):
    cfg = small_cfg(agent="ppo_phasectl", episodes=1, horizon=10, batch_size=10)
    raw, buffered = [], []
    real_step, real_update = AirsEnv.step, PpoUpdater.update

    def spy_step(env, action):
        result = real_step(env, action)
        raw.append(result[1].reward)
        return result

    def spy_update(updater, buffer):
        buffered.extend(buffer.rewards)
        return real_update(updater, buffer)

    monkeypatch.setattr(AirsEnv, "step", spy_step)
    monkeypatch.setattr(PpoUpdater, "update", spy_update)
    train(cfg, tmp_path / "run", seed=0)
    assert len(raw) == 10
    assert buffered == raw


def test_periodic_checkpoints_hold_the_parameters_of_their_episode(tmp_path):
    """Updates fire after episodes 2 and 4, so ep_000002 is one update behind."""
    cfg = small_cfg(episodes=4, horizon=5, batch_size=10, checkpoint_every=2)
    train(cfg, tmp_path / "run", seed=0)
    checkpoints = tmp_path / "run" / "checkpoints"
    assert sorted(p.name for p in checkpoints.iterdir()) == ["ep_000002", "ep_000004", "final"]
    params = {name: load_checkpoint(checkpoints / name)[1]
              for name in ("ep_000002", "ep_000004", "final")}
    assert params["ep_000004"].keys() == params["final"].keys()
    assert all(np.array_equal(params["ep_000004"][k], params["final"][k])
               for k in params["final"])
    assert not all(np.array_equal(params["ep_000002"][k], params["final"][k])
                   for k in params["final"])

    hover = small_cfg(agent="hover", episodes=4, horizon=5, checkpoint_every=2)
    train(hover, tmp_path / "hover", seed=0)
    assert not (tmp_path / "hover" / "checkpoints").exists()


def test_buffer_keeps_the_env_observations_unshared(monkeypatch, tmp_path):
    """The buffer's states are the observations the env returned, in order and
    unchanged, and no two stored rows or segment states share memory, so they
    need no copies."""
    # Two updates of 15 rows; the second's first segment starts mid-episode.
    cfg = small_cfg(episodes=3, horizon=10, batch_size=15)
    returned, checked = [], []
    real_reset, real_step, real_update = AirsEnv.reset, AirsEnv.step, PpoUpdater.update

    def spy_reset(env):
        obs = real_reset(env)
        returned.append((obs, obs.copy()))
        return obs

    def spy_step(env, action):
        result = real_step(env, action)
        if not result[2]:  # the last observation of an episode is never acted on
            returned.append((result[0], result[0].copy()))
        return result

    def spy_update(updater, buffer):
        assert len(buffer.states) == 15
        for state, (obs, value) in zip(buffer.states, returned[15 * len(checked):]):
            assert state is obs and np.array_equal(state, value)
        rows = buffer.states + buffer.actions + buffer.h0 + buffer.c0
        assert not any(np.shares_memory(a, b) for i, a in enumerate(rows) for b in rows[:i])
        checked.append(len(buffer.starts))
        return real_update(updater, buffer)

    monkeypatch.setattr(AirsEnv, "reset", spy_reset)
    monkeypatch.setattr(AirsEnv, "step", spy_step)
    monkeypatch.setattr(PpoUpdater, "update", spy_update)
    train(cfg, tmp_path / "run", seed=0)
    assert checked == [2, 2]


def random_buffer(policy, rng, lengths):
    """A buffer of random transitions in segments of the given lengths."""
    buffer = RolloutBuffer()
    obs_dim = policy.trunk.W.value.shape[0]
    for n in lengths:
        buffer.begin_segment(tuple(rng.standard_normal((2, 1, policy.cell.hidden))))
        for i in range(n):
            buffer.add(rng.uniform(size=obs_dim), rng.standard_normal(policy.action_dim),
                       float(rng.standard_normal()), i == n - 1, rng.uniform(size=obs_dim))
    return buffer


def test_rollout_values_equal_batch_one_critic_calls(monkeypatch):
    """The update's one critic pass over the states and the bootstrap observation
    gives each row's batch-1 value; after a terminal last step the bootstrap is
    gated off, so the advantages equal those with a zero bootstrap."""
    seen = []

    def spy_gae(rewards, values, *args):
        seen.append((np.array(values), gae_advantages(rewards, values, *args),
                     gae_advantages(rewards, np.append(values[:-1], 0.0), *args)))
        return seen[-1][1]

    monkeypatch.setattr(ppo_module, "gae_advantages", spy_gae)
    for last_done in (False, True):
        rng = np.random.default_rng(0)
        policy = ActorCritic(rng, obs_dim=4, action_dim=3, mogrifier_rounds=5,
                             **nn_section(hidden=6))
        buffer = random_buffer(policy, rng, [7, 10, 3])
        buffer.dones[-1] = last_done
        expected = np.array([policy.value(obs[None])[0][0] for obs in
                             buffer.states + [buffer.next_obs]])
        seen.clear()
        PpoUpdater(policy, small_ppo_config(epochs=1)).update(buffer)
        assert len(seen) == 1
        values, advantages, zero_bootstrap = seen[0]
        assert np.max(np.abs(values - expected)) <= 1e-12 * np.max(np.abs(expected))
        same = all(np.array_equal(a, b) for a, b in zip(advantages, zero_bootstrap))
        assert same == last_done


@pytest.mark.parametrize("chunk", [0, 1, 3, 9, 10, 15])
def test_packed_order_is_piece_major(chunk):
    """Segments of 7, 10, 3, 10 and 6 rows cut every `chunk` rows into pieces,
    as the rollout cuts them: `order` is a permutation that `pack` follows,
    listing rows by (step within the piece, piece rank), the pieces ranked
    longest first and stably; with chunk 0 or at least the longest segment the
    pieces are the segments."""
    rng = np.random.default_rng(1)
    lengths = [7, 10, 3, 10, 6]
    pieces = cut_every(lengths, chunk)
    assert (pieces == lengths) == (chunk == 0 or chunk >= 10)
    buffer = random_buffer(ActorCritic(rng, obs_dim=4, action_dim=3, mogrifier_rounds=5,
                                       **nn_section(hidden=6)), rng, pieces)
    batch = PackedBatch(buffer)
    n = len(buffer)
    assert np.array_equal(np.sort(batch.order), np.arange(n))
    rows = rng.standard_normal((n, 2))
    assert np.array_equal(batch.pack(rows)[batch.order], rows)
    assert np.array_equal(batch.pack(batch.states), batch.obs)

    t = np.concatenate([np.arange(length) for length in pieces])
    rank = np.repeat(np.argsort(np.argsort(-np.array(pieces), kind="stable")), pieces)
    step_major = np.lexsort((rank, t))  # buffer indices in packed order
    assert np.array_equal(batch.order[step_major], np.arange(n))
    assert batch.batch_sizes.tolist() == [sum(k > step for k in pieces)
                                          for step in range(max(pieces))]


def count_workspaces(monkeypatch):
    """Records every `SequenceWorkspace` built from now on: weak references to it
    and to the (N, .) arrays it owns."""
    built = []
    real_init = SequenceWorkspace.__init__

    def init(work, *args):
        real_init(work, *args)
        built.append([weakref.ref(work)] + [weakref.ref(a) for a in owned_arrays(work).values()])

    monkeypatch.setattr(SequenceWorkspace, "__init__", init)
    return built


def test_update_builds_one_workspace_for_all_epochs(monkeypatch):
    """The cell's (N, .) arrays are allocated once per update, not per epoch."""
    built = count_workspaces(monkeypatch)
    rng = np.random.default_rng(0)
    policy = ActorCritic(rng, obs_dim=4, action_dim=3, mogrifier_rounds=5,
                         **nn_section(hidden=6, bptt_chunk=4))
    updater = PpoUpdater(policy, small_ppo_config(epochs=3))
    for _ in range(2):
        updater.update(random_buffer(policy, rng, [7, 10, 3]))
    assert len(built) == 2


class UpdateRowCounter:
    """Counts the rows `MogrifierLstm.sequence` steps inside each `PpoUpdater.update`.

    `updates` gets, per update, (segment lengths, transitions, rows stepped).
    """

    def __init__(self, monkeypatch):
        self.updates = []
        self._rows = None
        real_sequence, real_update = MogrifierLstm.sequence, PpoUpdater.update

        def sequence(cell, work, h0, c0):
            if self._rows is not None:
                self._rows += sum(len(x) for _, x, _, _ in work.steps)
            return real_sequence(cell, work, h0, c0)

        def update(updater, buffer):
            lengths = np.diff(buffer.starts, append=len(buffer)).tolist()
            self._rows = 0
            try:
                return real_update(updater, buffer)
            finally:
                self.updates.append((lengths, len(buffer), self._rows))
                self._rows = None

        monkeypatch.setattr(MogrifierLstm, "sequence", sequence)
        monkeypatch.setattr(PpoUpdater, "update", update)


def test_update_steps_one_cell_row_per_transition(monkeypatch, tmp_path):
    """Every epoch steps the cell on exactly the batch's transitions, no padding.

    Segments of 300, 300, 300 and 124 are a package-default batch of 1024 (a
    300 x 4 grid would step 1200 rows).  At batch 370 with 100-slot episodes the
    second update starts mid-episode, and the rollout cuts a segment every
    `nn.bptt_chunk` (16) rows after a segment start.
    """
    counter = UpdateRowCounter(monkeypatch)
    rng = np.random.default_rng(0)
    policy = ActorCritic(rng, obs_dim=4, action_dim=3, mogrifier_rounds=1, **nn_section(hidden=6))
    PpoUpdater(policy, small_ppo_config(epochs=2)).update(
        random_buffer(policy, rng, [300, 300, 300, 124]))
    assert counter.updates == [([300, 300, 300, 124], 1024, 2 * 1024)]

    counter.updates.clear()
    cfg = small_cfg(episodes=8, horizon=100, batch_size=370)
    train(cfg, tmp_path / "run", seed=0)
    episode = [16] * 6 + [4]
    assert [lengths for lengths, _, _ in counter.updates] == [
        episode * 3 + [16] * 4 + [6],
        [16, 14] + episode * 3 + [16, 16, 8],
    ]
    epochs = cfg["rl"]["epochs"]
    assert all(n == 370 and rows == epochs * 370 for _, n, rows in counter.updates)


def test_rollout_cuts_a_segment_every_chunk_rows(monkeypatch, tmp_path):
    """At `nn.bptt_chunk` 7, buffer segments start at each episode start, after
    each update and every 7 rows after a segment start.  Each segment's
    (h0, c0) is the agent state its first row's `act` was passed, bit for bit,
    so the update replays every piece from the state it was collected from."""
    cfg = small_cfg(episodes=8, horizon=100, batch_size=370)
    cfg["nn"]["bptt_chunk"] = 7
    acted, seen = [], []  # per row the state `act` was passed; per update its buffer
    real_act, real_update = PpoAgent.act, PpoUpdater.update

    def spy_act(agent, obs, rng, greedy=False):
        acted.append(tuple(a.copy() for a in agent.state))
        return real_act(agent, obs, rng, greedy)

    def spy_update(updater, buffer):
        seen.append((list(buffer.starts), len(buffer), buffer.h0[:], buffer.c0[:]))
        return real_update(updater, buffer)

    monkeypatch.setattr(PpoAgent, "act", spy_act)
    monkeypatch.setattr(PpoUpdater, "update", spy_update)
    train(cfg, tmp_path / "run", seed=0)
    assert [n for _, n, _, _ in seen] == [370, 370]
    first = 0  # the run's row index of the update's first row
    for starts, n, h0, c0 in seen:
        expected = []
        for i in range(n):
            if i == 0 or (first + i) % 100 == 0 or i - expected[-1] == 7:
                expected.append(i)
        assert starts == expected
        for start, h, c in zip(starts, h0, c0):
            passed_h, passed_c = acted[first + start]
            assert h.tobytes() == passed_h.tobytes() and c.tobytes() == passed_c.tobytes()
        first += n
    assert any(np.any(h != 0.0) for _, _, h0, _ in seen for h in h0)  # not only resets


def test_bench_tracer_sees_one_backward_per_epoch(monkeypatch, tmp_path):
    """The benchmark's tracer (airsbench/tracing.py) finds what it wraps: one
    update makes one `ppo.update` span, one `nn.backward` per epoch, no tape nodes."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "airsbench"))
    tracing = importlib.import_module("tracing")
    cfg = small_cfg(episodes=2, horizon=10, batch_size=20)
    tracer = tracing.Tracer()
    with tracer.installed():
        summary = train(cfg, tmp_path / "run", seed=0)
    assert summary["updates_run"] == 1
    metrics = tracer.layer_metrics()
    assert metrics["ppo.update.calls"] == 1
    assert len(tracer.durations["nn.backward"]) == cfg["rl"]["epochs"]
    assert metrics["nn.tape_nodes_per_backward"] == 0


@pytest.mark.parametrize("abort", [False, True])
def test_update_graph_is_freed_without_the_cycle_collector(monkeypatch, abort):
    """After an update, finished or aborted, nothing waits for gc.collect(): the
    caches of the reverse pass and the cell's workspace are freed by reference
    counting.  An abort's dump lists the log-probs in buffer order."""
    rng = np.random.default_rng(0)
    policy = ActorCritic(rng, obs_dim=4, action_dim=3, mogrifier_rounds=5,
                         **nn_section(hidden=6, bptt_chunk=4))
    updater = PpoUpdater(policy, small_ppo_config(epochs=2))
    buffer = random_buffer(policy, rng, [7, 10, 3])
    replay = replay_segments(policy, buffer)
    if abort:
        real_loss = ppo_module.ppo_loss
        monkeypatch.setattr(ppo_module, "ppo_loss",
                            lambda *args: (np.nan,) + real_loss(*args)[1:])
    built = count_workspaces(monkeypatch)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        try:
            updater.update(buffer)
        except NumericAbort as error:
            assert abort
            dump = error.dump
        else:
            assert not abort
        assert len(built) == 1 and all(ref() is None for ref in built[0])  # freed on return
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
    if abort:
        assert dump["epoch"] == 0
        assert np.max(np.abs(np.array(dump["new_log_probs"]) - replay)) < 1e-12
        assert dump["old_log_probs"] == dump["new_log_probs"]


# -- the forwards' derived copies --------------------------------------------------


def unfolded_step(cell, x, h, c):
    """`MogrifierLstm.step` from the parameters' values, in the op order of the
    forward before its constants were folded into copies: each round's dot,
    then * 0.5, tanh and + 1; the gates' dot, then + b and * scale."""
    H = cell.hidden
    scale = np.repeat([0.5, 0.5, 0.5, 1.0], H)  # sigmoid gates i, f, o; tanh gate g
    v = [x, h]
    for i, weight in enumerate(cell.round_weights):
        k = i % 2
        t = np.dot(v[1 - k], weight.value)
        t = np.tanh(t * 0.5) + 1.0
        v[k] = t * v[k]
    a = np.dot(np.concatenate(v, axis=1), cell.W.value)
    a = (a + cell.b.value) * scale
    a = np.tanh(a) * scale + (1.0 - scale)
    c_new = a[:, H:2 * H] * c
    c_new += a[:, :H] * a[:, 3 * H:]
    return a[:, 2 * H:3 * H] * np.tanh(c_new), c_new


def assert_forwards_read_current_values(policy, rng):
    """`step` at 1 and 10 rows equals `unfolded_step` bit for bit, and `act`'s
    sample is mean + exp(clip(log_std)) * noise, both from the values now held."""
    cell = policy.cell
    for rows in (1, 10):
        x = rng.standard_normal((rows, cell.in_dim))
        h, c = rng.standard_normal((2, rows, cell.hidden))
        for got, want in zip(cell.step(x, h, c), unfolded_step(cell, x, h, c)):
            assert np.array_equal(got, want)
    obs = rng.uniform(size=policy.trunk.W.value.shape[0])
    state = tuple(rng.standard_normal((2, 1, cell.hidden)))
    mean, _ = policy.actor_step(obs.reshape(1, -1), state)
    action, _ = policy.act(obs, state, np.random.default_rng(3))
    noise = np.random.default_rng(3).standard_normal(policy.action_dim)
    std = np.exp(np.clip(policy.log_std.value, LOG_STD_MIN, LOG_STD_MAX))
    assert np.array_equal(action, mean[0] + std * noise)


@pytest.mark.parametrize("rounds", [0, 5])
def test_forwards_follow_every_parameter_move(rounds, tmp_path):
    """The pre-scaled copies `step` reads and `act`'s std are never stale: on a
    fresh policy, after an update (Adam moved every parameter), after
    `load_state` from a checkpoint, and after values written directly and
    `refresh()`."""
    rng = np.random.default_rng(0)
    dims = dict(obs_dim=4, action_dim=3, mogrifier_rounds=rounds, **nn_section(hidden=6))
    policy = ActorCritic(rng, **dims)
    assert_forwards_read_current_values(policy, rng)

    before = [p.value.copy() for p in policy.params()]
    PpoUpdater(policy, small_ppo_config(epochs=1)).update(random_buffer(policy, rng, [7, 10, 3]))
    assert not any(np.array_equal(a, p.value) for a, p in zip(before, policy.params()))
    assert_forwards_read_current_values(policy, rng)

    save_checkpoint(tmp_path / "ck", [(n, p.value) for n, p in policy.named_params()],
                    hyperparams={})
    restored = ActorCritic(np.random.default_rng(1), **dims)
    restored.load_state(load_checkpoint(tmp_path / "ck")[1])
    assert_forwards_read_current_values(restored, rng)

    for p in restored.params():
        p.value = p.value + 0.1 * rng.standard_normal(p.value.shape)
    restored.refresh()
    assert_forwards_read_current_values(restored, rng)
