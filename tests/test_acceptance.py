"""Acceptance suite: one test per release criterion, each printing a PASS line.

Criteria 8 and 9 train the full agent roster on a small deterministic city;
their runs execute once in a session fixture (two worker processes) and are
shared by the assertions.
"""

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from airs import channel as ch
from airs import scenario as sc
from airs import uav
from airs.config import default_config
from airs.env import jain_index
from airs.nn.layers import MogrifierLstm
from airs.nn.policy import ActorCritic
from airs.nn.tensor import Param
from airs.rl.agents import AGENT_SPECS, AgentSpec
from airs.rl.ppo import PpoConfig, gae_advantages, ppo_loss
from airs.rl.train import train
from airs.cli import main as cli_main
from conftest import nn_section, record, toy_overrides
from test_nn import actor_critic_loss, dense_loss, finite_difference_check, sequence_loss
from test_rl import entropy_oracle, gae_oracle, loss_oracle

SEEDS = [0, 1, 2, 3, 4]


def report(number, message):
    print(f"\nACCEPTANCE {number:02d} PASS: {message}")


# -- shared desk-scale runs -----------------------------------------------------------


def learning_config(agent: str, users: int) -> dict:
    cfg = toy_overrides(default_config(), users=users)
    cfg["env"].update({"log_slots": False, "log_trajectory": False})
    cfg["nn"].update({"log_std_init": -1.0})
    cfg["rl"].update(
        {
            "agent": agent,
            "episodes": 300,
            "batch_size": 1000,
            "epochs": 10,
            "clip_epsilon": 0.2,
            "entropy_weight": 0.003,
            "checkpoint_every": 0,
            "necsa": {"bins": 5, "order": 1, "weight": 0.02},
        }
    )
    return cfg


def run_learning_job(job):
    agent, users, seed, out = job
    summary = train(learning_config(agent, users), out, seed=seed)
    return job, summary


@pytest.fixture(scope="session")
def learning_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("learning")
    jobs = []
    for seed in SEEDS:
        jobs.append(("eppo", 1, seed, str(root / f"eppo_s{seed}")))
        jobs.append(("ppo_vanilla", 1, seed, str(root / f"vanilla_s{seed}")))
        jobs.append(("random", 1, seed, str(root / f"random_s{seed}")))
        jobs.append(("eppo", 3, seed, str(root / f"eppo3_s{seed}")))
    start = time.monotonic()
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = dict(pool.map(run_learning_job, jobs))
    elapsed = time.monotonic() - start
    return {"results": results, "elapsed": elapsed, "root": root}


def final_reward(results, agent, users, seed):
    for (a, u, s, out), summary in results.items():
        if (a, u, s) == (agent, users, seed):
            return summary["final_window_mean_reward"], out
    raise KeyError((agent, users, seed))


# -- criterion 1: closed-form phase control ---------------------------------------------


def test_criterion_01_phase_alignment_optimality():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst_gap = 0.0
    for _ in range(1000):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        if rows * cols < 2:
            cols = 2  # a single element is phase-invariant
        geom = ch.IrsGeometry(rows, cols, 0.005, 0.01)
        su = rng.uniform([-300, -300, 5], [300, 300, 60])
        irs = rng.uniform([0, 0, 60], [600, 600, 140])
        user = rng.uniform([0, 0, 0], [600, 600, 2])
        model = record(ch.PathLossModel, "channel")
        profiles = ch.hop_profile(geom, irs, (su, user))
        g, h = ch.sample_channel(
            profiles, (ch.path_loss_db(model, float(np.linalg.norm(su - irs))),
                       ch.path_loss_db(model, float(np.linalg.norm(user - irs)))),
            float("inf"), None)
        phases = ch.optimal_phases(*profiles)
        gain = abs(ch.cascaded_gain(g, phases, h))
        bound = float(np.sum(np.abs(g) * np.abs(h)))
        gap = abs(gain - bound) / bound
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-9
        random_omegas = rng.uniform(-math.pi, math.pi, size=(100, geom.size))
        random_gains = np.abs((g * h) @ np.exp(1j * random_omegas.T))
        assert np.all(random_gains < gain)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"1000 geometries aligned to the magnitude bound "
              f"(worst relative gap {worst_gap:.2e}) and beat 100 random "
              f"phase settings each, in {elapsed:.1f}s")


# -- criterion 2: propulsion energy closed forms -----------------------------------------


def test_criterion_02_energy_closed_forms():
    start = time.monotonic()
    model = record(uav.EnergyModel, "uav")
    hover = uav.propulsion_energy(model, np.zeros(3), 1.0)
    assert abs(hover - 288.06) < 1e-9
    climb = uav.propulsion_energy(model, np.array([0.0, 0.0, 1.0]), 1.0)
    assert abs(climb - 307.66) < 1e-9
    speeds = np.arange(0.0, 30.0 + 1e-12, 0.01)
    powers = np.array([uav.power_at(model, v) for v in speeds])
    best = int(np.argmin(powers))
    assert 0 < best < len(speeds) - 1
    assert powers[best] < powers[0]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"hover 288.06 J and climb 307.66 J exact; cruise minimum "
              f"{powers[best]:.2f} W at {speeds[best]:.2f} m/s beats hover "
              f"{powers[0]:.2f} W ({elapsed:.2f}s)")


# -- criterion 3: gradient integrity ------------------------------------------------------


def test_criterion_03_gradient_integrity():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0

    # dense + activations
    policy = ActorCritic(rng, obs_dim=5, action_dim=3, mogrifier_rounds=5, **nn_section(hidden=8))
    obs = rng.standard_normal((4, 5))
    actions = rng.standard_normal((4, 3))

    # Each loss takes its gradient from the program's backward functions.
    loss = dense_loss(policy.trunk, obs)
    worst = max(worst, finite_difference_check(loss, policy.params(), rng))

    cell = MogrifierLstm(rng, 4, 5, rounds=5, name="m")
    x = Param(rng.standard_normal((6, 4)))  # steps of 3 and 2 rows, then 1
    h0, c0 = rng.standard_normal((2, 3, 5))
    w = rng.standard_normal((6, 5))

    # Three mogrified steps (gating rounds, then the cell), with their parameter
    # and input gradients; the later steps' reach the earlier ones through the state.
    cell_params = [p for _, p in cell.params()]
    worst = max(worst, finite_difference_check(sequence_loss(cell, x, [3, 2, 1], h0, c0, w),
                                               cell_params + [x], rng))

    loss = actor_critic_loss(policy, obs, actions, [4])
    worst = max(worst, finite_difference_check(loss, policy.params(), rng))

    deep = ActorCritic(rng, obs_dim=3, action_dim=2, mogrifier_rounds=5,
                       **nn_section(hidden=5, bptt_chunk=0))
    obs_seq = rng.standard_normal((16, 3))  # 8 steps of 2 rows, packed step-major
    act_seq = rng.standard_normal((16, 2))
    loss = actor_critic_loss(deep, obs_seq, act_seq, [2] * 8)
    worst = max(worst, finite_difference_check(loss, deep.params(), rng, samples=3))

    elapsed = time.monotonic() - start
    assert worst < 1e-4
    assert elapsed < 60.0
    report(3, f"dense/activation/mogrifier/LSTM/log-density/full-graph/8-step "
              f"recurrent gradients all match central differences "
              f"(worst {worst:.2e}) in {elapsed:.1f}s")


# -- criterion 4: mogrifier degeneracy ------------------------------------------------------


def test_criterion_04_mogrifier_degeneracy():
    rng = np.random.default_rng(3)
    gated = MogrifierLstm(rng, 6, 7, rounds=5, name="a")
    for q in gated.Q:
        q.value = np.zeros_like(q.value)
    for r in gated.R:
        r.value = np.zeros_like(r.value)
    gated.refresh()
    plain = MogrifierLstm(np.random.default_rng(0), 6, 7, rounds=0, name="b")
    plain.W.value = gated.W.value.copy()
    plain.b.value = gated.b.value.copy()
    plain.refresh()
    xs = rng.standard_normal((6, 3, 6))
    state_a = gated.initial_state(3)
    state_b = plain.initial_state(3)
    for t in range(6):
        state_a = gated.step(xs[t], *state_a)
        state_b = plain.step(xs[t], *state_b)
        assert np.array_equal(state_a[0], state_b[0])
        assert np.array_equal(state_a[1], state_b[1])

    # Random gating weights against a hand-unrolled recurrence.
    active = MogrifierLstm(np.random.default_rng(8), 4, 5, rounds=5, name="c")
    x0 = np.random.default_rng(9).standard_normal((2, 4))
    h0 = np.random.default_rng(10).standard_normal((2, 5))
    mx, mh = active.mogrify(x0, h0)
    x_ref, h_ref = x0.copy(), h0.copy()
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    qi = ri = 0
    for i in range(1, 6):
        if i % 2 == 1:
            x_ref = 2.0 * sig(h_ref @ active.Q[qi].value) * x_ref
            qi += 1
        else:
            h_ref = 2.0 * sig(x_ref @ active.R[ri].value) * h_ref
            ri += 1
    assert np.max(np.abs(mx - x_ref)) < 1e-12
    assert np.max(np.abs(mh - h_ref)) < 1e-12
    report(4, "zero gating matrices reproduce the plain LSTM bit for bit; "
              "5-round gating matches the unrolled recurrence to 1e-12")


# -- criterion 5: policy-optimization mechanics ----------------------------------------------


def test_criterion_05_ppo_mechanics(tmp_path):
    rng = np.random.default_rng(11)
    cfg = record(PpoConfig, "rl", clip_epsilon=0.2, epochs=1)
    n = 256
    new_lp = rng.standard_normal(n) * 0.4
    old_lp = new_lp + rng.standard_normal(n) * 0.3
    adv = rng.standard_normal(n)
    values = rng.standard_normal(n)
    returns = rng.standard_normal(n)
    log_std = np.array([-0.9, 0.2, -5.5])
    loss, *_ = ppo_loss(new_lp, old_lp, adv, values, returns, log_std, cfg)
    expected = loss_oracle(new_lp, old_lp, adv, values, returns, entropy_oracle(log_std), cfg)
    assert abs(loss - expected) < 1e-12

    for _ in range(50):
        rewards = rng.standard_normal(10)
        values10 = rng.standard_normal(11)
        dones = rng.uniform(size=10) < 0.25
        gamma, lam = rng.uniform(0.8, 1.0), rng.uniform(0.0, 1.0)
        adv10, _ = gae_advantages(rewards, values10, dones, gamma, lam)
        assert np.max(np.abs(adv10 - gae_oracle(rewards, values10, dones, gamma, lam))) < 1e-10

    # Zero-weight episodic revision leaves the whole training trace unchanged.
    base = toy_overrides(default_config(), buildings_per_cell=0)
    base["env"].update({"horizon": 10, "log_slots": False, "log_trajectory": False})
    base["rl"].update({"episodes": 4, "batch_size": 20, "epochs": 3,
                       "clip_epsilon": 0.2, "checkpoint_every": 0})
    cfg_zero = json.loads(json.dumps(base))
    cfg_zero["rl"]["agent"] = "eppo"
    cfg_zero["rl"]["necsa"] = {"bins": 5, "order": 1, "weight": 0.0}
    train(cfg_zero, tmp_path / "zero", seed=5)
    AGENT_SPECS["eppo_noshape"] = AgentSpec("eppo_noshape", True, True, 5, False)
    try:
        cfg_off = json.loads(json.dumps(base))
        cfg_off["rl"]["agent"] = "eppo_noshape"
        train(cfg_off, tmp_path / "off", seed=5)
    finally:
        del AGENT_SPECS["eppo_noshape"]
    assert (tmp_path / "zero" / "metrics.csv").read_bytes() == (
        tmp_path / "off" / "metrics.csv").read_bytes()
    assert (tmp_path / "zero" / "checkpoints" / "final" / "params.bin").read_bytes() == (
        tmp_path / "off" / "checkpoints" / "final" / "params.bin").read_bytes()
    report(5, "surrogate matches the per-sample oracle to 1e-12, advantage "
              "recursion matches the double-sum oracle to 1e-10, and zero-weight "
              "episodic revision leaves training bit-identical")


# -- criterion 6: fairness index ------------------------------------------------------------


def test_criterion_06_fairness_index():
    worst = 0.0
    for a in range(6):
        for b in range(6):
            for c in range(6):
                if a == b == c == 0:
                    continue
                rates = [a / 5.0, b / 5.0, c / 5.0]
                exact = Fraction((a + b + c) ** 2, 3 * (a * a + b * b + c * c))
                worst = max(worst, abs(jain_index(rates) - float(exact)))
    assert worst < 1e-12

    rng = np.random.default_rng(123)
    checked = 0
    for n in (1, 2, 3, 5, 8):
        block = rng.uniform(0.0, 1.0, size=(200_000, n))
        sums = block.sum(axis=1)
        squares = np.square(block).sum(axis=1)
        live = squares > 0
        values = sums[live] ** 2 / (n * squares[live])
        assert np.all(values >= 1.0 / n - 1e-12)
        assert np.all(values <= 1.0 + 1e-12)
        checked += int(live.sum())
    assert checked >= 1_000_000
    report(6, f"index matches exact rational arithmetic on the full 3-user grid "
              f"(worst gap {worst:.1e}) and stays inside [1/n, 1] on {checked:,} "
              f"random allocations")


# -- criterion 7: occlusion geometry -----------------------------------------------------------


def test_criterion_07_occlusion_against_sampling_oracle():
    cfg = record(sc.ScenarioConfig, "scenario")
    index = sc.BuildingIndex(sc.generate_city(cfg))
    rng = np.random.default_rng(31)
    ts = np.linspace(0.0, 1.0, 10_002)[1:-1][:, None]
    disagreements = 0
    for _ in range(1000):
        a = rng.uniform([0, 0, 0], [620, 620, 150])
        b = rng.uniform([0, 0, 0], [620, 620, 150])
        points = a + ts * (b - a)
        inside = (points[:, None, :] >= index.lo) & (points[:, None, :] <= index.hi)
        oracle = not bool(inside.all(axis=2).any())
        if sc.is_los(a, b, index) != oracle:
            # Disagreements are only tolerable within a 1e-6 boundary band:
            # the verdict must flip when boxes are inflated vs deflated.  The
            # floor face stays at z = 0, below every segment.
            grown, shrunk = (
                sc.BuildingIndex([sc.Building(c.x0 - d, c.y0 - d, c.x1 + d, c.y1 + d,
                                              c.height + d) for c in index.buildings])
                for d in (1e-6, -1e-6)
            )
            assert sc.is_los(a, b, grown) != sc.is_los(a, b, shrunk)
            disagreements += 1
    report(7, f"segment-box test agreed with the 10^4-point sampling oracle on "
              f"1000 segments ({disagreements} inside the boundary band)")


# -- criteria 8 and 9: desk-scale learning -------------------------------------------------------


@pytest.mark.slow
def test_criterion_08_learning_margins(learning_runs):
    results = learning_runs["results"]
    eppo = [final_reward(results, "eppo", 1, s)[0] for s in SEEDS]
    vanilla = [final_reward(results, "ppo_vanilla", 1, s)[0] for s in SEEDS]
    random_ = [final_reward(results, "random", 1, s)[0] for s in SEEDS]
    ratio = float(np.mean(eppo) / np.mean(random_))
    assert ratio >= 1.5
    paired_wins = sum(e > v for e, v in zip(eppo, vanilla))
    assert paired_wins >= 4
    assert learning_runs["elapsed"] < 1800.0
    report(8, f"final-window reward {np.mean(eppo):.2f} vs random "
              f"{np.mean(random_):.2f} (ratio {ratio:.2f} >= 1.5) and beats the "
              f"learned-phase agent in {paired_wins}/5 paired seeds "
              f"(runs took {learning_runs['elapsed'] / 60:.1f} min)")


def episode_jains(run_dir):
    with open(Path(run_dir) / "metrics.csv") as handle:
        rows = list(csv.DictReader(handle))
    keys = [k for k in rows[0] if k.startswith("avg_rate_user")]
    out = []
    for row in rows:
        rates = np.array([float(row[k]) for k in keys])
        out.append(jain_index(rates) if rates.sum() > 0 else 1.0 / len(keys))
    return np.array(out)


@pytest.mark.slow
def test_criterion_09_multi_user_fairness_trend(learning_runs):
    results = learning_runs["results"]
    improved = 0
    details = []
    for seed in SEEDS:
        _, out = final_reward(results, "eppo", 3, seed)
        jains = episode_jains(out)
        first, last = jains[:50].mean(), jains[-50:].mean()
        improved += last >= first
        details.append(f"{first:.3f}->{last:.3f}")
    assert improved >= 4
    report(9, f"3-user fairness rose from first to final window in {improved}/5 "
              f"seeds ({', '.join(details)})")


# -- criterion 10: reproducibility ------------------------------------------------------------------


def test_criterion_10_byte_identical_repeats(tmp_path, capsys):
    cfg = toy_overrides(default_config(), buildings_per_cell=2)
    cfg["env"].update({"horizon": 10})
    cfg["rl"].update({"episodes": 3, "batch_size": 25, "epochs": 2,
                      "clip_epsilon": 0.2, "checkpoint_every": 0})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    for name in ("one", "two"):
        assert cli_main(["train", "--config", str(cfg_path), "--out",
                         str(tmp_path / name), "--seed", "9"]) == 0
    for name in ("ev1", "ev2"):
        assert cli_main(["eval", "--checkpoint", str(tmp_path / "one" / "checkpoints" / "final"),
                         "--config", str(cfg_path), "--episodes", "2", "--seed", "3",
                         "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    for artifact in ("metrics.csv", "slots.csv", "trajectory.csv", "manifest.json",
                     "summary.json"):
        assert (tmp_path / "one" / artifact).read_bytes() == (
            tmp_path / "two" / artifact).read_bytes(), artifact
    for artifact in ("eval_metrics.csv", "eval_summary.json", "trajectory.csv"):
        assert (tmp_path / "ev1" / artifact).read_bytes() == (
            tmp_path / "ev2" / artifact).read_bytes(), artifact
    report(10, "train and eval artifacts are byte-identical across repeated "
               "same-seed invocations")
