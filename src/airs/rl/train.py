"""Run orchestration: the training loop, greedy evaluation, and run artifacts.

A run directory holds manifest.json (the fully resolved configuration, seed,
and code hash), per-episode metrics.csv, episode summaries as JSON lines,
optional per-slot and trajectory CSVs, and checkpoints.  Identical
(config, seed, code) triples produce byte-identical metrics files.
"""

import json
import os
from pathlib import Path

import numpy as np

from .. import __version__
from ..config import ConfigError, build_env, code_version, from_section, validate_config
from ..nn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from ..nn.policy import ActorCritic
from ..rng import STREAM_EXPLORATION, STREAM_POLICY_INIT, substream
from .agents import AGENT_SPECS, PpoAgent, baseline_agent
from .necsa import NecsaShaper
from .ppo import NumericAbort, PpoConfig, PpoUpdater, RolloutBuffer, Transition

FINAL_WINDOW = 50


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _row(*values) -> str:
    return ",".join(_fmt(v) for v in values) + "\n"


def build_agent(config: dict, env, seed: int):
    nn_cfg = config["nn"]
    init_rng = substream(seed, STREAM_POLICY_INIT)
    return baseline_agent(
        config["rl"]["agent"],
        obs_dim=env.observation_dim,
        irs_elements=env.geometry.size,
        init_rng=init_rng,
        hidden=nn_cfg["hidden"],
        log_std_init=nn_cfg["log_std_init"],
        bptt_chunk=nn_cfg["bptt_chunk"],
    )


def write_manifest(out_dir: Path, config: dict, seed: int):
    manifest = {
        "config": config,
        "seed": seed,
        "agent": config["rl"]["agent"],
        "code_version": code_version(),
        "package_version": __version__,
        "hyperparameter_ledger": {"rl": config["rl"], "nn": config["nn"]},
    }
    write_json_atomic(out_dir / "manifest.json", manifest)


METRICS_HEADER = (
    "episode,cumulative_reward,{rates},cumulative_energy,sum_f_t,mean_penalty\n"
)
SLOTS_HEADER = "episode,t,served_user,rate_bps,energy_j,jain,reward,f_t,los,violated\n"
TRAJECTORY_HEADER = "episode,t,x,y,z,ax,ay,az,energy_joules,violated\n"


class RunWriter:
    """Owns the metric files of one run directory."""

    def __init__(self, out_dir: Path, users: int, log_slots: bool, log_trajectory: bool,
                 metrics_name: str = "metrics.csv"):
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        rates = ",".join(f"avg_rate_user{i}" for i in range(users))
        self.metrics = open(out_dir / metrics_name, "w", newline="")
        self.metrics.write(METRICS_HEADER.format(rates=rates))
        self.episodes = open(out_dir / "episodes.jsonl", "w", newline="")
        self.slots = None
        self.trajectory = None
        if log_slots:
            self.slots = open(out_dir / "slots.csv", "w", newline="")
            self.slots.write(SLOTS_HEADER)
        if log_trajectory:
            self.trajectory = open(out_dir / "trajectory.csv", "w", newline="")
            self.trajectory.write(TRAJECTORY_HEADER)

    def slot(self, record):
        # One f-string per row gives the bytes `_row` would: repr of each float
        # (made a Python float, since numpy 2 scalars repr as np.float64(...)),
        # 0/1 for each flag and str for the rest.
        r = record
        if self.slots is not None:
            self.slots.write(
                f"{r.episode},{r.t},{r.served_user},{float(r.rate_bps)!r},"
                f"{float(r.energy_j)!r},{float(r.jain)!r},{float(r.reward)!r},"
                f"{float(r.f_t)!r},{int(r.los)},{int(r.violated)}\n"
            )
        if self.trajectory is not None:
            x, y, z = r.uav_position
            ax, ay, az = r.displacement
            self.trajectory.write(
                f"{r.episode},{r.t},{float(x)!r},{float(y)!r},{float(z)!r},"
                f"{float(ax)!r},{float(ay)!r},{float(az)!r},{float(r.energy_j)!r},"
                f"{int(r.violated)}\n"
            )

    def episode(self, index: int, stats: dict):
        self.metrics.write(
            _row(index, stats["reward"], *stats["rates"], stats["energy"], stats["sum_f"],
                 stats["mean_penalty"])
        )
        self.episodes.write(
            json.dumps(
                {
                    "episode": index,
                    "cumulative_reward": stats["reward"],
                    "avg_rate_per_user": stats["rates"],
                    "cumulative_energy": stats["energy"],
                    "sum_f_t": stats["sum_f"],
                },
                sort_keys=True,
            )
            + "\n"
        )

    def close(self):
        for handle in (self.metrics, self.episodes, self.slots, self.trajectory):
            if handle is not None:
                handle.close()


def run_episodes(env, agent, writer: RunWriter, episodes: int, seed: int, greedy: bool,
                 learner=None) -> list:
    """Flies `episodes` episodes, writing every slot and episode row, then closes
    the writer; returns each episode's stats.  With a learner, every transition
    goes to `learner.step` and every finished episode to `learner.end_episode`."""
    explore_rng = substream(seed, STREAM_EXPLORATION)
    episode_stats = []
    try:
        for episode in range(episodes):
            obs = env.reset()
            agent.reset()
            if learner is not None:
                learner.begin_segment()
            total_reward = 0.0
            total_energy = 0.0
            sum_f = 0.0
            penalties = []
            done = False
            while not done:
                action = agent.act(obs, explore_rng, greedy=greedy)
                next_obs, breakdown, done = env.step(action)
                record = env.last_slot
                writer.slot(record)
                total_reward += breakdown.reward
                total_energy += breakdown.energy
                sum_f += record.f_t
                penalties.append(breakdown.penalty)
                if learner is not None:
                    learner.step(obs, action, breakdown.reward, next_obs, done)
                obs = next_obs
            stats = {
                "reward": float(total_reward),
                "rates": [float(r) for r in env.per_user_average_rates()],
                "energy": float(total_energy),
                "sum_f": float(sum_f),
                "mean_penalty": float(np.mean(penalties)),
            }
            writer.episode(episode, stats)
            episode_stats.append(stats)
            if learner is not None:
                learner.end_episode(episode)
    finally:
        writer.close()
    return episode_stats


class Learner:
    """Buffers the transitions of a training run, revises their rewards when the
    agent uses NECSA, runs a PPO update whenever the batch fills, and saves the
    periodic checkpoints."""

    def __init__(self, agent: PpoAgent, config: dict, out_dir: Path):
        rl = config["rl"]
        self.agent = agent
        self.config = config
        self.out_dir = out_dir
        self.batch_size = rl["batch_size"]
        self.checkpoint_every = rl["checkpoint_every"]
        self.shaper = None
        if agent.spec.use_necsa:
            necsa = rl["necsa"]
            self.shaper = NecsaShaper(bins=necsa["bins"], order=necsa["order"],
                                      weight=necsa["weight"], discount=rl["discount"])
        self.updater = PpoUpdater(agent.policy, from_section(PpoConfig, rl))
        self.buffer = RolloutBuffer()
        self.updates_run = 0

    def begin_segment(self):
        """Starts a buffer segment from the agent's current recurrent state."""
        self.buffer.begin_segment(self.agent.state_arrays())

    def step(self, obs, action, reward: float, next_obs, done: bool):
        if self.shaper is not None:
            reward = self.shaper.revise(next_obs, reward)
        self.buffer.add(
            Transition(state=np.array(obs), action=np.array(action), reward=reward, done=done),
            np.array(next_obs),
        )
        if len(self.buffer) >= self.batch_size:
            self.updater.update(self.buffer)
            self.updates_run += 1
            self.buffer.clear()
            if not done:
                self.begin_segment()

    def end_episode(self, episode: int):
        if self.shaper is not None:
            self.shaper.end_episode()
        if self.checkpoint_every and (episode + 1) % self.checkpoint_every == 0:
            _save_agent(self.out_dir / "checkpoints" / f"ep_{episode + 1:06d}", self.agent,
                        self.config)


def train(config: dict, out_dir, seed: int) -> dict:
    """Full training run per the declared agent kind; returns a summary dict."""
    validate_config(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = AGENT_SPECS[config["rl"]["agent"]]
    env = build_env(config, seed, phase_control=spec.phase_control)
    agent = build_agent(config, env, seed)
    learner = Learner(agent, config, out_dir) if spec.trainable else None

    write_manifest(out_dir, config, seed)
    writer = RunWriter(
        out_dir,
        users=config["env"]["users"],
        log_slots=config["env"]["log_slots"],
        log_trajectory=config["env"]["log_trajectory"],
    )
    try:
        episode_stats = run_episodes(env, agent, writer, config["rl"]["episodes"], seed,
                                     greedy=False, learner=learner)
    except NumericAbort as exc:
        dump_path = out_dir / "nan_dump.json"
        write_json_atomic(dump_path, exc.dump)
        raise NumericAbort(f"{exc} (diagnostics in {dump_path})", exc.dump) from exc
    summary = summarize(episode_stats)
    if learner is not None:
        _save_agent(out_dir / "checkpoints" / "final", agent, config)
        summary["updates_run"] = learner.updates_run
        summary["buffer_leftover"] = len(learner.buffer)
    write_json_atomic(out_dir / "summary.json", summary)
    return summary


def write_json_atomic(path: Path, document: dict):
    """Write `document` to a temporary sibling, then move it onto `path`."""
    staging = path.with_name(f".{path.name}.tmp")
    staging.write_text(json.dumps(document, indent=2, sort_keys=True))
    os.replace(staging, path)


def summarize(episode_stats, window: int = FINAL_WINDOW) -> dict:
    if not episode_stats:
        return {"episodes": 0}
    rewards = [s["reward"] for s in episode_stats]
    energies = [s["energy"] for s in episode_stats]
    rates = np.array([s["rates"] for s in episode_stats])
    tail = min(window, len(rewards))
    return {
        "episodes": len(rewards),
        "final_window": tail,
        "final_window_mean_reward": float(np.mean(rewards[-tail:])),
        "final_window_mean_energy": float(np.mean(energies[-tail:])),
        "final_window_mean_rate_per_user": np.mean(rates[-tail:], axis=0).tolist(),
        "mean_reward": float(np.mean(rewards)),
        "mean_energy": float(np.mean(energies)),
    }


def _save_agent(directory, agent: PpoAgent, config: dict):
    hyperparams = {
        "agent": agent.spec.kind,
        "architecture": agent.policy.architecture(),
        "nn": config["nn"],
        "rl": config["rl"],
    }
    save_checkpoint(
        directory,
        [(name, param.value) for name, param in agent.policy.named_params()],
        step=0,
        hyperparams=hyperparams,
    )


def agent_from_checkpoint(path) -> PpoAgent:
    manifest, arrays = load_checkpoint(path)
    try:
        hp = manifest["hyperparams"]
        kind = hp["agent"]
        arch = hp["architecture"]
        sizes = {key: arch[key] for key in
                 ("obs_dim", "action_dim", "hidden", "mogrifier_rounds", "bptt_chunk")}
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {path} manifest is missing {exc}") from None
    spec = AGENT_SPECS.get(kind)
    if spec is None:
        raise CheckpointError(f"checkpoint {path} names unknown agent kind {kind!r}")
    policy = ActorCritic(np.random.default_rng(0), **sizes)
    policy.load_state(arrays)
    return PpoAgent(policy, spec)


def evaluate(config: dict, out_dir, seed: int, episodes: int,
             checkpoint=None, agent_kind: str = None) -> dict:
    """Greedy-policy evaluation over a number of fresh episodes."""
    validate_config(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if checkpoint is not None:
        agent = agent_from_checkpoint(checkpoint)
        spec = agent.spec
    else:
        kind = agent_kind or config["rl"]["agent"]
        spec = AGENT_SPECS[kind]
        if spec.trainable:
            raise ConfigError("rl.agent", f"agent kind {kind!r} needs --checkpoint for evaluation")
        agent = baseline_agent(kind)
    env = build_env(config, seed, phase_control=spec.phase_control)
    if spec.trainable:
        if agent.policy.obs_dim != env.observation_dim:
            raise CheckpointError(
                f"checkpoint expects {agent.policy.obs_dim}-dim observations but the "
                f"configured environment produces {env.observation_dim}"
            )
        if agent.policy.action_dim != env.action_dim:
            raise CheckpointError(
                f"checkpoint expects {agent.policy.action_dim}-dim actions but the "
                f"configured environment takes {env.action_dim}"
            )
    writer = RunWriter(
        out_dir,
        users=config["env"]["users"],
        log_slots=config["env"]["log_slots"],
        log_trajectory=True,
        metrics_name="eval_metrics.csv",
    )
    episode_stats = run_episodes(env, agent, writer, episodes, seed, greedy=True)
    summary = summarize(episode_stats, window=max(episodes, 1))
    write_json_atomic(out_dir / "eval_summary.json", summary)
    return summary
