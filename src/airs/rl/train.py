"""Run orchestration: the training loop, greedy evaluation, and run artifacts.

A run directory holds manifest.json (the fully resolved configuration, seed,
code hash and numeric environment), per-episode metrics.csv, optional per-slot
and trajectory CSVs, and checkpoints.  Identical (config, seed, code) triples produce byte-identical
metrics files on one numeric environment: the same numpy build, BLAS kernel,
BLAS thread count and numpy SIMD dispatch (the baseline, the runtime targets
and the NPY_DISABLE_CPU_FEATURES and NPY_ENABLE_CPU_FEATURES variables), which
the manifest names.  The SIMD fields matter: with only the others recorded,
two runs with equal records wrote different metrics.csv bytes when one of
them ran with NPY_DISABLE_CPU_FEATURES turning AVX-512 dispatch off.
"""

import ctypes
import json
import os
from pathlib import Path

import numpy as np

from .. import BLAS_THREAD_VARS, __version__
from ..config import ConfigError, build_env, code_version, from_section, validate_config
from ..nn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from ..rng import STREAM_EXPLORATION, STREAM_POLICY_INIT, substream
from .agents import AGENT_SPECS, PpoAgent, build_agent
from .necsa import NecsaShaper
from .ppo import NumericAbort, PpoConfig, PpoUpdater, RolloutBuffer

FINAL_WINDOW = 50


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _row(*values) -> str:
    return ",".join(_fmt(v) for v in values) + "\n"


def blas_core():
    """The kernel that numpy's bundled OpenBLAS picked on this machine, or None
    when it cannot be read.

    A DYNAMIC_ARCH OpenBLAS picks its kernel per CPU at load time (or from
    OPENBLAS_CORETYPE), and gemm rounding depends on it.  The bundled library
    is already loaded, so opening it again returns the same instance.
    """
    package = Path(np.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                        *package.glob(".dylibs/*openblas*")]):
        try:
            library = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(library, symbol, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                name = get()
                return name.decode() if name else None
    return None


CPU_FEATURE_VARS = ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")


def simd_dispatch() -> dict:
    """numpy's SIMD state on this machine: the `baseline` it was built for, the
    runtime `dispatch` targets it enabled (None where numpy does not expose
    them), and the two variables that turn targets off or on.

    numpy picks some ufuncs' loops by the targets it dispatches to, and the
    loops round differently (`exp`, `log`, `log1p` and `power` were seen to
    move with AVX-512 support and `tanh` with AVX2), so the bytes depend on
    this as they do on the BLAS kernel.
    """
    try:
        from numpy._core import _multiarray_umath as umath
        baseline = list(umath.__cpu_baseline__)
        dispatch = [target for target in umath.__cpu_dispatch__
                    if umath.__cpu_features__.get(target)]
    except (ImportError, AttributeError):
        baseline = dispatch = None
    return {"baseline": baseline, "dispatch": dispatch,
            **{name: os.environ.get(name) for name in CPU_FEATURE_VARS}}


def numeric_environment() -> dict:
    """What a run's bytes depend on besides (config, seed, code): the numpy
    version, its BLAS as numpy was built with it (name, version and
    configuration string) and the kernel it runs (`blas_core`), the BLAS
    thread variables, and numpy's SIMD dispatch (`simd_dispatch`)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25 prints its configuration only
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration"), "core": blas_core()},
        "threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "simd": simd_dispatch(),
    }


def write_manifest(out_dir: Path, config: dict, seed: int):
    manifest = {
        "config": config,
        "seed": seed,
        "agent": config["rl"]["agent"],
        "code_version": code_version(),
        "package_version": __version__,
        "numeric_environment": numeric_environment(),
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
        self.slots = None
        self.trajectory = None
        if log_slots:
            self.slots = open(out_dir / "slots.csv", "w", newline="")
            self.slots.write(SLOTS_HEADER)
        if log_trajectory:
            self.trajectory = open(out_dir / "trajectory.csv", "w", newline="")
            self.trajectory.write(TRAJECTORY_HEADER)

    def slot(self, record):
        # One f-string per row gives the bytes `_row` would: repr of each float,
        # 0/1 for each flag and str for the rest.  Every float field of a
        # SlotRecord is a Python float, never np.float64, whose repr would read
        # np.float64(...) (tests/test_env.py checks this), so each float takes
        # its `!r` as it is.
        r = record
        energy = repr(r.energy_j)
        if self.slots is not None:
            self.slots.write(
                f"{r.episode},{r.t},{r.served_user},{r.rate_bps!r},{energy},{r.jain!r},"
                f"{r.reward!r},{r.f_t!r},{int(r.los)},{int(r.violated)}\n"
            )
        if self.trajectory is not None:
            x, y, z = r.uav_position
            ax, ay, az = r.displacement
            self.trajectory.write(
                f"{r.episode},{r.t},{x!r},{y!r},{z!r},{ax!r},{ay!r},{az!r},{energy},"
                f"{int(r.violated)}\n"
            )

    def episode(self, index: int, stats: dict):
        self.metrics.write(
            _row(index, stats["reward"], *stats["rates"], stats["energy"], stats["sum_f"],
                 stats["mean_penalty"])
        )

    def close(self):
        for handle in (self.metrics, self.slots, self.trajectory):
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
                next_obs, record, done = env.step(action)
                writer.slot(record)
                total_reward += record.reward
                total_energy += record.energy_j
                sum_f += record.f_t
                penalties.append(record.penalty)
                if learner is not None:
                    learner.step(obs, action, record.reward, next_obs, done)
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
    periodic checkpoints.

    A buffer segment starts at each episode start, after each update and, within
    an episode, every `nn.bptt_chunk` rows (0: never), from the agent's state
    after the row before it; so the update replays no segment longer than the
    chunk, and its gradient through the recurrent state is cut there.
    """

    def __init__(self, agent: PpoAgent, config: dict, out_dir: Path):
        rl = config["rl"]
        self.agent = agent
        self.config = config
        self.out_dir = out_dir
        self.batch_size = rl["batch_size"]
        self.chunk = agent.policy.bptt_chunk
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
        self.buffer.begin_segment(self.agent.state)

    def step(self, obs, action, reward: float, next_obs, done: bool):
        if self.shaper is not None:
            reward = self.shaper.revise(next_obs, reward)
        buffer = self.buffer
        buffer.add(obs, action, reward, done, next_obs)
        full = len(buffer) >= self.batch_size
        if full:
            self.updater.update(buffer)
            self.updates_run += 1
            buffer.clear()
        if not done and (full or len(buffer) - buffer.starts[-1] == self.chunk):
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
    agent = build_agent(spec.kind, env, substream(seed, STREAM_POLICY_INIT), **config["nn"])
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
    hyperparams = {"agent": agent.spec.kind, "nn": config["nn"], "rl": config["rl"]}
    save_checkpoint(
        directory,
        [(name, param.value) for name, param in agent.policy.named_params()],
        hyperparams=hyperparams,
    )


def _checkpoint_kind(path, manifest: dict, config: dict):
    """The agent kind and `nn` section a checkpoint was saved with.

    They are checked by `validate_config`, swapped into `config` (already
    valid), so a checkpoint's `nn` obeys the config's own type and range rules.
    """
    hyperparams = manifest.get("hyperparams")
    if not isinstance(hyperparams, dict):
        raise CheckpointError(f"checkpoint {path} hyperparams are not an object")
    kind, nn = hyperparams.get("agent"), hyperparams.get("nn")
    try:
        validate_config({**config, "nn": nn, "rl": {**config["rl"], "agent": kind}})
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint {path} hyperparams: {exc}") from None
    if not AGENT_SPECS[kind].trainable:
        raise CheckpointError(f"checkpoint {path} names agent kind {kind!r}, which has no policy")
    return kind, nn


def evaluate(config: dict, out_dir, seed: int, episodes: int,
             checkpoint=None, agent_kind: str = None) -> dict:
    """Greedy-policy evaluation over a number of fresh episodes.

    A checkpoint's policy is built by `build_agent` from the kind and `nn`
    section it was saved with, for the configured env, and then takes the
    saved parameters; a parameter shape that does not fit is a CheckpointError.
    """
    validate_config(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if checkpoint is None:
        kind, nn, arrays = agent_kind or config["rl"]["agent"], {}, None
        if AGENT_SPECS[kind].trainable:
            raise ConfigError("rl.agent", f"agent kind {kind!r} needs --checkpoint for evaluation")
    else:
        manifest, arrays = load_checkpoint(checkpoint)
        kind, nn = _checkpoint_kind(checkpoint, manifest, config)
    env = build_env(config, seed, phase_control=AGENT_SPECS[kind].phase_control)
    agent = build_agent(kind, env, np.random.default_rng(0), **nn)
    if arrays is not None:
        agent.policy.load_state(arrays)
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
