"""Check that two source trees train and evaluate byte-identical runs.

    python3 tools/compare_numerics.py --base <src> --change <src>

`<src>` is a directory holding the `airs` package (a checkout's `src/`).
Each tree makes 19 runs, each `airs` call in its own subprocess with BLAS
pinned to one thread, and the change tree makes a 20th:
- 14 trainings on the benchmark's learning city (`airsbench/workloads.py`
  LEARNING_CITY: one user, pure line of sight): eppo, ppo_vanilla,
  ppo_mogrifier and ppo_necsa, once at `rl.batch_size=370` for 12 episodes
  (updates on segments that start mid-episode) and once at 1000 for 20
  episodes; eppo and ppo_vanilla also at 370 with `nn.bptt_chunk` 0 and 7,
  and eppo at 370 with `nn.bptt_chunk=150`.  The chunk is the rollout's
  segment length cap: 0 and 150 (longer than any 100-slot episode) cut
  nowhere, so segments end only at episode and buffer boundaries, while 7
  starts a segment every 7 rows after a segment start, cuts that fall off
  both episode and buffer boundaries (the default 16 runs above); and eppo
  at 370 with `rl.necsa.order=3`, the one run whose NECSA keys join several
  observations (every other run keys on one);
- one eppo training on the `eval-city` city (EVAL_CITY: three users, Rician
  k = 10) with 100-slot episodes, `env.rate_window=20` and
  `env.observe_all_users=true`, at `rl.batch_size=250` (updates
  mid-episode) with `rl.checkpoint_every=2`, so windowed three-user
  fairness, the Rician draws and the periodic checkpoints reach the
  artifacts and the update;
- one ppo_vanilla training on that city with 100-slot episodes at
  `rl.batch_size=250`, the one run that joins the Rician draws with learned
  phases (every other learned-phase run flies the pure line-of-sight
  learning city);
- one `airs eval` of the `eval-city` workload (EVAL_CITY, EVAL_EPISODES
  episodes of 1500 slots, slot and trajectory logs on) from an eppo
  checkpoint that the tree itself trains on that city (CHECKPOINT_OVERRIDES);
- one `airs eval --agent random` of the same workload with no training,
  which draws the exploration generator on the evaluation path;
- one `airs eval --agent random` of that city with nine users
  (NINE_USER_CITY), placed off the road centerlines for `UserTrack.spawn` to
  snap, so nine user tracks and the Jain index of 8 rates and more (numpy's
  pairwise sums) reach `slots.csv`;
- the change tree's `airs eval` of the base tree's `eval_city` checkpoint,
  compared with the base tree's own eval of it, so a checkpoint written
  before the change must still restore to the same eval artifacts.

Rounding can depend on the BLAS kernel and on numpy's SIMD dispatch, so the
header names numpy's version, the kernel its OpenBLAS runs
(`airs.rl.train.blas_core` of the change tree; OPENBLAS_CORETYPE, passed on
to the runs, overrides it) and NPY_DISABLE_CPU_FEATURES, also passed on,
which turns dispatch targets off: "0 of N runs differ" holds for that
kernel and that setting.

The tool compares the sha256 of each run's artifacts (metrics.csv, slots.csv,
trajectory.csv and summary.json of a training; the eval files
too for an eval run), then, for a run that trains, loads every checkpoint
directory (`checkpoints/*/`) of both trees with the change's loader and
compares every parameter array.  Checkpoint file bytes are not compared, so a
change of checkpoint layout alone is not a difference.  For a run that differs
it also prints each tree's `final_window_mean_reward` and the largest relative
parameter difference (max |base - change| over max |base|, worst parameter of
any checkpoint), so a change that moves numerics on purpose shows how far.
Exits 1 on any difference, 0 otherwise.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from airsbench.workloads import (  # noqa: E402
    BLAS_THREAD_VARS, CHECKPOINT_OVERRIDES, EVAL_CITY, EVAL_EPISODES, LEARNING_CITY,
)

TRAIN_ARTIFACTS = ("metrics.csv", "slots.csv", "trajectory.csv", "summary.json")
EVAL_ARTIFACTS = ("eval/eval_metrics.csv", "eval/slots.csv", "eval/trajectory.csv",
                  "eval/eval_summary.json")
# The checkpoint training of the eval run writes no slot or trajectory log.
CHECKPOINT_EVAL_ARTIFACTS = ("metrics.csv", "summary.json") + EVAL_ARTIFACTS
SEED = 7
NINE_USER_CITY = EVAL_CITY + (
    "env.users=9",
    "scenario.user_initial_positions=[[305.0, 205.0, 0.0], [205.0, 305.0, 0.0], "
    "[415.0, 515.0, 0.0], [100.0, 207.5, 0.0], [203.0, 100.0, 0.0], [517.0, 413.0, 0.0], "
    "[10.0, 416.0, 0.0], [418.0, 600.0, 0.0], [560.0, 202.0, 0.0]]",
)


@dataclass(frozen=True)
class Run:
    label: str
    train: tuple  # overrides of the `airs train` run; None for an eval alone
    artifacts: tuple = TRAIN_ARTIFACTS
    evaluate: tuple = None  # overrides of an `airs eval` run
    eval_agent: str = None  # the eval's `--agent`; None evaluates the final checkpoint
    base_checkpoint: str = None  # label of the run whose base-tree checkpoint the change evals


def learning_run(agent, batch_size, episodes, chunk=None, order=None) -> Run:
    label = f"{agent}_b{batch_size}"
    overrides = LEARNING_CITY + (f"rl.agent={agent}", f"rl.batch_size={batch_size}",
                                 f"rl.episodes={episodes}")
    for name, key, value in (("chunk", "nn.bptt_chunk", chunk), ("order", "rl.necsa.order", order)):
        if value is not None:
            label += f"_{name}{value}"
            overrides += (f"{key}={value}",)
    return Run(label, overrides)


AGENTS = ("eppo", "ppo_vanilla", "ppo_mogrifier", "ppo_necsa")
RUNS = (
    [learning_run(agent, batch_size, episodes) for agent in AGENTS
     for batch_size, episodes in ((370, 12), (1000, 20))]
    + [learning_run(agent, 370, 12, chunk) for agent in ("eppo", "ppo_vanilla")
       for chunk in (0, 7)]
    + [learning_run("eppo", 370, 12, 150), learning_run("eppo", 370, 12, order=3)]
    + [Run("eppo_city_window20_all_users",
           EVAL_CITY + ("env.horizon=100", "env.rate_window=20", "env.observe_all_users=true",
                        "rl.agent=eppo", "rl.episodes=6", "rl.batch_size=250",
                        "rl.checkpoint_every=2")),
       Run("ppo_vanilla_city",
           EVAL_CITY + ("env.horizon=100", "rl.agent=ppo_vanilla", "rl.episodes=6",
                        "rl.batch_size=250")),
       Run("eval_city", CHECKPOINT_OVERRIDES, CHECKPOINT_EVAL_ARTIFACTS, evaluate=EVAL_CITY),
       Run("eval_city_random", None, EVAL_ARTIFACTS, evaluate=EVAL_CITY, eval_agent="random"),
       Run("eval_city_random_9_users", None, EVAL_ARTIFACTS, evaluate=NINE_USER_CITY,
           eval_agent="random"),
       Run("eval_city_base_checkpoint", None, EVAL_ARTIFACTS, evaluate=EVAL_CITY,
           base_checkpoint="eval_city")]
)


def airs(src: Path, *args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("AIRS_")}
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(src)
    subprocess.run([sys.executable, "-m", "airs.cli", *args], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def make_run(src: Path, out_dir: Path, run: Run, checkpoint: Path = None):
    if run.train is not None:
        airs(src, "train", "--out", str(out_dir), "--seed", str(SEED), "--override", *run.train)
    if run.evaluate is not None:
        if run.eval_agent is None:
            agent = ("--checkpoint", str(checkpoint or out_dir / "checkpoints" / "final"))
        else:
            agent = ("--agent", run.eval_agent)
        airs(src, "eval", *agent, "--episodes", str(EVAL_EPISODES), "--out",
             str(out_dir / "eval"), "--seed", str(SEED), "--override", *run.evaluate)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def checkpoint_names(run_dir: Path) -> list:
    root = run_dir / "checkpoints"
    return sorted(p.name for p in root.iterdir() if p.is_dir()) if root.is_dir() else []


def compare_run(base_dir: Path, change_dir: Path, run: Run, load_checkpoint) -> list:
    """Differences between two run directories, as messages."""
    problems = [f"{name} differs" for name in run.artifacts
                if digest(base_dir / name) != digest(change_dir / name)]
    # An eval alone saves no checkpoint (its base directory may hold the one it read).
    base_names, change_names = ((checkpoint_names(base_dir), checkpoint_names(change_dir))
                                if run.train is not None else ([], []))
    if base_names != change_names:
        problems.append(f"checkpoint directories differ: {base_names} -> {change_names}")
    relative = []
    for checkpoint in sorted(set(base_names) & set(change_names)):
        _, base = load_checkpoint(base_dir / "checkpoints" / checkpoint)
        _, change = load_checkpoint(change_dir / "checkpoints" / checkpoint)
        if base.keys() != change.keys():
            problems.append(f"{checkpoint} parameter names differ: "
                            f"{sorted(base.keys() ^ change.keys())}")
        shared = sorted(base.keys() & change.keys())
        differing = [name for name in shared if base[name].shape != change[name].shape
                     or base[name].tobytes() != change[name].tobytes()]
        if differing:
            problems.append(f"{checkpoint}: {len(differing)} of {len(shared)} parameters differ")
        relative += [np.max(np.abs(base[n] - change[n])) / np.max(np.abs(base[n]))
                     for n in differing if base[n].shape == change[n].shape]
    if problems:
        summary = "summary.json" if run.train is not None else "eval/eval_summary.json"
        rewards = [json.loads((d / summary).read_text())["final_window_mean_reward"]
                   for d in (base_dir, change_dir)]
        problems.append(f"final_window_mean_reward {rewards[0]!r} -> {rewards[1]!r}")
        if relative:
            problems.append(f"largest relative parameter difference {max(relative):.2e}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="source tree of the reference")
    parser.add_argument("--change", required=True, type=Path, help="source tree under test")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.change.resolve()))
    from airs.nn.checkpoint import load_checkpoint
    from airs.rl.train import blas_core

    print(f"numpy {np.__version__}, BLAS core {blas_core()} "
          f"(OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE', 'unset')}), one BLAS thread, "
          f"NPY_DISABLE_CPU_FEATURES={os.environ.get('NPY_DISABLE_CPU_FEATURES', 'unset')}")

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        failures = 0
        for run in RUNS:
            dirs = {side: out / side / run.label for side in ("base", "change")}
            if run.base_checkpoint is None:
                for side, out_dir in dirs.items():
                    make_run(getattr(args, side).resolve(), out_dir, run)
            else:
                dirs["base"] = out / "base" / run.base_checkpoint
                make_run(args.change.resolve(), dirs["change"], run,
                         dirs["base"] / "checkpoints" / "final")
            problems = compare_run(dirs["base"], dirs["change"], run, load_checkpoint)
            failures += bool(problems)
            print(f"{run.label}: {'; '.join(problems) if problems else 'identical'}")
    print(f"{failures} of {len(RUNS)} runs differ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
