"""Check that two source trees train byte-identical runs.

    python3 tools/compare_numerics.py --base <src> --change <src>

`<src>` is a directory holding the `airs` package (a checkout's `src/`).
Each tree trains eppo, ppo_vanilla, ppo_mogrifier and ppo_necsa on the
benchmark's learning city (`airsbench/workloads.py` LEARNING_CITY), once at
`rl.batch_size=370` for 12 episodes (updates on segments that start
mid-episode) and once at 1000 for 20 episodes; eppo and ppo_vanilla also
train at 370 with `nn.bptt_chunk` 0 (the gradient is never cut) and 7 (cut
every 7 steps instead of the default 16).  That is 12 runs, each in its own
`airs train` subprocess with BLAS pinned to one thread.  The tool compares the
sha256 of metrics.csv, slots.csv, episodes.jsonl and summary.json, then loads
both final checkpoints with the change's loader and compares every parameter
array.  Checkpoint file bytes are not compared, so a change of checkpoint
layout alone is not a difference.  For a run that differs it also prints each
tree's `final_window_mean_reward` and the largest relative parameter
difference (max |base - change| over max |base|, worst parameter), so a
change that moves numerics on purpose shows how far.  Exits 1 on any
difference, 0 otherwise.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from airsbench.workloads import BLAS_THREAD_VARS, LEARNING_CITY  # noqa: E402

AGENTS = ("eppo", "ppo_vanilla", "ppo_mogrifier", "ppo_necsa")
# (agent, rl.batch_size, episodes, nn.bptt_chunk or None for the default)
RUNS = ([(agent, batch_size, episodes, None) for agent in AGENTS
         for batch_size, episodes in ((370, 12), (1000, 20))]
        + [(agent, 370, 12, chunk) for agent in ("eppo", "ppo_vanilla") for chunk in (0, 7)])
ARTIFACTS = ("metrics.csv", "slots.csv", "episodes.jsonl", "summary.json")
SEED = 7


def train(src: Path, out_dir: Path, agent: str, batch_size: int, episodes: int, chunk):
    env = {k: v for k, v in os.environ.items() if not k.startswith("AIRS_")}
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(src)
    overrides = LEARNING_CITY + (f"rl.agent={agent}", f"rl.batch_size={batch_size}",
                                 f"rl.episodes={episodes}")
    if chunk is not None:
        overrides += (f"nn.bptt_chunk={chunk}",)
    subprocess.run(
        [sys.executable, "-m", "airs.cli", "train", "--out", str(out_dir),
         "--seed", str(SEED), "--override", *overrides],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def compare_run(base_dir: Path, change_dir: Path, load_checkpoint) -> list:
    """Differences between two run directories, as messages."""
    problems = [f"{name} differs" for name in ARTIFACTS
                if digest(base_dir / name) != digest(change_dir / name)]
    _, base = load_checkpoint(base_dir / "checkpoints" / "final")
    _, change = load_checkpoint(change_dir / "checkpoints" / "final")
    if base.keys() != change.keys():
        problems.append(f"checkpoint names differ: {sorted(base.keys() ^ change.keys())}")
    shared = sorted(base.keys() & change.keys())
    differing = [name for name in shared if base[name].shape != change[name].shape
                 or base[name].tobytes() != change[name].tobytes()]
    if differing:
        problems.append(f"{len(differing)} of {len(shared)} checkpoint parameters differ")
    if problems:
        rewards = [json.loads((d / "summary.json").read_text())["final_window_mean_reward"]
                   for d in (base_dir, change_dir)]
        problems.append(f"final_window_mean_reward {rewards[0]!r} -> {rewards[1]!r}")
        relative = [np.max(np.abs(base[n] - change[n])) / np.max(np.abs(base[n]))
                    for n in differing if base[n].shape == change[n].shape]
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

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        failures = 0
        for agent, batch_size, episodes, chunk in RUNS:
            label = f"{agent}_b{batch_size}" + ("" if chunk is None else f"_chunk{chunk}")
            dirs = {}
            for side in ("base", "change"):
                dirs[side] = out / side / label
                train(getattr(args, side).resolve(), dirs[side], agent, batch_size, episodes,
                      chunk)
            problems = compare_run(dirs["base"], dirs["change"], load_checkpoint)
            failures += bool(problems)
            print(f"{label}: {'; '.join(problems) if problems else 'identical'}")
    print(f"{failures} of {len(RUNS)} runs differ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
