"""Workload definitions and process preparation shared by the benchmark scripts.

Only the standard library is imported here, because `prepare_process` has to
pin the BLAS thread count before numpy is first imported.

A workload is a list of `section.key=value` overrides resolved by the
program's own `airs.config.apply_overrides`, plus the number of episodes in
one round.  A round is one call into a public entry point: `train` for the
training workloads, `evaluate` for `eval-city`.  The city layout is fixed by
`scenario.seed`, which stays at its default of 0.  The workload seed draws
the run seeds handed to that entry point (`round_seeds`).
"""

import os
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".airsbench_runs"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_process():
    """Pin BLAS to one thread and put the program's sources on the path.

    Raises SystemExit(2) when the checkout holds no program to measure.
    """
    if not (SRC / "airs" / "__init__.py").is_file():
        print(f"airsbench: no program sources under {SRC}; nothing to measure",
              file=sys.stderr)
        raise SystemExit(2)
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# The acceptance suite's `learning_config` city: a 100 m toy city with 2x2
# cells of 5 buildings, one user and a pure line-of-sight channel.  Slot and
# trajectory logs stay on, as in the package defaults.
LEARNING_CITY = (
    "scenario.area_x_max=100.0",
    "scenario.area_y_max=100.0",
    "scenario.grid_cells_per_side=2",
    "scenario.cell_side=45.0",
    "scenario.buildings_per_cell=5",
    "scenario.building_height_range=[25.0, 65.0]",
    "scenario.su_position=[-20.0, 50.0, 15.0]",
    "scenario.alt_min=25.0",
    "scenario.alt_max=60.0",
    "scenario.user_initial_positions=[[75.0, 50.0, 0.0]]",
    "env.users=1",
    "channel.pure_los=true",
    "env.horizon=100",
    "env.d_max=30.0",
    "nn.log_std_init=-1.0",
    "rl.batch_size=1000",
    "rl.epochs=10",
    "rl.clip_epsilon=0.2",
    "rl.entropy_weight=0.003",
    "rl.checkpoint_every=0",
    "rl.necsa.bins=5",
    "rl.necsa.order=1",
    "rl.necsa.weight=0.02",
)

# Ten 100-slot episodes: one PPO update of 1000 slots, no leftover.
TRAIN_EPISODES = 10

# The default 620 m city (3x3 cells of 8 buildings, Rician k=10) with three
# users, one on each of three different road centerlines, and episodes five
# times the default 300-slot horizon.
EVAL_CITY = (
    "env.users=3",
    "scenario.user_initial_positions=[[305.0, 205.0, 0.0], [205.0, 305.0, 0.0], "
    "[415.0, 515.0, 0.0]]",
    "env.horizon=1500",
)
EVAL_EPISODES = 2

# Every run cycles its rounds over this many run seeds drawn from the workload
# seed, and runs whole cycles.  One run seed fixes one flight path, and with it
# the mix of cheap and dear slots: slots with line of sight run the channel,
# occluded ones do not.  On `train-vanilla` the median and 99th-percentile slot
# time of single run seeds, measured against interleaved rounds of one fixed
# seed, spread by about 20% from one seed to the next; pooling four flight
# paths per run averages that mix.
SEEDS_PER_RUN = 4


def round_seeds(seed: int) -> list:
    """The run seeds of one cycle of rounds for workload seed `seed` (>= 0)."""
    return [seed * SEEDS_PER_RUN + k for k in range(SEEDS_PER_RUN)]

# The eval-city checkpoint: a short eppo training on the same city, with
# 100-slot episodes and two updates of 500 slots, logs off.  It is trained
# from CHECKPOINT_SEED whatever the workload seed, so every seed evaluates
# the same policy: a policy drawn per seed flies to different places, and
# the share of slots with line of sight, which sets how often the channel
# runs, moved throughput by about 10% from one seed to the next.
CHECKPOINT_OVERRIDES = EVAL_CITY + (
    "env.horizon=100",
    "env.log_slots=false",
    "env.log_trajectory=false",
    "rl.agent=eppo",
    "rl.episodes=10",
    "rl.batch_size=500",
    "rl.checkpoint_every=0",
)
CHECKPOINT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "train" or "eval"
    overrides: tuple
    episodes: int  # per round


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-eppo", "train",
            LEARNING_CITY + ("rl.agent=eppo", f"rl.episodes={TRAIN_EPISODES}"),
            TRAIN_EPISODES,
        ),
        Workload(
            "train-vanilla", "train",
            LEARNING_CITY + ("rl.agent=ppo_vanilla", f"rl.episodes={TRAIN_EPISODES}"),
            TRAIN_EPISODES,
        ),
        Workload("eval-city", "eval", EVAL_CITY, EVAL_EPISODES),
    )
}
