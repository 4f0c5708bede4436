"""Each correctness check must reject a deliberately corrupted artifact.

Run with `python -m pytest airsbench/test_checks.py` from the repository
root; the tier-1 suite does not collect this directory.
"""

import json
import shutil

import numpy as np
import pytest

import checks
from workloads import LEARNING_CITY, prepare_process

prepare_process()

from airs.config import apply_overrides, default_config  # noqa: E402
from airs.rl.train import train  # noqa: E402

EPISODES = 3
HORIZON = 20
BATCH = 25


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """A small real training run: 3 users, 3 episodes of 20 slots, batch 25."""
    config = default_config()
    apply_overrides(config, list(LEARNING_CITY) + [
        "env.users=3",
        "scenario.user_initial_positions=[[75.0, 50.0, 0.0], [50.0, 25.0, 0.0], [25.0, 50.0, 0.0]]",
        f"env.horizon={HORIZON}",
        f"rl.batch_size={BATCH}",
        f"rl.episodes={EPISODES}",
        "rl.agent=eppo",
    ])
    out = tmp_path_factory.mktemp("clean") / "run"
    train(config, out, seed=3)
    return out, checks.spec_for(config, "train", EPISODES)


@pytest.fixture
def run(clean_run, tmp_path):
    source, spec = clean_run
    copy = tmp_path / "run"
    shutil.copytree(source, copy)
    return copy, spec


def rewrite_cell(path, row, column, transform):
    """Replace one cell of a CSV file (row counts data rows from 0)."""
    lines = path.read_text().splitlines(keepends=True)
    header = lines[0].strip().split(",")
    cells = lines[row + 1].rstrip("\n").split(",")
    index = header.index(column)
    cells[index] = transform(cells[index])
    lines[row + 1] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def column(path, name):
    return checks.read_csv(path)[name]


def assert_fails(out_dir, spec, fragment):
    problems = checks.check_run(out_dir, spec)
    assert any(fragment in p for p in problems), problems


def test_clean_run_passes_every_check(run):
    out_dir, spec = run
    assert checks.check_run(out_dir, spec) == []
    slots = checks.read_csv(out_dir / "slots.csv")
    # The fixture must exercise both branches of the reward and a non-trivial Jain.
    assert (slots["los"] == 0).any() and (slots["los"] == 1).any()
    assert len(set(slots["jain"])) > 2


def test_slot_energy_off_by_one_percent(run):
    out_dir, spec = run
    rewrite_cell(out_dir / "trajectory.csv", 7, "energy_joules",
                 lambda v: repr(float(v) * 1.01))
    assert_fails(out_dir, spec, "formula gives")


def test_cumulative_energy_not_the_slot_sum(run):
    out_dir, spec = run
    rewrite_cell(out_dir / "metrics.csv", 1, "cumulative_energy",
                 lambda v: repr(float(v) + 1.0))
    assert_fails(out_dir, spec, "slot sum")


def test_swapped_jain_values(run):
    out_dir, spec = run
    path = out_dir / "slots.csv"
    jain = column(path, "jain")
    i, j = 5, next(k for k in range(6, len(jain)) if jain[k] != jain[5])
    a, b = repr(float(jain[i])), repr(float(jain[j]))
    rewrite_cell(path, i, "jain", lambda v: b)
    rewrite_cell(path, j, "jain", lambda v: a)
    assert_fails(out_dir, spec, "running means give")


def test_jain_outside_its_range(run):
    out_dir, spec = run
    rewrite_cell(out_dir / "slots.csv", 4, "jain", lambda v: "1.5")
    assert_fails(out_dir, spec, "leaves [1/3, 1]")


def test_nonzero_reward_on_an_occluded_slot(run):
    out_dir, spec = run
    path = out_dir / "slots.csv"
    occluded = int(np.flatnonzero(column(path, "los") == 0)[0])
    rewrite_cell(path, occluded, "reward", lambda v: "0.001")
    assert_fails(out_dir, spec, "with los=0")


def test_reward_off_the_formula_on_a_clear_slot(run):
    out_dir, spec = run
    path = out_dir / "slots.csv"
    clear = int(np.flatnonzero(column(path, "los") == 1)[0])
    rewrite_cell(path, clear, "reward", lambda v: repr(float(v) + 1e-6))
    assert_fails(out_dir, spec, "with los=1")


def test_served_user_out_of_turn(run):
    out_dir, spec = run
    rewrite_cell(out_dir / "slots.csv", 2, "served_user", lambda v: str((int(v) + 1) % 3))
    assert_fails(out_dir, spec, "is not t mod users")


def test_updates_run_off_by_one(run):
    out_dir, spec = run
    path = out_dir / "summary.json"
    summary = json.loads(path.read_text())
    summary["updates_run"] += 1
    path.write_text(json.dumps(summary))
    assert_fails(out_dir, spec, "updates_run")


def test_buffer_leftover_wrong(run):
    out_dir, spec = run
    path = out_dir / "summary.json"
    summary = json.loads(path.read_text())
    summary["buffer_leftover"] = 0
    path.write_text(json.dumps(summary))
    assert_fails(out_dir, spec, "buffer_leftover")


def _poke_parameter(out_dir, name, value):
    final = out_dir / "checkpoints" / "final"
    entry = next(e for e in json.loads((final / "manifest.json").read_text())["params"]
                 if e["name"] == name)
    raw = bytearray((final / "params.bin").read_bytes())
    raw[entry["offset"]: entry["offset"] + 8] = np.array([value], dtype="<f8").tobytes()
    (final / "params.bin").write_bytes(bytes(raw))


def test_nonfinite_checkpoint_parameter(run):
    out_dir, spec = run
    _poke_parameter(out_dir, "actor.mean.W", float("nan"))
    assert_fails(out_dir, spec, "is not finite")


def test_log_std_outside_its_clamp(run):
    out_dir, spec = run
    _poke_parameter(out_dir, "actor.log_std", 1.5)
    assert_fails(out_dir, spec, "leaves [-5.0, 1.0]")


def test_metrics_row_missing(run):
    out_dir, spec = run
    path = out_dir / "metrics.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert_fails(out_dir, spec, "rows for 3 episodes")


def test_metrics_value_not_finite(run):
    out_dir, spec = run
    rewrite_cell(out_dir / "metrics.csv", 0, "sum_f_t", lambda v: "nan")
    assert_fails(out_dir, spec, "is not finite")
