import json
import os
from pathlib import Path

import numpy as np
import pytest

from airs.cli import main
from airs.config import apply_env_overrides, default_config
from conftest import toy_overrides


def write_tiny_config(path: Path, users=1, **rl_extra):
    cfg = toy_overrides(default_config(), users=users, buildings_per_cell=2)
    cfg["env"].update({"horizon": 10, "log_slots": True, "log_trajectory": True})
    cfg["rl"].update({"episodes": 3, "batch_size": 25, "epochs": 2,
                      "clip_epsilon": 0.2, "checkpoint_every": 0})
    cfg["rl"].update(rl_extra)
    path.write_text(json.dumps(cfg))
    return cfg


def test_missing_config_exits_2_and_names_path(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_invalid_override_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    write_tiny_config(cfg)
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--override", "rl.not_a_key=1"])
    assert code == 2
    assert "not_a_key" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("kind", ["bogus", "[1]"])
def test_unknown_agent_kind_exits_2_and_names_key(tmp_path, capsys, command, kind):
    cfg = tmp_path / "c.json"
    write_tiny_config(cfg)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--override", f"rl.agent={kind}"])
    assert code == 2
    assert "rl.agent" in capsys.readouterr().err


def test_episode_flag_recorded_in_manifest(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    write_tiny_config(cfg)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out), "--episodes", "10"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["rl"]["episodes"] == 10
    capsys.readouterr()


def test_same_seed_runs_are_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    write_tiny_config(cfg)
    for name in ("a", "b"):
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / name),
                     "--seed", "11"]) == 0
    capsys.readouterr()
    for artifact in ("metrics.csv", "slots.csv", "trajectory.csv", "episodes.jsonl",
                     "manifest.json", "summary.json"):
        a = (tmp_path / "a" / artifact).read_bytes()
        b = (tmp_path / "b" / artifact).read_bytes()
        assert a == b, artifact


def test_env_var_override_applies(tmp_path, monkeypatch):
    monkeypatch.setenv("AIRS_ENV__HORIZON", "123")
    config = default_config()
    apply_env_overrides(config)
    assert config["env"]["horizon"] == 123


def test_eval_hover_full_horizon_energy(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg = toy_overrides(default_config(), buildings_per_cell=0)
    cfg["env"].update({"horizon": 300, "log_slots": False, "log_trajectory": False})
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "ev"
    assert main(["eval", "--agent", "hover", "--config", str(cfg_path),
                 "--episodes", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "eval_summary.json").read_text())
    # Hover power integrated over 300 one-second slots.
    assert summary["final_window_mean_energy"] == pytest.approx(300 * 288.06, rel=1e-9)


def test_eval_zero_episodes_is_empty_success(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    write_tiny_config(cfg_path)
    out = tmp_path / "ev0"
    assert main(["eval", "--agent", "hover", "--config", str(cfg_path),
                 "--episodes", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "eval_summary.json").read_text())
    assert summary["episodes"] == 0


def test_eval_repeats_identically(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    write_tiny_config(cfg_path)
    for name in ("e1", "e2"):
        assert main(["eval", "--agent", "random", "--config", str(cfg_path),
                     "--episodes", "2", "--seed", "4", "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    a = (tmp_path / "e1" / "eval_summary.json").read_bytes()
    b = (tmp_path / "e2" / "eval_summary.json").read_bytes()
    assert a == b


def test_eval_loads_trained_checkpoint(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    write_tiny_config(cfg_path)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
    out = tmp_path / "ev"
    assert main(["eval", "--checkpoint", str(run / "checkpoints" / "final"),
                 "--config", str(cfg_path), "--episodes", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "trajectory.csv").exists()
    summary = json.loads((out / "eval_summary.json").read_text())
    assert summary["episodes"] == 2


def test_eval_checkpoint_config_mismatch_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    write_tiny_config(cfg_path)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
    cfg3 = toy_overrides(default_config(), users=3, buildings_per_cell=2)
    cfg3["env"].update({"horizon": 10, "observe_all_users": True})
    other_path = tmp_path / "c3.json"
    other_path.write_text(json.dumps(cfg3))
    code = main(["eval", "--checkpoint", str(run / "checkpoints" / "final"),
                 "--config", str(other_path), "--episodes", "1",
                 "--out", str(tmp_path / "ev")])
    assert code == 2
    capsys.readouterr()


def _drop_param(manifest):
    manifest["params"] = [e for e in manifest["params"] if e["name"] != "actor.log_std"]


def _drop_architecture(manifest):
    del manifest["hyperparams"]["architecture"]


def _drop_param_list(manifest):
    del manifest["params"]


@pytest.mark.parametrize("corrupt, named", [(_drop_param, "actor.log_std"),
                                             (_drop_architecture, "architecture"),
                                             (_drop_param_list, "params")])
def test_eval_bad_checkpoint_exits_2(tmp_path, capsys, corrupt, named):
    cfg_path = tmp_path / "c.json"
    write_tiny_config(cfg_path)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
    manifest_path = run / "checkpoints" / "final" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    corrupt(manifest)
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(manifest_path.parent), "--config", str(cfg_path),
                 "--episodes", "1", "--out", str(tmp_path / "ev")])
    assert code == 2
    assert named in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_abort_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    write_tiny_config(cfg_path)
    out = tmp_path / "boom"
    code = main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--override", "env.rate_scale=1e300"])
    assert code == 3
    dump = json.loads((out / "nan_dump.json").read_text())
    assert dump["epoch"] == 0
    assert not np.isfinite(dump["loss"])
    assert not (out / ".nan_dump.json.tmp").exists()
    capsys.readouterr()


# -- plotdata ------------------------------------------------------------------------


@pytest.fixture
def two_runs(tmp_path):
    cfg_path = tmp_path / "c.json"
    write_tiny_config(cfg_path)
    runs = []
    for seed in (1, 2):
        out = tmp_path / f"r{seed}"
        assert main(["train", "--config", str(cfg_path), "--out", str(out),
                     "--seed", str(seed)]) == 0
    runs = [tmp_path / "r1", tmp_path / "r2"]
    return runs


def read_series(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    return header, np.array(rows)


def test_plotdata_window_one_is_identity(two_runs, tmp_path, capsys):
    out = tmp_path / "plots"
    assert main(["plotdata", "--runs", str(two_runs[0]), "--series", "reward",
                 "--window", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    header, rows = read_series(out / "series_reward.csv")
    metrics = (two_runs[0] / "metrics.csv").read_text().strip().splitlines()[1:]
    raw = [float(line.split(",")[1]) for line in metrics]
    assert np.allclose(rows[:, 1], raw)


def test_plotdata_aligns_two_runs(two_runs, tmp_path, capsys):
    out = tmp_path / "plots"
    assert main(["plotdata", "--runs", str(two_runs[0]), str(two_runs[1]),
                 "--series", "reward", "energy", "--window", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    for series in ("reward", "energy"):
        header, rows = read_series(out / f"series_{series}.csv")
        assert header == ["episode", "r1", "r2"]
        assert rows.shape[1] == 3


def test_plotdata_moving_average_of_constant_is_constant(tmp_path, capsys):
    run = tmp_path / "runc"
    run.mkdir()
    (run / "metrics.csv").write_text(
        "episode,cumulative_reward,avg_rate_user0,cumulative_energy,sum_f_t,mean_penalty\n"
        + "".join(f"{i},5.0,1.0,2.0,0.5,0.0\n" for i in range(30))
    )
    out = tmp_path / "plots"
    assert main(["plotdata", "--runs", str(run), "--series", "reward",
                 "--window", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    _, rows = read_series(out / "series_reward.csv")
    assert np.allclose(rows[:, 1], 5.0)


def test_plotdata_missing_column_names_run(tmp_path, capsys):
    run = tmp_path / "broken"
    run.mkdir()
    (run / "metrics.csv").write_text("episode,cumulative_reward\n0,1.0\n")
    code = main(["plotdata", "--runs", str(run), "--series", "rate",
                 "--out", str(tmp_path / "plots")])
    assert code == 2
    assert "broken" in capsys.readouterr().err


# -- ablate ---------------------------------------------------------------------------


def test_ablate_emits_full_roster(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    # Batch larger than total steps: trainable agents collect but never update,
    # keeping this a structural smoke test.
    write_tiny_config(cfg_path)
    out = tmp_path / "ablation"
    assert main(["ablate", "--config", str(cfg_path), "--out", str(out),
                 "--episodes", "2", "--seeds", "0"]) == 0
    printed = capsys.readouterr().out
    table = (out / "ablation.csv").read_text().strip().splitlines()
    assert len(table) == 1 + 7
    kinds = [line.split(",")[0] for line in table[1:]]
    assert kinds == ["ppo_vanilla", "ppo_necsa", "ppo_phasectl", "ppo_mogrifier",
                     "eppo", "random", "hover"]
    assert "hover" in printed
    for kind in kinds:
        assert (out / f"{kind}_seed0" / "metrics.csv").exists()
