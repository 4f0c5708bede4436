import json
import os
import pickle
import shutil
from pathlib import Path

import numpy as np
import pytest

from airs.cli import ABLATION_ROSTER, main
from airs.config import ConfigError, apply_env_overrides, default_config
from airs.rl.agents import AGENT_SPECS
from airs.rl.ppo import NumericAbort, PpoUpdater
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


def test_unknown_key_in_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    doc = write_tiny_config(cfg)
    doc["rl"]["necsa"]["typo"] = 1
    cfg.write_text(json.dumps(doc))
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "rl.necsa.typo" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# Before every leaf was checked up front, each of these ran silently, crashed
# with a TypeError or exited 2 without naming its key.
@pytest.mark.parametrize("override", [
    "nn.hidden=0", "nn.bptt_chunk=-3", "rl.gae_lambda=5", "rl.learning_rate=-1",
    "rl.checkpoint_every=-1", "env.d_max=-5", "scenario.user_speed=-1",
    "scenario.scenario_version=7", "env.log_slots=0", "rl.episodes=true", "nn.hidden=abc",
    "rl.entropy_weight=abc", "env.rate_scale=abc", "env.rate_scale=1e999",
    "scenario.user_initial_positions=[5]", "scenario.su_position=[1,2]", "rl.necsa.bins=0",
    "channel.irs_rows=0", "uav.mass_kg=0", "env.rate_window=0",
    "scenario.buildings_per_cell=200",
])
def test_bad_value_exits_2_and_names_key(tmp_path, capsys, override):
    cfg = tmp_path / "c.json"
    write_tiny_config(cfg)
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--override", override])
    assert code == 2
    assert override.partition("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["ablate", "--seeds", "a,b"],
                                  ["eval", "--agent", "hover", "--episodes", "-1"],
                                  ["train", "--seed", "-1"],
                                  ["ablate", "--seeds", "0,1,0"]])
def test_bad_argument_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--out", str(tmp_path / "o")])
    assert exit_info.value.code == 2
    assert "invalid" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_internal_error_propagates(tmp_path, monkeypatch):
    cfg = tmp_path / "c.json"
    write_tiny_config(cfg)

    def broken_update(self, buffer):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(PpoUpdater, "update", broken_update)
    with pytest.raises(ValueError, match="broadcast"):
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])


def test_run_errors_survive_pickling():
    error = pickle.loads(pickle.dumps(ConfigError("env.horizon", "must be >= 1")))
    assert (error.path, str(error)) == ("env.horizon", "env.horizon: must be >= 1")
    abort = pickle.loads(pickle.dumps(NumericAbort("non-finite loss", {"epoch": 0})))
    assert (str(abort), abort.dump) == ("non-finite loss", {"epoch": 0})


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


def _cut_params_short(checkpoint):
    params = checkpoint / "params.bin"
    params.write_bytes(params.read_bytes()[:-8])


@pytest.mark.parametrize("damage", [
    lambda checkpoint: shutil.rmtree(checkpoint),
    lambda checkpoint: (checkpoint / "manifest.json").write_text("{not json"),
    lambda checkpoint: (checkpoint / "manifest.json").write_text("[]"),
    _cut_params_short,
], ids=["missing", "not_json", "not_an_object", "cut_short"])
def test_eval_unreadable_checkpoint_exits_2(tmp_path, capsys, damage):
    cfg_path = tmp_path / "c.json"
    write_tiny_config(cfg_path)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
    checkpoint = run / "checkpoints" / "final"
    damage(checkpoint)
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(checkpoint), "--config", str(cfg_path),
                 "--episodes", "1", "--out", str(tmp_path / "ev")])
    assert code == 2
    assert "checkpoint" in capsys.readouterr().err


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
    assert str(out / "nan_dump.json") in capsys.readouterr().err


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("parallel", [1, 2])
def test_ablate_numeric_abort_exits_3_and_leaves_dumps(tmp_path, capsys, parallel):
    cfg_path = tmp_path / "c.json"
    write_tiny_config(cfg_path)
    out = tmp_path / "ablation"
    code = main(["ablate", "--config", str(cfg_path), "--out", str(out),
                 "--parallel", str(parallel), "--override", "env.rate_scale=1e300"])
    assert code == 3
    assert "nan_dump.json" in capsys.readouterr().err
    trainable = [kind for kind in ABLATION_ROSTER if AGENT_SPECS[kind].trainable]
    # A serial roster stops at its first abort.  A pool starts no job after its
    # first abort, so only the jobs already running (at most one per worker) end,
    # leaving their dumps too.
    aborted = sorted(path.parent.name for path in out.glob("*/nan_dump.json"))
    if parallel > 1:
        assert f"{trainable[0]}_seed0" in aborted
        assert len(aborted) < len(trainable)
    else:
        assert aborted == [f"{trainable[0]}_seed0"]
    for name in aborted:
        dump = json.loads((out / name / "nan_dump.json").read_text())
        assert not np.isfinite(dump["loss"])


def test_ablate_zero_episodes_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    write_tiny_config(cfg_path)
    out = tmp_path / "ablation"
    code = main(["ablate", "--config", str(cfg_path), "--out", str(out), "--episodes", "0"])
    assert code == 2
    assert "rl.episodes" in capsys.readouterr().err
    assert not out.exists()
