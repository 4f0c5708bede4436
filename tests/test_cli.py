import json
import os
import pickle
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from airs import BLAS_THREAD_VARS
from airs.cli import main
from airs.config import RANGE_RULES, ConfigError, apply_env_overrides, default_config
from airs.nn.optim import Adam
from airs.nn.policy import ActorCritic
from airs.rl.agents import AGENT_SPECS
from airs.rl.ppo import NumericAbort, PpoUpdater
from airs.rl.train import blas_core, simd_dispatch
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
BAD_VALUES = [
    "nn.hidden=0", "nn.bptt_chunk=-3", "rl.gae_lambda=5", "rl.learning_rate=-1",
    "rl.checkpoint_every=-1", "env.d_max=-5", "scenario.user_speed=-1",
    "scenario.scenario_version=7", "env.log_slots=0", "rl.episodes=true", "nn.hidden=abc",
    "rl.entropy_weight=abc", "env.rate_scale=abc", "env.rate_scale=1e999",
    "scenario.user_initial_positions=[5]", "scenario.su_position=[1,2]", "rl.necsa.bins=0",
    "channel.irs_rows=0", "uav.mass_kg=0", "env.rate_window=0",
    "scenario.buildings_per_cell=200", "env.users=2",
]
# validate_config is the only range check, so every RANGE_RULES key gets one
# violating value: an int, which both int and float keys accept as a type.
RULE_VIOLATIONS = {
    ">= 1": 0, ">= 0": -1, "> 0": 0, "in (0, 1)": 1, "in (0, 1]": 0, "in [0, 1]": 2,
    "1, the only version": 2, "null or an integer >= 1": 0,
}
BAD_VALUES += [override for text, _, keys in RANGE_RULES for key in keys
               if (override := f"{key}={RULE_VIOLATIONS[text]}") not in BAD_VALUES]


@pytest.mark.parametrize("override", BAD_VALUES)
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


def test_eval_checkpoint_with_agent_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "--checkpoint", str(tmp_path / "ck"), "--agent", "random",
              "--out", str(tmp_path / "o")])
    assert exit_info.value.code == 2
    assert "not allowed with argument --checkpoint" in capsys.readouterr().err
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


def test_manifest_names_the_numeric_environment(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    write_tiny_config(cfg, episodes=1)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    numeric = json.loads((tmp_path / "run" / "manifest.json").read_text())["numeric_environment"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert numeric == {
        "numpy": np.__version__,
        "blas": {"name": blas["name"], "version": blas["version"],
                 "configuration": blas.get("openblas configuration"), "core": blas_core()},
        "threads": {name: "1" for name in BLAS_THREAD_VARS},
        "simd": simd_dispatch(),
    }


def test_blas_core_is_the_runtime_kernel():
    """The manifest's `blas.core` is a kernel name or None.  A name is the one
    OpenBLAS runs, which OPENBLAS_CORETYPE overrides, not the build's."""
    core = blas_core()
    assert core is None or isinstance(core, str)
    if core is None or platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("no OpenBLAS kernel name to force on this machine")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Sandybridge",
           "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    forced = subprocess.run([sys.executable, "-c",
                             "from airs.rl.train import blas_core; print(blas_core())"],
                            env=env, check=True, capture_output=True, text=True, timeout=60)
    assert forced.stdout.strip() == "Sandybridge"


def test_simd_dispatch_records_disabled_targets():
    """The manifest's `simd.dispatch` lists the targets numpy runs, so turning
    AVX-512 dispatch off by NPY_DISABLE_CPU_FEATURES shows in it, with the
    variable's value."""
    recorded = simd_dispatch()
    if recorded["dispatch"] is None or "X86_V4" not in recorded["dispatch"]:
        pytest.skip("numpy dispatches no X86_V4 target on this machine")
    disabled = "AVX512_SPR AVX512_ICL X86_V4"
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled,
           "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    env.pop("NPY_ENABLE_CPU_FEATURES", None)
    out = subprocess.run([sys.executable, "-c", "import json; from airs.rl.train import "
                          "numeric_environment; print(json.dumps(numeric_environment()))"],
                         env=env, check=True, capture_output=True, text=True, timeout=60)
    simd = json.loads(out.stdout)["simd"]
    assert "X86_V4" not in simd["dispatch"]
    assert simd["baseline"] == recorded["baseline"]
    assert simd["NPY_DISABLE_CPU_FEATURES"] == disabled


def test_train_bytes_do_not_depend_on_blas_threads(tmp_path):
    """`airs train` pins BLAS to one thread, so a caller's OPENBLAS_NUM_THREADS
    (unset, 1 or 2) leaves every artifact byte the same.  400 slots make one
    update, whose weight gradients are gemms over 400 rows; the last 100 slots
    fly the updated policy."""
    cfg = toy_overrides(default_config())
    cfg["rl"].update({"episodes": 5, "batch_size": 400, "epochs": 2, "checkpoint_every": 0})
    cfg["env"]["log_slots"] = True
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_THREAD_VARS and not k.startswith("AIRS_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    artifacts = ("metrics.csv", "slots.csv", "checkpoints/final/params.bin")
    runs = {}
    for threads in (None, "1", "2"):
        run_env = dict(env) if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}
        out = tmp_path / f"threads_{threads}"
        subprocess.run([sys.executable, "-m", "airs.cli", "train", "--config", str(cfg_path),
                        "--out", str(out), "--seed", "0"],
                       env=run_env, check=True, capture_output=True, timeout=300)
        runs[threads] = [(out / name).read_bytes() for name in artifacts]
    assert runs["1"] == runs[None]
    assert runs["2"] == runs[None]


def test_same_seed_runs_are_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    write_tiny_config(cfg)
    for name in ("a", "b"):
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / name),
                     "--seed", "11"]) == 0
    capsys.readouterr()
    for artifact in ("metrics.csv", "slots.csv", "trajectory.csv", "manifest.json",
                     "summary.json"):
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


def _drop_nn(manifest):
    del manifest["hyperparams"]["nn"]


def _drop_param_list(manifest):
    del manifest["params"]


def _hyperparams_not_an_object(manifest):
    manifest["hyperparams"] = "oops"


def _hidden_not_a_number(manifest):
    manifest["hyperparams"]["nn"]["hidden"] = "x"


def _hidden_zero(manifest):
    manifest["hyperparams"]["nn"]["hidden"] = 0


def _phasectl_kind(manifest):  # eppo's shapes without its gating rounds
    manifest["hyperparams"]["agent"] = "ppo_phasectl"


def _hover_kind(manifest):
    manifest["hyperparams"]["agent"] = "hover"


def _shape_against_nbytes(manifest):
    entry = next(e for e in manifest["params"] if e["name"] == "critic.out.b")
    entry["shape"] = [2]  # nbytes holds one float64


def _offset_not_an_integer(manifest):
    manifest["params"][0]["offset"] = 1.5


def _offset_negative(manifest):
    entry = next(e for e in manifest["params"] if e["name"] == "critic.out.b")
    entry["offset"] = -16  # would read the bytes before the last parameter's


def _format_1(manifest):
    manifest["format_version"] = 1


def _format_2(manifest):
    manifest["format_version"] = 2


@pytest.mark.parametrize("corrupt, named", [(_drop_param, "actor.log_std"),
                                             (_drop_nn, "nn"),
                                             (_drop_param_list, "params"),
                                             (_hyperparams_not_an_object, "hyperparams"),
                                             (_hidden_not_a_number, "nn.hidden"),
                                             (_hidden_zero, "nn.hidden"),
                                             (_phasectl_kind, "actor.lstm.Q1"),
                                             (_hover_kind, "hover"),
                                             (_shape_against_nbytes, "critic.out.b"),
                                             (_offset_not_an_integer, "params"),
                                             (_offset_negative, "critic.out.b"),
                                             (_format_1, "unsupported checkpoint format"),
                                             (_format_2, "unsupported checkpoint format")])
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


def test_eval_ignores_an_old_architecture_block(tmp_path, capsys):
    """A checkpoint that still carries the `architecture` block older trees
    wrote evaluates to the same bytes as the same checkpoint without it."""
    cfg_path = tmp_path / "c.json"
    write_tiny_config(cfg_path)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
    checkpoint = run / "checkpoints" / "final"
    manifest_path = checkpoint / "manifest.json"

    def eval_metrics(name):
        assert main(["eval", "--checkpoint", str(checkpoint), "--config", str(cfg_path),
                     "--episodes", "2", "--out", str(tmp_path / name)]) == 0
        return (tmp_path / name / "eval_metrics.csv").read_bytes()

    fresh = eval_metrics("fresh")
    manifest = json.loads(manifest_path.read_text())
    assert "architecture" not in manifest["hyperparams"]
    manifest["hyperparams"]["architecture"] = {
        "obs_dim": 6, "action_dim": 3, "hidden": 64, "mogrifier_rounds": 5, "bptt_chunk": 16}
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    old_style = eval_metrics("old_style")
    capsys.readouterr()
    assert fresh == old_style


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_eval_non_finite_checkpoint_exits_2(tmp_path, capsys, value):
    """A checkpoint with one non-finite parameter value is rejected with the
    parameter's name, before anything is flown: its policy would write nan
    positions and energies to the eval files."""
    cfg_path = tmp_path / "c.json"
    write_tiny_config(cfg_path)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
    checkpoint = run / "checkpoints" / "final"
    manifest = json.loads((checkpoint / "manifest.json").read_text())
    entry = next(e for e in manifest["params"] if e["name"] == "actor.mean.b")
    params = bytearray((checkpoint / "params.bin").read_bytes())
    params[entry["offset"] + 8:entry["offset"] + 16] = np.array([value], "<f8").tobytes()
    (checkpoint / "params.bin").write_bytes(bytes(params))
    capsys.readouterr()
    out = tmp_path / "ev"
    code = main(["eval", "--checkpoint", str(checkpoint), "--config", str(cfg_path),
                 "--episodes", "1", "--out", str(out)])
    assert code == 2
    assert "actor.mean.b" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


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


@pytest.mark.parametrize("check", ["grad_norm", "parameters"])
def test_non_finite_gradient_or_parameter_exits_3(tmp_path, capsys, monkeypatch, check):
    """A NaN written into one gradient while the loss stays finite (or into one
    parameter after the Adam step) aborts the update before (after) Adam steps;
    the dump names the check, the epoch and the first parameter at fault."""
    if check == "grad_norm":
        real = ActorCritic.value_backward

        def poisoned(policy, cache, g):
            real(policy, cache, g)
            policy.v3.b.grad[0] = np.nan
        monkeypatch.setattr(ActorCritic, "value_backward", poisoned)
    else:
        real = Adam.step

        def poisoned(optimizer):
            real(optimizer)
            optimizer.params[-1].value[0] = np.nan
        monkeypatch.setattr(Adam, "step", poisoned)
    cfg_path = tmp_path / "c.json"
    write_tiny_config(cfg_path)
    out = tmp_path / "boom"
    code = main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert code == 3
    dump = json.loads((out / "nan_dump.json").read_text())
    assert (dump["check"], dump["epoch"], dump["parameter"]) == (check, 0, "critic.out.b")
    assert np.isfinite(dump["loss"])
    assert not (out / ".nan_dump.json.tmp").exists()
    assert f"non-finite {check} at epoch 0 (first in critic.out.b)" in capsys.readouterr().err


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


def test_plotdata_rate_and_fairness_of_two_users(tmp_path, capsys):
    run = tmp_path / "two"
    run.mkdir()
    (run / "metrics.csv").write_text(
        "episode,avg_rate_user0,avg_rate_user1\n0,0.0,0.0\n1,1.0,1.0\n2,1.0,3.0\n")
    out = tmp_path / "plots"
    assert main(["plotdata", "--runs", str(run), "--series", "rate", "fairness",
                 "--window", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    _, rate = read_series(out / "series_rate.csv")
    _, fairness = read_series(out / "series_fairness.csv")
    assert rate[:, 1].tolist() == [0.0, 1.0, 2.0]
    # All-zero rates read 1/n; (1, 3) reads 16 / (2 * 10).
    assert fairness[:, 1].tolist() == [0.5, 1.0, 0.8]


def test_plotdata_missing_column_names_run(tmp_path, capsys):
    run = tmp_path / "broken"
    run.mkdir()
    (run / "metrics.csv").write_text("episode,cumulative_reward\n0,1.0\n")
    code = main(["plotdata", "--runs", str(run), "--series", "rate",
                 "--out", str(tmp_path / "plots")])
    assert code == 2
    assert "broken" in capsys.readouterr().err


def test_plotdata_runs_sharing_a_name_exit_2(tmp_path, capsys):
    """Each run's column is named after its directory, so two runs with one
    name would share a column: that exits 2 naming the name."""
    for parent in ("a", "b"):
        run = tmp_path / parent / "run"
        run.mkdir(parents=True)
        (run / "metrics.csv").write_text("episode,cumulative_reward\n0,1.0\n")
    out = tmp_path / "plots"
    code = main(["plotdata", "--runs", str(tmp_path / "a" / "run"), str(tmp_path / "b" / "run"),
                 "--out", str(out)])
    assert code == 2
    assert "named run" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("row, series", [("0,-1.0,3.0", "fairness"), ("0,x,3.0", "rate"),
                                         ("0,1.0", "reward")])
def test_plotdata_malformed_metrics_exits_2_naming_the_file(tmp_path, capsys, row, series):
    """A negative rate under fairness, a field that is not a number, and a row
    shorter than the header are config errors that name the metrics file."""
    run = tmp_path / "bad"
    run.mkdir()
    (run / "metrics.csv").write_text(f"episode,avg_rate_user0,cumulative_reward\n{row}\n")
    code = main(["plotdata", "--runs", str(run), "--series", series,
                 "--out", str(tmp_path / "plots")])
    assert code == 2
    assert str(run / "metrics.csv") in capsys.readouterr().err


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
    trainable = [kind for kind in AGENT_SPECS if AGENT_SPECS[kind].trainable]
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
