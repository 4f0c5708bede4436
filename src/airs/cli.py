"""Command line entry points: train, eval, plotdata, ablate.

Exit codes: 0 success, 2 a config error naming its key or path or a bad checkpoint,
3 a numeric abort in training; any other error exits 1 with a traceback.
"""

import argparse
import json
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path

import numpy as np

from .config import (ConfigError, apply_env_overrides, apply_overrides, load_config,
                     validate_config)
from .env import jain_index
from .nn.checkpoint import CheckpointError
from .rl.agents import AGENT_SPECS
from .rl.ppo import NumericAbort
from .rl.train import evaluate, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

SERIES = ("reward", "rate", "energy", "penalty", "fairness")


def _resolve_config(path, overrides):
    config = load_config(path)
    apply_env_overrides(config)
    apply_overrides(config, overrides)
    return config


def count(text: str) -> int:
    """An integer >= 0; argparse turns the ValueError of a bad one into exit 2."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def count_list(text: str) -> list:
    """Distinct counts, comma-separated; a repeated one is a ValueError too."""
    values = [count(item) for item in text.split(",")]
    if len(set(values)) < len(values):
        raise ValueError(text)
    return values


def cmd_train(args) -> int:
    config = _resolve_config(args.config, args.override)
    if args.episodes is not None:
        config["rl"]["episodes"] = args.episodes
    summary = train(config, args.out, seed=args.seed)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _resolve_config(args.config, args.override)
    summary = evaluate(config, args.out, seed=args.seed, episodes=args.episodes,
                       checkpoint=args.checkpoint, agent_kind=args.agent)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def _load_metrics(path: Path) -> dict:
    """The columns of a metrics file by header name.  A row that does not fit
    the header or a field that is not a number is a ConfigError naming the file."""
    if not path.exists():
        raise ConfigError(str(path), "metrics file not found")
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",") for line in handle if line.strip()]
    for number, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ConfigError(str(path), f"line {number} has {len(row)} fields, "
                                         f"the header {len(header)}")
    try:
        return {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}
    except ValueError as exc:
        raise ConfigError(str(path), str(exc)) from None


def _series_values(columns: dict, series: str, source: str) -> np.ndarray:
    rate_cols = sorted(k for k in columns if k.startswith("avg_rate_user"))
    if series == "reward":
        key = "cumulative_reward"
    elif series == "energy":
        key = "cumulative_energy"
    elif series == "penalty":
        key = "mean_penalty"
    elif series in ("rate", "fairness"):
        if not rate_cols:
            raise ConfigError(source, "metrics have no avg_rate_user columns")
        stacked = np.stack([columns[k] for k in rate_cols], axis=1)
        if series == "rate":
            return stacked.mean(axis=1)
        if (stacked < 0).any():
            raise ConfigError(source, "an avg_rate_user value is negative")
        return np.array([jain_index(row) for row in stacked])
    else:
        raise ConfigError(series, f"unknown series; choose from {SERIES}")
    if key not in columns:
        raise ConfigError(source, f"metrics are missing column {key}")
    return columns[key]


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average; the first window-1 points average what exists."""
    if window <= 1:
        return np.asarray(values, dtype=float)
    out = np.empty(len(values))
    cumulative = np.cumsum(np.insert(np.asarray(values, dtype=float), 0, 0.0))
    for i in range(len(values)):
        lo = max(0, i - window + 1)
        out[i] = (cumulative[i + 1] - cumulative[lo]) / (i + 1 - lo)
    return out


def cmd_plotdata(args) -> int:
    runs = [Path(r) for r in args.runs]
    labels = [run.name or str(run) for run in runs]
    shared = sorted({label for label in labels if labels.count(label) > 1})
    if shared:
        raise ConfigError("--runs", f"each run's column is named after its directory, and "
                                    f"more than one run is named {', '.join(shared)}")
    paths = {label: run / "metrics.csv" for label, run in zip(labels, runs)}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = {name: _load_metrics(path) for name, path in paths.items()}
    for series in args.series:
        per_run = {}
        for name, columns in tables.items():
            values = _series_values(columns, series, str(paths[name]))
            per_run[name] = moving_average(values, args.window)
        length = min(len(v) for v in per_run.values())
        names = list(per_run)
        lines = ["episode," + ",".join(names) + "\n"]
        for i in range(length):
            lines.append(
                str(i) + "," + ",".join(repr(float(per_run[n][i])) for n in names) + "\n"
            )
        (out_dir / f"series_{series}.csv").write_text("".join(lines))
    return EXIT_OK


def _ablate_one(payload):
    config, out_dir, seed, kind = payload
    run_config = json.loads(json.dumps(config))
    run_config["rl"]["agent"] = kind
    run_dir = Path(out_dir) / f"{kind}_seed{seed}"
    summary = train(run_config, run_dir, seed=seed)
    return kind, seed, summary


def _ablate_parallel(jobs, workers: int) -> list:
    """`_ablate_one` over the jobs in `workers` processes; results in job order.

    A job goes to the pool only when a worker is free (the pool queues one
    ahead, past cancelling), so after the first failure no job starts: the
    running ones end, then the failure is raised, as a serial roster stops.
    """
    results = [None] * len(jobs)
    waiting = list(enumerate(jobs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        running = {}
        while waiting or running:
            while waiting and len(running) < workers:
                index, job = waiting.pop(0)
                running[pool.submit(_ablate_one, job)] = index
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                results[running.pop(future)] = future.result()
    return results


def cmd_ablate(args) -> int:
    config = _resolve_config(args.config, args.override)
    if args.episodes is not None:
        config["rl"]["episodes"] = args.episodes
    validate_config(config)
    if config["rl"]["episodes"] < 1:
        raise ConfigError("rl.episodes", "ablate needs at least one episode to compare")
    jobs = [(config, args.out, seed, kind) for kind in AGENT_SPECS for seed in args.seeds]
    if args.parallel > 1:
        results = _ablate_parallel(jobs, args.parallel)
    else:
        results = [_ablate_one(job) for job in jobs]

    by_kind = {kind: [] for kind in AGENT_SPECS}
    for kind, _seed, summary in results:
        by_kind[kind].append(summary)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["agent,seeds,final_mean_reward,final_mean_rate,final_mean_energy\n"]
    table = []
    for kind in AGENT_SPECS:
        summaries = by_kind[kind]
        reward = float(np.mean([s["final_window_mean_reward"] for s in summaries]))
        rate = float(np.mean([np.mean(s["final_window_mean_rate_per_user"]) for s in summaries]))
        energy = float(np.mean([s["final_window_mean_energy"] for s in summaries]))
        lines.append(f"{kind},{len(summaries)},{reward!r},{rate!r},{energy!r}\n")
        table.append((kind, reward, rate, energy))
    (out_dir / "ablation.csv").write_text("".join(lines))
    width = max(len(k) for k, *_ in table)
    print(f"{'agent':<{width}}  {'reward':>14}  {'rate':>14}  {'energy':>14}")
    for kind, reward, rate, energy in table:
        print(f"{kind:<{width}}  {reward:>14.6g}  {rate:>14.6g}  {energy:>14.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airs",
        description="Train and evaluate flight/phase policies for a UAV-carried "
                    "reflecting surface relay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training session")
    p_train.add_argument("--config", default=None, help="JSON config path")
    p_train.add_argument("--out", required=True, help="output run directory")
    p_train.add_argument("--seed", type=count, default=0)
    p_train.add_argument("--episodes", type=int, default=None, help="episode count override")
    p_train.add_argument("--override", nargs="*", default=[], metavar="K=V",
                         help="dotted config overrides, e.g. rl.learning_rate=1e-4")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="greedy evaluation of a checkpoint or baseline")
    policy = p_eval.add_mutually_exclusive_group()
    policy.add_argument("--checkpoint", default=None, help="checkpoint directory")
    policy.add_argument("--agent", default=None, choices=["random", "hover"],
                        help="evaluate a baseline instead of a checkpoint")
    p_eval.add_argument("--config", default=None)
    p_eval.add_argument("--episodes", type=count, default=10)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--seed", type=count, default=0)
    p_eval.add_argument("--override", nargs="*", default=[], metavar="K=V")
    p_eval.set_defaults(func=cmd_eval)

    p_plot = sub.add_parser("plotdata", help="emit aligned, smoothed metric series")
    p_plot.add_argument("--runs", nargs="+", required=True, help="run directories")
    p_plot.add_argument("--series", nargs="+", default=["reward"], choices=SERIES)
    p_plot.add_argument("--window", type=int, default=20, help="moving average window")
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=cmd_plotdata)

    p_ablate = sub.add_parser("ablate", help="train the agent roster with shared seeds")
    p_ablate.add_argument("--config", default=None)
    p_ablate.add_argument("--out", required=True)
    p_ablate.add_argument("--seeds", type=count_list, default="0",
                          help="comma-separated seed list")
    p_ablate.add_argument("--episodes", type=int, default=None)
    p_ablate.add_argument("--parallel", type=int, default=1,
                          help="run this many agent/seed jobs as separate processes")
    p_ablate.add_argument("--override", nargs="*", default=[], metavar="K=V")
    p_ablate.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
