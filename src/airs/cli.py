"""Command line entry points: train, eval, plotdata, ablate.

Exit codes: 0 success, 2 configuration error, 3 numeric abort during training.
"""

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import ConfigError, apply_env_overrides, apply_overrides, load_config
from .env import jain_index
from .rl.ppo import NumericAbort
from .rl.train import evaluate, train, write_json_atomic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

ABLATION_ROSTER = [
    "ppo_vanilla",
    "ppo_necsa",
    "ppo_phasectl",
    "ppo_mogrifier",
    "eppo",
    "random",
    "hover",
]

SERIES = ("reward", "rate", "energy", "penalty", "fairness")


def _resolve_config(path, overrides):
    config = load_config(path)
    apply_env_overrides(config)
    apply_overrides(config, overrides)
    return config


def cmd_train(args) -> int:
    try:
        config = _resolve_config(args.config, args.override)
        if args.episodes is not None:
            config["rl"]["episodes"] = args.episodes
        summary = train(config, args.out, seed=args.seed)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericAbort as exc:
        dump_path = Path(args.out) / "nan_dump.json"
        dump_path.parent.mkdir(parents=True, exist_ok=True)
        write_json_atomic(dump_path, exc.dump)
        print(f"error: {exc} (diagnostics in {dump_path})", file=sys.stderr)
        return EXIT_NUMERIC
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        config = _resolve_config(args.config, args.override)
        summary = evaluate(
            config,
            args.out,
            seed=args.seed,
            episodes=args.episodes,
            checkpoint=args.checkpoint,
            agent_kind=args.agent,
        )
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def _load_metrics(run_dir: Path):
    path = run_dir / "metrics.csv"
    if not path.exists():
        raise ConfigError(str(path), "metrics file not found")
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",") for line in handle if line.strip()]
    columns = {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}
    return columns


def _series_values(columns: dict, series: str, run_name: str) -> np.ndarray:
    rate_cols = sorted(k for k in columns if k.startswith("avg_rate_user"))
    if series == "reward":
        key = "cumulative_reward"
    elif series == "energy":
        key = "cumulative_energy"
    elif series == "penalty":
        key = "mean_penalty"
    elif series in ("rate", "fairness"):
        if not rate_cols:
            raise ConfigError(run_name, "metrics have no avg_rate_user columns")
        stacked = np.stack([columns[k] for k in rate_cols], axis=1)
        if series == "rate":
            return stacked.mean(axis=1)
        return np.array([jain_index(row) if row.sum() > 0 else 1.0 / row.size
                         for row in stacked])
    else:
        raise ConfigError(series, f"unknown series; choose from {SERIES}")
    if key not in columns:
        raise ConfigError(run_name, f"metrics are missing column {key}")
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
    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        runs = [Path(r) for r in args.runs]
        tables = {run.name or str(run): _load_metrics(run) for run in runs}
        for series in args.series:
            per_run = {}
            for name, columns in tables.items():
                values = _series_values(columns, series, name)
                per_run[name] = moving_average(values, args.window)
            length = min(len(v) for v in per_run.values())
            names = list(per_run)
            lines = ["episode," + ",".join(names) + "\n"]
            for i in range(length):
                lines.append(
                    str(i) + "," + ",".join(repr(float(per_run[n][i])) for n in names) + "\n"
                )
            (out_dir / f"series_{series}.csv").write_text("".join(lines))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def _ablate_one(payload):
    config, out_dir, seed, kind = payload
    run_config = json.loads(json.dumps(config))
    run_config["rl"]["agent"] = kind
    run_dir = Path(out_dir) / f"{kind}_seed{seed}"
    summary = train(run_config, run_dir, seed=seed)
    return kind, seed, summary


def cmd_ablate(args) -> int:
    try:
        config = _resolve_config(args.config, args.override)
        if args.episodes is not None:
            config["rl"]["episodes"] = args.episodes
        seeds = [int(s) for s in args.seeds.split(",")]
        jobs = [(config, args.out, seed, kind) for kind in ABLATION_ROSTER for seed in seeds]
        if args.parallel > 1:
            with ProcessPoolExecutor(max_workers=args.parallel) as pool:
                results = list(pool.map(_ablate_one, jobs))
        else:
            results = [_ablate_one(job) for job in jobs]
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    by_kind = {kind: [] for kind in ABLATION_ROSTER}
    for kind, _seed, summary in results:
        by_kind[kind].append(summary)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["agent,seeds,final_mean_reward,final_mean_rate,final_mean_energy\n"]
    table = []
    for kind in ABLATION_ROSTER:
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
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--episodes", type=int, default=None, help="episode count override")
    p_train.add_argument("--override", nargs="*", default=[], metavar="K=V",
                         help="dotted config overrides, e.g. rl.learning_rate=1e-4")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="greedy evaluation of a checkpoint or baseline")
    p_eval.add_argument("--checkpoint", default=None, help="checkpoint directory")
    p_eval.add_argument("--agent", default=None, choices=["random", "hover"],
                        help="evaluate a baseline instead of a checkpoint")
    p_eval.add_argument("--config", default=None)
    p_eval.add_argument("--episodes", type=int, default=10)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--seed", type=int, default=0)
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
    p_ablate.add_argument("--seeds", default="0", help="comma-separated seed list")
    p_ablate.add_argument("--episodes", type=int, default=None)
    p_ablate.add_argument("--parallel", type=int, default=1,
                          help="run this many agent/seed jobs as separate processes")
    p_ablate.add_argument("--override", nargs="*", default=[], metavar="K=V")
    p_ablate.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
