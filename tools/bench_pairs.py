"""Run the benchmark on two checkouts in alternating pairs and record the figures.

    python3 tools/bench_pairs.py --base <checkout> --change <checkout> \\
        --workload train-eppo --pairs 10 --first-seed 20 --seconds 30 --out BENCH.json

A checkout is a directory holding `BENCHMARK.json`, `airsbench/` and `src/`
(the benchmark runs the program of its own checkout); before any run, the tool
exits 2 naming the first file of `REQUIRED` a checkout lacks.  Pair i runs
`airsbench/run.py` of both checkouts on workload seed `first-seed + i`, the
base first when i is even and the change first when it is odd, one run at a
time.  With `--trace 1` the runs are traced and the per-layer metrics are
recorded instead.  A run that exits non-zero stops the tool with exit 1, after
it prints the checkout, the seed and the tail of the run's stderr.

The figures go into the JSON file `--out` under
`workloads.<workload>.<plain|traced>` (other entries of an existing file are
kept): each run's correctness, slot counts and artifact digests (the
`run seed N: metrics.csv sha256 ...` lines of its report), each tree's
digests per run seed and the run seeds whose digests differ between the
trees, and per metric each side's values, median and quartiles, the same
figures of the per-pair ratio change / base (`ratio`; None when a base value
is 0), which varies less from run to run than either side's median, and the
number of pairs the change won by the metric's `better` direction in
BENCHMARK.json (ties count for neither side).  The file also records the
machine (nproc), the Python, numpy and BLAS versions, the BLAS kernel that
ran, and a sha256 of each checkout's `src/` tree with its git revision where
it has one.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


# A report line `  run seed 7: metrics.csv sha256 <digest> [<digest> ...]`.
DIGEST_LINE = re.compile(r"^\s*run seed (\d+): (\S+) sha256 (.*)$")
# The files a checkout must hold, relative to it.
REQUIRED = ("BENCHMARK.json", "airsbench/run.py", "src/airs/__init__.py")
STDERR_TAIL = 20  # lines of a failed run's stderr to print


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The run's JSON result, with `digests`: the artifact digests its report
    lists per run seed.  A run that exits non-zero ends the tool with exit 1."""
    out = subprocess.run([sys.executable, str(checkout / "airsbench" / "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True)
    if out.returncode != 0:
        tail = "\n".join(out.stderr.splitlines()[-STDERR_TAIL:])
        raise SystemExit(f"bench_pairs: {workload} run failed with exit {out.returncode}: "
                         f"checkout {checkout}, seed {seed}; its stderr ends:\n{tail}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digests"] = {match[1]: match[3].split() for match in map(DIGEST_LINE.match, lines)
                         if match}
    return result


def tree_digests(runs: list) -> dict:
    """Per run seed, the digests any of `runs` reported for it, sorted."""
    found = {}
    for run in runs:
        for seed, digests in run["digests"].items():
            found.setdefault(seed, set()).update(digests)
    return {seed: sorted(found[seed]) for seed in sorted(found, key=int)}


def source_digest(checkout: Path) -> str:
    """sha256 over the relative paths and bytes of the `.py` files under `src/`."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def describe(checkout: Path) -> dict:
    """The checkout's `src/` digest, and its git HEAD and whether `src/` differs
    from it, where the checkout is a git work tree."""
    def git(*args):
        out = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    head = git("rev-parse", "HEAD") if git("rev-parse", "--show-toplevel") == str(checkout) else None
    return {"src_sha256": source_digest(checkout), "git_head": head,
            "src_modified": None if head is None else bool(git("status", "--porcelain", "src"))}


def environment(checkout: Path) -> dict:
    """The machine and the numeric environment the change's program reports."""
    probe = ("import json; from airs.rl.train import numeric_environment; "
             "print(json.dumps(numeric_environment()))")
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(checkout / "src")})
    numeric = json.loads(out.stdout)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numeric["numpy"], "blas": numeric["blas"]}


def summarize(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"values": values, "median": float(median), "q1": float(q1), "q3": float(q3)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        for name in REQUIRED:
            if not (checkout / name).is_file():
                parser.error(f"the {side} checkout {checkout} has no {name}")  # exits 2

    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_benchmark(sides[side], args.workload, seed, args.seconds,
                                       args.trace)
        pairs.append(pair)
        print(f"pair {i} seed {seed}: " + ", ".join(
            f"{side} {pair[side]['metrics'].get('slots_per_s', {}).get('value')}"
            for side in ("base", "change")), flush=True)

    metrics = {}
    for name in pairs[0]["base"]["metrics"]:
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in sides}
        sign = 1.0 if better.get(name) == "higher" else -1.0
        paired = list(zip(values["base"], values["change"]))
        wins = sum(sign * (c - b) > 0 for b, c in paired)
        ratio = summarize([c / b for b, c in paired]) if all(values["base"]) else None
        metrics[name] = {"unit": pairs[0]["base"]["metrics"][name]["unit"],
                         "better": better.get(name),
                         **{side: summarize(values[side]) for side in sides},
                         "ratio": ratio,
                         "change_wins": int(wins), "pairs": len(pairs)}
    digests = {side: tree_digests([p[side] for p in pairs]) for side in sides}
    result = {
        "seconds": args.seconds,
        "seeds": [p["seed"] for p in pairs],
        "all_correct": all(p[side]["correct"] for p in pairs for side in sides),
        "failed_slots": sum(p[side]["failed"] for p in pairs for side in sides),
        "metrics": metrics,
        "digests": digests,
        "digests_differ": [seed for seed in digests["base"]
                           if seed in digests["change"]
                           and digests["base"][seed] != digests["change"][seed]],
        "runs": [{"seed": p["seed"], "first": p["first"],
                  **{side: {k: p[side][k] for k in ("correct", "attempted", "failed", "digests")}
                     for side in sides}} for p in pairs],
    }
    document = json.loads(args.out.read_text()) if args.out.is_file() else {}
    document["base"], document["change"] = describe(sides["base"]), describe(sides["change"])
    document["environment"] = environment(sides["change"])
    document.setdefault("workloads", {}).setdefault(args.workload, {})[
        "traced" if args.trace else "plain"] = result
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
