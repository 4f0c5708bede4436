"""One benchmark run: set-up probes, timed rounds, correctness checks, metrics.

A round is one call of the workload's entry point (`train` or `evaluate`)
with one run seed.  A cycle is one round for each of the run seeds that
`workloads.round_seeds` draws from the workload seed, and a run repeats
whole cycles until `--seconds` have passed, so every run does the same mix
of work.  Every round with the same run seed must write the same metrics
file.

The untraced rounds wrap exactly one function: `PpoAgent.act`, the first
call of every slot, which probes the CPU's speed and then stamps the slot's
start.  A traced run runs each run seed twice in a row, untraced then
traced, so that the tracing overhead is measured on the same process and the
same work.

The end-to-end timings are given at a reference CPU speed.  On a shared
host the CPU the benchmark gets runs fast or slow by turns, as the load of
other tenants comes and goes, and the share of slow time drifts over
minutes.  Before every slot a fixed pure-Python loop (`speed_probe`) is
timed, and each round's timings are divided by that round's slowdown: its
mean probe time over `REFERENCE_PROBE_S`.  The program's own work never
enters the probe, so a change to the program moves the corrected timings as
it moves the wall-clock ones.  The report prints the wall-clock figures too.
"""

import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from airs.config import apply_overrides, default_config
from airs.rl import agents
from airs.rl.train import evaluate, train

import checks
from tracing import Tracer, patched
from workloads import OUT_ROOT, ROOT, WORKLOADS, round_seeds

CHILD = Path(__file__).with_name("child.py")
CHILD_TIMEOUT_S = 150
PROBE_LOOPS = 300
# The probe's time on the reference 2-core VM while its CPU ran fast.
REFERENCE_PROBE_S = 15e-6


def resolve_config(overrides) -> dict:
    config = default_config()
    apply_overrides(config, list(overrides))
    return config


def call_entry(workload, config, out_dir, seed, checkpoint=None):
    if workload.mode == "train":
        return train(config, out_dir, seed)
    return evaluate(config, out_dir, seed, workload.episodes, checkpoint=checkpoint)


def run_child(*args) -> str:
    """Run child.py to completion; returns the last line it printed."""
    proc = subprocess.run(
        [sys.executable, str(CHILD), *map(str, args)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def probe_setup(workload, seed, out_dir, checkpoint) -> float:
    """Seconds from launching a fresh process to its first slot."""
    args = ["setup", "--workload", workload.name, "--seed", seed, "--out", out_dir]
    if checkpoint is not None:
        args += ["--checkpoint", checkpoint]
    launched = time.monotonic()
    first_slot = float(run_child(*args))
    shutil.rmtree(out_dir, ignore_errors=True)
    return first_slot - launched


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python loop: how fast the CPU runs now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


class SlotClock:
    """Probes the CPU's speed, then stamps the start of every slot, by
    wrapping `PpoAgent.act`."""

    def __init__(self):
        self.stamps = []
        self.probes = []  # seconds of the probe made just before each stamp

    def wrap(self, act):
        stamps, probes = self.stamps, self.probes

        def timed_act(*args, **kwargs):
            probes.append(speed_probe())
            stamps.append(time.perf_counter())
            return act(*args, **kwargs)

        return timed_act


@dataclass
class Round:
    seed: int
    traced: bool
    slots: int
    busy_s: float  # first slot to the entry point's return, probes left out
    gaps_ms: list  # slot start to next slot start, within an episode, no update
    slowdown: float  # mean probe time over REFERENCE_PROBE_S
    digest: str
    bytes_written: int
    problems: list


def run_round(workload, config, spec, seed, checkpoint, out_dir, clock, tracer) -> Round:
    gc.collect()  # every round starts from the same collector state
    clock.stamps.clear()
    clock.probes.clear()
    with tracer.installed() if tracer is not None else nullcontext():
        call_entry(workload, config, out_dir, seed, checkpoint)
    end = time.perf_counter()
    stamps, probes = list(clock.stamps), list(clock.probes)
    batch = spec.batch_size or 0
    gaps = [
        (b - a - probe) * 1e3
        for k, (a, b, probe) in enumerate(zip(stamps, stamps[1:], probes[1:]), start=1)
        if k % spec.horizon and not (batch and k % batch == 0)
    ]
    problems = checks.check_run(out_dir, spec)
    if len(stamps) != spec.episodes * spec.horizon:
        problems.append(f"{len(stamps)} slots run, {spec.episodes * spec.horizon} expected")
    metrics_file = out_dir / spec.metrics_name
    digest = checks.sha256_of(metrics_file) if metrics_file.exists() else "missing"
    written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    shutil.rmtree(out_dir, ignore_errors=True)
    return Round(seed, tracer is not None, len(stamps), end - stamps[0] - sum(probes[1:]), gaps,
                 statistics.fmean(probes) / REFERENCE_PROBE_S, digest, written, problems)


def _throughput(rounds, corrected=True) -> float:
    return sum(r.slots for r in rounds) / sum(
        r.busy_s / (r.slowdown if corrected else 1.0) for r in rounds)


def _slot_times(rounds, corrected=True):
    """Returns (mean slot ms, median over rounds of each round's 99th percentile)."""
    scale = [1.0 / r.slowdown if corrected else 1.0 for r in rounds]
    total = sum(sum(r.gaps_ms) * f for r, f in zip(rounds, scale))
    count = sum(len(r.gaps_ms) for r in rounds)
    p99 = statistics.median(float(np.percentile(r.gaps_ms, 99)) * f for r, f in zip(rounds, scale))
    return total / count, p99


def declared_metrics(section: str) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def end_to_end_metrics(rounds, setup):
    """Returns (values by metric name, report notes)."""
    # Slot times are bimodal on a shared host: the same slot runs near one of
    # two speeds as the CPU runs fast or slow.  A median over the run jumps
    # between the two modes; the mean moves smoothly with the share of fast
    # slots.  A burst of stalls lifts the 99th percentile of the rounds it
    # falls in, and the median over rounds sets those rounds aside.
    slot_mean, slot_p99 = _slot_times(rounds)
    wall_mean, wall_p99 = _slot_times(rounds, corrected=False)
    values = {
        "setup_s": statistics.median(setup),
        "slots_per_s": _throughput(rounds),
        "slot_ms_mean": slot_mean,
        "slot_ms_p99": slot_p99,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    slowdowns = [r.slowdown for r in rounds]
    notes = {
        "samples of setup_s": f"median of {len(setup)} fresh processes, one per cycle of rounds",
        "samples of slots_per_s": f"{sum(r.slots for r in rounds)} slots in {len(rounds)} rounds",
        "samples of slot_ms_mean": f"{sum(len(r.gaps_ms) for r in rounds)} slot gaps",
        "samples of slot_ms_p99": f"median over {len(rounds)} rounds of the 99th percentile of "
                                  f"each round's {len(rounds[0].gaps_ms)} slot gaps",
        "CPU slowdown": f"{min(slowdowns):.3f} to {max(slowdowns):.3f} over rounds, "
                        f"mean {statistics.fmean(slowdowns):.3f}",
        "wall clock": f"slots_per_s {_throughput(rounds, corrected=False):.6g}, "
                      f"slot_ms_mean {wall_mean:.6g}, slot_ms_p99 {wall_p99:.6g}",
    }
    return values, notes


def per_layer_metrics(tracer, untraced, traced):
    """Returns (values by metric name, report notes)."""
    values = tracer.layer_metrics()
    values["io.bytes_written"] = float(statistics.median(r.bytes_written for r in traced))
    values["trace.overhead_pct"] = (_throughput(untraced) / _throughput(traced) - 1.0) * 100.0
    notes = {
        "samples of per-layer metrics": f"{len(traced)} traced rounds, {tracer.steps} env steps",
        "samples of trace.overhead_pct": f"{len(untraced)} plain and {len(traced)} traced rounds",
    }
    return values, notes


def run(name: str, seed: int, seconds: float, trace: bool):
    """Returns (report lines, result object for the last line of output)."""
    workload = WORKLOADS[name]
    config = resolve_config(workload.overrides)
    spec = checks.spec_for(config, workload.mode, workload.episodes)
    slots_per_round = spec.episodes * spec.horizon
    tracer = Tracer() if trace else None
    kinds = (None, tracer) if trace else (None,)
    cycle = [(s, kind) for s in round_seeds(seed) for kind in kinds]
    clock = SlotClock()
    rounds = []
    attempts = failed = 0
    OUT_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=OUT_ROOT))
    try:
        checkpoint = None
        if workload.mode == "eval":
            checkpoint = Path(run_child("checkpoint", "--out", run_dir / "checkpoint"))
        setup = []
        started = time.perf_counter()
        with patched(agents.PpoAgent, "act", clock.wrap):
            while time.perf_counter() - started < seconds or attempts % len(cycle):
                round_seed, round_tracer = cycle[attempts % len(cycle)]
                # One set-up probe per cycle, so that the probes are spread
                # over the run and see the same spells of a busier or quieter
                # machine as the rounds do.
                if not trace and attempts % len(cycle) == 0:
                    setup.append(probe_setup(workload, round_seed,
                                             run_dir / f"probe{len(setup)}", checkpoint))
                attempts += 1
                try:
                    rounds.append(run_round(workload, config, spec, round_seed, checkpoint,
                                            run_dir / f"round{attempts}", clock, round_tracer))
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    failed += slots_per_round
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    if not untraced or (trace and not traced):
        raise RuntimeError(f"every round of {name} failed; no metrics to report")
    if trace:
        section = "per_layer"
        values, notes = per_layer_metrics(tracer, untraced, traced)
    else:
        section = "end_to_end"
        values, notes = end_to_end_metrics(untraced, setup)
    units = declared_metrics(section)
    if set(values) != set(units):
        raise RuntimeError(f"computed metrics {sorted(values)} differ from BENCHMARK.json "
                           f"{section} {sorted(units)}")

    problems = [p for r in rounds for p in r.problems]
    digests = {s: sorted({r.digest for r in rounds if r.seed == s}) for s in round_seeds(seed)}
    for s, found in digests.items():
        if len(found) > 1:
            problems.append(f"rounds with run seed {s} wrote different {spec.metrics_name}: "
                            f"{found}")
    attempted = attempts * slots_per_round
    lines = [
        f"airsbench {name} seed={seed} trace={int(trace)}: {attempts} rounds of "
        f"{spec.episodes} episodes x {spec.horizon} slots, {attempted} slots attempted, "
        f"{failed} failed",
    ]
    lines += [f"  run seed {s}: {spec.metrics_name} sha256 {' '.join(found)}"
              for s, found in digests.items()]
    lines += [f"  {k}: {v}" for k, v in notes.items()]
    lines += [f"  {m:34s} {values[m]:14.6g} {units[m]}" for m in units]
    lines += [f"  CHECK FAILED: {p}" for p in problems]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    return lines, result
