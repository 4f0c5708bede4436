"""Child processes of the benchmark, started by harness.py.

    python3 airsbench/child.py setup --workload NAME --seed N --out DIR [--checkpoint DIR]
        Starts the workload's entry point in this fresh process and prints
        time.monotonic() at its first slot, then stops.  The parent subtracts
        the time it launched this process, which gives the set-up time.
    python3 airsbench/child.py checkpoint --out DIR
        Trains the eval-city checkpoint and prints its directory.
"""

import argparse
import sys
import time
from pathlib import Path

from workloads import CHECKPOINT_OVERRIDES, CHECKPOINT_SEED, WORKLOADS, prepare_process


class FirstSlot(Exception):
    """Ends a set-up probe at its first slot."""


def stop_at_first_slot(act):
    def first_act(*args, **kwargs):
        raise FirstSlot(time.monotonic())

    return first_act


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("job", choices=("setup", "checkpoint"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--checkpoint")
    args = parser.parse_args(argv)
    prepare_process()
    # numpy and the program are imported only once BLAS is pinned to one thread.
    import harness
    from airs.rl import agents
    from tracing import patched

    if args.job == "checkpoint":
        harness.train(harness.resolve_config(CHECKPOINT_OVERRIDES), args.out, CHECKPOINT_SEED)
        print(Path(args.out) / "checkpoints" / "final")
        return 0
    workload = WORKLOADS[args.workload]
    config = harness.resolve_config(workload.overrides)
    with patched(agents.PpoAgent, "act", stop_at_first_slot):
        try:
            harness.call_entry(workload, config, args.out, args.seed, args.checkpoint)
        except FirstSlot as first:
            print(repr(first.args[0]))
            return 0
    print("the entry point returned without running a slot", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
