"""airsbench: end-to-end and per-layer benchmark of the airs simulator and trainer.

    python3 airsbench/run.py --workload train-eppo --seed 0 --seconds 30 --trace 0

Prints a report, then one JSON line with `correct`, `attempted`, `failed`
(counted in slots) and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  See README.md in this directory.
"""

import argparse
import json
import sys

from workloads import WORKLOADS, prepare_process


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="wall time of set-up probes and rounds; the last cycle of "
                             "rounds is finished")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    prepare_process()
    # numpy and the program are imported only once BLAS is pinned to one thread.
    import harness

    lines, result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
