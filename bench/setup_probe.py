"""One benchmark set-up, run as its own process so that its wall time
includes interpreter start: import numpy and jitower, then write a
workload's inputs.  run.py starts it several times and reports the median.

    python3 bench/setup_probe.py --workload NAME --seed N --dir DIR
"""

import argparse
from pathlib import Path

import numpy  # noqa: F401  (its import is part of set-up)

from workloads import WORKLOADS, import_jitower, prepare


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    import_jitower()
    prepare(WORKLOADS[args.workload], args.seed, Path(args.dir))


if __name__ == "__main__":
    main()
