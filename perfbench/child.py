"""Run one benchmark simulation in this process and print its record.

``python3 -m perfbench.child --workload NAME --seed N --mode MODE``,
from the root of a checkout.  The record (see
:func:`perfbench.simulate.simulate`) is printed as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main(argv=None) -> int:
    started = time.perf_counter()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from perfbench.simulate import MODES, simulate
    from perfbench.workloads import scenario_for

    import_s = time.perf_counter() - started
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--spans", default="",
                        help="traced mode: write per-function spans here")
    args = parser.parse_args(argv)
    record = simulate(scenario_for(args.workload, args.seed), args.mode,
                      args.spans)
    record.update(workload=args.workload, import_s=import_s)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
