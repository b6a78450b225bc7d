#!/usr/bin/env python3
"""Run the default repeated-sampling study (Maxwell, n = 200 and n = 2000,
200 replications, all three bandwidth rules) and write reports + curve CSVs.

Any extra arguments are passed through to the CLI, e.g.
    python3 scripts/reproduce_experiment.py --out results --jobs 4
    python3 scripts/reproduce_experiment.py --config my_config.json

About 2 seconds single-threaded at the default scale (1.8-2.2 s on a
2-vCPU x86 host with numpy 2.4, interpreter start included).
"""

import sys

from gammakde.cli import main

if __name__ == "__main__":
    sys.exit(main(["reproduce", *sys.argv[1:]]))
