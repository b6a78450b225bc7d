#!/usr/bin/env python3
"""Fit the MISE decay rate over n in {500, 1000, 2000, 4000, 8000} (200
replications each, plug-in bandwidth per size) and write convergence.json.

The fitted log-log slope lands near -4/7. Extra arguments pass through:
    python3 scripts/convergence_rate.py --out results --jobs 4

About 5 seconds single-threaded at the default scale (4.7-5.6 s on a
2-vCPU x86 host with numpy 2.4, interpreter start included).
"""

import sys

from gammakde.cli import main

if __name__ == "__main__":
    sys.exit(main(["converge", *sys.argv[1:]]))
