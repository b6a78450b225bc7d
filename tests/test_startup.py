"""What importing gammakde does to the process: numpy's BLAS threads and os.environ.

Each test starts a fresh interpreter, since numpy's BLAS reads its thread
count once, when numpy is first imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gammakde

SRC = str(Path(gammakde.__file__).resolve().parents[1])
# Thread count and environment as the fresh process sees them after `imports`.
PROBE = (
    "import os; {imports}; import json; "
    "status = open('/proc/self/status').read() if os.path.exists('/proc/self/status') else ''; "
    "threads = [int(line.split()[1]) for line in status.splitlines() if line.startswith('Threads:')]; "
    "print(json.dumps({{'threads': threads[0] if threads else None, "
    "'env': os.environ.get('OPENBLAS_NUM_THREADS')}}))"
)


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dicts mode
        return ""


needs_openblas_on_linux = pytest.mark.skipif(
    not sys.platform.startswith("linux") or "openblas" not in _blas_name().lower(),
    reason="counts the threads of numpy's OpenBLAS through /proc/self/status",
)


def _probe(imports: str, blas_threads: str | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(imports=imports)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


@needs_openblas_on_linux
def test_import_loads_one_blas_thread_and_restores_the_environment():
    # A matrix product large enough for OpenBLAS to split, had it threads.
    got = _probe("import gammakde, numpy as np; a = np.ones((600, 600)); a @ a")
    assert got == {"threads": 1, "env": None}


@needs_openblas_on_linux
def test_the_callers_thread_count_wins():
    got = _probe("import gammakde", blas_threads="2")
    assert got == {"threads": 2, "env": "2"}


def test_numpy_imported_first_leaves_the_environment_alone():
    got = _probe(
        "import numpy; before = dict(os.environ); import gammakde; "
        "assert dict(os.environ) == before"
    )
    assert got["env"] is None
