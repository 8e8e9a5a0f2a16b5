"""Benchmark of the dlsq simulator through its public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): mc-ipg-obs-608x188, grid-baselines-608x188,
ipg-process-stencil-30x30. The program is imported from ``src/``; the
benchmark writes only to a temporary directory under the repository root
and removes it. See harness.py for what is measured and printed.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

# Outputs and run-to-run spread both depend on the BLAS thread count, and
# the references were recorded with one thread: pin it before numpy loads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None):
    os.environ.update(THREAD_ENV)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "dlsq" / "__init__.py").is_file():
        print(f"perfbench: no dlsq package under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import harness

    return harness.main(argv, root, THREAD_ENV)


if __name__ == "__main__":
    sys.exit(main())
