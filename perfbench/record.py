"""Write reference.json: the outputs every benchmark unit is checked against.

Run from the repository root, on the commit whose outputs are the
reference, with the same thread pinning as the benchmark:

    python3 perfbench/record.py

Records every input variant of every workload. Re-recording on a later
commit would make the check compare that commit with itself.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from run import THREAD_ENV


def main():
    os.environ.update(THREAD_ENV)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from workloads import REFERENCE_PATH, VARIANTS, WORKLOADS

    reference = {}
    for name, cls in WORKLOADS.items():
        reference[name] = {}
        for variant in range(VARIANTS):
            with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as workdir:
                _, units = cls(variant, workdir).record()
            reference[name][str(variant)] = units
            print(name, variant, flush=True)
    REFERENCE_PATH.write_text(json.dumps(reference, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
