#!/usr/bin/env python3
"""Check that the certify workload's gate catches a perturbed coefficient.

    python3 bench/fault_check.py

Copies the shipped data directory to ``bench/out/fault-data/``, adds 1/1000
to the first coefficient of the catalog constant ``E_M``, and runs the
certify workload against the copy through ``P1CERT_DATA_DIR``.  Passes
(exit 0) only when the run reports a non-zero failed fraction and names
the failing check ``omega_4/catalog_E_M``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = ROOT / "src" / "p1cert" / "data"
EXPECTED = "omega_4/catalog_E_M"


def main() -> int:
    target = BENCH / "out" / "fault-data"
    if target.exists():
        shutil.rmtree(target)
    shutil.copytree(DATA, target)
    catalog = target / "constant_catalog.json"
    blob = json.loads(catalog.read_text())
    row = blob["constants"]["E_M"][0]
    row[2] = str(Fraction(row[2]) + Fraction(1, 1000))
    catalog.write_text(json.dumps(blob))

    env = dict(os.environ, P1CERT_DATA_DIR=str(target))
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    print(done.stdout, end="")
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        raise SystemExit(f"benchmark exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    failed_frac = result["failed"] / result["attempted"]
    named = any(line.startswith("FAILED") and EXPECTED in line
                for line in done.stdout.splitlines())
    print(f"fault check: failed_frac = {failed_frac}, "
          f"{EXPECTED} named: {named}")
    if result["correct"] or failed_frac <= 0 or not named:
        print("fault check FAILED: the perturbation went unnoticed",
              file=sys.stderr)
        return 1
    print("fault check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
