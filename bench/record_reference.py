#!/usr/bin/env python3
"""Record the verify report structure the certify workload must reproduce.

    python3 bench/record_reference.py

Runs ``p1cert verify --scope all --rho 3 --format json`` once and writes
each report's name, parameter block and check names to
``bench/reference/verify_structure.json``.  The certify gate fails a call
whose output differs from it, so a change that drops a check or shrinks a
parameter (panels, horizon, T, eps, rho) counts as a failed operation.
Run it only on a commit whose certificates are known to be right.
"""

import json
import sys

import run


def main() -> int:
    program = run.import_program()
    code, text = run.run_cli(program["cli"], ["verify", "--scope", "all",
                                              "--rho", "3", "--format", "json"])
    payload = json.loads(text)
    if code != 0 or not payload["verdict"]:
        raise SystemExit("verify did not pass; nothing recorded")
    run.REFERENCE.parent.mkdir(exist_ok=True)
    run.REFERENCE.write_text(json.dumps(
        {"command": "p1cert verify --scope all --rho 3 --format json",
         "reports": run.verify_structure(payload)}, indent=2, sort_keys=True)
        + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
