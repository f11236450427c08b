"""Every checked-in point of the performance trajectory is a whole one.

``python3 bench/sweep.py --seeds 7-9 --out BENCH_<name>.json`` writes a
point at the root of the repository.  A point is only comparable with
the others if it names the commit it measured, covers the three
workloads, and every run in it gave correct results with no failed
operation.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
POINTS = sorted(ROOT.glob("BENCH_*.json"))
# The workloads every point has had since the first; a later benchmark may
# add more, which the older points cannot have.
WORKLOADS = {"certify", "evaluate", "pole"}


def test_there_are_trajectory_points():
    assert POINTS


@pytest.mark.parametrize("path", POINTS, ids=lambda path: path.name)
def test_trajectory_point_is_whole(path):
    point = json.loads(path.read_text())
    assert re.fullmatch(r"[0-9a-f]{40}", point["machine"]["commit"])
    assert WORKLOADS <= set(point["workloads"])
    for name, workload in point["workloads"].items():
        assert workload["runs"], name
        for run in workload["runs"]:
            assert run["result"]["correct"] is True, (name, run["seed"])
            assert run["result"]["failed"] == 0, (name, run["seed"])
