"""Smoke test of the perf ledger (tier-1, a few seconds).

``--smoke`` shrinks budgets to 2000 cycles, one repetition and four sweep
points, so this checks the harness — names, units, exact-repeat counters,
output checks, ``compare`` verdicts — not the numbers.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ledger_compare
import ledger_defs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_the_rendered_definitions():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == ledger_defs.manifest()
    names = [w["name"] for w in manifest["workloads"]]
    assert len(names) == 7
    for workload in manifest["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    metrics = manifest["end_to_end"] + manifest["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in manifest["end_to_end"] if m["name"] == "setup_s").items()
    assert set(ledger_defs.EXACT_REPEAT) <= {
        m["name"] for m in manifest["per_layer"]}


SMOKE_WORKLOADS = ("colo_write", "sweep_ckpt")


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    """One untraced and one traced ``--smoke`` run per workload, plus a
    second traced ``colo_write`` run for the exact-repeat check (the
    ``sweep_ckpt`` points simulate the same system), all started together
    so the module stays within a few seconds."""
    out = tmp_path_factory.mktemp("ledger")
    processes = {
        (workload, label): subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--smoke", "--trace", str(trace),
             "--out", str(out / f"{workload}-{label}")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for workload in SMOKE_WORKLOADS
        for label, trace in (("untraced", 0), ("traced", 1), ("again", 1))
        if (workload, label) != ("sweep_ckpt", "again")
    }
    results = {}
    for key, process in processes.items():
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stdout + stderr
        results[key] = json.loads(stdout.strip().splitlines()[-1])
    return results


@pytest.mark.parametrize("workload", SMOKE_WORKLOADS)
def test_smoke_run_emits_every_declared_metric(workload, smoke_results):
    untraced = smoke_results[workload, "untraced"]
    traced = smoke_results[workload, "traced"]
    again = smoke_results.get((workload, "again"), traced)
    for result, declared in ((untraced, ledger_defs.END_TO_END),
                             (traced, ledger_defs.PER_LAYER)):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
    assert all(entry["value"] > 0 for entry in untraced["metrics"].values())
    for counter in ledger_defs.EXACT_REPEAT:
        assert (traced["metrics"][counter]["value"]
                == again["metrics"][counter]["value"]), counter
    assert traced["metrics"]["engine.cycles_processed"]["value"] > 0
    if workload == "sweep_ckpt":
        assert traced["metrics"]["snapshot.saves"]["value"] > 0
        assert traced["metrics"]["sweeprunner.executed"]["value"] == 4


def _ledger(wall: float, low: float, high: float, failed_frac: float = 0.0):
    entry = {"value": wall, "min": low, "max": high, "n": 5, "unit": "s"}
    return {"seed": 1, "workloads": {"colo_write": {
        "failed_frac": failed_frac, "model_digest": "abc",
        "end_to_end": {"wall_s": entry},
        "per_layer": {"engine.cycles_processed": {"value": 100,
                                                  "unit": "count"}},
    }}}


def test_compare_verdicts_on_synthetic_ledgers():
    base = _ledger(10.0, 9.9, 10.1)

    def verdict(other):
        result = ledger_compare.compare(base, other)
        (row,) = result["rows"]
        return row["verdict"], result

    bound = next(m["bound"] for m in ledger_defs.END_TO_END
                 if m["name"] == "wall_s")
    beyond = 10.0 * (bound + 0.1)
    assert verdict(_ledger(10.2, 10.1, 10.3))[0] == "same"
    assert verdict(_ledger(10 - beyond, 9.9 - beyond,
                           10.1 - beyond))[0] == "better"
    assert verdict(_ledger(10 + beyond, 9.9 + beyond,
                           10.1 + beyond))[0] == "worse"
    assert verdict(_ledger(10 + beyond, 10.0,
                           10 + 2 * beyond))[0] == "unresolved"

    changed = copy.deepcopy(base)
    workload = changed["workloads"]["colo_write"]
    workload["per_layer"]["engine.cycles_processed"]["value"] = 101
    workload["model_digest"] = "def"
    differing = verdict(changed)[1]["differing"]
    assert len(differing) == 2

    assert verdict(_ledger(10.0, 9.9, 10.1, failed_frac=0.1))[1][
        "more_failures"] == ["colo_write"]


def test_compare_exit_status(tmp_path):
    paths = []
    for label, ledger in (("a", _ledger(10.0, 9.9, 10.1)),
                          ("same", _ledger(10.1, 10.0, 10.2)),
                          ("worse", _ledger(14.0, 13.9, 14.1))):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(ledger))
        paths.append(str(path))
    assert ledger_compare.main(paths[:2]) == 0
    assert ledger_compare.main([paths[0], paths[2]]) == 1
