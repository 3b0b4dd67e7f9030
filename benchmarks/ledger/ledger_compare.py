"""``run.py compare A.json B.json``: B against A, one row per (metric, workload).

Verdicts follow the regression rule the benchmark fixes: a metric is
``worse`` when B's median is worse than A's by more than the metric's
bound, ``better`` when it is better by more than the bound, ``same``
otherwise — and ``unresolved`` when either side's own min–max spread
already exceeds the bound, because then the two medians cannot be told
apart.  Exit status is non-zero on any ``worse`` or a higher failed
fraction.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Sequence

import ledger_defs


def spread(entry: Dict[str, Any]) -> float:
    """A side's own min–max range as a share of its median."""
    median = entry["value"]
    return (entry["max"] - entry["min"]) / median if median else 0.0


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float) -> Dict[str, Any]:
    """Relative change of B against A (positive = worse) and its verdict."""
    base = a["value"]
    change = (b["value"] - base) / base if base else 0.0
    worsening = change if better == "lower" else -change
    if spread(a) > bound or spread(b) > bound:
        label = "unresolved"
    elif worsening > bound:
        label = "worse"
    elif worsening < -bound:
        label = "better"
    else:
        label = "same"
    return {"delta": change, "verdict": label}


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Rows, differing exact-repeat counters and failed-fraction increases."""
    rows: List[Dict[str, Any]] = []
    differing: List[str] = []
    more_failures: List[str] = []
    same_seed = a.get("seed") == b.get("seed")
    for name, _ in ledger_defs.WORKLOADS:
        left = a["workloads"].get(name)
        right = b["workloads"].get(name)
        if not left or not right:
            continue
        for spec in ledger_defs.END_TO_END:
            metric = spec["name"]
            one = left.get("end_to_end", {}).get(metric)
            two = right.get("end_to_end", {}).get(metric)
            if one is None or two is None:
                continue
            rows.append(dict(
                verdict(one, two, spec["better"], spec["bound"]),
                metric=metric, workload=name, unit=spec["unit"],
                bound=spec["bound"], a=one, b=two))
        if right.get("failed_frac", 0.0) > left.get("failed_frac", 0.0):
            more_failures.append(name)
        if not same_seed:
            continue
        if left.get("model_digest") != right.get("model_digest"):
            differing.append(f"{name}: model_digest")
        one_layer = left.get("per_layer", {})
        two_layer = right.get("per_layer", {})
        for counter in ledger_defs.EXACT_REPEAT:
            if counter in one_layer and counter in two_layer and (
                    one_layer[counter]["value"] != two_layer[counter]["value"]):
                differing.append(
                    f"{name}: {counter} {one_layer[counter]['value']} -> "
                    f"{two_layer[counter]['value']}")
    return {"rows": rows, "differing": differing,
            "more_failures": more_failures, "same_seed": same_seed}


def render(result: Dict[str, Any]) -> str:
    lines = [f"{'workload':14s} {'metric':12s} {'A median [min, max]':34s} "
             f"{'B median [min, max]':34s} {'delta':>8s} {'bound':>6s}  verdict"]
    for row in result["rows"]:
        def side(entry: Dict[str, Any]) -> str:
            return (f"{entry['value']:.5g} [{entry['min']:.5g}, "
                    f"{entry['max']:.5g}] {row['unit']}")
        lines.append(
            f"{row['workload']:14s} {row['metric']:12s} {side(row['a']):34s} "
            f"{side(row['b']):34s} {row['delta']:+8.1%} {row['bound']:6.0%}  "
            f"{row['verdict']}")
    if not result["same_seed"]:
        lines.append("seeds differ: exact-repeat counters and model digests "
                     "not compared")
    for item in result["differing"]:
        lines.append(f"differs for equal seeds: {item}")
    for name in result["more_failures"]:
        lines.append(f"failed fraction rose: {name}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    ledgers = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            ledgers.append(json.load(handle))
    result = compare(*ledgers)
    print(render(result))
    worse = any(row["verdict"] == "worse" for row in result["rows"])
    return 1 if worse or result["more_failures"] else 0
