"""``bench/run.py --compare A.json B.json``: did B get worse than A?

Per workload and end-to-end metric one verdict, by the bounds of
``bench/schema.py``:

* ``worse``  — B's median is worse than A's by more than the bound;
* ``better`` — better by more than the bound, or every repeat of B reads
  better than every repeat of A;
* ``unresolved`` — within the bound, but the repeats of A or of B spread
  wider than the bound, so "unchanged" cannot be told from "changed";
* ``same`` — within the bound and resolved.

Simulated-time metrics and counts have no spread: they are compared
exactly and judged by the bound alone. Host times were already scaled by
each run's calibration when the files were written. The per-layer values
that differ are listed below the verdicts.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List

from . import schema


def _spread(samples: List[float]) -> float:
    """Inter-quartile range over the median (range when under 4 samples)."""
    if len(samples) < 2:
        return 0.0
    middle = statistics.median(samples)
    if len(samples) >= 4:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        return (q3 - q1) / middle if middle else 0.0
    return (max(samples) - min(samples)) / middle if middle else 0.0


def verdict(metric: schema.EndToEnd, a: Dict[str, Any], b: Dict[str, Any]) -> str:
    sign = 1.0 if metric.better == "lower" else -1.0
    base = a["value"]
    worse_by = sign * (b["value"] - base) / abs(base) if base else 0.0
    if worse_by > metric.bound:
        return "worse"
    sa, sb = a.get("samples", [a["value"]]), b.get("samples", [b["value"]])
    if all(sign * y < sign * x for x in sa for y in sb):
        return "better"
    if max(_spread(sa), _spread(sb)) > metric.bound:
        return "unresolved"
    if worse_by < -metric.bound:
        return "better"
    return "same"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> int:
    """Print the verdict table; returns the number of ``worse`` verdicts
    plus failure and determinism regressions."""
    bad = 0
    for name in schema.WORKLOAD_NAMES:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            print(f"{name}: missing from {'A' if wa is None else 'B'}")
            bad += 1
            continue
        print(f"{name}  (A: {wa['repeats']} repeats, B: {wb['repeats']} repeats)")
        for metric in schema.END_TO_END:
            ma, mb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            result = verdict(metric, ma, mb)
            bad += result == "worse"
            change = (mb["value"] - ma["value"]) / abs(ma["value"]) if ma["value"] else 0.0
            print(f"  {metric.name:<28}{ma['value']:>14.4f}{mb['value']:>14.4f} "
                  f"{metric.unit:<6}{change:>+8.2%}  bound {metric.bound:.0%}  "
                  f"{result}")
        share_a = wa["ops_failed"] / wa["ops_total"]
        share_b = wb["ops_failed"] / wb["ops_total"]
        if share_b > share_a:
            print(f"  failed share rose from {share_a:.6f} to {share_b:.6f}: worse")
            bad += 1
        for problem in wb["problems"]:
            print(f"  B: {problem}")
            bad += 1
        if wa["facts"] != wb["facts"]:
            print(f"  facts differ: A {wa['facts']}  B {wb['facts']}")
        layers_a, layers_b = wa.get("per_layer", {}), wb.get("per_layer", {})
        for layer in schema.PER_LAYER:
            if layer.name not in layers_a or layer.name not in layers_b:
                continue
            va, vb = layers_a[layer.name]["value"], layers_b[layer.name]["value"]
            if layer.kind in ("time", "noisy"):
                if va and abs(vb - va) / abs(va) <= 0.10:
                    continue  # host-side layer numbers within 10 % are noise
            if va != vb:
                change = f"{(vb - va) / abs(va):+.1%}" if va else "new"
                print(f"    {layer.name:<40}{va:>16.4f}{vb:>16.4f} "
                      f"{layer.unit:<6}{change}")
    return bad


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        bad = compare(json.load(fa), json.load(fb))
    print(f"{bad} regression(s)" if bad else "no regression")
    return 1 if bad else 0
