#!/usr/bin/env python3
"""The benchmark's one command.

Driver form (see ``BENCHMARK.json``)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

repeats the workload in fresh child processes (``bench/child.py``, one at a
time, ``PYTHONHASHSEED=0``) for S seconds, checks every repeat's outputs,
and prints as its last line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (traced and untraced children alternate there, so
the tracing overhead is measured too).

Without ``--workload`` it runs all five workloads (``--repeats K`` untraced
children each, then a traced one), prints every metric with its unit and
writes ``bench/out/results_seed<N>.json``. ``--smoke`` does that at a tenth
of the size with K=1; ``--profile`` adds a cProfile child per workload;
``--compare A.json B.json`` judges two such result files.

Host times are scaled, repeat by repeat, by a calibration loop timed just
before and just after the repeat, and reported as the median over the
repeats; memory is the median; simulated-time metrics and counts must be
identical on every repeat, or the run fails naming the metric that drifted.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from bench import schema  # noqa: E402
from bench.compare import compare_files  # noqa: E402

OUT_DIR = ROOT / "bench" / "out"
#: repeats a timed run makes whatever ``--seconds`` says: a median and the
#: determinism guard both need more than one
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 170


#: The shared host slows down by a third for seconds to minutes at a time,
#: and CPU time slows down with it. A fixed pure-Python loop, timed in
#: slices in the otherwise idle parent just before and just after every
#: child, slows down the same way: a child's host times are multiplied by
#: CALIBRATION_REFERENCE_S / (mean slice time around that child), which
#: brings the run-to-run spread of a 20 s run from ~25 % down to ~7 % in a
#: noisy hour (2-3 % in a quiet one). The reference is one slice on the
#: quiet sandbox this was written on, so scaled seconds read like seconds.
#: The loop is the benchmark's own and touches nothing of the program.
CALIBRATION_SLICES = 16
CALIBRATION_REFERENCE_S = 0.0093


class BenchError(Exception):
    """The benchmark itself failed (a child died, a metric drifted)."""


def calibration_slice(n: int = 20_000) -> float:
    """CPU seconds of a fixed pure-Python loop on the simulator's diet:
    heap pushes and pops, dict stores, integer arithmetic."""
    started = time.process_time()
    heap: List[Any] = []
    table: Dict[int, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    acc = 0
    for i in range(n):
        push(heap, ((i * 7919) % 1000, i))
        table[i & 1023] = i
        if i & 3 == 3:
            acc += pop(heap)[1]
    return time.process_time() - started


def run_child(workload: str, seed: int, *, trace: bool = False, smoke: bool = False,
              profile: bool = False, spans_out: str = "") -> Dict[str, Any]:
    cmd = [
        sys.executable, "-m", "bench.child", "--workload", workload,
        "--seed", str(seed), "--trace", str(int(trace)), "--t0", repr(time.time()),
    ]
    if smoke:
        cmd.append("--smoke")
    if profile:
        cmd.append("--profile")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, text=True, timeout=CHILD_TIMEOUT_S,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise BenchError(
            f"{workload} child exited {proc.returncode} without a result:\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def _exact(name: str, values: List[Any], problems: List[str]) -> Any:
    if any(v != values[0] for v in values[1:]):
        problems.append(f"determinism: {name} drifted across repeats: {values}")
    return values[0]


def _fold(kind: str, name: str, values: List[float], speeds: List[float],
          problems: List[str]) -> Dict[str, Any]:
    """One metric over the repeats of a run (see ``schema`` for the kinds)."""
    if kind in ("time", "noisy"):
        if kind == "time":
            values = [v * speed for v, speed in zip(values, speeds)]
        return {"value": statistics.median(values), "min": min(values),
                "max": max(values), "samples": values}
    return {"value": _exact(name, values, problems)}


def measure(workload: str, seed: int, *, seconds: Optional[float] = None,
            repeats: Optional[int] = None, trace: bool = False,
            smoke: bool = False) -> Dict[str, Any]:
    """Run the workload's children and fold their results.

    ``repeats`` fixes the number of untraced children (a traced one follows
    them with ``trace``); otherwise children are started while the next one
    is expected to end within ``seconds``, and with ``trace`` every
    untraced child is followed by a traced one.
    """
    started = time.perf_counter()
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []

    def calibrate() -> float:
        return statistics.fmean(calibration_slice() for _ in range(CALIBRATION_SLICES))

    slice_s = [calibrate()]

    def child(into: List[Dict[str, Any]], **kwargs: Any) -> None:
        result = run_child(workload, seed, smoke=smoke, **kwargs)
        slice_s.append(calibrate())
        result["speed"] = CALIBRATION_REFERENCE_S / ((slice_s[-2] + slice_s[-1]) / 2)
        into.append(result)

    if repeats is not None:
        for _ in range(repeats):
            child(plain)
        if trace:
            # the span file is written here only: dumping a few hundred
            # thousand spans costs seconds a timed run does not have
            child(traced, trace=True,
                  spans_out=str(OUT_DIR / f"spans_{workload}.jsonl"))
    else:
        rounds = 0
        while True:
            child(plain)
            if trace:
                child(traced, trace=True)
            rounds += 1
            elapsed = time.perf_counter() - started
            # a traced round is two children: two rounds make the minimum
            enough = rounds >= (2 if trace else MIN_REPEATS)
            if enough and elapsed + elapsed / rounds > seconds:
                break

    problems: List[str] = []
    for done in plain + traced:
        problems += [f"check: {f}" for f in done["failures"]]
    end_to_end = {
        m.name: dict(
            _fold(m.kind, m.name, [c["e2e"][m.name] for c in plain],
                  [c["speed"] for c in plain], problems),
            unit=m.unit,
        )
        for m in schema.END_TO_END
    }
    facts = {
        key: _exact(f"facts.{key}", [c["facts"][key] for c in plain], problems)
        for key in plain[0]["facts"]
    }
    out: Dict[str, Any] = {
        "workload": workload, "seed": seed, "smoke": smoke,
        "repeats": len(plain), "traced_repeats": len(traced),
        "speed": statistics.median(c["speed"] for c in plain),
        "end_to_end": end_to_end, "facts": facts,
        "ops_total": sum(c["ops_total"] for c in plain + traced),
        "ops_failed": sum(c["ops_failed"] for c in plain + traced),
        "problems": problems,
    }
    if traced:
        # the traced child must see the same simulation as the untraced one
        for m in schema.END_TO_END:
            if m.kind in ("sim", "count"):
                _exact(f"{m.name} (traced vs untraced)",
                       [plain[0]["e2e"][m.name], traced[0]["e2e"][m.name]], problems)
        per_layer = {
            m.name: dict(
                _fold(m.kind, m.name, [c["layers"][m.name] for c in traced],
                      [c["speed"] for c in traced], problems),
                unit=m.unit,
            )
            for m in schema.PER_LAYER if m.name != "trace.overhead_ratio"
        }
        overhead = (
            statistics.median(c["e2e"]["cpu_s"] * c["speed"] for c in traced)
            / end_to_end["cpu_s"]["value"] - 1.0
        )
        per_layer["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        out["per_layer"] = per_layer
        out["layer_self_s"] = traced[0]["layer_self_s"]
    return out


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------

def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):,d}"
    return f"{value:,.4f}"


def print_metrics(result: Dict[str, Any]) -> None:
    head = (f"{result['workload']}  seed {result['seed']}  "
            f"speed x{result['speed']:.3f}  {result['repeats']} repeats"
            + (f" + {result['traced_repeats']} traced" if result["traced_repeats"] else "")
            + ("  [smoke]" if result["smoke"] else ""))
    print(head)
    for name, m in result["end_to_end"].items():
        spread = f"   [{m['min']:.4f} .. {m['max']:.4f}]" if "min" in m else ""
        print(f"  {name:<28}{_fmt(m['value']):>16} {m['unit']:<6}{spread}")
    print(f"  {'ops_total / ops_failed':<28}"
          f"{result['ops_total']:>16,d} / {result['ops_failed']}")
    facts = "  ".join(f"{k}={v}" for k, v in result["facts"].items())
    print(f"  facts: {facts}")
    for name, m in result.get("per_layer", {}).items():
        print(f"    {name:<40}{_fmt(m['value']):>16} {m['unit']}")
    for problem in result["problems"]:
        print(f"  !! {problem}")


def print_profile(workload: str, profile: Dict[str, Any],
                  span_self: Dict[str, float]) -> None:
    """cProfile's per-module tottime beside the spans' per-layer self time:
    the two attributions should tell the same story."""
    print(f"{workload}  cProfile tottime by module vs span self time")
    span_total = sum(span_self.values()) or 1.0
    rows = sorted(profile.items(), key=lambda kv: -kv[1]["tottime_s"])
    print(f"    {'module':<28}{'tottime s':>10}{'share':>8}{'calls':>11}"
          f"{'span self s':>13}{'share':>8}")
    for module, row in rows[:16]:
        own = span_self.get(module, 0.0)
        print(f"    {module:<28}{row['tottime_s']:>10.3f}{row['share']:>8.1%}"
              f"{row['calls']:>11,d}{own:>13.3f}{own / span_total:>8.1%}")


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def driver_run(args: argparse.Namespace) -> int:
    """``--workload NAME --seed N --seconds S --trace T``: one JSON line."""
    trace = bool(args.trace)
    result = measure(args.workload, args.seed, seconds=args.seconds,
                     repeats=args.repeats, trace=trace, smoke=args.smoke)
    print_metrics(result)
    for problem in result["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    source = result["per_layer"] if trace else result["end_to_end"]
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["ops_total"],
        "failed": result["ops_failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in source.items()
        },
    }))
    return 1 if result["problems"] else 0


def full_run(args: argparse.Namespace) -> int:
    """All workloads: K untraced repeats and one traced child each."""
    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 5)
    results: Dict[str, Any] = {}
    failed = False
    for workload in schema.WORKLOAD_NAMES:
        result = measure(workload, args.seed, repeats=repeats, trace=True,
                         smoke=args.smoke)
        print_metrics(result)
        if args.profile:
            child = run_child(workload, args.seed, smoke=args.smoke, profile=True)
            result["profile"] = child["profile"]
            print_profile(workload, child["profile"], result["layer_self_s"])
        print()
        failed = failed or bool(result["problems"])
        results[workload] = result
    out = args.out or str(
        OUT_DIR / f"{'smoke' if args.smoke else 'results'}_seed{args.seed}.json"
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"schema": 1, "seed": args.seed, "smoke": args.smoke,
                   "repeats": repeats, "workloads": results}, fh, indent=1)
    print(f"results written to {out}")
    return 1 if failed else 0


def check_manifest() -> None:
    path = ROOT / "BENCHMARK.json"
    if path.exists() and json.loads(path.read_text()) != schema.manifest():
        raise BenchError(
            "BENCHMARK.json and bench/schema.py disagree; regenerate it with "
            "`python3 bench/run.py --manifest > BENCHMARK.json`"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of the LOD pipeline (see bench/README.md)."
    )
    parser.add_argument("--workload", choices=schema.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(schema.RUN_SECONDS),
                        help="how long a --workload run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=None,
                        help="fixed number of untraced repeats (instead of --seconds)")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at about a tenth of its size, K=1")
    parser.add_argument("--profile", action="store_true",
                        help="add one cProfile child per workload")
    parser.add_argument("--out", default="", help="where to write the results file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--manifest", action="store_true",
                        help="print the content of BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.manifest:
        print(json.dumps(schema.manifest(), indent=2))
        return 0
    if args.compare:
        return compare_files(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    try:
        check_manifest()
        return driver_run(args) if args.workload else full_run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
