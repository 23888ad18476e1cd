"""Steadiness procedure: runs every workload several times and reports spread.

    python3 bench/steady.py --runs 10 --first-seed 1 [--workloads coverage ...] [--traced]

Each run is `bench/run.py` in its own process, one at a time, for the
run_seconds of BENCHMARK.json, with seeds first-seed, first-seed + 1, ...
For every metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread, the distance between
the quartiles as a share of the median, next to the bound in
BENCHMARK.json; also for op_p50_ms and op_p90_ms where runs print them. With
--traced it adds one traced run per workload and prints the tracing
overhead: its op_mean_ms over the untraced median. The whole report is also
written as JSON to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result object, summary lines) of one run."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    summary = {}
    for line in lines[:-1]:
        key, _, value = line.lstrip("# ").partition(": ")
        summary[key] = value
    return json.loads(lines[-1]), summary


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    seconds = spec["run_seconds"]
    report = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        failed_shares = []
        for seed in seeds:
            started = time.monotonic()
            result, summary = run_once(workload, seed, seconds, trace=False)
            failed_shares.append(result["failed"] / result["attempted"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT {summary.get('disagreements')}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name in ("op_p50_ms", "op_p90_ms"):  # printed, not in the result object
                if name in summary:
                    values.setdefault(f"{name} (summary)", []).append(float(summary[name]))
            print(f"{workload} seed {seed}: {result['attempted']} ops, {result['failed']} failed, "
                  f"{time.monotonic() - started:.1f}s", flush=True)
        rows = {}
        for name, vals in values.items():
            med, q1, q3, share = spread(vals)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": share, "values": vals}
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                f"bound {bound:.2f} " + ("ok" if share < bound / 3 else "WIDE")
            )
            print(f"  {name:22s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {share:7.2%}  {verdict}")
        print(f"  failed share per run: {sorted(set(failed_shares))}")
        entry = {"metrics": rows, "failed_shares": failed_shares}
        if args.traced:
            traced, _ = run_once(workload, seeds[0], seconds, trace=True)
            traced_mean = traced["metrics"]["trace.op_mean_ms"]["value"]
            overhead = traced_mean / rows["op_mean_ms"]["median"] - 1
            entry["traced_op_mean_ms"] = traced_mean
            entry["trace_overhead"] = overhead
            print(f"  traced op_mean_ms {traced_mean:.4f}: overhead {overhead:+.1%}")
        report["workloads"][workload] = entry
    out = ROOT / ".bench_out" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"report: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
