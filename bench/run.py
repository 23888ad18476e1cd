"""Benchmark command: runs one workload and prints its metrics.

    python3 bench/run.py --workload certify_private_tcp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: it imports faircert from ./src. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; with --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones (the spans are also
written to .bench_out/). The lines before it are a human summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks the inputs for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if not (SRC / "faircert" / "__init__.py").is_file():
        print(f"error: no faircert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    size = workloads.FULL if args.size == "full" else workloads.TINY
    result = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), size, ROOT / ".bench_out"
    )
    summary = result.pop("summary")
    for key, value in summary.items():
        print(f"# {key}: {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
