"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workloads queue_burst --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10

For every workload and end-to-end metric it prints the median of the
runs and the distance between their first and third quartiles as a share
of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound from ``BENCHMARK.json``.  A spread above its bound (other
than ``setup_s``'s) makes the exit status 1.  Raw results are written to
``perfbench/out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args(argv)

    results: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in args.seeds:
            command = config["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            line = done.stdout.strip().splitlines()[-1]
            result = json.loads(line)
            if done.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED\n{done.stderr}",
                      file=sys.stderr)
                return 1
            results.setdefault(workload, []).append(result["metrics"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)

    out = ROOT / "perfbench" / "out" / "spread.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    worst = 0.0
    for workload, runs in results.items():
        print(f"\n{workload} ({len(runs)} runs)")
        for metric in config["end_to_end"]:
            values = [run[metric["name"]]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            share = spread / metric["bound"]
            if metric["name"] != "setup_s":
                worst = max(worst, share)
            print(f"  {metric['name']:<16} median {median:<12.5g} "
                  f"spread {spread:6.3f}  bound {metric['bound']:.2f}  "
                  f"({share:4.2f} of bound)")
    return 1 if worst > 1.0 else 0


if __name__ == "__main__":
    sys.exit(main())
