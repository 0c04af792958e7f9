"""Regenerate ``perfbench/digests.json``, the reference output digests.

Usage (from the repository root)::

    python3 perfbench/record_digests.py

Runs one unit of every workload at full size for the default seed and
the held-out seed and records its digest.  Only regenerate the file when
a change is *meant* to alter trajectories, and say so in the change: the
benchmark marks every unit whose digest differs from this file failed.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_program()
    from tracer import EventProbe
    from workloads import WORKLOADS

    digests = {}
    for name, cls in WORKLOADS.items():
        workload = cls("full")
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            state = workload.setup(seed)
            probe = EventProbe()
            probe.install()
            try:
                units, _ = run.run_units(workload, state, probe, count=1)
            finally:
                probe.uninstall()
            if units[0].error:
                print(f"{name} seed {seed}: {units[0].error}", file=sys.stderr)
                return 1
            digests[run.reference_key(name, "full", seed)] = units[0].digest
            print(f"{name} seed {seed}: {units[0].digest}", flush=True)
    run.DIGESTS.write_text(json.dumps({
        "default_seed": run.DEFAULT_SEED,
        "held_out_seed": run.HELD_OUT_SEED,
        "digests": digests,
    }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
