"""Record the output digest of every seeded case into digests.json.

    python3 perfbench/record_digests.py

Runs the fixed case set and the probe of every synthetic workload for
each seed in SEEDS with the per-case time limit, and stores the digest of each
output that completes.  The benchmark then checks a case against its
digest; a case without one is checked by invariants only.  Rerun this
only when a change is meant to alter outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import signal
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

SEEDS = range(40)


def main() -> int:
    signal.signal(signal.SIGALRM, run._alarm)
    digests: dict[str, dict[str, str]] = {}
    for name, workload in workloads.WORKLOADS.items():
        if name == "running_example":
            continue  # checked against the golden file
        recorded = digests.setdefault(name, {})
        for seed in SEEDS:
            bench = run.Run(workload, seed, 0.0, trace=False)
            bench.digests = {}
            for case in workload.cases(seed):
                bench.run_case(case, "record")
            bench.probe()
            for key, digest in bench.first_output.items():
                if not any(r.key == key and not r.ok for r in bench.records):
                    recorded[key] = digest
            print(f"{name} seed {seed}: {len(bench.first_output)} outputs", flush=True)
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
