"""Run every workload in turn and print one table of their metrics.

    python3 perfbench/run_all.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs as its own ``perfbench/run.py`` process, one after
another.  The table lists every metric by name and unit, one column per
workload; the last line is a JSON object with ``correct`` (every workload
correct) and each workload's result line.  Exits 1 if a workload failed
to run or gave a wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            detail = proc.stderr.strip()
            print(f"error: workload {name} exited {proc.returncode}: {detail}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])

    names = list(results)
    print(f"\n{'metric':32s} {'unit':9s}" + "".join(f"{n:>18s}" for n in names))
    for metric, first in results[names[0]]["metrics"].items():
        row = "".join(f"{results[n]['metrics'][metric]['value']:18.6g}" for n in names)
        print(f"{metric:32s} {first['unit']:9s}{row}")
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
