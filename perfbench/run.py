#!/usr/bin/env python3
"""singerlab's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --summarize DIR_OR_FILE... [--out FILE]
    python3 perfbench/run.py --compare OLD NEW

A run sets the workload up, drives it in a closed loop for S seconds with
one client and no threads, checks every output, and prints one JSON object
as its last line. --trace 0 reports end-to-end metrics; --trace 1 runs a
fixed instance list once untraced and once traced, and reports per-layer
metrics plus the tracing overhead. Each run also writes a detail file
(environment, lines of code, sample counts, output digests) under
.perfbench_out/runs/. --summarize and --compare read those files; --compare
prints new/old ratios per metric and workload, with no pass/fail.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

import results

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def run_all(args, workloads: list[str]) -> int:
    """Every workload in its own fresh interpreter, then one table."""
    paths, status = [], 0
    for workload in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        status |= proc.returncode
        sys.stderr.write(proc.stderr)
        detail = [ln.split(": ", 1)[1] for ln in proc.stdout.splitlines() if ln.startswith("  detail: ")]
        paths.extend(str(ROOT / d) for d in detail)
        if not detail:
            print(proc.stdout)
    results.summarize(paths, None)
    return 1 if status else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--summarize", nargs="+", metavar="PATH")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.summarize:
        return results.summarize(args.summarize, args.out)
    if args.compare:
        return results.compare(*args.compare)
    if not (SRC / "singerlab" / "__init__.py").is_file():
        return fail(f"no singerlab sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import workloads

    names = [*workloads.FAMILIES, workloads.CLI_COLD]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        return fail(f"--workload must be one of {', '.join(names)} or all")
    import runner

    return runner.run_one(args)


if __name__ == "__main__":
    sys.exit(main())
