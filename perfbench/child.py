"""Fresh-interpreter entry points that run.py starts as subprocesses.

    python3 perfbench/child.py setup WORKLOAD SEED WORKDIR
        Set up WORKLOAD as a run does (import, field tower, and for cli-cold
        the instance and result files in WORKDIR). Prints {"import_s": ...}.

    python3 perfbench/child.py cli AGG_JSON ARGS...
        Run `singerlab ARGS...` with the tracer installed, write the span
        aggregate to AGG_JSON and the spans next to it, exit with the CLI's
        exit code.

Both time `import singerlab.cli` from a cold interpreter.
"""

from __future__ import annotations

import json
import sys
import time
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    import singerlab.cli

    import_s = time.perf_counter() - t0
    mode = argv[0]
    if mode == "setup":
        import workloads

        workload, seed, workdir = argv[1], int(argv[2]), Path(argv[3])
        if workload == workloads.CLI_COLD:
            seeds = list(islice(workloads.instance_seeds(workload, seed), workloads.CLI_POOL))
            workloads.make_pool(workdir, seeds)
        else:
            workloads.library_setup(workload)
        print(json.dumps({"import_s": import_s}))
        return 0
    if mode == "cli":
        import tracer

        agg_path = Path(argv[1])
        tr = tracer.Tracer()
        tr.install()
        try:
            rc = singerlab.cli.main(argv[2:])
        finally:
            tr.uninstall()
        agg = tr.aggregate()
        agg["import_s"] = import_s
        agg_path.write_text(json.dumps(agg))
        tr.dump_spans(str(agg_path.with_suffix(".spans.jsonl")), agg_path.stem)
        return rc
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
