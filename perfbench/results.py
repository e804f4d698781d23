"""Result sets: summarize run detail files and compare two sets.

Both read the detail files runs write under .perfbench_out/runs/, whole
directories of them, or a summary file written by --summarize --out.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(paths: list[str]) -> list[dict]:
    files: list[Path] = []
    for p in map(Path, paths):
        files.extend(sorted(p.glob("*.json")) if p.is_dir() else [p])
    return [json.loads(path.read_text()) for path in files]


def load_rows(paths: list[str]) -> dict:
    """{(workload, trace): {metric: {"unit", "values"}}} from run detail
    files, directories of them, or summary files."""
    rows: dict = {}
    for data in _load(paths):
        if "rows" in data:
            for key, metrics in data["rows"].items():
                workload, trace = key.rsplit("|trace", 1)
                row = rows.setdefault((workload, int(trace)), {})
                for name, m in metrics.items():
                    row.setdefault(name, {"unit": m["unit"], "values": []})["values"].extend(m["values"])
            continue
        row = rows.setdefault((data["workload"], data["trace"]), {})
        for name, m in data["result"]["metrics"].items():
            row.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    return rows


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(paths: list[str], out: str | None) -> int:
    rows = load_rows(paths)
    summary = {"rows": {}}
    for (workload, trace), metrics in sorted(rows.items()):
        print(f"{workload}  trace {trace}")
        key = f"{workload}|trace{trace}"
        summary["rows"][key] = {}
        for name, m in metrics.items():
            q1, med, q3 = quartiles(m["values"])
            spread = (q3 - q1) / med if med else 0.0
            summary["rows"][key][name] = {**m, "q1": q1, "median": med, "q3": q3, "spread": spread}
            print(f"  {name:42s} {med:>12.6g} {m['unit']:6s} [{q1:.6g}, {q3:.6g}]  spread {spread:6.3f}  n={len(m['values'])}")
    digests: dict = {}
    for data in _load(paths):
        if "digest" in data:
            digests.setdefault(data["workload"], {}).setdefault(str(data["seed"]), {})[f"trace{data['trace']}"] = data["digest"]
            summary.setdefault("env", data["env"])
            summary.setdefault("loc", data["loc"])
    summary["digests"] = digests
    if out:
        Path(out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


def compare(old: str, new: str) -> int:
    """Informational: median(new) / median(old) for every shared row."""
    a, b = load_rows([old]), load_rows([new])
    better = {}
    bench = ROOT / "BENCHMARK.json"
    if bench.exists():
        spec = json.loads(bench.read_text())
        better = {m["name"]: m.get("better") for m in spec["end_to_end"] + spec["per_layer"]}
    for key in sorted(set(a) & set(b)):
        print(f"{key[0]}  trace {key[1]}")
        for name in a[key]:
            if name not in b[key]:
                continue
            mo, mn = statistics.median(a[key][name]["values"]), statistics.median(b[key][name]["values"])
            ratio = f"{mn / mo:8.3f}" if mo else "     n/a"
            hint = f"  ({better[name]} is better)" if better.get(name) else ""
            print(f"  {name:42s} {mo:>12.6g} -> {mn:<12.6g} x{ratio}{hint}")
    return 0
