"""One benchmark run of one workload: set-up probes, the timed loop or
the traced fixed list, metric computation, the detail file and the result
line. Imported by run.py once it has checked that the sources exist."""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from itertools import count, islice
from pathlib import Path

import tracer
import workloads
from workloads import ROOT, SRC

OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent

SETUP_PROBES = 5
COLD_PROBES = 5

E2E = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("instances_per_s", "1/s"),
    *((f"{op}.{stat}", "s") for op in ("rewrite_s", "verify_s", "oracle_s", "cold_start_s") for stat in ("p50", "tail")),
]
SPAN_LAYERS = (
    "ffield.factor_poly",
    "ffield.roots_in_extension",
    "ffield.discrete_log",
    "matfq.matmul",
    "matfq.rref",
    "matfq.char_poly",
    "matfq.det",
    "matfq.kron",
    "schur.induced_matrix",
    "singer.make_singer",
    "rewrite.find_singer_candidate",
    "rewrite.recover_omega",
    "rewrite.build_eigenbasis",
    "rewrite.reconstruct_generator",
    "rewrite.verify_projective",
    "instgen.gen_instance",
    "instgen.oracle_check",
)
CLI_LABELS = ("check-injectivity", "model-spectrum", "singer-demo", "gen-instance", "rewrite", "verify")
PER_LAYER = [
    *((f"ffield.ops.{k}", "count") for k in ("prime", "ext_tabled", "ext_untabled")),
    ("ffield.field_ctx_s", "s"),
    *((f"{n}.{k}", u) for n in SPAN_LAYERS for k, u in (("calls", "count"), ("self_s", "s"))),
    ("rewrite.elements_sampled", "count"),
    ("rewrite.dlog_calls", "count"),
    ("rewrite.retries", "count"),
    ("rewrite.candidate_yield", "ratio"),
    ("budget_exhausted_share", "ratio"),
    ("error_share", "ratio"),
    ("cli.import_s", "s"),
    *((f"cli.{label}.cold_s", "s") for label in CLI_LABELS),
    ("trace.untraced_instances_per_s", "1/s"),
    ("trace.traced_instances_per_s", "1/s"),
    ("trace.overhead", "ratio"),
]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(xs: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it. With 22 samples or fewer no such percentile lies
    above the median, and the median is reported (percentile 50)."""
    s = sorted(xs)
    n = len(s)
    i = n - 11
    if 2 * i > n:
        return s[i], 100.0 * (i + 1) / n
    return statistics.median(s), 50.0


def timing_metrics(name: str, xs: list[float], info: dict) -> dict:
    value, pct = tail(xs)
    info.setdefault("samples", {})[name] = {"n": len(xs), "tail_percentile": pct, "values": xs}
    return {f"{name}.p50": statistics.median(xs), f"{name}.tail": value}


# ---------------------------------------------------------------------------
# environment and code size
# ---------------------------------------------------------------------------


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "singerlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass

    def version(pkg: str):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def lines_of_code() -> dict:
    loc = {p.stem: len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "singerlab").glob("*.py"))}
    loc["total"] = sum(loc.values())
    return loc


# ---------------------------------------------------------------------------
# subprocesses
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int, probe_dir: Path) -> tuple[float, float]:
    """Set the workload up in a fresh interpreter; (wall, import) seconds."""
    cmd = [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed), str(probe_dir)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=workloads.child_env(), cwd=ROOT, timeout=workloads.CHILD_TIMEOUT)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return wall, json.loads(proc.stdout.splitlines()[-1])["import_s"]


def cold_probe(workload: str, s: int, ctx, spec, out: Path) -> tuple[float, str | None]:
    """A library workload's cold start: `singerlab gen-instance` for its
    family in a fresh interpreter, checked against the library's bytes.
    Returns the wall time and a problem, if any."""
    import singerlab

    fam = workloads.FAMILIES[workload]
    argv = ["gen-instance", "--spec", fam.spec, "--gens", "2", "--seed", str(s), "--out", str(out)]
    if not fam.plant_singer:
        argv.append("--no-plant-singer")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "singerlab.cli", *argv],
        capture_output=True, text=True, env=workloads.child_env(), cwd=ROOT, timeout=workloads.CHILD_TIMEOUT,
    )
    wall = time.perf_counter() - t0
    want = f"wrote 2 generator images of dim {singerlab.dim(spec)} for {spec.text()} to {out}"
    inst = singerlab.gen_instance(ctx, spec, 2, s, plant_singer=fam.plant_singer)
    if proc.returncode != 0 or want not in proc.stdout.splitlines():
        return wall, f"cold gen-instance exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    if out.read_bytes() != workloads.canonical(singerlab.instgen.instance_to_dict(inst)):
        return wall, "cold gen-instance wrote bytes that differ from the library's"
    return wall, None


class ProbeSchedule:
    """Runs fresh-interpreter probes spread over the timed window, so their
    samples see the same machine states as the loop's: job j is due at
    start + (j + 0.5) * seconds / len(jobs)."""

    def __init__(self, jobs: list, seconds: float):
        self.jobs = jobs
        self.start = time.perf_counter()
        self.due = [self.start + (j + 0.5) * seconds / len(jobs) for j in range(len(jobs))]
        self.done = 0

    def run_due(self) -> float:
        t0 = time.perf_counter()
        while self.done < len(self.jobs) and time.perf_counter() >= self.due[self.done]:
            self.jobs[self.done]()
            self.done += 1
        return time.perf_counter() - t0

    def run_rest(self) -> None:
        for job in self.jobs[self.done:]:
            job()
        self.done = len(self.jobs)


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_digest(digests: list[str], n: int) -> dict:
    head = digests[:n]
    return {"sha256": hashlib.sha256("".join(head).encode()).hexdigest(), "count": len(head)}


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------


def untraced_run(workload: str, seed: int, seconds: float, work: Path, info: dict) -> dict:
    walls: list[float] = []
    if workload == workloads.CLI_COLD:
        # The command cycles read the files the set-up writes.
        for j in range(SETUP_PROBES):
            walls.append(setup_probe(workload, seed, work / f"setup{j}")[0])
        seeds = list(islice(workloads.instance_seeds(workload, seed), workloads.CLI_POOL))
        deadline = time.perf_counter() + seconds
        tally, timings = workloads.run_cli(work / f"setup{SETUP_PROBES - 1}", seeds, count(), deadline)
        metrics = {"peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN)}
        cold = [t for label in CLI_LABELS for t in timings.get(label, [])]
        samples = {"rewrite_s": timings["rewrite"], "verify_s": timings["verify-bare"], "oracle_s": timings["verify"]}
    else:
        ctx, spec = workloads.library_setup(workload)
        cold, problems = [], []

        def setup_job(j: int):
            return lambda: walls.append(setup_probe(workload, seed, work / f"setup{j}")[0])

        def cold_job(s: int):
            def job():
                wall, problem = cold_probe(workload, s, ctx, spec, work / "cold.json")
                cold.append(wall)
                problems.extend([problem] if problem else [])
            return job

        cold_seeds = islice(workloads.instance_seeds(f"{workload}/cold", seed), COLD_PROBES)
        jobs = [job for pair in zip(map(setup_job, range(SETUP_PROBES)), map(cold_job, cold_seeds)) for job in pair]
        schedule = ProbeSchedule(jobs, seconds)
        seeds = workloads.instance_seeds(workload, seed)
        tally = workloads.run_library(workload, ctx, spec, seeds, schedule.start + seconds, schedule.run_due)
        schedule.run_rest()
        tally.errors.extend(problems)
        tally.failed += len(problems)
        metrics = {"peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF)}
        samples = tally.samples
    metrics["setup_s"] = statistics.median(walls)
    info["setup_walls"] = walls
    metrics["instances_per_s"] = tally.attempted / tally.elapsed
    for name in ("rewrite_s", "verify_s", "oracle_s"):
        metrics.update(timing_metrics(name, samples[name], info))
    metrics.update(timing_metrics("cold_start_s", cold, info))
    return finish(workload, tally, info, metrics)


def traced_run(workload: str, seed: int, work: Path, info: dict) -> dict:
    n = workloads.fixed_count(workload)
    imports = [setup_probe(workload, seed, work / f"setup{j}")[1] for j in range(SETUP_PROBES)]
    probe_dir = work / f"setup{SETUP_PROBES - 1}"
    tr = tracer.Tracer()
    if workload == workloads.CLI_COLD:
        seeds = list(islice(workloads.instance_seeds(workload, seed), workloads.CLI_POOL))
        plain, timings = workloads.run_cli(probe_dir, seeds, range(n), None)
        trace_dir = work / "trace"
        trace_dir.mkdir()
        traced, _ = workloads.run_cli(probe_dir, seeds, range(n), None, trace_dir)
        agg = tracer.empty()
        for path in sorted(trace_dir.glob("*.json")):
            tracer.merge(agg, json.loads(path.read_text()))
        stats = {"elements_sampled": 0, "dlog_calls": 0, "retries": 0}
        for i in range(n):
            st = json.loads((probe_dir / f"pool{i % len(seeds)}.result.json").read_text())["stats"]
            for key in stats:
                stats[key] += st[key]
        traced.stats = stats
        traced.rewrites = n
        spans_from = sorted(trace_dir.glob("*.spans.jsonl"))
    else:
        tr.install()
        try:
            ctx, spec = workloads.library_setup(workload)
        finally:
            tr.uninstall()
        seeds = list(islice(workloads.instance_seeds(workload, seed), n))
        plain = workloads.run_library(workload, ctx, spec, seeds, None)
        tr.install()
        try:
            traced = workloads.run_library(workload, ctx, spec, seeds, None)
        finally:
            tr.uninstall()
        agg = tr.aggregate()
        # Subcommand cold starts, on the README inputs, for every workload.
        cli_seeds = list(islice(workloads.instance_seeds(workloads.CLI_COLD, seed), 1))
        workloads.make_pool(work / "pool", cli_seeds)
        cli_tally, timings = workloads.run_cli(work / "pool", cli_seeds, range(1), None)
        traced.attempted += cli_tally.attempted
        traced.failed += cli_tally.failed
        traced.errors.extend(cli_tally.errors)
        spans_from = []
    if plain.digests != traced.digests:
        traced.failed += 1
        traced.errors.append("traced and untraced phases produced different rewrite outputs")
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.errors.extend(plain.errors)

    spans = agg["spans"]
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "nonnull": 0}
    metrics = {f"ffield.ops.{k}": v for k, v in agg["ops"].items()}
    metrics["ffield.field_ctx_s"] = spans.get("ffield.field_ctx", zero)["total_s"]
    for name in SPAN_LAYERS:
        row = spans.get(name, zero)
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_s"] = row["self_s"]
    for key, value in traced.stats.items():
        metrics[f"rewrite.{key}"] = value
    found = spans.get("rewrite.find_singer_candidate", zero)["nonnull"]
    sampled = traced.stats["elements_sampled"]
    metrics["rewrite.candidate_yield"] = found / sampled if sampled else 0.0
    metrics["cli.import_s"] = statistics.median(imports)
    for label in CLI_LABELS:
        metrics[f"cli.{label}.cold_s"] = statistics.median(timings[label])
    metrics["trace.untraced_instances_per_s"] = n / plain.elapsed
    metrics["trace.traced_instances_per_s"] = n / traced.elapsed
    metrics["trace.overhead"] = traced.elapsed / plain.elapsed - 1.0
    info["traced_instances"] = n
    info["other_spans"] = {k: v for k, v in spans.items() if k not in SPAN_LAYERS}

    OUT.joinpath("spans").mkdir(parents=True, exist_ok=True)
    spans_path = OUT / "spans" / f"{workload}.seed{info['seed']}.jsonl"
    spans_path.unlink(missing_ok=True)
    tr.dump_spans(str(spans_path), "main")
    with open(spans_path, "a", encoding="utf-8") as fh:
        for path in spans_from:
            fh.write(path.read_text())
    info["spans_file"] = str(spans_path.relative_to(ROOT))
    return finish(workload, traced, info, metrics)


def finish(workload: str, tally, info: dict, metrics: dict) -> dict:
    info["digest"] = run_digest(tally.digests, workloads.fixed_count(workload))
    info["budget_exhausted_share"] = tally.budget_exhausted / tally.rewrites if tally.rewrites else 0.0
    info["error_share"] = tally.failed / tally.attempted
    info["errors"] = tally.errors[:20]
    if info["trace"]:
        metrics["budget_exhausted_share"] = info["budget_exhausted_share"]
        metrics["error_share"] = info["error_share"]
    return {"correct": tally.failed == 0 and tally.attempted > 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def run_one(args) -> int:
    import singerlab

    if Path(singerlab.__file__).resolve().parent != SRC / "singerlab":
        print(f"perfbench: imported singerlab from {singerlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, work, info)
        else:
            result = untraced_run(args.workload, args.seed, args.seconds, work, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["wall_s"] = time.perf_counter() - t0
    info["env"] = environment()
    info["loc"] = lines_of_code()
    units = dict(PER_LAYER if args.trace else E2E)
    result["metrics"] = {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()}
    info["result"] = result
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    detail = runs / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    detail.write_text(json.dumps(info, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for err in info["errors"]:
        print(f"  error: {err}")
    for name, m in result["metrics"].items():
        extra = ""
        base = name.rsplit(".", 1)[0]
        if name.endswith(".tail") and base in info.get("samples", {}):
            s = info["samples"][base]
            extra = f"  (p{s['tail_percentile']:.0f} of {s['n']})"
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}{extra}")
    print(f"  digest of the first {info['digest']['count']} rewrite outputs: {info['digest']['sha256']}")
    print(f"  budget_exhausted_share {info['budget_exhausted_share']:.4g}  error_share {info['error_share']:.4g}")
    print(f"  detail: {detail.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
