"""The benchmark's four workloads: set-up, the timed closed loop, and the
correctness gate every sample passes through.

One client, one process, no threads: each operation starts after the
previous one returned. Three workloads drive the library, one module family
each, because a median pooled over families of very different size falls in
the small family's cluster and hides the large one. The fourth runs the CLI
subcommands as fresh subprocesses, where interpreter start and imports
dominate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import singerlab  # noqa: E402  (run.py and child.py put SRC on sys.path first)
from singerlab import cli, instgen  # noqa: E402
from singerlab.rewrite import Failure, RewriteConfig, RewriteResult, Verified  # noqa: E402

EPS = 0.01
CHILD_TIMEOUT = 150


@dataclass(frozen=True)
class Family:
    p: int
    f: int
    d: int
    spec: str
    plant_singer: bool
    # Instances in a traced run (and in the digest prefix of every run).
    fixed_count: int


# Why each family: planted-sym3 is criterion 09's costliest family (dense
# word products over the tabled F_343, a 200x100 F_7 rref in oracle_check);
# search-ext2-q9 skips the planted Singer generator, so product-replacement
# search, char_poly / root finding / discrete logs run, over a non-prime base
# field; untabled-sym2-q17 has 83521 > TABLE_LIMIT extension elements, so
# every extension mul/inv runs polynomial-basis code.
FAMILIES = {
    "planted-sym3": Family(7, 1, 3, "d=3 q=7 factors=[sym(3)@0]", True, 3),
    "search-ext2-q9": Family(3, 2, 4, "d=4 q=9 factors=[ext(2)@0]", False, 10),
    "untabled-sym2-q17": Family(17, 1, 4, "d=4 q=17 factors=[sym(2)@0]", True, 2),
}
CLI_COLD = "cli-cold"
CLI_FIXED_CYCLES = 2
CLI_POOL = 4


def fixed_count(workload: str) -> int:
    return CLI_FIXED_CYCLES if workload == CLI_COLD else FAMILIES[workload].fixed_count


def instance_seeds(workload: str, seed: int):
    """The run's instance seeds, without end; a pure function of the
    workload and the run seed."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.randrange(2**31)


def canonical(data: dict) -> bytes:
    """JSON bytes exactly as the CLI writes result files."""
    return (json.dumps(data, sort_keys=True, indent=2) + "\n").encode()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("SINGER_SEED", None)
    return env


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Samples and verdicts of one loop."""

    samples: dict = dataclasses.field(default_factory=lambda: {"rewrite_s": [], "verify_s": [], "oracle_s": []})
    attempted: int = 0
    failed: int = 0
    budget_exhausted: int = 0
    rewrites: int = 0
    errors: list = dataclasses.field(default_factory=list)
    digests: list = dataclasses.field(default_factory=list)
    stats: dict = dataclasses.field(default_factory=lambda: {"elements_sampled": 0, "dlog_calls": 0, "retries": 0})
    elapsed: float = 0.0


def library_setup(workload: str):
    fam = FAMILIES[workload]
    ctx = singerlab.field_ctx(fam.p, fam.f, fam.d)
    return ctx, singerlab.parse_module_spec(fam.spec)


def _stats_dict(stats) -> dict:
    return {"elements_sampled": stats.elements_sampled, "dlog_calls": stats.dlog_calls, "retries": stats.retries}


def run_instance(workload: str, ctx, spec, inst_seed: int, tally: Tally) -> None:
    """gen -> rewrite -> verify_projective -> oracle_check on one instance.

    The operations are looked up on the package at call time, so a traced
    phase sees the tracer's wrappers and an untraced phase the originals.
    """
    fam = FAMILIES[workload]
    inst = singerlab.gen_instance(ctx, spec, 2, inst_seed, plant_singer=fam.plant_singer)
    gens = list(inst.generators)
    t0 = time.perf_counter()
    res = singerlab.rewrite(spec, gens, ctx, RewriteConfig(eps=EPS))
    t1 = time.perf_counter()
    tally.samples["rewrite_s"].append(t1 - t0)
    tally.rewrites += 1
    for key in tally.stats:
        tally.stats[key] += getattr(res.stats, key)
    problems = []
    if isinstance(res, Failure):
        # A legitimate Las Vegas verdict: no cyclically regular element was
        # found within the eps budget. Digested like the CLI's JSON payload.
        tally.budget_exhausted += 1
        payload = {"verdict": "failure", "reason": res.reason, "stats": _stats_dict(res.stats)}
    elif isinstance(res, RewriteResult):
        payload = cli.result_to_dict(res, ctx.p, ctx.f)
        t2 = time.perf_counter()
        ver = singerlab.verify_projective(spec, ctx, gens, res.C, res.preimages)
        tally.samples["verify_s"].append(time.perf_counter() - t2)
        if not isinstance(ver, Verified):
            problems.append(f"verify_projective refuted a returned result: {ver.detail}")
        elif ver.scalars != res.scalars:
            problems.append("replayed scalars differ from the returned ones")
    else:
        raise TypeError(f"rewrite returned {type(res).__name__}")
    tally.digests.append(hashlib.sha256(canonical(payload)).hexdigest())
    t3 = time.perf_counter()
    oc = singerlab.oracle_check(inst)
    tally.samples["oracle_s"].append(time.perf_counter() - t3)
    if not isinstance(oc, instgen.Consistent):
        problems.append(f"oracle_check on an untampered instance: {oc.detail}")
    if problems:
        raise AssertionError("; ".join(problems))


def run_library(workload: str, ctx, spec, seeds, deadline: float | None, between=None) -> Tally:
    """Run instances in order. With a deadline, stop before an instance that
    would likely end past it (at least the fixed count always runs).
    between(), if given, runs before each instance and returns the seconds
    it took; that time is left out of the loop's elapsed time."""
    tally = Tally()
    must = fixed_count(workload)
    start = time.perf_counter()
    aside = 0.0
    for i, s in enumerate(seeds):
        if between is not None:
            aside += between()
        now = time.perf_counter()
        if deadline is not None and i >= must and now + (now - start - aside) / i > deadline:
            break
        tally.attempted += 1
        try:
            run_instance(workload, ctx, spec, s, tally)
        except Exception as exc:  # the gate: any raise is a failed instance
            tally.failed += 1
            tally.errors.append(f"instance seed {s}: {type(exc).__name__}: {exc}")
    tally.elapsed = time.perf_counter() - start - aside
    return tally


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


def make_pool(workdir: Path, seeds: list[int]) -> None:
    """Instance files (with and without oracle) and the expected rewrite
    result for each seed, on the README's example family."""
    ctx = singerlab.field_ctx(7, 1, 3)
    spec = singerlab.parse_module_spec("sym(2)", q=7, d=3)
    workdir.mkdir(parents=True, exist_ok=True)
    for k, s in enumerate(seeds):
        inst = singerlab.gen_instance(ctx, spec, 2, s)
        singerlab.save_instance(inst, str(workdir / f"pool{k}.json"))
        singerlab.save_instance(dataclasses.replace(inst, oracle=None), str(workdir / f"pool{k}.bare.json"))
        res = singerlab.rewrite(spec, list(inst.generators), ctx, RewriteConfig(eps=EPS, rng_seed=s))
        if not isinstance(res, RewriteResult):
            raise RuntimeError(f"pool instance {s} did not rewrite: {res.reason}")
        (workdir / f"pool{k}.result.json").write_bytes(canonical(cli.result_to_dict(res, ctx.p, ctx.f)))


def cli_steps(workdir: Path, k: int, s: int) -> list[tuple[str, list[str], list[str], tuple | None]]:
    """(label, argv, expected output lines, (written file, file it must
    equal byte for byte) or None) for one cycle on pool entry k. Labels are
    subcommand names, except verify-bare: verify of the copy without an
    oracle, which replays the projective check only."""
    pool = workdir / f"pool{k}"
    gen_out, rw_out = workdir / "out.instance.json", workdir / "out.result.json"
    result = f"{pool}.result.json"
    return [
        ("check-injectivity", ["check-injectivity", "--q", "7", "--d", "3", "--C", "3"],
         ["injective: checked 64 vectors"], None),
        ("model-spectrum", ["model-spectrum", "--q", "7", "--d", "3", "--K", "3"],
         ["10 patterns of total 3 over 3 digits, exponents mod 342", "distinct exponents: yes"], None),
        ("singer-demo", ["singer-demo", "--q", "7", "--d", "3", "--spec", "sym(3)", "--seed", str(s)],
         ["model match: yes", "simple spectrum: yes"], None),
        ("gen-instance", ["gen-instance", "--spec", "sym(2)", "--q", "7", "--d", "3", "--gens", "2",
                          "--seed", str(s), "--out", str(gen_out)],
         [f"wrote 2 generator images of dim 6 for d=3 q=7 factors=[sym(2)@0] to {gen_out}"],
         (gen_out, Path(f"{pool}.json"))),
        ("rewrite", ["rewrite", "--in", f"{pool}.json", "--eps", str(EPS), "--seed", str(s), "--out", str(rw_out)],
         [f"wrote result to {rw_out}"], (rw_out, Path(result))),
        ("verify-bare", ["verify", "--in", f"{pool}.bare.json", "--result", result],
         ["projective: verified", "oracle: absent"], None),
        ("verify", ["verify", "--in", f"{pool}.json", "--result", result],
         ["projective: verified", "oracle: consistent"], None),
    ]


def run_cli_cycle(
    workdir: Path, i: int, k: int, s: int, trace_dir: Path | None, timings: dict, digests: list
) -> list[str]:
    """Run one cycle; append wall times per label. Returns problems found."""
    problems = []
    for label, argv, want, files in cli_steps(workdir, k, s):
        if trace_dir is None:
            cmd = [sys.executable, "-m", "singerlab.cli", *argv]
        else:
            agg = trace_dir / f"{i}.{label}.json"
            cmd = [sys.executable, str(HERE / "child.py"), "cli", str(agg), *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT)
        timings.setdefault(label, []).append(time.perf_counter() - t0)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0:
            problems.append(f"{label} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        missing = [w for w in want if w not in lines]
        if missing:
            problems.append(f"{label} output lacks {missing}")
        if files is not None:
            written, ref = files
            data = written.read_bytes() if written.exists() else b""
            if data != ref.read_bytes():
                problems.append(f"{label} wrote bytes that differ from the library's")
            if label == "rewrite":
                digests.append(hashlib.sha256(data).hexdigest())
            written.unlink(missing_ok=True)
    return problems


def run_cli(workdir: Path, seeds: list[int], cycles, deadline: float | None, trace_dir: Path | None = None):
    """Cycles over the pool in order; cycle i uses pool entry i mod len(seeds)."""
    tally = Tally()
    timings: dict[str, list[float]] = {}
    start = time.perf_counter()
    for i in cycles:
        now = time.perf_counter()
        if deadline is not None and i >= CLI_FIXED_CYCLES and now + (now - start) / i > deadline:
            break
        tally.attempted += 1
        k = i % len(seeds)
        problems = run_cli_cycle(workdir, i, k, seeds[k], trace_dir, timings, tally.digests)
        if problems:
            tally.failed += 1
            tally.errors.append(f"cycle {i}: " + "; ".join(problems))
    tally.elapsed = time.perf_counter() - start
    return tally, timings
