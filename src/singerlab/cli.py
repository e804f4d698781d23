"""Command line interface.

Subcommands: check-injectivity, model-spectrum, singer-demo, gen-instance,
rewrite, verify. Every subcommand is deterministic given its flags and
seed, and --format json output is byte-stable across runs (timings are
reported only in text mode for that reason).

Exit codes: 0 success or positive verdict, 1 usage or malformed input,
2 negative verdict (collision, mismatch, refutation), 3 exhausted budget.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .digitmap import (
    Collision,
    DigitVector,
    Injective,
    check_injectivity,
    check_injectivity_sumK,
    enumerate_patterns,
    phi,
)
from .errors import (
    CapacityExceeded,
    ConstraintViolation,
    InvalidInput,
    NotPrimitive,
    SingerlabError,
)
from .ffield import field_ctx, is_primitive, prime_power
from .instgen import (
    Consistent,
    PlantedInstance,
    gen_instance,
    load_instance,
    oracle_check,
    save_instance,
    write_json,
)
from .matfq import Matrix, read_code, read_int
from .rewrite import (
    Failure,
    RewriteConfig,
    RewriteResult,
    RewriteStats,
    Verified,
    rewrite,
    verify_projective,
)
from .schur import DIM_BUDGET, FactorSpec, ModuleSpec, aggregated_patterns, dim, model_spectrum, parse_module_spec
from .singer import Match, Simple, make_singer, spectrum_on_module, verify_model_match, verify_simple_spectrum

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUTED = 2
EXIT_BUDGET = 3

# --omega auto constructs the extension field; past this order that is a
# mistake and the exponent table is the supported path.
AUTO_FIELD_LIMIT = 2**24


def _emit(payload: dict, args, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines(payload):
            print(line)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SINGER_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise InvalidInput(f"SINGER_SEED must be an integer, got {env!r}") from exc


def _parse_spec(args) -> ModuleSpec:
    q = getattr(args, "q", None)
    d = getattr(args, "d", None)
    return parse_module_spec(args.spec, q=q, d=d)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check_injectivity(args) -> int:
    if args.sum_K:
        verdict = check_injectivity_sumK(args.q, args.d, args.C, budget=args.budget)
        payload = {"mode": "sum", "q": args.q, "d": args.d, "K": args.C}
    else:
        verdict = check_injectivity(args.q, args.d, args.C, budget=args.budget)
        payload = {"mode": "cap", "q": args.q, "d": args.d, "C": args.C}
    if isinstance(verdict, Injective):
        payload |= {"verdict": "injective", "checked": verdict.count}
        _emit(payload, args, lambda p: [f"injective: checked {p['checked']} vectors"])
        return EXIT_OK
    payload |= {
        "verdict": "collision",
        "first": list(verdict.first),
        "second": list(verdict.second),
        "residue": verdict.residue,
    }
    _emit(
        payload,
        args,
        lambda p: [f"collision: {tuple(p['first'])} and {tuple(p['second'])} share residue {p['residue']}"],
    )
    return EXIT_REFUTED


def cmd_model_spectrum(args) -> int:
    q, d, K = args.q, args.d, args.K
    p, f = prime_power(q)
    patterns = enumerate_patterns(d, K)  # checks d and K, enumerates nothing yet
    count = math.comb(d + K - 1, K)  # the rows are the patterns of Sym^K V
    if count > DIM_BUDGET:
        raise CapacityExceeded(f"{count} patterns of total {K} exceed the module budget {DIM_BUDGET}")
    modulus = q**d - 1
    rows = []
    exponents = []
    for c in patterns:
        e = phi(c, q, d)
        exponents.append(e)
        rows.append({"pattern": list(c), "exponent": e})
    omega = None
    if args.omega is not None:
        if q**d > AUTO_FIELD_LIMIT:
            raise InvalidInput(
                f"q^d = {q**d} is too large to build the field; omit --omega for the exponent table"
            )
        ext = field_ctx(p, f, d).ext
        try:
            omega = ext.generator if args.omega == "auto" else read_code(int(args.omega), ext, "omega", low=1)
        except ValueError as exc:
            raise InvalidInput(f"--omega takes an element code or 'auto', not {args.omega!r}") from exc
        if not is_primitive(ext, omega):
            raise NotPrimitive(f"omega code {omega} does not generate the multiplicative group")
        for row in rows:
            row["eigenvalue"] = ext.pow(omega, row["exponent"])
    payload = {
        "q": q,
        "d": d,
        "K": K,
        "modulus": modulus,
        "count": len(rows),
        "distinct_exponents": len(set(exponents)) == len(exponents),
        "rows": rows,
    }
    if omega is not None:
        payload["omega"] = omega

    def text(p):
        yield f"{p['count']} patterns of total {K} over {d} digits, exponents mod {p['modulus']}"
        yield f"distinct exponents: {'yes' if p['distinct_exponents'] else 'no'}"
        for row in p["rows"]:
            line = f"  {tuple(row['pattern'])} -> {row['exponent']}"
            if "eigenvalue" in row:
                line += f" -> {row['eigenvalue']}"
            yield line

    _emit(payload, args, text)
    return EXIT_OK


def cmd_singer_demo(args) -> int:
    ctx = field_ctx(*prime_power(args.q), args.d)
    spec = _parse_spec(args)
    if dim(spec) == 0:
        raise InvalidInput(f"module {spec.text()} is zero dimensional")
    s = make_singer(ctx, _seed(args))
    nat_eigs = spectrum_on_module(s, ModuleSpec(ctx.d, ctx.q, (FactorSpec("nat"),)))
    sp = spectrum_on_module(s, spec)
    match = verify_model_match(s, spec, sp)
    simple = verify_simple_spectrum(sp)
    c_star = min(aggregated_patterns(spec))
    e_star = phi(c_star, ctx.q, ctx.d)
    payload = {
        "p": ctx.p,
        "f": ctx.f,
        "d": args.d,
        "omega": s.omega,
        "order": ctx.ext.order - 1,
        "companion": s.S.tolist(),
        "min_poly": list(ctx.min_poly_over_base(s.omega)),
        "natural_eigenvalues": len(nat_eigs),
        "spec": spec.text(),
        "module_dim": dim(spec),
        "module_eigenvalues": len(sp),
        "model_match": isinstance(match, Match),
        "simple_spectrum": isinstance(simple, Simple),
        "digit_example": {"exponent": e_star, "digits": list(c_star)},
    }

    def text(pl):
        yield f"tower p={pl['p']} f={pl['f']} d={pl['d']}, multiplicative order {pl['order']}"
        yield f"companion matrix of omega={pl['omega']}: {pl['companion']}"
        yield f"minimal polynomial (constant first): {tuple(pl['min_poly'])}"
        yield f"natural module: {pl['natural_eigenvalues']} eigenvalues, one Frobenius orbit"
        yield (
            f"module {pl['spec']}: dim {pl['module_dim']}, "
            f"{pl['module_eigenvalues']} distinct eigenvalues"
        )
        yield f"model match: {'yes' if pl['model_match'] else 'NO'}"
        yield f"simple spectrum: {'yes' if pl['simple_spectrum'] else 'NO'}"
        ex = pl["digit_example"]
        yield f"digit example: exponent {ex['exponent']} has base-{args.q} digits {tuple(ex['digits'])}"

    _emit(payload, args, text)
    return EXIT_OK if payload["model_match"] and payload["simple_spectrum"] else EXIT_REFUTED


def cmd_gen_instance(args) -> int:
    spec = _parse_spec(args)
    ctx = field_ctx(*prime_power(spec.q), spec.d)
    inst = gen_instance(ctx, spec, args.gens, _seed(args), plant_singer=args.plant_singer)
    if args.no_oracle:
        inst = dataclasses.replace(inst, oracle=None)
    save_instance(inst, args.out)
    payload = {
        "path": args.out,
        "spec": spec.text(),
        "generators": len(inst.generators),
        "dim": dim(spec),
        "oracle": inst.oracle is not None,
    }
    _emit(
        payload,
        args,
        lambda pl: [
            f"wrote {pl['generators']} generator images of dim {pl['dim']} for {pl['spec']} to {pl['path']}"
        ],
    )
    return EXIT_OK


# The RewriteStats counters a result or failure payload reports; wall_time
# stays out so --format json is byte-stable.
_STATS_KEYS = ("elements_sampled", "dlog_calls", "retries")


def _stats_dict(stats: RewriteStats) -> dict:
    return {key: getattr(stats, key) for key in _STATS_KEYS}


def result_to_dict(res: RewriteResult, p: int, f: int) -> dict:
    return {
        "spec": res.spec.text(),
        "p": p,
        "f": f,
        "d": res.spec.d,
        "omega": res.omega,
        "phi": [m.tolist() for m in res.preimages],
        "C": res.C.tolist(),
        "labels": [[list(c), lam] for c, lam in res.labels],
        "scalars": list(res.scalars),
        "stats": _stats_dict(res.stats),
    }


def result_from_dict(data: dict, inst: PlantedInstance) -> RewriteResult:
    """A result over inst's tower: its spec, p, f and d must be inst's before any matrix is read."""
    try:
        spec = parse_module_spec(data["spec"])
        if spec != inst.spec or tuple(read_int(data[key], key) for key in ("p", "f", "d")) != (inst.p, inst.f, inst.d):
            raise InvalidInput("result file does not belong to this instance")
        ext = inst.ctx.ext
        C = Matrix.from_rows(ext, data["C"])
        preimages = tuple(Matrix.from_rows(ext, rows) for rows in data["phi"])
        labels = tuple(
            (DigitVector(read_int(x, "label digit") for x in c), read_code(lam, ext, "label eigenvalue", low=1))
            for c, lam in data["labels"]
        )
        scalars = tuple(read_int(x, "scalar") for x in data["scalars"])
        st = data.get("stats", {})
        if not isinstance(st, dict):
            raise InvalidInput(f"stats {st!r} is not an object")
        counts = {key: read_int(st.get(key, 0), key) for key in _STATS_KEYS}
        if any(v < 0 for v in counts.values()):
            raise InvalidInput(f"stats {counts} hold a negative count")
        stats = RewriteStats(**counts)
        res = RewriteResult(spec, read_code(data["omega"], ext, "omega", low=1), C, labels, preimages, scalars, stats)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed result data: {exc}") from exc
    return res


def _default_result_path(instance_path: str) -> str:
    root, _ = os.path.splitext(instance_path)
    return root + ".result.json"


def cmd_rewrite(args) -> int:
    inst = load_instance(args.infile)
    ctx = inst.ctx
    cfg = RewriteConfig(eps=args.eps, rng_seed=_seed(args))
    res = rewrite(inst.spec, list(inst.generators), ctx, cfg)
    if isinstance(res, Failure):
        payload = {"verdict": "failure", "reason": res.reason, "stats": _stats_dict(res.stats)}
        _emit(payload, args, lambda pl: [f"failure: {pl['reason']}"])
        return EXIT_BUDGET
    out = args.out or _default_result_path(args.infile)
    data = result_to_dict(res, ctx.p, ctx.f)
    write_json(out, data)
    payload = {"verdict": "ok", "path": out, "omega": res.omega, "scalars": list(res.scalars), "stats": data["stats"]}

    def text(pl):
        yield f"omega = {pl['omega']}, scalars = {pl['scalars']}"
        st = pl["stats"]
        yield (
            f"sampled {st['elements_sampled']} elements, {st['dlog_calls']} root steps, "
            f"{st['retries']} retries ({res.stats.wall_time * 1000:.1f} ms)"
        )
        yield f"wrote result to {pl['path']}"

    _emit(payload, args, text)
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = load_instance(args.infile)
    with open(args.result, encoding="utf-8") as fh:
        res = result_from_dict(json.load(fh), inst)
    ctx = inst.ctx
    ver = verify_projective(inst.spec, ctx, list(inst.generators), res.C, res.preimages)
    if not isinstance(ver, Verified):
        detail = ver.detail
    elif ver.scalars != res.scalars:
        detail = "stored scalars disagree with the replay"
    elif res.labels != tuple(model_spectrum(inst.spec, ctx, res.omega)):
        detail = "labels differ from the digit model of omega"
    else:
        detail = None
    oracle_state = "absent"
    if inst.oracle is not None:
        oc = oracle_check(inst)
        oracle_state = "consistent" if isinstance(oc, Consistent) else f"inconsistent: {oc.detail}"
    payload = {
        "projective": "verified" if detail is None else f"refuted: {detail}",
        "oracle": oracle_state,
    }
    _emit(payload, args, lambda pl: [f"projective: {pl['projective']}", f"oracle: {pl['oracle']}"])
    good = detail is None and (inst.oracle is None or oracle_state == "consistent")
    return EXIT_OK if good else EXIT_REFUTED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singerlab",
        description="Spectral labeling and rewriting for matrix groups with a cyclically regular element.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        sp.add_argument("--format", choices=("text", "json"), default="text")
        if seed:
            sp.add_argument("--seed", type=int, default=None, help="falls back to SINGER_SEED, then 0")

    sp = sub.add_parser("check-injectivity", help="digit vector collision search")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--C", type=int, required=True, help="digit cap, or total sum with --sum-K")
    sp.add_argument("--sum-K", action="store_true", dest="sum_K", help="check patterns of total C instead of capped digits")
    sp.add_argument("--budget", type=int, default=10**7)
    common(sp, seed=False)
    sp.set_defaults(func=cmd_check_injectivity)

    sp = sub.add_parser("model-spectrum", help="exponent table of the digit model")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--omega", default=None, help="primitive element code, or 'auto'")
    common(sp, seed=False)
    sp.set_defaults(func=cmd_model_spectrum)

    sp = sub.add_parser("singer-demo", help="companion form and module spectra walkthrough")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--spec", default="sym(3)@0", help="factor list or full module text")
    common(sp)
    sp.set_defaults(func=cmd_singer_demo)

    sp = sub.add_parser("gen-instance", help="write a planted instance file")
    sp.add_argument("--spec", required=True, help="module text, e.g. 'd=3 q=7 factors=[sym(2)@0]'")
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--gens", type=int, default=2)
    sp.add_argument("--plant-singer", action=argparse.BooleanOptionalAction, default=True)
    sp.add_argument("--no-oracle", action="store_true", help="strip ground truth from the file")
    sp.add_argument("--out", required=True)
    common(sp)
    sp.set_defaults(func=cmd_gen_instance)

    sp = sub.add_parser("rewrite", help="recover frame and preimages from an instance file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--eps", type=float, default=0.01)
    sp.add_argument("--out", default=None, help="result path (default: <instance>.result.json)")
    common(sp)
    sp.set_defaults(func=cmd_rewrite)

    sp = sub.add_parser("verify", help="replay the exact checks on a result file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--result", required=True)
    common(sp)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except CapacityExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SingerlabError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
