"""Wall time against d: rewrite, verify_projective and oracle_check.

Plants one instance (two generators, seed 0) per row for two families and
times each step once:

  sym(2) over F_5, d = 3..8   (module dimension d(d+1)/2, up to 36)
  ext(d-1) over F_7, d = 3..6 (module dimension d)

It is a reading aid for how the steps grow with d, not a gate: one run
per row on a shared machine, so small differences are noise. A row whose
rewrite returns Failure prints the reason instead of the later timings.

    PYTHONPATH=src python3 scripts/scaling_sweep.py
"""

import time

from singerlab import (
    RewriteConfig,
    field_ctx,
    gen_instance,
    oracle_check,
    parse_module_spec,
    rewrite,
    verify_projective,
)
from singerlab.rewrite import Failure

# (q, spec text as a function of d, the d values)
FAMILIES = [
    (5, lambda d: "sym(2)", range(3, 9)),
    (7, lambda d: f"ext({d - 1})", range(3, 7)),
]


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def row(q: int, text: str, d: int) -> str:
    """One table row: plant, rewrite, verify and oracle-check one instance."""
    spec = parse_module_spec(text, q=q, d=d)
    ctx = field_ctx(q, 1, d)
    inst = gen_instance(ctx, spec, n_generators=2, seed=0)
    gens = list(inst.generators)
    head = f"{text:<10} {q:>2} {d:>2} {gens[0].shape[0]:>4}"
    res, t_rw = timed(rewrite, spec, gens, ctx, RewriteConfig(eps=0.01))
    if isinstance(res, Failure):
        return f"{head} {t_rw:>10.3f}  Failure: {res.reason}"
    _, t_ver = timed(verify_projective, spec, ctx, gens, res.C, res.preimages)
    _, t_or = timed(oracle_check, inst)
    return f"{head} {t_rw:>10.3f} {t_ver:>9.3f} {t_or:>9.3f}"


def main() -> None:
    print(f"{'spec':<10} {'q':>2} {'d':>2} {'dim':>4} {'rewrite_s':>10} {'verify_s':>9} {'oracle_s':>9}")
    for q, text, ds in FAMILIES:
        for d in ds:
            print(row(q, text(d), d), flush=True)


if __name__ == "__main__":
    main()
