"""Byte-parity sweep: one line per case, then a combined digest.

Runs rewrite on 96 fixed cases (12 module specs over F_5, F_7, F_9, F_17
and F_47, instance seeds 0-3, with and without a planted Singer generator) and
prints for each the sha256 of the canonical rewrite JSON, or the Failure
reason with its counters. Each recovered result is then replayed by
verify_projective against a tampered copy of its instance, and the
instance goes through oracle_check; both verdicts are printed too. The
last line is the sha256 of every line before it, so two versions of the
code that print the same digest gave the same bytes, verdicts and details
on every case. Everything is seeded, so the output never changes between
runs of the same code.

    PYTHONPATH=src python3 scripts/parity_sweep.py
"""

import hashlib
import json
from typing import Iterator

from singerlab import (
    RewriteConfig,
    field_ctx,
    gen_instance,
    oracle_check,
    parse_module_spec,
    rewrite,
    tamper,
    verify_projective,
)
from singerlab.cli import result_to_dict
from singerlab.rewrite import Failure

# (p, f, spec text); q = p^f
SPECS = [
    (5, 1, "d=2 q=5 factors=[sym(2)@0]"),
    (5, 1, "d=3 q=5 factors=[sym(2)@0]"),
    (7, 1, "d=3 q=7 factors=[sym(2)@0]"),
    (7, 1, "d=3 q=7 factors=[sym(3)@0]"),
    (7, 1, "d=3 q=7 factors=[sym(2)@1]"),
    (7, 1, "d=4 q=7 factors=[ext(2)@0]"),
    (7, 1, "d=4 q=7 factors=[ext(3)@0]"),
    (7, 1, "d=3 q=7 factors=[sym(2)@0,ext(3)@1]"),
    (3, 2, "d=3 q=9 factors=[sym(2)@0]"),
    (3, 2, "d=4 q=9 factors=[ext(2)@0]"),
    (17, 1, "d=4 q=17 factors=[sym(2)@0]"),
    (47, 1, "d=3 q=47 factors=[sym(2)@0]"),  # untabled F_{47^3}: odd extension degree
]
SEEDS = range(4)


def _verdict(v) -> str:
    return f"{type(v).__name__}({getattr(v, 'detail', getattr(v, 'scalars', ''))})"


def case_line(p: int, f: int, text: str, seed: int, planted: bool) -> str:
    spec = parse_module_spec(text)
    ctx = field_ctx(p, f, spec.d)
    inst = gen_instance(ctx, spec, 2, seed=seed, plant_singer=planted)
    res = rewrite(spec, list(inst.generators), ctx, RewriteConfig(rng_seed=seed))
    head = f"{text} seed={seed} planted={int(planted)}"
    if isinstance(res, Failure):
        st = res.stats
        return f"{head} failure {res.reason!r} sampled={st.elements_sampled} root_steps={st.dlog_calls} retries={st.retries}"
    blob = json.dumps(result_to_dict(res, p, f), sort_keys=True, indent=2)
    bad = list(tamper(inst, seed=seed).generators)
    tampered = verify_projective(spec, ctx, bad, res.C, res.preimages)
    return (
        f"{head} ok {hashlib.sha256(blob.encode()).hexdigest()}"
        f" tampered={_verdict(tampered)} oracle={_verdict(oracle_check(inst))}"
    )


def case_lines() -> Iterator[str]:
    """Every case line, in sweep order."""
    for p, f, text in SPECS:
        for seed in SEEDS:
            for planted in (True, False):
                yield case_line(p, f, text, seed, planted)


def main() -> None:
    total = hashlib.sha256()
    for line in case_lines():
        print(line, flush=True)
        total.update(line.encode() + b"\n")
    print(f"combined {total.hexdigest()}")


if __name__ == "__main__":
    main()
