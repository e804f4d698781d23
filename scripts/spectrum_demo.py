"""Walk one Singer element through the spectral model.

Builds a cyclically regular element of GL_d(F_q) from a seeded primitive
element and prints the spectrum of every requested induced module, each
eigenvalue next to the exponent phi(c) and digit pattern c that the digit
model assigns it. The transcript is the hand-checkable version of what the
rewriting pipeline consumes blindly.
"""

import argparse

from singerlab import (
    SingerlabError,
    field_ctx,
    make_singer,
    parse_module_spec,
    phi,
    spectrum_on_module,
    verify_model_match,
    verify_simple_spectrum,
)
from singerlab.ffield import prime_power
from singerlab.schur import model_spectrum
from singerlab.singer import Match, Simple


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=7)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--spec",
        action="append",
        default=None,
        help="factor list such as 'sym(2)' (repeatable; default nat, sym(2), sym(3))",
    )
    args = ap.parse_args()

    ctx = field_ctx(*prime_power(args.q), args.d)
    s = make_singer(ctx, args.seed)
    print(f"field tower: F_{ctx.base.order} inside F_{ctx.ext.order}, d = {ctx.d}")
    print(f"primitive element code: {s.omega}")
    print(f"companion matrix rows: {[list(map(int, r)) for r in s.S.a]}")

    for text in args.spec or ["nat", "sym(2)", "sym(3)"]:
        try:
            spec = parse_module_spec(text, q=args.q, d=args.d)
            print(f"\n{spec.text()}")
            roots = spectrum_on_module(s, spec)
            pattern = {lam: c for c, lam in model_spectrum(spec, ctx, s.omega)}
            for lam, mult in roots:
                c = pattern[lam]
                print(f"  eigenvalue {lam:>6}  multiplicity {mult}  = omega^{phi(c, ctx.q, ctx.d):<6} digits {tuple(c)}")
            match = verify_model_match(s, spec, roots)
            simple = verify_simple_spectrum(roots)
        except SingerlabError as exc:  # e.g. sym(k) with k >= the characteristic
            print(f"  skipped: {exc}")
            continue
        print(f"  model match: {'yes' if isinstance(match, Match) else match}")
        print(f"  simple spectrum: {'yes' if isinstance(simple, Simple) else simple}")


if __name__ == "__main__":
    try:
        main()
    except SingerlabError as exc:  # e.g. a q that is not a prime power
        raise SystemExit(f"error: {exc}") from None
