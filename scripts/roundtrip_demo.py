"""Plant a group, recover it, and check the recovery three ways.

Generates a conjugated functor image of seeded secrets, runs the rewriting
pipeline on the public matrices alone, then reports the recovered labels
and scalars, the projective replay verdict, and an oracle comparison. The
pipeline recovers the planted group only up to its frame, so the recovered
preimages are a simultaneous conjugate of the secrets, each scaled to
leading entry 1; what survives that is the characteristic polynomial up to
the scalar twist coeff_j -> c^(d-j) coeff_j, and the demo exhibits the c.
"""

import argparse

from singerlab import (
    RewriteConfig,
    SingerlabError,
    char_poly,
    embed_matrix,
    field_ctx,
    gen_instance,
    parse_module_spec,
    rewrite,
    verify_projective,
)
from singerlab.ffield import prime_power
from singerlab.rewrite import Failure, Verified


def twist_scalar(got, planted):
    """The c making char_poly(got) the c-twist of char_poly(planted), or None."""
    ext = got.field
    d = got.shape[0]
    cg, cp = char_poly(got), char_poly(planted)
    for c in range(1, ext.order):
        if all(cg[j] == ext.mul(ext.pow(c, d - j), cp[j]) for j in range(d + 1)):
            return c
    return None


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=7)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--spec", default="sym(2)")
    ap.add_argument("--gens", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--eps", type=float, default=0.01)
    args = ap.parse_args()

    spec = parse_module_spec(args.spec, q=args.q, d=args.d)
    ctx = field_ctx(*prime_power(args.q), args.d)
    inst = gen_instance(ctx, spec, n_generators=args.gens, seed=args.seed)
    print(f"instance: {spec.text()}, {args.gens} public matrices of size {inst.generators[0].shape[0]}")

    res = rewrite(spec, list(inst.generators), ctx, RewriteConfig(eps=args.eps, rng_seed=args.seed))
    if isinstance(res, Failure):
        raise SystemExit(f"budget exhausted: {res.reason}")
    print(f"recovered omega: {res.omega}")
    print("labels (digit pattern -> eigenvalue code):")
    for pattern, eig in res.labels:
        print(f"  {tuple(pattern)} -> {eig}")
    print(f"scalars: {res.scalars}")
    st = res.stats
    print(
        f"stats: {st.elements_sampled} elements sampled, {st.dlog_calls} root steps, "
        f"{st.retries} retries, {st.wall_time * 1000:.1f} ms"
    )

    replay = verify_projective(spec, ctx, list(inst.generators), res.C, res.preimages)
    print(f"projective replay: {'verified' if isinstance(replay, Verified) else replay}")

    assert inst.oracle is not None
    for i, (got, planted) in enumerate(zip(res.preimages, inst.oracle.A)):
        c = twist_scalar(got, embed_matrix(ctx, planted))
        if c is None:
            print(f"  preimage {i}: char poly DOES NOT MATCH the planted secret")
        else:
            print(f"  preimage {i}: planted char poly up to twist scalar {c}")


if __name__ == "__main__":
    try:
        main()
    except SingerlabError as exc:  # e.g. a q that is not a prime power
        raise SystemExit(f"error: {exc}") from None
