"""Planted problem instances and their consistency oracle.

An instance is a list of public matrices over F_q obtained by pushing
secret d x d generators through the induced functor and conjugating by a
secret change of basis T. The oracle keeps the secrets so tests and demos
can check a solver's output against ground truth, and oracle_check can
certify that a (possibly edited) instance still is what it claims to be:
the stored T is invertible and, for some scalars nu_x,
public_x = nu_x * T @ induced(A_x) @ T^{-1}.
"""

from __future__ import annotations

import json
import os
import random
import stat
from dataclasses import dataclass, replace

from .errors import InvalidInput
from .ffield import FieldCtx, field_ctx, prime_power
from .matfq import Matrix, intertwining_scalars, random_invertible, read_int, stack
from .schur import (
    ModuleSpec,
    dim,
    induced_matrix,
    parse_module_spec,
    require_images,
    require_supported,
)
from .singer import make_singer


@dataclass(frozen=True)
class Oracle:
    """Ground truth: the planted generators, the basis change, the seed."""

    A: tuple[Matrix, ...]
    T: Matrix
    seed: int


@dataclass(frozen=True)
class PlantedInstance:
    p: int
    f: int
    d: int
    spec: ModuleSpec
    generators: tuple[Matrix, ...]
    oracle: Oracle | None

    @property
    def ctx(self) -> FieldCtx:
        return field_ctx(self.p, self.f, self.d)


@dataclass(frozen=True)
class Consistent:
    scalars: tuple[int, ...]


@dataclass(frozen=True)
class Inconsistent:
    detail: str


def gen_instance(
    ctx: FieldCtx,
    spec: ModuleSpec,
    n_generators: int = 2,
    seed: int = 0,
    plant_singer: bool = True,
) -> PlantedInstance:
    """Sample secrets and publish their conjugated functor images. With
    plant_singer the first secret is a companion form of a primitive
    element, so the published group always contains a cyclically regular
    element; the remaining secrets are uniform invertible matrices."""
    if n_generators < 1:
        raise InvalidInput("need at least one generator")
    require_supported(spec, ctx)
    rng = random.Random(repr(("instance", ctx.p, ctx.f, ctx.d, spec.text(), seed)))
    secrets = []
    if plant_singer:
        secrets.append(make_singer(ctx, seed).S)
    while len(secrets) < n_generators:
        secrets.append(random_invertible(ctx.base, ctx.d, rng))
    T = random_invertible(ctx.base, dim(spec), rng)
    Ti = T.inv()
    publics = tuple(T @ induced_matrix(spec, A) @ Ti for A in secrets)
    return PlantedInstance(
        ctx.p, ctx.f, ctx.d, spec, publics, Oracle(tuple(secrets), T, seed)
    )


def tamper(inst: PlantedInstance, seed: int = 0) -> PlantedInstance:
    """Flip one public entry while keeping the matrix invertible. The
    oracle data is kept as is, so consistency checks must now refuse."""
    rng = random.Random(repr(("tamper", inst.p, inst.f, inst.d, seed)))
    base = inst.generators[0].field
    gi = rng.randrange(len(inst.generators))
    rows = inst.generators[gi].tolist()
    n = len(rows)
    for _ in range(1000):
        i, j = rng.randrange(n), rng.randrange(n)
        new = rng.randrange(base.order)
        if new == rows[i][j]:
            continue
        edited = [r[:] for r in rows]
        edited[i][j] = new
        m = Matrix.from_rows(base, edited)
        if m.is_invertible() and m != inst.generators[gi]:
            gens = list(inst.generators)
            gens[gi] = m
            return replace(inst, generators=tuple(gens))
    raise InvalidInput("could not tamper while preserving invertibility")


# ---------------------------------------------------------------------------
# consistency oracle
# ---------------------------------------------------------------------------


def oracle_check(inst: PlantedInstance) -> Consistent | Inconsistent:
    """Certify the instance with the witness its oracle stores: T is
    invertible and public_x @ T == nu_x * T @ induced(A_x) for every
    generator x and one nonzero nu_x, that is public_x = nu_x * T @
    induced(A_x) @ T^{-1}. The stored T certifies or the instance is
    refused; no other intertwiner is searched for, so oracle data whose
    own T is wrong is refused even when the publics are honest. The
    generators and the oracle preimages each go in as one stack: one
    induced_matrix call, two stacked products with T and one stacked
    compare certify every generator."""
    require_images(inst.spec, inst.ctx, inst.generators)
    if inst.oracle is None:
        return Inconsistent("instance carries no oracle data")
    if len(inst.oracle.A) != len(inst.generators):
        return Inconsistent("oracle generator count differs from the publics")
    T = inst.oracle.T
    if not T.is_invertible():
        return Inconsistent("oracle T is not invertible")
    nus = intertwining_scalars(T, stack(inst.generators), induced_matrix(inst.spec, stack(inst.oracle.A)))
    if None in nus:
        return Inconsistent(f"generator {nus.index(None)} is not a multiple of its oracle image conjugated by T")
    return Consistent(tuple(nus))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def instance_to_dict(inst: PlantedInstance) -> dict:
    out = {
        "p": inst.p,
        "f": inst.f,
        "d": inst.d,
        "spec": inst.spec.text(),
        "generators": [g.tolist() for g in inst.generators],
    }
    if inst.oracle is not None:
        out["oracle"] = {
            "A": [a.tolist() for a in inst.oracle.A],
            "T": inst.oracle.T.tolist(),
            "seed": inst.oracle.seed,
        }
    return out


def instance_from_dict(data: dict) -> PlantedInstance:
    try:
        spec = parse_module_spec(data["spec"])
        p, f, d = (read_int(data[key], key) for key in ("p", "f", "d"))
        if (p, f, d) != (*prime_power(spec.q), spec.d):
            raise InvalidInput(f"module spec {spec.text()} does not match the field tower p={p} f={f} d={d}")
        ctx = field_ctx(p, f, d)
        gens = tuple(Matrix.from_rows(ctx.base, rows) for rows in data["generators"])
        oracle = None
        if "oracle" in data:
            o = data["oracle"]
            oracle = Oracle(
                tuple(Matrix.from_rows(ctx.base, rows) for rows in o["A"]),
                Matrix.from_rows(ctx.base, o["T"]),
                read_int(o["seed"], "oracle seed"),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed instance data: {exc}") from exc
    require_images(spec, ctx, gens)
    n = dim(spec)
    if oracle is not None and (oracle.T.shape != (n, n) or any(a.shape != (d, d) for a in oracle.A)):
        raise InvalidInput(f"oracle T must be {n} x {n} and every oracle A {d} x {d}")
    return PlantedInstance(p, f, d, spec, gens, oracle)


def write_json(path: str, data: dict) -> None:
    """Write data as sorted, indented JSON. An existing file is overwritten
    in place and then cut to the new length, not truncated first: truncating
    a file whose blocks are on disk frees them, and on ext4 that can stall
    the writer for tens of milliseconds, while a rewrite of about the same
    size reuses the blocks the file has."""
    blob = (json.dumps(data, sort_keys=True, indent=2) + "\n").encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(blob)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def save_instance(inst: PlantedInstance, path: str) -> None:
    write_json(path, instance_to_dict(inst))


def load_instance(path: str) -> PlantedInstance:
    with open(path, encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))
