"""Planted instances, the ground-truth oracle, and file round trips."""

import json
import os
import random
from dataclasses import replace

import pytest

from singerlab.errors import ConstraintViolation, InvalidInput
from singerlab.ffield import field_ctx
from singerlab.instgen import (
    Consistent,
    Inconsistent,
    gen_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    oracle_check,
    save_instance,
    tamper,
    write_json,
)
from singerlab.matfq import Matrix, embed_matrix, random_invertible
from singerlab.rewrite import RewriteConfig, RewriteResult, Verified, rewrite, verify_projective
from singerlab.schur import induced_matrix, parse_module_spec

CTX = field_ctx(7, 1, 3)
SPEC = parse_module_spec("d=3 q=7 factors=[sym(2)@0]")


def test_plant_is_exact():
    inst = gen_instance(CTX, SPEC, 2, seed=0)
    T = inst.oracle.T
    for pub, A in zip(inst.generators, inst.oracle.A):
        assert pub == T @ induced_matrix(SPEC, A) @ T.inv()


def test_gen_is_seed_deterministic():
    a = gen_instance(CTX, SPEC, 2, seed=3)
    b = gen_instance(CTX, SPEC, 2, seed=3)
    c = gen_instance(CTX, SPEC, 2, seed=4)
    assert a == b and a != c


def test_unplanted_instance_has_invertible_generators():
    inst = gen_instance(CTX, SPEC, 3, seed=1, plant_singer=False)
    assert len(inst.generators) == 3
    assert all(g.is_invertible() for g in inst.generators)


def test_oracle_check_consistent():
    inst = gen_instance(CTX, SPEC, 2, seed=5)
    v = oracle_check(inst)
    assert isinstance(v, Consistent)


def test_oracle_check_catches_tampering():
    inst = gen_instance(CTX, SPEC, 2, seed=5)
    bad = tamper(inst, seed=0)
    assert bad.generators != inst.generators
    assert isinstance(oracle_check(bad), Inconsistent)


def _identity_T(o):
    return replace(o, T=Matrix.identity(CTX.base, o.T.shape[0]))


def _zero_T(o):
    return replace(o, T=Matrix.zeros(CTX.base, *o.T.shape))


def _random_T(o):
    return replace(o, T=random_invertible(CTX.base, o.T.shape[0], random.Random(0)))


def _random_secret(o):
    return replace(o, A=(random_invertible(CTX.base, CTX.d, random.Random(1)), *o.A[1:]))


@pytest.mark.parametrize("edit", [_identity_T, _zero_T, _random_T, _random_secret])
def test_oracle_check_refuses_edited_oracle_data(edit):
    """The stored T and secrets are the certificate: with honest publics,
    oracle data that does not conjugate them onto the publics is refused."""
    inst = gen_instance(CTX, SPEC, 2, seed=5)
    assert isinstance(oracle_check(replace(inst, oracle=edit(inst.oracle))), Inconsistent)


def test_oracle_check_accepts_a_scaled_T_with_the_same_scalars():
    """Any nonzero multiple of T conjugates alike: the check is a
    proportionality test, not a comparison of T's entries."""
    inst = gen_instance(CTX, SPEC, 2, seed=5)
    want = oracle_check(inst)
    assert isinstance(want, Consistent)
    assert oracle_check(replace(inst, oracle=replace(inst.oracle, T=inst.oracle.T.scale(3)))) == want


def test_oracle_check_accepts_an_intertwiner_space_of_dimension_two():
    """For this unplanted ext(2) instance the scalars (1, 1) leave a
    2-dimensional intertwiner space, and every other scalar pair none; the
    stored T lies in that space and certifies the honest instance.
    Tampering still refutes."""
    ctx = field_ctx(3, 2, 4)
    spec = parse_module_spec("d=4 q=9 factors=[ext(2)@0]")
    inst = gen_instance(ctx, spec, 2, seed=329773420, plant_singer=False)
    assert oracle_check(inst) == Consistent((1, 1))
    for seed in range(3):
        assert isinstance(oracle_check(tamper(inst, seed=seed)), Inconsistent)


def test_tamper_preserves_invertibility():
    inst = gen_instance(CTX, SPEC, 2, seed=8)
    bad = tamper(inst, seed=1)
    assert all(g.is_invertible() for g in bad.generators)


def test_dict_round_trip():
    inst = gen_instance(CTX, SPEC, 2, seed=2)
    again = instance_from_dict(instance_to_dict(inst))
    assert again == inst


def test_file_round_trip_is_byte_stable(tmp_path):
    inst = gen_instance(CTX, SPEC, 2, seed=2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_instance(inst, str(p1))
    save_instance(load_instance(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_save_over_a_longer_file_leaves_only_the_new_bytes(tmp_path):
    inst = gen_instance(CTX, SPEC, 2, seed=2)
    fresh, reused = tmp_path / "fresh.json", tmp_path / "reused.json"
    save_instance(inst, str(fresh))
    reused.write_bytes(b"x" * (3 * len(fresh.read_bytes())))
    save_instance(inst, str(reused))
    assert reused.read_bytes() == fresh.read_bytes()


def test_write_json_to_a_device_does_not_truncate():
    write_json(os.devnull, {"a": 1})


def test_malformed_file_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"p": 7, "f": 1}))
    with pytest.raises(InvalidInput):
        load_instance(str(p))


def test_instance_spec_off_the_tower_refused():
    data = instance_to_dict(gen_instance(CTX, SPEC, 2, seed=2))
    data["spec"] = data["spec"].replace("q=7", "q=11")
    with pytest.raises(InvalidInput, match="does not match the field tower"):
        instance_from_dict(data)


def test_non_multiplicity_free_spec_refused():
    spec = parse_module_spec("d=3 q=7 factors=[nat@0,nat@1]")
    with pytest.raises(ConstraintViolation, match="not multiplicity free"):
        gen_instance(CTX, spec, 2, seed=0)


def test_degree_bound_refused():
    spec = parse_module_spec("d=3 q=5 factors=[sym(2),ext(3)@1]")
    with pytest.raises(ConstraintViolation, match="not below q-1"):
        gen_instance(field_ctx(5, 1, 3), spec, 2, seed=0)


def test_end_to_end_with_rewrite():
    inst = gen_instance(CTX, SPEC, 2, seed=11)
    res = rewrite(SPEC, list(inst.generators), CTX, RewriteConfig(rng_seed=1))
    assert isinstance(res, RewriteResult)
    v = verify_projective(SPEC, CTX, list(inst.generators), res.C, res.preimages)
    assert isinstance(v, Verified)
    assert isinstance(oracle_check(inst), Consistent)
