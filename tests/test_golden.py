"""Golden bytes: the canonical rewrite JSON is pinned by its sha256.

Each case plants an instance, runs rewrite with the case's seed, and hashes
the result exactly as the CLI writes it (result_to_dict, sorted keys,
indent 2, trailing newline). A refactor of the field or matrix layer must
leave every digest unchanged. The cases cover the criterion-09
multiplicity-free families, an unplanted search over the non-prime base
field F_9, and an extension field past the exp/log table limit.
"""

import hashlib
import json

import pytest

from singerlab.cli import result_to_dict
from singerlab.ffield import field_ctx
from singerlab.instgen import gen_instance
from singerlab.rewrite import RewriteConfig, RewriteResult, rewrite
from singerlab.schur import parse_module_spec

GOLDEN = [
    ("d=3 q=7 factors=[sym(2)@0]", 7, 1, 0, True, "544a81735df7daf2ecb79156ca09deafa12102e75fc919ca8ebed7a06bdcef33"),
    ("d=3 q=7 factors=[sym(2)@0]", 7, 1, 1, True, "3ecf509166b3280f86813eb0ff225067c4a9d844d5abedd339b6f3636831a14d"),
    ("d=3 q=7 factors=[sym(3)@0]", 7, 1, 0, True, "f6a584893ee281d4fdb7e7b5b2d9037873517717c391ef580a8767168168508b"),
    ("d=3 q=7 factors=[sym(3)@0]", 7, 1, 1, True, "a7a78df549cdb336593e31a8728c5e184dec996cc5c1ef4d83aaccf174b4a831"),
    ("d=4 q=7 factors=[ext(2)@0]", 7, 1, 0, True, "f7f4987c5c06f87495bd84c0d1e6748fcedea0b091701563f1b4cc8ea6c342c4"),
    ("d=4 q=7 factors=[ext(2)@0]", 7, 1, 1, True, "c247973993ecea8f2070e1ed293038ef1708e91a99e09a5f989710d378644b5b"),
    ("d=4 q=9 factors=[ext(2)@0]", 3, 2, 0, False, "1171ec62f8e8986c5a4bbc483a4243ed862df1021fe7b8bc0e0660f6cbf04888"),
    ("d=4 q=17 factors=[sym(2)@0]", 17, 1, 0, True, "6d06de50bba9682971416d1af7dcb3afa90f6d68b5fdbc428f3938fdd6049fd3"),
]

IDS = ["sym2_q7_s0", "sym2_q7_s1", "sym3_q7_s0", "sym3_q7_s1", "ext2_q7_s0", "ext2_q7_s1", "ext2_q9_unplanted", "sym2_q17_untabled"]


@pytest.mark.parametrize("text,p,f,seed,plant,digest", GOLDEN, ids=IDS)
def test_rewrite_json_bytes_are_pinned(text, p, f, seed, plant, digest):
    spec = parse_module_spec(text)
    ctx = field_ctx(p, f, spec.d)
    inst = gen_instance(ctx, spec, 2, seed=seed, plant_singer=plant)
    res = rewrite(spec, list(inst.generators), ctx, RewriteConfig(rng_seed=seed))
    assert isinstance(res, RewriteResult)
    blob = json.dumps(result_to_dict(res, p, f), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
