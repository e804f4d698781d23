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
    ("d=3 q=7 factors=[sym(2)@0]", 7, 1, 0, True, "eb75d725466db07002c7e397a916c451ce1d2a3b7f95ab2c8daccb1ad37d85a0"),
    ("d=3 q=7 factors=[sym(2)@0]", 7, 1, 1, True, "afd8892c2e708acdbdca69b342092d92c9c2df1d443814db0ad02dbaffed40a6"),
    ("d=3 q=7 factors=[sym(3)@0]", 7, 1, 0, True, "f6a584893ee281d4fdb7e7b5b2d9037873517717c391ef580a8767168168508b"),
    ("d=3 q=7 factors=[sym(3)@0]", 7, 1, 1, True, "21c358724326a6755eee7a39e70b9a133c1440d428f3bb5a62deef1ea5977250"),
    ("d=4 q=7 factors=[ext(2)@0]", 7, 1, 0, True, "d3ec13201a06bacd611c18fd356c96a3da1976d4c0e8cccbf6b9d96393921145"),
    ("d=4 q=7 factors=[ext(2)@0]", 7, 1, 1, True, "bb1b18fb139f77c3db6e9390001bc5e90b1e1b2ca6337892af64a54369931cbc"),
    ("d=4 q=9 factors=[ext(2)@0]", 3, 2, 0, False, "35f2947740b697847331976d830747a8ea9a69889dfad24e4248fbb8d390e25d"),
    ("d=4 q=17 factors=[sym(2)@0]", 17, 1, 0, True, "2a6e4ccb4cda1f22b20f64dae402f76115e6be20898ccdbba5c2c71825561944"),
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
