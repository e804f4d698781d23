"""The byte-parity sweep's combined digest is pinned: every refactor must
give the same rewrite JSON, verdicts and details on its 96 seeded cases.

scripts/parity_sweep.py is loaded here by path, as the script it is, so
the digest checked is the one the script prints.
"""

import hashlib
import importlib.util
from pathlib import Path

SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "parity_sweep.py"
DIGEST = "8cff7f6014e2f4d535cc546bf99932369ead84af6bc7f423e2890b6e84400639"


def test_parity_sweep_digest_is_unchanged():
    spec = importlib.util.spec_from_file_location("parity_sweep", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    total = hashlib.sha256()
    for line in sweep.case_lines():
        total.update(line.encode() + b"\n")
    assert total.hexdigest() == DIGEST
