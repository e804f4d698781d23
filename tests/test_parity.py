"""The byte-parity sweep's combined digest is pinned: every refactor must
give the same rewrite JSON, verdicts and details on its 96 seeded cases.

scripts/parity_sweep.py is loaded here by path, as the script it is, so
the digest checked is the one the script prints.
"""

import hashlib
import importlib.util
from pathlib import Path

SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "parity_sweep.py"
DIGEST = "f66eec35b94374532a4607fd9453b1ce7697d29a3c76234f350f16a65fcb8ec7"


def test_parity_sweep_digest_is_unchanged():
    spec = importlib.util.spec_from_file_location("parity_sweep", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    total = hashlib.sha256()
    for line in sweep.case_lines():
        total.update(line.encode() + b"\n")
    assert total.hexdigest() == DIGEST
