"""The benchmark's tracer patches singerlab by name; every name must exist.

perfbench/tracer.py is read here, not edited: a rename or deletion of a
traced binding then fails these tests instead of the benchmark's traced run.
"""

import importlib
import importlib.util
from pathlib import Path

from singerlab.ffield import Field, field_ctx
from singerlab.matfq import Matrix

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_binding_exists():
    tracer = _load_tracer()
    for _, modname, attr in tracer.FUNCTION_SPANS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
    assert len(tracer.INNER_VERIFY) == 2
    assert callable(importlib.import_module("singerlab.rewrite").verify_projective)
    for _, attr in tracer.MATRIX_SPANS:
        assert callable(getattr(Matrix, attr, None)), attr
    for attr in tracer.FIELD_OPS:
        assert callable(getattr(Field, attr, None)), attr


def test_tracer_installs_counts_every_field_kind_and_uninstalls():
    """install patches every binding, _count reads Field.m and Field._exp
    on prime, tabled and untabled fields, and uninstall restores the originals."""
    importlib.import_module("singerlab.cli")  # install patches the loaded modules
    tracer = _load_tracer()
    originals = [getattr(Matrix, attr) for _, attr in tracer.MATRIX_SPANS]
    fields = [Field(7), Field(7, 2), field_ctx(17, 1, 4).ext]  # prime, tabled, untabled
    t = tracer.Tracer()
    t.install()
    try:
        for F in fields:
            F.mul(2, 3)
    finally:
        t.uninstall()
    assert t.ops == [1, 1, 1]
    assert [getattr(Matrix, attr) for _, attr in tracer.MATRIX_SPANS] == originals
