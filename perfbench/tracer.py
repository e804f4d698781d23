"""Span and counter recording around singerlab's layer boundaries.

The tracer lives entirely in the benchmark: it replaces each traced function
at every binding singerlab's modules hold (``from .matfq import char_poly``
copies the name into ``rewrite`` and ``singer``, so patching only the
defining module would miss those calls), and it replaces ``Matrix`` and
``Field`` methods on their classes. ``uninstall`` puts every original back,
so untraced phases of the same process run the unmodified code.

Spans are kept in memory as (name, parent index, start, end) and written out
when the run ends. Self time is a span's duration minus the time its direct
children cover. ``Field`` arithmetic is counted, not timed: it runs millions
of times per instance and a span per call would swamp the work it measures.
"""

from __future__ import annotations

import json
import sys
import time

# Span name, defining module, attribute. Every binding of the object in a
# loaded singerlab module is replaced.
FUNCTION_SPANS = (
    ("ffield.field_ctx", "singerlab.ffield", "field_ctx"),
    ("ffield.factor_poly", "singerlab.ffield", "factor_poly"),
    ("ffield.roots_in_extension", "singerlab.ffield", "roots_in_extension"),
    ("ffield.discrete_log", "singerlab.ffield", "discrete_log"),
    ("matfq.kron", "singerlab.matfq", "kron"),
    ("matfq.char_poly", "singerlab.matfq", "char_poly"),
    ("schur.induced_matrix", "singerlab.schur", "induced_matrix"),
    ("singer.make_singer", "singerlab.singer", "make_singer"),
    ("rewrite.find_singer_candidate", "singerlab.rewrite", "find_singer_candidate"),
    ("rewrite.recover_omega", "singerlab.rewrite", "recover_omega"),
    ("rewrite.build_eigenbasis", "singerlab.rewrite", "build_eigenbasis"),
    ("rewrite.reconstruct_generator", "singerlab.rewrite", "reconstruct_generator"),
    ("instgen.gen_instance", "singerlab.instgen", "gen_instance"),
    ("instgen.oracle_check", "singerlab.instgen", "oracle_check"),
    ("op.rewrite", "singerlab.rewrite", "rewrite"),
)

# verify_projective is reported as a layer only when rewrite calls it; the
# calls a user (or the verify subcommand) makes are the verify operation.
INNER_VERIFY = ("rewrite.verify_projective", "op.verify_projective")

# Span name, class attribute on singerlab.matfq.Matrix. inv, rank and
# kernel_basis are thin shells over rref, so their time lands there.
MATRIX_SPANS = (
    ("matfq.matmul", "__matmul__"),
    ("matfq.rref", "rref"),
    ("matfq.det", "det"),
)

FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "pow")
OP_KINDS = ("prime", "ext_tabled", "ext_untabled")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.nonnull: dict[str, int] = {}
        self.ops = [0, 0, 0]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, nonnull = self.spans, self._stack, self.nonnull
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append((name, stack[-1] if stack else -1, clock(), None))
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid] = spans[sid][:3] + (clock(),)
            if out is not None:
                nonnull[name] = nonnull.get(name, 0) + 1
            return out

        return traced

    def _count(self, fn):
        ops = self.ops

        def counted(field, *args):
            if field.m == 1:
                ops[0] += 1
            elif field._exp is not None:
                ops[1] += 1
            else:
                ops[2] += 1
            return fn(field, *args)

        return counted

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every binding in the loaded singerlab modules."""
        mods = [m for k, m in sorted(sys.modules.items()) if k == "singerlab" or k.startswith("singerlab.")]
        for name, modname, attr in FUNCTION_SPANS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, original)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapped)
        rw = sys.modules["singerlab.rewrite"]
        original = rw.verify_projective
        inner, outer = (self._wrap(n, original) for n in INNER_VERIFY)
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, key, inner if mod is rw else outer)
        matrix = sys.modules["singerlab.matfq"].Matrix
        for name, attr in MATRIX_SPANS:
            self._set(matrix, attr, self._wrap(name, getattr(matrix, attr)))
        field = sys.modules["singerlab.ffield"].Field
        for attr in FIELD_OPS:
            self._set(field, attr, self._count(getattr(field, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def aggregate(self) -> dict:
        """calls, inclusive and self seconds per span name, plus op counts."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for (name, parent, t0, t1), inner in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "nonnull": 0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - inner
        for name, n in self.nonnull.items():
            out[name]["nonnull"] = n
        return {"spans": out, "ops": dict(zip(OP_KINDS, self.ops))}

    def dump_spans(self, path: str, tag: str = "") -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name, "start": t0, "end": t1, "proc": tag}))
                fh.write("\n")


def merge(into: dict, part: dict) -> dict:
    """Sum two aggregate() results."""
    for name, row in part["spans"].items():
        acc = into["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "nonnull": 0})
        for key in acc:
            acc[key] += row[key]
    for kind in OP_KINDS:
        into["ops"][kind] = into["ops"].get(kind, 0) + part["ops"][kind]
    return into


def empty() -> dict:
    return {"spans": {}, "ops": dict.fromkeys(OP_KINDS, 0)}
