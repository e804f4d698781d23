"""Spectral labeling and rewriting for matrix groups with a cyclically regular element.

The verdict dataclasses (Match, Simple, Ok, Verified, ...) stay in their
defining modules. The package exports the function rewrite, so
`import singerlab.rewrite as rw` binds that function, not the module; use
importlib.import_module("singerlab.rewrite") for the module.
"""

from .digitmap import (
    DigitVector,
    base_q_expansion,
    check_injectivity,
    check_injectivity_sumK,
    enumerate_patterns,
    phi,
)
from .errors import (
    CapacityExceeded,
    ConstraintViolation,
    InvalidInput,
    NotPrimitive,
    SingerlabError,
    SingularMatrix,
    UnsupportedFactor,
)
from .ffield import Field, FieldCtx, field_ctx, is_primitive
from .instgen import PlantedInstance, gen_instance, load_instance, oracle_check, save_instance, tamper
from .matfq import Matrix, char_poly, companion_matrix, embed_matrix, kron
from .rewrite import RewriteConfig, RewriteResult, rewrite, verify_projective
from .schur import FactorSpec, ModuleSpec, check_multiplicity_free, dim, induced_matrix, parse_module_spec
from .singer import SingerElement, make_singer, spectrum_on_module, verify_model_match, verify_simple_spectrum

__version__ = "0.1.0"

__all__ = [
    "CapacityExceeded",
    "ConstraintViolation",
    "DigitVector",
    "FactorSpec",
    "Field",
    "FieldCtx",
    "InvalidInput",
    "Matrix",
    "ModuleSpec",
    "NotPrimitive",
    "PlantedInstance",
    "RewriteConfig",
    "RewriteResult",
    "SingerElement",
    "SingerlabError",
    "SingularMatrix",
    "UnsupportedFactor",
    "base_q_expansion",
    "char_poly",
    "check_injectivity",
    "check_injectivity_sumK",
    "check_multiplicity_free",
    "companion_matrix",
    "dim",
    "embed_matrix",
    "enumerate_patterns",
    "field_ctx",
    "gen_instance",
    "induced_matrix",
    "is_primitive",
    "kron",
    "load_instance",
    "make_singer",
    "oracle_check",
    "parse_module_spec",
    "phi",
    "rewrite",
    "save_instance",
    "spectrum_on_module",
    "tamper",
    "verify_model_match",
    "verify_projective",
    "verify_simple_spectrum",
]
