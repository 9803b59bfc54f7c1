"""Typed graph-grammar knowledge base.

Graphs are terms, schemas are types, and rules are subset types over a
persisted term store.  See README.md for the tour.

The corpus generator (`GenConfig`, `generate`, `run_experiment`) and the
brute-force oracle (`oracle_extensions`) are loaded on first access: a
session never runs them, and every one-shot command would otherwise pay
for compiling them.
"""

from importlib import import_module

from . import terms, unify  # loaded with the package: perfbench hooks unify
from .classifier import (FindReport, eval_ground_prop, find_members,
                         promote_untyped)
from .clause import skolemize
from .errors import (FlutesError, ParseError, RuleFailure,
                     StoreCorruptionError, StoreError, TypeCheckError,
                     UnsupportedPropError)
from .rules import Analytic, RuleReport, mk_analytic, run_analytic
from .sexp import parse_sexp, render_sexp
from .store import KbClass, Store
from .syntax import parse_program
from .taxonomy import Concept, Taxonomy, mk_concept, positional
from .typecheck import apply_coercion, infer_static_type, prove_subtype

__version__ = "0.1.0"

__all__ = [
    "Analytic", "Concept", "FindReport", "FlutesError", "GenConfig",
    "KbClass", "ParseError", "RuleFailure", "RuleReport", "Store",
    "StoreCorruptionError", "StoreError", "Taxonomy", "TypeCheckError",
    "UnsupportedPropError", "apply_coercion",
    "eval_ground_prop", "find_members", "generate", "infer_static_type",
    "mk_analytic", "mk_concept", "oracle_extensions",
    "parse_program", "parse_sexp", "positional", "promote_untyped",
    "prove_subtype", "render_sexp", "run_analytic", "run_experiment",
    "skolemize", "terms", "unify",
]

# public name -> the module that defines it, imported on first access
_LAZY = {"GenConfig": "benchgen", "generate": "benchgen",
         "run_experiment": "benchgen", "oracle_extensions": "oracle"}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
