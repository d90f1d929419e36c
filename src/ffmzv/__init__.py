"""Exact computer algebra for multiple zeta values over F_q[T].

The package computes in GF(q)((1/T)) with precision tracking, carries
the harmonic and q-shuffle index algebras over F_q(T), rewrites values
into Thakur-basis coordinates, builds the weight-graded quotients by
the weight-(q-1) zeta value, realizes the dagger involution as exact
matrices, and cross-checks all of it numerically, plus a small
characteristic-zero companion.

Importing the package loads the numeric core (``algebra``, ``errors``,
``evaluate``, ``indices``, ``reports``).  The public names of
``reduction``, ``dependence`` and ``charzero``, and those modules
themselves, are loaded on first use (PEP 562): reading
``ffmzv.Reducer`` imports the rewriting stack, and a run that never
reads it never compiles it.  ``__all__`` and ``dir()`` list every
public name either way.
"""

import importlib

from .algebra import (FieldElem, FieldSpec, LaurentSeries, Poly, RatFunc,
                      carlitz_bracket, carlitz_l, field, poly_lucas_binom,
                      rat_to_laurent)
from .errors import (DivisionByZero, EmptyIndex, FFMZVError, InsufficientPrecision,
                     InvalidInput, NotAdmissible, PrecisionTooExpensive,
                     ReductionDiverged)
from .evaluate import EvalBudget, Evaluator, ValueFamily, default_precision
from .indices import (EMPTY, Index, IndexAlgebra, IndexPoly, ProductKind, classify,
                      compositions, parse_index, repeat, thakur_indices)
from .reports import Case, Report

__version__ = "0.1.0"

# submodule -> its public names, imported on first use
_LAZY = {
    "charzero": ("RealValue", "dual_index", "mzdv_num", "mzv_num"),
    "dependence": ("DependenceProblem", "find_dependence", "recommended_precision"),
    "reduction": ("BasisVector", "IotaMatrix", "QuotientSpace", "Reducer", "TDecomposition"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, type(importlib))]
                 + list(_HOME))


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_LAZY))
