"""Exact singular vectors in vacuum modules over affine Lie algebras.

The package builds symplectic (type C) and special linear (type A) structure
tables from an oscillator realization, straightens words of affine modes
acting on the vacuum, constructs determinant-shaped singular vectors, and
verifies their expected properties with exact rational arithmetic: the
annihilation conditions, the lowering-factor identity, the projection onto
the enveloping algebra, the oscillator image, and the sp_6 top-level
classification.

Importing the package loads none of its modules.  The names in __all__ and
the submodules (affine_singular.liealg and so on) load on first use, so a
command-line run pays only for the modules its subcommand needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each top-level name and the module that defines it
_HOMES = {
    "DeterminantSpec": "spec", "build_algebra": "liealg", "classify_sp6": "category_o",
    "determinant_vector": "determinants", "lowering_factor_check": "determinants",
    "verify_singular": "determinants", "verify_weyl_vanishing": "zhu",
    "verify_zhu_generator": "zhu", "weyl_dim": "weights",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """Resolve a top-level name or a submodule on first use (PEP 562)."""
    if name in _HOMES:
        value = getattr(import_module("." + _HOMES[name], __name__), name)
        globals()[name] = value
        return value
    if not name.startswith("__"):
        try:
            return import_module("." + name, __name__)  # also binds it as an attribute
        except ModuleNotFoundError as exc:
            if exc.name != "%s.%s" % (__name__, name):
                raise  # a submodule that exists failed to import
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
