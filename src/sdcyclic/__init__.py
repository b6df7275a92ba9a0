"""Self-dual cyclic and negacyclic codes of length p^s (p an odd prime)
over the chain ring F_{p^m} + u F_{p^m} with u^2 = 0: exact construction,
streaming enumeration, closed-form counting, and an independent
verification engine.

Importing the package runs no submodule: each one is registered in
``sys.modules`` and as an attribute here, and its body runs on its first
attribute read, so a command compiles only the modules it uses.  The
public names below resolve through the module ``__getattr__``.
"""

import sys
import threading
import types
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

__version__ = "0.1.0"

__all__ = [
    "CaseDescriptor",
    "CodeSpec",
    "FieldSpec",
    "FqElem",
    "RElem",
    "RIdealGens",
    "RVector",
    "XPoly",
    "basis_convert",
    "binom_mod_p",
    "build_code",
    "build_g_direct",
    "build_g_kron",
    "classify_cases",
    "count_self_dual",
    "descriptor_codes",
    "descriptor_count",
    "enumerate_codes",
    "find_irreducible",
    "g_entry",
    "g_truncated",
    "is_prime",
    "is_self_dual",
    "is_self_orthogonal",
    "min_level",
    "sample_codes",
    "solution_basis",
    "solution_column",
    "span_dimension",
    "to_negacyclic",
]

# The submodule each public name is read from.
_HOME = {
    name: module
    for module, names in (
        ("fieldcore", ("FieldSpec", "FqElem", "find_irreducible", "is_prime")),
        ("binomial", ("binom_mod_p", "g_entry")),
        ("gmatrix", ("build_g_direct", "build_g_kron", "g_truncated", "min_level", "solution_column")),
        ("reciprocal", ("XPoly", "solution_basis", "basis_convert")),
        ("counting", ("CaseDescriptor", "classify_cases", "descriptor_count", "count_self_dual")),
        ("enumerator", ("CodeSpec", "descriptor_codes", "build_code", "enumerate_codes", "sample_codes", "to_negacyclic")),
        ("chainring", ("RElem", "RVector", "RIdealGens", "span_dimension", "is_self_orthogonal", "is_self_dual")),
    )
    for name in names
}

# One lock for every first read: a body that imports another submodule
# runs it in the same thread, which the lock lets in again.
_lock = threading.RLock()
_unrun = {}  # full name -> spec, for each registered module not yet run


class _Unrun(types.ModuleType):
    """A registered submodule whose body has not run.  Any attribute read,
    ``vars()`` and the import system's ``__spec__`` read included, runs
    the body under ``_lock`` and makes the module a plain one.  Reads made
    by the body's own imports while it runs see the module as filled so
    far, as in an ordinary import; reads from other threads wait for the
    lock, so they find the module whole.  (``importlib.util.LazyLoader``
    takes no lock before Python 3.12.)"""

    def __getattribute__(self, name):
        with _lock:
            spec = _unrun.pop(types.ModuleType.__getattribute__(self, "__name__"), None)
            if spec is not None:
                try:
                    spec.loader.exec_module(self)
                except BaseException:
                    _unrun[spec.name] = spec
                    raise
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, name)


def _register(name: str) -> None:
    spec = PathFinder.find_spec(f"{__name__}.{name}", __path__)
    module = module_from_spec(spec)
    module.__class__ = _Unrun
    _unrun[spec.name] = spec
    sys.modules[spec.name] = module
    globals()[name] = module


for _name in ("fieldcore", "binomial", "counting", "gmatrix", "reciprocal", "chainring", "enumerator"):
    _register(_name)
del _name


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[home], name)
    globals()[name] = value
    return value

