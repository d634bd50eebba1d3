"""Lazy package namespaces (PEP 562).

Each package under :mod:`repro` re-exports the public names of its
modules, but imports a name's defining module only when the name is
first read: ``from repro.core import HUPTestbed`` loads
:mod:`repro.core.api` and what that imports, nothing else.  A run thus
loads only its own call graph (DESIGN.md §3), which keeps cold start
cheap when no bytecode cache is written.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """The ``__all__``, ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each submodule of ``package`` to the names the
    package re-exports from it.  Reading a name imports its submodule
    once and binds the value in the package, so later reads are plain
    attribute lookups.
    """
    origins: Dict[str, str] = {
        name: f"{package}.{submodule}"
        for submodule, names in exports.items()
        for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            module = origins[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origins))

    return list(origins), __getattr__, __dir__
