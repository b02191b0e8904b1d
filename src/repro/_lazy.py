"""Package exports that load on first use (PEP 562).

A package ``__init__`` maps each exported name to its defining module
and binds the two hooks this returns::

    _EXPORTS = {"Name": "repro.pkg.module", ...}
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
    __all__ = list(_EXPORTS)

Importing the package then imports none of its submodules; reading an
exported name imports its module and stores the value in the package
namespace, so later reads are ordinary attribute lookups.  A name the
map does not hold raises ``AttributeError``, which is what lets
``hasattr(pkg, name)`` and ``from pkg import submodule`` behave as for
an eager package.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module-level ``(__getattr__, __dir__)`` of ``package``."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
