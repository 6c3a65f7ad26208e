"""PEP 562 lazy exports for package ``__init__`` modules.

A package that re-exports names from its submodules would otherwise
import every submodule (and numpy behind some of them) whenever any one
of its modules is imported.  :func:`lazy_exports` resolves each exported
name on first attribute access instead and caches it in the package's
namespace, so ``from package import Name`` and ``package.Name`` behave
exactly as with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module path to the names it provides.
    """
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return sorted(origin), __getattr__, __dir__
