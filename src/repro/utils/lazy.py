"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports its submodules' names eagerly makes
``import repro.pkg.light_module`` pay for every heavy sibling.  With

    __getattr__, __dir__ = lazy_exports(__name__, {"Name": "submodule"})

``repro.pkg.Name`` (and ``from repro.pkg import Name``) imports the
defining submodule on first access instead.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(package: str, exports: Dict[str, str]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Module ``__getattr__``/``__dir__`` resolving ``exports`` (public
    name -> submodule of ``package``) on first access."""

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        return getattr(import_module(f"{package}.{module}"), name)

    def __dir__() -> List[str]:
        return sorted(set(vars(import_module(package))) | set(exports))

    return __getattr__, __dir__
