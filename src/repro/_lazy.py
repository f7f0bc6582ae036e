"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package lists each public name with the submodule that defines it.
The submodule is imported the first time the name is read from the
package, so importing one module of a package (say
``repro.wdm.provisioning``) no longer imports every sibling that the
package re-exports.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    package: str, namespace: dict[str, Any], exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of *package*.

    *exports* maps each public name to the module that defines it,
    relative to *package* (``".network"``).  A resolved name is stored in
    *namespace* (the package's ``globals()``), so each is looked up once.
    """

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
