"""Package names that resolve on first access (PEP 562).

Every package ``__init__`` hands :func:`lazy_exports` one table from each
submodule to the public names it exports. Nothing is imported until a
name is read: the first read imports that name's submodule and keeps the
value in the package namespace, so later reads are plain lookups. A run
loads only the modules whose names it uses.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str,
    namespace: Dict[str, Any],
    table: Mapping[str, Sequence[str]],
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, whose globals
    are ``namespace``: ``table`` maps a submodule to the names it exports.
    A name equal to its submodule's (``repro.core``) is the submodule."""
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        path = f"{package}.{module}"
        # the import statement's own machinery (importlib.import_module
        # bypasses it), so ``-X importtime`` reports the submodule
        __import__(path)
        value = sys.modules[path]
        if name != module:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *where})

    return sorted(where), __getattr__, __dir__
