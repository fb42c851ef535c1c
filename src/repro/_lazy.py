"""PEP 562 lazy re-exports, shared by the packages of ``repro``."""

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, exports: Dict[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    Each name in ``exports`` resolves from the named submodule of
    ``package`` on first access and is then kept in the package's
    namespace, so a run imports only the submodules it uses.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{module}", package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
