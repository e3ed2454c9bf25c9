"""Exact arithmetic for binary linear codes, harmonic weight enumerators,
and the combinatorial designs supported by their codewords.

Each layer is registered in ``sys.modules`` and as an attribute of this
package without being run: its module is compiled and executed when one of
its attributes is first read, so a command loads only the layers it uses.
Import names from the layer modules (``from amdesign.gf2core import dual``).
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

_LAYERS = ("gf2core", "ratlin", "polyring", "harmonic", "designs", "catalog", "verify")

for _name in _LAYERS:
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    _module = module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
del _name, _spec, _module
