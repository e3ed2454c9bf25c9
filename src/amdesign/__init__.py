"""Exact arithmetic for binary linear codes, harmonic weight enumerators,
and the combinatorial designs supported by their codewords.

Each layer, and each command group of the CLI (``amdesign.commands``), is
registered in ``sys.modules`` and as an attribute of its package without
being run: its module is compiled and executed when one of its attributes is
first read, so a command loads only the layers it uses and its own group.
Import names from the layer modules (``from amdesign.gf2core import dual``).
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# gf2base, hompoly, intersections and strength are the lower halves of
# gf2core, polyring, designs and verify, which re-export their names.
_LAYERS = ("gf2base", "gf2core", "ratlin", "hompoly", "polyring", "harmonic", "intersections",
           "designs", "catalog", "strength", "verify")
# The CLI's command groups and the helpers they share.
_COMMAND_MODULES = ("common", "code", "design", "harmonic", "poly", "search", "verify")

for _name in (*_LAYERS, *(f"commands.{name}" for name in _COMMAND_MODULES)):
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    _module = module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    _parent, _, _child = _spec.name.rpartition(".")
    setattr(sys.modules[_parent], _child, _module)
del _name, _spec, _module, _parent, _child
