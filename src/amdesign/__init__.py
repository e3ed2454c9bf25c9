"""Exact arithmetic for binary linear codes, harmonic weight enumerators,
and the combinatorial designs supported by their codewords.

Each layer, and each command group of the CLI (``amdesign.commands``), is
registered in ``sys.modules`` and as an attribute of its package without
being run: its module is compiled and executed when one of its attributes is
first read, so a command loads only the layers it uses and its own group.
Import names from the layer modules (``from amdesign.gf2core import dual``).
"""

import __future__
import sys
from importlib.machinery import SourceFileLoader
from importlib.util import LazyLoader, cache_from_source, find_spec, module_from_spec
from os.path import isfile

__version__ = "0.1.0"

_LAYERS = ("gf2core", "ratlin", "polyring", "harmonic", "designs", "catalog", "verify")
# The CLI's command groups and the helpers they share.
_COMMAND_MODULES = ("common", "code", "design", "harmonic", "poly", "search", "verify")

# Compiling holds about 450 B per token of the source compiled at once, and a
# short command's largest compile sets its peak RSS; so a module compiled
# from source is compiled in runs of whole statements of at most this many
# bytes, which keeps each run of this package under about 900 tokens.
_RUN_BYTES = 4800
_FUTURE_FLAGS = sum(getattr(__future__, name).compiler_flag
                    for name in __future__.all_feature_names)


def _runs(source: bytes) -> list[bytes]:
    """The source cut into runs before column-0 def, class and decorator
    lines that follow a blank line, so never between a decorator and what
    it decorates. A run holds at most _RUN_BYTES bytes unless one statement
    is longer, and starts with the newlines before it, so that it compiles
    at its own line numbers. The cuts are found by searching the bytes:
    tokenize or ast would cost more memory than the cuts save."""
    cuts = []
    for key in (b"\n\ndef ", b"\n\nclass ", b"\n\n@"):
        at = source.find(key)
        while at >= 0:
            cuts.append(at + 2)
            at = source.find(key, at + 2)
    starts, last = [0], 0
    for cut in sorted(cuts) + [len(source)]:
        if cut - starts[-1] > _RUN_BYTES and last > starts[-1]:
            starts.append(last)
        last = cut
    return [b"\n" * source.count(b"\n", 0, start) + source[start:end]
            for start, end in zip(starts, starts[1:] + [len(source)])]


class _RunLoader(SourceFileLoader):
    """Without a bytecode cache to read or to write, compiles the module in
    the runs of _runs with the module's __future__ flags, and executes them
    in order in the module's namespace. Otherwise, or if a run does not
    compile, loads the module as usual."""

    def exec_module(self, module):
        if not sys.dont_write_bytecode or isfile(cache_from_source(self.path)):
            return super().exec_module(module)
        codes = []
        try:
            for run in _runs(self.get_data(self.path)):
                flags = codes[0].co_flags & _FUTURE_FLAGS if codes else 0
                codes.append(compile(run, self.path, "exec", flags, True))
        except SyntaxError:
            return super().exec_module(module)
        for code in codes:
            exec(code, module.__dict__)


for _name in (*_LAYERS, *(f"commands.{name}" for name in _COMMAND_MODULES)):
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_RunLoader(_spec.name, _spec.origin))
    _module = module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    _parent, _, _child = _spec.name.rpartition(".")
    setattr(sys.modules[_parent], _child, _module)
del _name, _spec, _module, _parent, _child
