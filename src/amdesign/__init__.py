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
from functools import partial
from importlib.machinery import SourceFileLoader
from importlib.util import LazyLoader, cache_from_source, module_from_spec, spec_from_file_location
from os.path import isfile, join
from types import FunctionType

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
# How each line of a def after its first starts: indented, blank, a comment,
# or the close of its signature.
_INSIDE_DEF = (b"\n ", b"\n\t", b"\n\n", b"\n#", b"\n)")


def _runs(source):
    """The source cut into runs of whole top-level statements, as [name,
    start, end]: name is None for a run compiled at import, else the name of
    the def that is the run. Cuts fall before each column-0 line after a
    blank line, outside triple-quoted strings; an undecorated def alone
    between two cuts is a run, and the rest joins into runs of at most
    _RUN_BYTES unless one piece is longer. The bytes are searched: tokenize
    or ast would cost more memory than the cuts save. A cut inside brackets
    leaves a run that does not compile, and the file is then compiled
    whole."""
    cuts, quotes, at = [0], 0, 0
    for part in source.split(b"\n\n"):
        rest = part.lstrip(b"\n")
        if at and quotes % 2 == 0 and rest[:1] not in b" \t)]}":
            cuts.append(at + len(part) - len(rest))
        quotes += rest.count(b'"""') + rest.count(b"'''")
        at += len(part) + 2
    runs = []
    for start, end in zip(cuts, cuts[1:] + [len(source)]):
        text = source[start:end].rstrip(b"\n") if source.startswith(b"def ", start) else b""
        name = text[4:text.find(b"(")].decode("ascii", "replace").strip()
        if not name.isidentifier() or text.count(b"\n") != sum(map(text.count, _INSIDE_DEF)):
            name = None
        if name or not runs or runs[-1][0] or end - runs[-1][1] > _RUN_BYTES:
            runs.append([name, start, end])
        else:
            runs[-1][2] = end
    return runs


def _at_its_lines(source, start, end):
    """source[start:end] after the newlines before it, to compile at its lines."""
    return b"\n" * source.count(b"\n", 0, start) + source[start:end]


def _define(f, source, start, end, path, flags, args, kwargs):
    """Compiles the def at source[start:end] in a namespace of its own, so
    that the module's binding of the name stands, moves the new function
    onto the placeholder f, and calls f. A def that does not compile raises
    the whole file's first error, as the default loader does."""
    try:
        code = compile(_at_its_lines(source, start, end), path, "exec", flags, True)
    except SyntaxError:
        compile(source, path, "exec", dont_inherit=True)
        raise
    defined = {}
    exec(code, f.__globals__, defined)
    new = defined[f.__name__]
    # The __dict__ of a new undecorated function is empty: f keeps its own.
    for name in ("__code__", "__defaults__", "__kwdefaults__", "__doc__", "__annotations__"):
        setattr(f, name, getattr(new, name))
    return f(*args, **kwargs)


def _placeholder(*args, _deferred, **kwargs):
    return _deferred(args, kwargs)


class _RunLoader(SourceFileLoader):
    """Without a bytecode cache to read or to write, compiles the module's
    runs with its __future__ flags and executes them in order in its
    namespace; a def that is a run is bound instead to a placeholder, which
    its first call turns into the def. Otherwise, or if a run does not
    compile, loads the module as usual."""

    def exec_module(self, module):
        if not sys.dont_write_bytecode or isfile(cache_from_source(self.path)):
            return super().exec_module(module)
        source, path, namespace = self.get_data(self.path), self.path, module.__dict__
        units, flags = [], 0
        try:
            for name, start, end in _runs(source):
                if name:
                    f = FunctionType(_placeholder.__code__, namespace, name)
                    f.__qualname__ = name
                    f.__kwdefaults__ = {"_deferred": partial(_define, f, source, start, end,
                                                             path, flags)}
                    units.append(f)
                    continue
                code = compile(_at_its_lines(source, start, end), path, "exec", flags, True)
                # A __future__ import past the file's first run is an error.
                if start and code.co_flags & _FUTURE_FLAGS != flags:
                    raise SyntaxError
                flags = code.co_flags & _FUTURE_FLAGS
                units.append(code)
        except SyntaxError:
            return super().exec_module(module)
        for unit in units:
            if type(unit) is FunctionType:
                namespace[unit.__name__] = unit
            else:
                exec(unit, namespace)


for _name in (*_LAYERS, *(f"commands.{name}" for name in _COMMAND_MODULES)):
    _spec = spec_from_file_location(f"{__name__}.{_name}",
                                    join(__path__[0], *_name.split(".")) + ".py")
    _parent, _, _child = _spec.name.rpartition(".")
    # The package of the command groups runs at import, unlike its modules.
    __import__(_parent)
    _spec.loader = LazyLoader(_RunLoader(_spec.name, _spec.origin))
    _module = module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    setattr(sys.modules[_parent], _child, _module)
del _name, _spec, _module, _parent, _child
