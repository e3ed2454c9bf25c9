"""What the command groups share: the input code and the printed payload.

These live outside ``amdesign.cli`` because ``python -m amdesign.cli`` runs
cli as ``__main__``: a group module that imported from ``amdesign.cli`` would
compile and run cli a second time.
"""

from __future__ import annotations

import json
import sys

from .. import catalog
from ..gf2core import BinaryCode, PreconditionError, format_generator, read_generator_file


def read_code(args) -> BinaryCode:
    if args.generator and args.builtin:
        raise PreconditionError("pass either -g FILE or -b NAME, not both")
    if args.generator:
        return read_generator_file(args.generator)
    if args.builtin:
        # A "+" composes a direct sum of builtins; no stored name holds one.
        name = args.builtin
        if "+" in name or name in catalog.BUILTIN_NAMES:
            return catalog.builtin(name)
        return catalog.load_code(name)
    raise PreconditionError("a code is required: pass -g FILE or -b NAME")


def print_payload(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def print_code(args, c: BinaryCode, payload: dict) -> int:
    """The generator rows as text, or the payload as one line of JSON."""
    if args.format == "json":
        print(json.dumps(payload))
    else:
        sys.stdout.write(format_generator(c))
    return 0
