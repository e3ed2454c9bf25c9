"""Command-line front end: the table of commands and their options, its
parser, and the dispatch to the command bodies in amdesign.commands.

Exit codes: 0 success/verified, 1 property violated, 2 input or usage
error, 3 resource guard tripped.
"""

from __future__ import annotations

import gc
import os
import sys
from importlib import import_module
from types import SimpleNamespace

# cli does not call weight_distribution: it holds a copy because the
# benchmark's tracing test checks that the shim rebinds this one too.
from .gf2core import EnumerationGuardError, SearchBudgetError, weight_distribution  # noqa: F401

__all__ = ["main", "run"]


# Options as (flags, add_argument keywords): the output format, the inputs of
# the subcommands that read a code or a design, those inputs with the format,
# a required integer, and the options every search reads. A subcommand takes
# only the options it reads.
_FORMAT = (("--format", {"choices": ("text", "json"), "default": "text"}),)
_CODE_IN = (
    ("-g --generator", {"metavar": "FILE", "help": "generator matrix file"}),
    ("-b --builtin", {"metavar": "NAME",
                      "help": "builtin ('+'-composed) or stored code name"}))
_DESIGN_IN = (
    ("-d --design", {"metavar": "FILE", "required": True, "help": "design JSON file"}),)
_CODE = _FORMAT + _CODE_IN
_DESIGN = _FORMAT + _DESIGN_IN
_INT = {"type": int, "required": True}
_SEARCH = _FORMAT + (("--seed", {"type": int, "default": 0}),)

# group -> (help, {subcommand -> (command function, options)}). The function
# is named, not held: _cmd_group looks the name up in the group's module,
# amdesign.commands.<group>, when the command runs, so that module is loaded
# only then and a rebinding of the function there takes effect.
_COMMANDS = {
    "code": ("code-level operations", {
        "info": ("run_info", _CODE),
        "dual": ("run_dual", _CODE),
        "weights": ("run_weights", _CODE),
        "subcode": ("run_subcode", _CODE),
    }),
    "design": ("design-level operations", {
        "check": ("run_check", _DESIGN + (("--t", _INT),)),
        "from-code": ("run_from_code", _CODE_IN + (("--w", _INT),)),
        "complement": ("run_complement", _DESIGN_IN),
        "intersections": ("run_intersections",
                          _DESIGN + (("--block", {"type": int, "default": 0}),)),
        "mendelsohn": ("run_mendelsohn", _FORMAT + (
            ("--t", _INT), ("--v", _INT), ("--k", _INT), ("--lam", _INT), ("--m", _INT),
            ("--allowed", {"required": True, "metavar": "I,J,...",
                           "help": "comma-separated intersection sizes"}),
            ("--fixed", {"action": "append", "metavar": "I=N",
                         "help": "fix n_I to N (repeatable)"}),
            ("--limit", {"type": int}))),
    }),
    "harmonic": ("harmonic-function operations", {
        "basis-dim": ("run_basis_dim", _FORMAT + (("--n", _INT), ("--k", _INT))),
        "wenum": ("run_wenum", _CODE + (
            ("--k", _INT), ("--index", {"type": int, "default": 0}))),
        "transform-check": ("run_transform_check", _CODE + (("--k", _INT),)),
    }),
    "poly": ("invariant-polynomial operations", {
        "gleason": ("run_gleason", _CODE + (
            ("--t", {"type": int, "default": 0,
                     "help": "0: classical enumerator; else harmonic degree"}),
            ("--index", {"type": int, "default": 0}))),
        "lemma4.1": ("run_lemma41", _FORMAT + (
            ("--alpha-max", {"type": int, "default": 16}),)),
    }),
    "search": ("randomized seeded code searches", {
        "type1-16": ("run_type1", _SEARCH + (
            ("--max-iterations", {"type": int, "default": 1_000_000}),)),
        "fsd": ("run_fsd", _SEARCH + (
            ("--n", {"type": int, "default": 16}), ("--d", {"type": int, "default": 4}),
            ("--max-iterations", {"type": int, "default": 1_000_000}))),
    }),
    "verify": ("theorem scenarios", {
        "am": ("run_scenario", _CODE + (("--t", _INT),)),
        "thm1.1": ("run_scenario", _CODE),
        "thm1.2-1": ("run_scenario", _CODE + (
            ("-d --design", {"metavar": "FILE", "default": None,
                             "help": "substitute block multiset for the weight-6 design"}),)),
        "thm1.2-2": ("run_scenario", _CODE),
        "thm1.4": ("run_scenario", _DESIGN),
        "cor1.5": ("run_scenario", _CODE),
        "profile": ("run_scenario", _CODE + (("--t-cap", {"type": int, "default": 3}),)),
    }),
}


def _parse(argv):
    """argparse's namespace for a group, a subcommand and pairs of an exact flag
    and a value it takes; None for any other argv, which run() gives argparse."""
    group, name = (*argv[:2], None, None)[:2]
    func, options = _COMMANDS.get(group, ("", {}))[1].get(name, (None, ()))
    args, by_flag = {"command": group, "subcommand": name, "func": func}, {}
    for flags, keywords in options:
        flags = flags.split()
        dest = next((f for f in flags if f[1] == "-"), flags[0]).lstrip("-").replace("-", "_")
        args[dest] = keywords.get("default")
        by_flag.update(dict.fromkeys(flags, (dest, keywords)))
    missing = {dest for dest, keywords in by_flag.values() if keywords.get("required")}
    for flag, value in zip(argv[2::2], argv[3::2]):
        # argparse reads a value that starts with "-" only when it is a number.
        if flag not in by_flag or value[:1] == "-" and not value[1:].isdecimal():
            return None
        dest, keywords = by_flag[flag]
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        args[dest] = [*(args[dest] or ()), value] if keywords.get("action") == "append" else value
        missing.discard(dest)
    return None if func is None or len(argv) % 2 or missing else SimpleNamespace(**args)


def _build_parser():
    """The whole table in argparse: help, usage errors and what _parse refuses."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="amdesign",
        description="Exact tooling for binary codes, harmonic enumerators, "
                    "and the block designs they support.")
    top = parser.add_subparsers(dest="command", required=True, prog="amdesign")
    for group, (help_text, commands) in _COMMANDS.items():
        sub = top.add_parser(group, help=help_text).add_subparsers(
            dest="subcommand", required=True)
        for name, (func, options) in commands.items():
            p = sub.add_parser(name)
            for flags, keywords in options:
                p.add_argument(*flags.split(), **keywords)
            p.set_defaults(func=func)
    return parser


def _cmd_group(args) -> int:
    """The subcommand's function, run from its group's module. The first read
    of the module compiles and runs it (see amdesign/__init__.py)."""
    return getattr(import_module(f"amdesign.commands.{args.command}"), args.func)(args)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        # The dispatcher is read from this module when the command runs, so a
        # rebinding of it (as the benchmark's tracing shim makes) takes effect.
        rc = _cmd_group(args)
        # Output that a closed stdout refuses fails here, as one error.
        if sys.stdout is not None:
            sys.stdout.flush()
        return rc
    except (EnumerationGuardError, SearchBudgetError) as err:
        message, rc = f"resource guard: {err}", 3
    except (ValueError, LookupError, OSError) as err:
        # str() of a KeyError is the repr of its message, quotes and all.
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        message, rc = f"error: {message}", 2
    try:
        print(message, file=sys.stderr)
    except OSError:
        pass  # a closed stderr loses the line, not the exit code
    return rc


def main() -> None:
    rc = run()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            # The reader is gone (run() has reported it if stderr was open).
            # What the buffer holds goes to the null device, so the flush at
            # exit neither prints "Exception ignored" nor exits 120.
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    # The interpreter's shutdown collection skips frozen objects, so the
    # cycles of modules, classes and functions go back to the OS with the
    # process instead of being freed one object at a time. Never in run(),
    # which tests and tools call many times in one process.
    gc.freeze()
    sys.exit(rc)


if __name__ == "__main__":
    main()
