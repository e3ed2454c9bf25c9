"""Command-line front end: the parser of the table of commands and their
options (``amdesign.commands._COMMANDS``), and the dispatch to the command
bodies in amdesign.commands.

Exit codes: 0 success/verified, 1 property violated, 2 input or usage
error, 3 resource guard tripped.
"""

from __future__ import annotations

import atexit
import os
import sys
from types import SimpleNamespace

from . import commands
from .commands import _COMMANDS, _build_parser
# cli does not call weight_distribution: it holds a copy because the
# benchmark's tracing test checks that the shim rebinds this one too.
from .gf2core import EnumerationGuardError, SearchBudgetError, weight_distribution  # noqa: F401

__all__ = ["main", "run"]


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


def _cmd_group(args) -> int:
    """The subcommand's function, looked up by name in amdesign.commands when
    the command runs. Its first call compiles it (see amdesign/__init__.py)."""
    return getattr(commands, args.func)(args)


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
    # What exit runs, without the module teardown and last collection after it.
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            pass  # the reader is gone; run() has reported it if stderr was open
    os._exit(rc)


if __name__ == "__main__":
    main()
