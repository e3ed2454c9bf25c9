"""src/ holds only what a command runs: every function defined in
src/amdesign runs under a fixed list of command lines, in text and in JSON,
unless ALLOWED names it with the reason it stays without a command caller.
And no command line reads a code's words twice: no line calls
gf2core._weight_leaves twice on one code unless EXCEPTIONS names its
subcommand with the reason.

The commands run in a new interpreter, in-process through amdesign.cli.run
under sys.setprofile, so no cache or lazy layer filled by an earlier test
hides a call."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import format_design

from amdesign.cli import _COMMANDS
from amdesign.designs import Design

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "amdesign"
_SPEC = importlib.util.spec_from_file_location("bench_shim", ROOT / "bench" / "shim.py")
shim = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(shim)

# Functions that no command runs, keyed "module.qualname", with the reason
# each one stays in src/.
_SHIM = "traced by bench/shim.py, which test_every_traced_name_exists requires"
ALLOWED = {
    "designs.t_design_violation": _SHIM,
    "designs.design_strength": _SHIM,
    "catalog.pinned_type_i_16": _SHIM,
    "catalog.pinned_even_fsd_16": _SHIM,
    "ratlin.rref": _SHIM,
    "ratlin.solve_columns": _SHIM,
    "ratlin.nullspace": _SHIM,
    "polyring.macwilliams_transform_classical": _SHIM,
    "harmonic.HarmonicFunction.tilde": _SHIM,
    "catalog.save_code": "the pin API that pins the n=24 codes of ROADMAP item 4",
    "cli.main": ("runs as __main__ and as the amdesign console script, never "
                 "through cli.run; the subprocess tests in test_cli.py run it"),
    # Record is a value type: these keep hashing, printing, immutability and
    # pickling correct for every subclass, though no command uses them.
    "gf2core.Record.__hash__": "value semantics of every Record",
    "gf2core.Record.__repr__": "value semantics of every Record",
    "gf2core.Record.__setattr__": "value semantics of every Record",
    "gf2core.Record.__delattr__": "value semantics of every Record",
    "gf2core.Record.__reduce__": "value semantics of every Record",
}

# Subcommands ("group name") whose lines read some code's words more than
# once, each with the reason and the ROADMAP item that lifts it. The map only
# shrinks: an entry with a line that reads each code once fails the gate.
EXCEPTIONS = {
    "verify thm1.1": ("classify walks the code for d before the slice, since slicing "
                      "first would hold 2^k-bit masks for codes classify refuses "
                      "(ROADMAP item 2)"),
    "verify thm1.2-2": ("bench/test_bench.py pins its 8 walks, which reading the joined "
                        "slice would lower (ROADMAP items 1a and 5)"),
}

# Each line runs as given and, where the subcommand takes --format, again
# with --format json. Lines that exit nonzero reach the error paths, and
# "--builtin=e8" the argparse parser, which reads what cli._parse leaves.
COMMANDS = [
    ["code", "info", "-b", "i2+d4+e8"],
    ["code", "dual", "-b", "e8"],
    ["code", "weights", "-b", "type1_16"],
    ["code", "subcode", "-b", "type1_16"],
    ["code", "info"],
    ["code", "info", "-g", "e8.gm", "-b", "e8"],
    ["code", "info", "-b", "missing"],
    ["code", "info", "--builtin=e8"],
    ["design", "check", "-d", "c6.json", "--t", "2"],
    ["design", "check", "-d", "mutant.json", "--t", "2"],
    ["design", "check", "-d", "unsorted.json", "--t", "0"],
    ["design", "check", "-d", "unsorted.json", "--t", "2"],
    ["design", "from-code", "-g", "e8.gm", "--w", "4"],
    ["design", "complement", "-d", "c6.json"],
    ["design", "intersections", "-d", "c6.json"],
    ["design", "mendelsohn", "--t", "2", "--v", "16", "--k", "6", "--lam", "8",
     "--m", "6", "--allowed", "0,2,4,6", "--fixed", "6=1"],
    ["harmonic", "basis-dim", "--n", "16", "--k", "2"],
    ["harmonic", "basis-dim", "--n", "100000", "--k", "50000"],
    ["harmonic", "wenum", "-b", "type1_16", "--k", "2", "--index", "3"],
    ["harmonic", "transform-check", "-b", "e8", "--k", "1"],
    ["poly", "gleason", "-b", "type1_16"],
    ["poly", "gleason", "-b", "type1_16", "--t", "1"],
    ["poly", "gleason", "-g", "open.gm"],
    ["poly", "lemma4.1", "--alpha-max", "8"],
    ["search", "type1-16"],
    ["search", "type1-16", "--seed", "3"],
    ["search", "fsd"],
    ["search", "fsd", "--seed", "7"],
    ["verify", "am", "-g", "e8.gm", "--t", "1"],
    ["verify", "thm1.1", "-b", "type1_16"],
    ["verify", "thm1.1", "-b", "fsd_16"],
    ["verify", "thm1.2-1", "-b", "type1_16"],
    ["verify", "thm1.2-1", "-b", "type1_16", "-d", "c6.json"],
    ["verify", "thm1.2-2", "-b", "fsd_16"],
    ["verify", "thm1.4", "-d", "c6.json"],
    ["verify", "cor1.5", "-b", "type1_16"],
    ["verify", "profile", "-b", "type1_16"],
]

_SCRIPT = """
import contextlib, io, json, sys
argvs = json.loads(sys.argv[1])
seen = set()

def profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

sys.setprofile(profile)
import amdesign.cli
from amdesign.gf2core import _weight_leaves
reads = []

def counted(c):
    reads[-1].append([c.n, c.basis])
    return _weight_leaves(c)

# Rebound in every module that holds a copy, each lazy layer loaded for it.
held = sorted(name for name, mod in list(sys.modules.items())
              if name.startswith("amdesign.")
              and getattr(mod, "_weight_leaves", None) is _weight_leaves)
for name in held:
    sys.modules[name]._weight_leaves = counted
codes = []
for argv in argvs:
    reads.append([])
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(amdesign.cli.run(argv))
sys.setprofile(None)
print(json.dumps([codes, sorted({(c.co_filename, c.co_firstlineno) for c in seen}),
                  reads, held]))
"""


def _takes_format(argv):
    options = _COMMANDS[argv[0]][1][argv[1]][1]
    return any(flags == "--format" for flags, _ in options)


def _functions():
    """(file, first line) -> "module.qualname" of every def in src/amdesign
    and its subpackages (module dotted from src/amdesign), methods and nested
    functions included; a decorated function's code starts at its first
    decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), line)] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        visit(ast.parse(path.read_text()), path, module + ".")
    return found


@pytest.fixture(scope="module")
def reach(tmp_path_factory, c6):
    root = tmp_path_factory.mktemp("reach")
    (root / "e8.gm").write_text("11111111\n00001111\n00110011\n01010101\n")
    # An enumerator x^4 + x^2y^2 outside the span of (x^2+y^2)^2.
    (root / "open.gm").write_text("1100\n")
    (root / "c6.json").write_text(format_design(c6) + "\n")
    # pair {1, 2} is covered once, pair {1, 4} never
    (root / "mutant.json").write_text(format_design(Design(4, ((1, 2), (1, 3)))) + "\n")
    # Blocks out of order, with points out of order and one block twice.
    (root / "unsorted.json").write_text(
        json.dumps({"v": 4, "blocks": [[3, 4], [2, 1], [4, 2], [1, 3], [3, 4]]}) + "\n")
    argvs = [variant for argv in COMMANDS
             for variant in ([argv, argv + ["--format", "json"]]
                             if _takes_format(argv) else [argv])]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("AMDESIGN_DATA", None)
    out = subprocess.run([sys.executable, "-c", _SCRIPT, json.dumps(argvs)], env=env,
                         cwd=root, capture_output=True, text=True, check=True).stdout
    codes, seen, reads, held = json.loads(out)
    assert held == ["amdesign.gf2core", "amdesign.harmonic", "amdesign.verify"]
    lines = list(map(" ".join, argvs))
    return (dict(zip(lines, codes)), {tuple(s) for s in seen},
            {line: [(n, tuple(basis)) for n, basis in r] for line, r in zip(lines, reads)})


def test_the_command_list_covers_every_subcommand():
    listed = {(argv[0], argv[1]) for argv in COMMANDS}
    assert listed == {(group, name) for group, (_, table) in _COMMANDS.items()
                      for name in table}


def test_the_command_list_reaches_its_error_paths(reach):
    codes, _, _ = reach
    assert set(codes.values()) == {0, 1, 2, 3}
    assert codes["harmonic basis-dim --n 100000 --k 50000 --format json"] == 3
    assert codes["poly gleason -g open.gm"] == 1


def test_every_function_in_src_runs_under_a_command(reach):
    _, seen, _ = reach
    functions = _functions()
    ran = {name for key, name in functions.items() if key in seen}
    never = sorted(set(functions.values()) - ran - set(ALLOWED))
    assert never == [], f"no command runs {never}: delete them or give them a caller"


def test_every_shim_reason_names_a_traced_name():
    # Once the shim stops tracing a name, its entry here must go too.
    traced = {f"{layer}.{name}" for layer, names in shim.LAYERS.items() for name in names}
    traced |= {f"{layer}.{cls}.{name}" for layer, cls, name in shim.METHODS}
    assert sorted(name for name, reason in ALLOWED.items()
                  if reason == _SHIM and name not in traced) == []


def test_allowed_names_exist_and_still_have_no_command_caller(reach):
    _, seen, _ = reach
    functions = _functions()
    assert set(ALLOWED) <= set(functions.values())
    assert sorted(name for key, name in functions.items()
                  if key in seen and name in ALLOWED) == []


def _reads_a_code_twice(reach):
    """Line -> whether it reads some code's words more than once."""
    _, _, reads = reach
    return {line: len(set(codes)) < len(codes) for line, codes in reads.items()}


def test_no_command_reads_a_code_twice(reach):
    twice = _reads_a_code_twice(reach)
    assert sorted(line for line, again in twice.items()
                  if again and " ".join(line.split()[:2]) not in EXCEPTIONS) == []


def test_every_exception_still_reads_a_code_twice(reach):
    # Once a subcommand reads each code once, its entry here must go too.
    twice = _reads_a_code_twice(reach)
    assert all("ROADMAP item" in reason for reason in EXCEPTIONS.values())
    assert set(EXCEPTIONS) <= {" ".join(argv[:2]) for argv in COMMANDS}
    assert sorted(line for line, again in twice.items()
                  if not again and " ".join(line.split()[:2]) in EXCEPTIONS) == []
