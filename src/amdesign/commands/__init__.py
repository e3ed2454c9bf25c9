"""The ``amdesign`` command table and its argparse parser, and the bodies of
the subcommands, one module per command group, with the helpers they share
(``common``). ``amdesign/__init__.py`` registers each module without running
it, so a command compiles only its own group. The table lives here, not in
``amdesign.cli``, because ``python -m amdesign.cli`` compiles cli whole.
"""

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
# is named, not held: cli._cmd_group looks the name up in the group's module,
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
                          _DESIGN + (("--block", {
                              "type": int, "default": 0,
                              "help": "0-based index of the reference block in the design's "
                                      "sorted block list, not in the file's order"}),)),
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


def _build_parser():
    """The whole table in argparse: help, usage errors and what cli._parse refuses."""
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
