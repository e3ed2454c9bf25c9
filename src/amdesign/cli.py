"""Command-line front end: load codes and designs, run the library
operations and theorem scenarios, print text or JSON reports.

Exit codes: 0 success/verified, 1 property violated, 2 input or usage
error, 3 resource guard tripped.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from types import SimpleNamespace

# Every command needs gf2core. The other layers load on their first attribute
# read (see amdesign/__init__.py), so they are called through the module and
# a command loads only the layers it runs.
from . import catalog, designs, harmonic, polyring, verify
from .gf2core import (
    BinaryCode,
    EnumerationGuardError,
    PreconditionError,
    SearchBudgetError,
    classify,
    doubly_even_subcode,
    dual,
    exact_json,
    format_generator,
    read_generator_file,
    weight_distribution,
)

__all__ = ["main", "run"]


def _load_code(args) -> BinaryCode:
    if args.generator and args.builtin:
        raise PreconditionError("pass either -g FILE or -b NAME, not both")
    if args.generator:
        return read_generator_file(args.generator)
    if args.builtin:
        name = args.builtin
        if all(part in catalog.BUILTIN_NAMES for part in name.split("+")):
            return catalog.builtin(name)
        return catalog.load_code(name)
    raise PreconditionError("a code is required: pass -g FILE or -b NAME")


def _print_payload(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _print_code(args, c: BinaryCode, payload: dict) -> int:
    """The generator rows as text, or the payload as one line of JSON."""
    if args.format == "json":
        print(json.dumps(payload))
    else:
        sys.stdout.write(format_generator(c))
    return 0


def _emit_report(args, rep, started: float) -> int:
    envelope = rep.to_dict()
    envelope["timings"] = {"total_ms": (time.perf_counter() - started) * 1000.0}
    if args.format == "json":
        print(json.dumps(envelope, indent=2))
    elif rep.scenario == "profile":
        w = rep.witnesses
        print("per weight: " + " ".join(f"{k}:{t}" for k, t in w["per_weight"].items()))
        print(f"delta = {w['delta']}, s = {w['s']}")
    else:
        print(f"scenario: {rep.scenario}")
        print(f"verdict: {rep.verdict}")
        print("witnesses: " + json.dumps(rep.witnesses, indent=2))
    return 0 if rep.passed else 1


# ---------------------------------------------------------------- code


def _cmd_code_info(args) -> int:
    c = _load_code(args)
    wd = weight_distribution(c)
    cls = classify(c)
    dist = wd.min_nonzero() if c.dimension else None
    payload = {
        "length": c.n,
        "dimension": c.dimension,
        "size": c.size,
        "minimum_distance": dist,
        "class": cls.fields(),
        "weight_distribution": {str(w): a for w, a in sorted(wd.counts.items())},
    }
    flags = [name for name, value in cls.fields().items() if value is True]
    _print_payload(args, payload, [
        f"length: {c.n}",
        f"dimension: {c.dimension}",
        f"size: {c.size}",
        f"minimum distance: {dist}",
        f"class: {', '.join(flags) or 'none'}; extremality: {cls.extremality}",
        "weights: " + " ".join(f"{w}:{a}" for w, a in sorted(wd.counts.items())),
    ])
    return 0


def _cmd_code_dual(args) -> int:
    c = dual(_load_code(args))
    return _print_code(args, c, {"length": c.n, "rows": format_generator(c).split()})


def _cmd_code_weights(args) -> int:
    wd = weight_distribution(_load_code(args))
    payload = {"weight_distribution": {str(w): a for w, a in sorted(wd.counts.items())}}
    _print_payload(args, payload,
                   [f"{w} {a}" for w, a in sorted(wd.counts.items())])
    return 0


def _cmd_code_subcode(args) -> int:
    c = doubly_even_subcode(_load_code(args))
    return _print_code(args, c, {"length": c.n, "dimension": c.dimension,
                                 "rows": format_generator(c).split()})


# ---------------------------------------------------------------- design


def _cmd_design_check(args) -> int:
    d = designs.read_design_file(args.design)
    lam, violation = designs._t_design_check(d, args.t)
    payload = {"v": d.v, "k": d.k, "b": d.b, "t": args.t,
               "lambda": lam, "violation": None}
    lines = [f"v={d.v} k={d.k} b={d.b}"]
    if lam is None:
        payload["violation"] = exact_json(violation)
        pts1, c1, pts2, c2 = violation
        lines.append(f"not a {args.t}-design: {pts1} covered {c1} times, "
                     f"{pts2} covered {c2} times")
    else:
        lines.append(f"{args.t}-design with lambda = {lam}")
    _print_payload(args, payload, lines)
    return 0 if lam is not None else 1


def _cmd_design_from_code(args) -> int:
    d = designs.support_design(_load_code(args), args.w)
    print(designs.format_design(d))
    return 0


def _cmd_design_complement(args) -> int:
    d = designs.complement_design(designs.read_design_file(args.design))
    print(designs.format_design(d))
    return 0


def _cmd_design_intersections(args) -> int:
    d = designs.read_design_file(args.design)
    profile = designs.intersection_profile(d, args.block)
    nonzero = {i: m for i, m in profile.as_dict().items() if m}
    payload = {"block": args.block, "profile": {str(i): m for i, m in nonzero.items()}}
    _print_payload(args, payload,
                   [f"m_{i} = {m}" for i, m in sorted(nonzero.items())])
    return 0


def _cmd_design_mendelsohn(args) -> int:
    try:
        allowed = sorted(int(x) for x in args.allowed.split(","))
    except ValueError:
        raise ValueError(f"--allowed expects I,J,..., got {args.allowed!r}") from None
    for i, j in zip(allowed, allowed[1:]):
        if i == j:
            raise ValueError(f"--allowed gives {i} twice")
    fixed = {}
    for item in args.fixed or ():
        key, _, value = item.partition("=")
        try:
            i, n_i = int(key), int(value)
        except ValueError:
            raise ValueError(f"--fixed expects I=N, got {item!r}") from None
        if i in fixed:
            raise ValueError(f"--fixed gives n_{i} twice")
        fixed[i] = n_i
    solutions = designs.mendelsohn_solve(args.t, args.v, args.k, args.lam, args.m,
                                         allowed, fixed or None, limit=args.limit)
    lambdas = [str(designs.lambda_i(args.t, args.v, args.k, args.lam, j))
               for j in range(args.t + 1)]
    payload = {"allowed": allowed, "lambda_j": lambdas,
               "solutions": [list(s) for s in solutions]}
    lines = ["n_" + " n_".join(str(i) for i in allowed)]
    lines += [" ".join(str(x) for x in s) for s in solutions]
    lines.append(f"{len(solutions)} solution(s)")
    _print_payload(args, payload, lines)
    return 0


# ---------------------------------------------------------------- harmonic


def _cmd_harmonic_basis_dim(args) -> int:
    dim = harmonic.harm_dimension(args.n, args.k)
    _print_payload(args, {"n": args.n, "k": args.k, "dimension": dim}, [str(dim)])
    return 0


def _cmd_harmonic_wenum(args) -> int:
    c = _load_code(args)
    basis = harmonic.harm_basis(c.n, args.k)
    if not 0 <= args.index < len(basis):
        raise PreconditionError(
            f"index out of range: Harm_{args.k}({c.n}) has {len(basis)} basis functions")
    w = harmonic.harmonic_weight_enumerator(c, basis[args.index])
    payload = {"k": args.k, "index": args.index, "degree": w.degree,
               "coefficients": [str(x) for x in w.coeffs], "zero": w.is_zero}
    _print_payload(args, payload, [str(w)])
    return 0


def _cmd_harmonic_transform_check(args) -> int:
    c = _load_code(args)
    dual_code = dual(c)
    basis = harmonic.harm_basis(c.n, args.k)
    images = [harmonic.bachoc_transform(w.divide_xy(args.k), args.k, c.size, c.n)
              for w in harmonic.harmonic_weight_enumerators(c, basis)]
    mismatches = [idx for idx, (image, w) in enumerate(
                      zip(images, harmonic.harmonic_weight_enumerators(dual_code, basis)))
                  if image != w.divide_xy(args.k)]
    count = len(basis)
    payload = {"k": args.k, "functions": count, "mismatches": mismatches}
    _print_payload(args, payload, [
        f"{count} basis function(s), {len(mismatches)} mismatch(es)"])
    return 0 if not mismatches else 1


# ---------------------------------------------------------------- poly


def _cmd_poly_gleason(args) -> int:
    c = _load_code(args)
    if args.t == 0:
        p = polyring.weight_enumerator_poly(weight_distribution(c), c.n)
    else:
        basis = harmonic.harm_basis(c.n, args.t)
        if not 0 <= args.index < len(basis):
            raise PreconditionError(
                f"index out of range: Harm_{args.t}({c.n}) has {len(basis)} basis functions")
        p = harmonic.zcf(c, basis[args.index])
    try:
        coeffs = polyring.gleason_decompose(p, args.t, c.n)
    except polyring.SpanError as err:
        payload = {"t": args.t, "in_span": False,
                   "residual": [str(x) for x in err.residual.coeffs]}
        _print_payload(args, payload, [f"outside the invariant span: {err}"])
        return 1
    payload = {"t": args.t, "in_span": True,
               "coefficients": [str(x) for x in coeffs]}
    _print_payload(args, payload,
                   ["coefficients: " + " ".join(str(x) for x in coeffs)])
    return 0


def _cmd_poly_lemma41(args) -> int:
    pairs = polyring.vanishing_coefficient_search(args.alpha_max)
    payload = {"alpha_max": args.alpha_max, "pairs": [list(p) for p in pairs]}
    _print_payload(args, payload,
                   [f"alpha={a} i={i}" for a, i in pairs])
    return 0


# ---------------------------------------------------------------- search


def _search_payload(args, c: BinaryCode) -> int:
    wd = weight_distribution(c)
    return _print_code(args, c, {
        "length": c.n,
        "dimension": c.dimension,
        "rows": format_generator(c).split(),
        "weight_distribution": {str(w): a for w, a in sorted(wd.counts.items())},
    })


def _cmd_search_type1(args) -> int:
    cfg = catalog.SearchConfig(seed=args.seed, max_iterations=args.max_iterations)
    return _search_payload(args, catalog.search_type_i_16(cfg))


def _cmd_search_fsd(args) -> int:
    cfg = catalog.SearchConfig(seed=args.seed, max_iterations=args.max_iterations)
    return _search_payload(args, catalog.search_even_fsd(args.n, args.d, cfg))


# ---------------------------------------------------------------- verify


def _verify_thm121(args):
    c6 = designs.read_design_file(args.design) if args.design else None
    return verify.verify_thm_1_2_type1(_load_code(args), c6)


def _verify_profile(args):
    prof = verify.strength_profile(_load_code(args), args.t_cap)
    return verify.report("profile", True,
                         {"per_weight": prof.per_weight, "delta": prof.delta, "s": prof.s})


# The report of each verify subcommand. Verifiers are looked up in verify when
# the command runs, so a rebinding of a verifier there takes effect.
_VERIFIERS = {
    "am": lambda args: verify.assmus_mattson_check(_load_code(args), args.t),
    "thm1.1": lambda args: verify.verify_thm_1_1(_load_code(args)),
    "thm1.2-1": _verify_thm121,
    "thm1.2-2": lambda args: verify.verify_thm_1_2_fsd(_load_code(args)),
    "thm1.4": lambda args: verify.verify_thm_1_4_pipeline(
        designs.read_design_file(args.design)),
    "cor1.5": lambda args: verify.verify_cor_1_5(_load_code(args)),
    "profile": _verify_profile,
}


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    return _emit_report(args, _VERIFIERS[args.subcommand](args), started)


# ---------------------------------------------------------------- wiring


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

# group -> (help, {subcommand -> (command function, options)}). The functions
# are named, not held: run() looks the name up in this module when it
# dispatches, so a rebinding of a _cmd_* function takes effect.
_COMMANDS = {
    "code": ("code-level operations", {
        "info": ("_cmd_code_info", _CODE),
        "dual": ("_cmd_code_dual", _CODE),
        "weights": ("_cmd_code_weights", _CODE),
        "subcode": ("_cmd_code_subcode", _CODE),
    }),
    "design": ("design-level operations", {
        "check": ("_cmd_design_check", _DESIGN + (("--t", _INT),)),
        "from-code": ("_cmd_design_from_code", _CODE_IN + (("--w", _INT),)),
        "complement": ("_cmd_design_complement", _DESIGN_IN),
        "intersections": ("_cmd_design_intersections",
                          _DESIGN + (("--block", {"type": int, "default": 0}),)),
        "mendelsohn": ("_cmd_design_mendelsohn", _FORMAT + (
            ("--t", _INT), ("--v", _INT), ("--k", _INT), ("--lam", _INT), ("--m", _INT),
            ("--allowed", {"required": True, "metavar": "I,J,...",
                           "help": "comma-separated intersection sizes"}),
            ("--fixed", {"action": "append", "metavar": "I=N",
                         "help": "fix n_I to N (repeatable)"}),
            ("--limit", {"type": int}))),
    }),
    "harmonic": ("harmonic-function operations", {
        "basis-dim": ("_cmd_harmonic_basis_dim", _FORMAT + (("--n", _INT), ("--k", _INT))),
        "wenum": ("_cmd_harmonic_wenum", _CODE + (
            ("--k", _INT), ("--index", {"type": int, "default": 0}))),
        "transform-check": ("_cmd_harmonic_transform_check", _CODE + (("--k", _INT),)),
    }),
    "poly": ("invariant-polynomial operations", {
        "gleason": ("_cmd_poly_gleason", _CODE + (
            ("--t", {"type": int, "default": 0,
                     "help": "0: classical enumerator; else harmonic degree"}),
            ("--index", {"type": int, "default": 0}))),
        "lemma4.1": ("_cmd_poly_lemma41", _FORMAT + (
            ("--alpha-max", {"type": int, "default": 16}),)),
    }),
    "search": ("randomized seeded code searches", {
        "type1-16": ("_cmd_search_type1", _SEARCH + (
            ("--max-iterations", {"type": int, "default": 1_000_000}),)),
        "fsd": ("_cmd_search_fsd", _SEARCH + (
            ("--n", {"type": int, "default": 16}), ("--d", {"type": int, "default": 4}),
            ("--max-iterations", {"type": int, "default": 1_000_000}))),
    }),
    "verify": ("theorem scenarios", {
        "am": ("_cmd_verify", _CODE + (("--t", _INT),)),
        "thm1.1": ("_cmd_verify", _CODE),
        "thm1.2-1": ("_cmd_verify", _CODE + (
            ("-d --design", {"metavar": "FILE", "default": None,
                             "help": "substitute block multiset for the weight-6 design"}),)),
        "thm1.2-2": ("_cmd_verify", _CODE),
        "thm1.4": ("_cmd_verify", _DESIGN),
        "cor1.5": ("_cmd_verify", _CODE),
        "profile": ("_cmd_verify", _CODE + (("--t-cap", {"type": int, "default": 3}),)),
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


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        return globals()[args.func](args)
    except (EnumerationGuardError, SearchBudgetError) as err:
        print(f"resource guard: {err}", file=sys.stderr)
        return 3
    except (ValueError, LookupError, OSError) as err:
        # str() of a KeyError is the repr of its message, quotes and all.
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"error: {message}", file=sys.stderr)
        return 2


def main() -> None:
    rc = run()
    # The interpreter's shutdown collection skips frozen objects, so the
    # cycles of modules, classes and functions go back to the OS with the
    # process instead of being freed one object at a time. Never in run(),
    # which tests and tools call many times in one process.
    gc.freeze()
    sys.exit(rc)


if __name__ == "__main__":
    main()
