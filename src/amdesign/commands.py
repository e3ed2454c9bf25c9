"""The ``amdesign`` command table and its argparse parser, the bodies of the
subcommands (the ``run_*`` functions the table names) and the helpers they
share. ``amdesign/__init__.py`` registers this module without running it,
and without a bytecode cache a command compiles only the defs it calls. The
table lives here, not in ``amdesign.cli``, because ``python -m amdesign.cli``
compiles cli whole; and nothing here imports from ``amdesign.cli``, which
under ``python -m`` runs as ``__main__`` and would compile and run twice.
"""

from __future__ import annotations

import json
import sys
import time

from . import catalog, designs, harmonic, polyring, verify
from .gf2core import (
    BinaryCode, PreconditionError, WeightDistribution, classify, codewords_of_weight,
    doubly_even_subcode, dual, exact_json, format_generator, read_generator_file, support,
    weight_distribution)

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
# is named, not held: cli._cmd_group looks the name up in this module when
# the command runs, so a rebinding of the function here takes effect.
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


def run_info(args) -> int:
    c = read_code(args)
    wd = weight_distribution(c)
    cls = classify(c, wd)
    dist = wd.min_nonzero() if c.dimension else None
    payload = {
        "length": c.n,
        "dimension": c.dimension,
        "size": c.size,
        "minimum_distance": dist,
        "class": cls.fields(),
        "weight_distribution": {str(w): a for w, a in wd.counts.items()},
    }
    flags = [name for name, value in cls.fields().items() if value is True]
    print_payload(args, payload, [
        f"length: {c.n}",
        f"dimension: {c.dimension}",
        f"size: {c.size}",
        f"minimum distance: {dist}",
        f"class: {', '.join(flags) or 'none'}; extremality: {cls.extremality}",
        "weights: " + " ".join(f"{w}:{a}" for w, a in wd.counts.items()),
    ])
    return 0


def run_dual(args) -> int:
    c = dual(read_code(args))
    return print_code(args, c, {"length": c.n, "rows": format_generator(c).split()})


def run_weights(args) -> int:
    wd = weight_distribution(read_code(args))
    payload = {"weight_distribution": {str(w): a for w, a in wd.counts.items()}}
    print_payload(args, payload,
                  [f"{w} {a}" for w, a in wd.counts.items()])
    return 0


def run_subcode(args) -> int:
    c = doubly_even_subcode(read_code(args))
    return print_code(args, c, {"length": c.n, "dimension": c.dimension,
                                "rows": format_generator(c).split()})


def design_json(v: int, blocks):
    """The design's JSON and a newline, as json.dumps spaces it, by block."""
    yield f'{{"v": {v}, "blocks": ['
    sep = ""
    for block in blocks:
        yield f"{sep}{list(block)}"
        sep = ", "
    yield "]}\n"


def run_check(args) -> int:
    # read_design_file's errors in its order, then _t_design_check's.
    v, k, b, blocks = designs._read_checked(args.design)
    lam, violation = designs._blocks_check(v, k, b, blocks, args.t)
    payload = {"v": v, "k": k, "b": b, "t": args.t, "lambda": lam, "violation": None}
    lines = [f"v={v} k={k} b={b}"]
    if lam is None:
        payload["violation"] = exact_json(violation)
        pts1, c1, pts2, c2 = violation
        lines.append(f"not a {args.t}-design: {pts1} covered {c1} times, "
                     f"{pts2} covered {c2} times")
    else:
        lines.append(f"{args.t}-design with lambda = {lam}")
    print_payload(args, payload, lines)
    return 0 if lam is not None else 1


def run_from_code(args) -> int:
    c, w = read_code(args), args.w
    if w < 1 or w > c.n:
        raise ValueError("weight out of range")
    words = codewords_of_weight(c, w)
    if not words:
        raise ValueError(f"no codewords of weight {w}")
    # Design's block order: by the word read from point 1 on, descending.
    words.sort(key=lambda x: int(f"{x:0{c.n}b}"[::-1], 2), reverse=True)
    sys.stdout.writelines(design_json(c.n, map(support, words)))
    return 0


def run_complement(args) -> int:
    # The complements of the file's checked blocks, with no Design of either.
    v, k, b, blocks = designs._read_checked(args.design)
    sys.stdout.writelines(design_json(v, designs._complement_blocks(v, k, b, blocks)))
    return 0


def run_intersections(args) -> int:
    d = designs.read_design_file(args.design)
    profile = designs.intersection_profile(d, args.block)
    payload = {"block": args.block, "profile": {str(i): m for i, m in profile.items()}}
    print_payload(args, payload, [f"m_{i} = {m}" for i, m in profile.items()])
    return 0


def run_mendelsohn(args) -> int:
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
    print_payload(args, payload, lines)
    return 0


def run_basis_dim(args) -> int:
    dim = harmonic.harm_dimension(args.n, args.k)
    print_payload(args, {"n": args.n, "k": args.k, "dimension": dim}, [str(dim)])
    return 0


def run_wenum(args) -> int:
    c = read_code(args)
    basis = harmonic.harm_basis(c.n, args.k)
    # Harm_k(n) is empty for k > n/2: refused before --index is read.
    if not basis:
        raise PreconditionError(f"no basis functions exist for k={args.k}, n={c.n}")
    if not 0 <= args.index < len(basis):
        raise PreconditionError(
            f"index out of range: Harm_{args.k}({c.n}) has {len(basis)} basis functions")
    w = harmonic.harmonic_weight_enumerator(c, basis[args.index])
    payload = {"k": args.k, "index": args.index, "degree": w.degree,
               "coefficients": [str(x) for x in w.coeffs], "zero": w.is_zero}
    print_payload(args, payload, [str(w)])
    return 0


def run_transform_check(args) -> int:
    c = read_code(args)
    basis = harmonic.harm_basis(c.n, args.k)
    # Harm_k(n) is empty for k > n/2: refused before the dual is built.
    if not basis:
        raise PreconditionError(f"no basis functions exist for k={args.k}, n={c.n}")
    dual_code = dual(c)

    def quotients(code):
        return [polyring.HomPoly(c.n, tuple(row)).divide_xy(args.k)
                for row in harmonic.harmonic_weight_enumerators(code, basis)]

    zs = quotients(c)
    images = [harmonic.bachoc_transform(z, args.k, c.size, c.n) for z in zs]
    # A self-dual code is its own dual: its enumerators are read once.
    dual_zs = zs if dual_code == c else quotients(dual_code)
    mismatches = [idx for idx, (image, z) in enumerate(zip(images, dual_zs)) if image != z]
    count = len(basis)
    payload = {"k": args.k, "functions": count, "mismatches": mismatches}
    print_payload(args, payload, [
        f"{count} basis function(s), {len(mismatches)} mismatch(es)"])
    return 0 if not mismatches else 1


def run_gleason(args) -> int:
    c = read_code(args)
    if args.t < 0:
        raise PreconditionError("t must be nonnegative")
    if args.t == 0:
        # Harm_0(n) is the constants, with the classical enumerator at index 0.
        if args.index != 0:
            raise PreconditionError(
                f"index out of range: Harm_0({c.n}) has 1 basis functions")
        p = polyring.weight_enumerator_poly(weight_distribution(c), c.n)
    else:
        # A t with no Gleason basis is refused before --index is read.
        polyring.gleason_basis(args.t, c.n)
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
        print_payload(args, payload, [f"outside the invariant span: {err}"])
        return 1
    payload = {"t": args.t, "in_span": True,
               "coefficients": [str(x) for x in coeffs]}
    print_payload(args, payload,
                  ["coefficients: " + " ".join(str(x) for x in coeffs)])
    return 0


def run_lemma41(args) -> int:
    pairs = polyring.vanishing_coefficient_search(args.alpha_max)
    payload = {"alpha_max": args.alpha_max, "pairs": [list(p) for p in pairs]}
    print_payload(args, payload,
                  [f"alpha={a} i={i}" for a, i in pairs])
    return 0


def _search_payload(args, c: BinaryCode, wd: WeightDistribution) -> int:
    return print_code(args, c, {
        "length": c.n,
        "dimension": c.dimension,
        "rows": format_generator(c).split(),
        "weight_distribution": {str(w): a for w, a in wd.counts.items()},
    })


def run_type1(args) -> int:
    cfg = catalog.SearchConfig(seed=args.seed, max_iterations=args.max_iterations)
    return _search_payload(args, *catalog.search_type_i_16(cfg))


def run_fsd(args) -> int:
    cfg = catalog.SearchConfig(seed=args.seed, max_iterations=args.max_iterations)
    return _search_payload(args, *catalog.search_even_fsd(args.n, args.d, cfg))


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


def _verify_thm121(args):
    c6 = designs.read_design_file(args.design) if args.design else None
    return verify.verify_thm_1_2_type1(read_code(args), c6)


def _verify_profile(args):
    # Refused before the code is read and sliced.
    if args.t_cap < 0:
        raise PreconditionError("--t-cap must be nonnegative")
    prof = verify.strength_profile(read_code(args), args.t_cap)
    return verify.report("profile", True,
                         {"per_weight": prof.per_weight, "delta": prof.delta, "s": prof.s})


def run_scenario(args) -> int:
    started = time.perf_counter()
    # The report of each verify subcommand, built here so that only verify
    # compiles it. Verifiers are looked up in verify when the command runs,
    # so a rebinding of a verifier there takes effect.
    verifiers = {
        "am": lambda args: verify.assmus_mattson_check(read_code(args), args.t),
        "thm1.1": lambda args: verify.verify_thm_1_1(read_code(args)),
        "thm1.2-1": _verify_thm121,
        "thm1.2-2": lambda args: verify.verify_thm_1_2_fsd(read_code(args)),
        "thm1.4": lambda args: verify.verify_thm_1_4_pipeline(
            designs.read_design_file(args.design)),
        "cor1.5": lambda args: verify.verify_cor_1_5(read_code(args)),
        "profile": _verify_profile,
    }
    return _emit_report(args, verifiers[args.subcommand](args), started)
