"""Command-line front end: load codes and designs, run the library
operations and theorem scenarios, print text or JSON reports.

Exit codes: 0 success/verified, 1 property violated, 2 input or usage
error, 3 resource guard tripped.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

from .gf2core import (
    BinaryCode,
    EnumerationGuardError,
    classify,
    doubly_even_subcode,
    dual,
    format_generator,
    read_generator_file,
    weight_distribution,
)
from .polyring import (
    SpanError,
    gleason_decompose,
    vanishing_coefficient_search,
    weight_enumerator_poly,
)
from .harmonic import (
    bachoc_transform,
    harm_basis,
    harm_dimension,
    harmonic_weight_enumerator,
    zcf,
)
from .designs import (
    _t_design_check,
    design_to_json,
    intersection_profile,
    complement_design,
    lambda_i,
    mendelsohn_solve,
    read_design_file,
    support_design,
)
from .catalog import (
    BUILTIN_NAMES,
    SearchBudgetError,
    SearchConfig,
    builtin,
    load_code,
    pinned_even_fsd_16,
    pinned_type_i_16,
    search_even_fsd,
    search_type_i_16,
)
from .verify import (
    PreconditionError,
    assmus_mattson_check,
    exact_json,
    report,
    strength_profile,
    verify_cor_1_5,
    verify_thm_1_1,
    verify_thm_1_2_fsd,
    verify_thm_1_2_type1,
    verify_thm_1_4_pipeline,
)

__all__ = ["main", "run"]

_PINNED = {"type1_16": pinned_type_i_16, "fsd_16": pinned_even_fsd_16}


def _load_code(args) -> BinaryCode:
    if args.generator:
        return read_generator_file(args.generator)
    if args.builtin:
        name = args.builtin
        if name in _PINNED:
            return _PINNED[name]()
        if all(part in BUILTIN_NAMES for part in name.split("+")):
            return builtin(name)
        return load_code(name)
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
        "class": asdict(cls),
        "weight_distribution": {str(w): a for w, a in sorted(wd.counts.items())},
    }
    flags = [name for name in (
        "even", "doubly_even", "self_orthogonal", "self_dual",
        "formally_self_dual", "type_one", "type_two",
    ) if getattr(cls, name)]
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
    d = read_design_file(args.design)
    lam, violation = _t_design_check(d, args.t)
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
    d = support_design(_load_code(args), args.w)
    print(json.dumps(design_to_json(d)))
    return 0


def _cmd_design_complement(args) -> int:
    d = complement_design(read_design_file(args.design))
    print(json.dumps(design_to_json(d)))
    return 0


def _cmd_design_intersections(args) -> int:
    d = read_design_file(args.design)
    profile = intersection_profile(d, args.block)
    nonzero = {i: m for i, m in profile.as_dict().items() if m}
    payload = {"block": args.block, "profile": {str(i): m for i, m in nonzero.items()}}
    _print_payload(args, payload,
                   [f"m_{i} = {m}" for i, m in sorted(nonzero.items())])
    return 0


def _cmd_design_mendelsohn(args) -> int:
    allowed = sorted(int(x) for x in args.allowed.split(","))
    fixed = {}
    for item in args.fixed or ():
        key, _, value = item.partition("=")
        fixed[int(key)] = int(value)
    solutions = mendelsohn_solve(args.t, args.v, args.k, args.lam, args.m,
                                 allowed, fixed or None, limit=args.limit)
    lambdas = [str(lambda_i(args.t, args.v, args.k, args.lam, j))
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
    dim = harm_dimension(args.n, args.k)
    _print_payload(args, {"n": args.n, "k": args.k, "dimension": dim}, [str(dim)])
    return 0


def _cmd_harmonic_wenum(args) -> int:
    c = _load_code(args)
    basis = harm_basis(c.n, args.k)
    if not 0 <= args.index < len(basis):
        raise PreconditionError(
            f"index out of range: Harm_{args.k}({c.n}) has {len(basis)} basis functions")
    w = harmonic_weight_enumerator(c, basis[args.index])
    payload = {"k": args.k, "index": args.index, "degree": w.degree,
               "coefficients": [str(x) for x in w.coeffs], "zero": w.is_zero}
    _print_payload(args, payload, [str(w)])
    return 0


def _cmd_harmonic_transform_check(args) -> int:
    c = _load_code(args)
    dual_code = dual(c)
    basis = harm_basis(c.n, args.k)
    mismatches = [idx for idx, f in enumerate(basis)
                  if bachoc_transform(zcf(c, f), args.k, c.size, c.n) != zcf(dual_code, f)]
    count = len(basis)
    payload = {"k": args.k, "functions": count, "mismatches": mismatches}
    _print_payload(args, payload, [
        f"{count} basis function(s), {len(mismatches)} mismatch(es)"])
    return 0 if not mismatches else 1


# ---------------------------------------------------------------- poly


def _cmd_poly_gleason(args) -> int:
    c = _load_code(args)
    if args.t == 0:
        p = weight_enumerator_poly(weight_distribution(c), c.n)
    else:
        basis = harm_basis(c.n, args.t)
        if not 0 <= args.index < len(basis):
            raise PreconditionError(
                f"index out of range: Harm_{args.t}({c.n}) has {len(basis)} basis functions")
        p = zcf(c, basis[args.index])
    try:
        coeffs = gleason_decompose(p, args.t, c.n)
    except SpanError as err:
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
    pairs = vanishing_coefficient_search(args.alpha_max)
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
    cfg = SearchConfig(seed=args.seed, max_iterations=args.max_iterations)
    return _search_payload(args, search_type_i_16(cfg))


def _cmd_search_fsd(args) -> int:
    cfg = SearchConfig(seed=args.seed, max_iterations=args.max_iterations)
    return _search_payload(args, search_even_fsd(args.n, args.d, cfg))


# ---------------------------------------------------------------- verify


def _verify_thm121(args):
    c6 = read_design_file(args.design) if args.design else None
    return verify_thm_1_2_type1(_load_code(args), c6)


def _verify_profile(args):
    prof = strength_profile(_load_code(args), args.t_cap)
    return report("profile", True,
                  {"per_weight": prof.per_weight, "delta": prof.delta, "s": prof.s})


# The report of each verify subcommand. Names are looked up when the command
# runs, so a rebinding of a verifier in this module takes effect.
_VERIFIERS = {
    "am": lambda args: assmus_mattson_check(_load_code(args), args.t),
    "thm1.1": lambda args: verify_thm_1_1(_load_code(args)),
    "thm1.2-1": _verify_thm121,
    "thm1.2-2": lambda args: verify_thm_1_2_fsd(_load_code(args)),
    "thm1.4": lambda args: verify_thm_1_4_pipeline(read_design_file(args.design)),
    "cor1.5": lambda args: verify_cor_1_5(_load_code(args)),
    "profile": _verify_profile,
}


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    return _emit_report(args, _VERIFIERS[args.subcommand](args), started)


# ---------------------------------------------------------------- wiring


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--seed", type=int, default=0)

    code_input = argparse.ArgumentParser(add_help=False)
    code_input.add_argument("-g", "--generator", metavar="FILE",
                            help="generator matrix file")
    code_input.add_argument("-b", "--builtin", metavar="NAME",
                            help="builtin ('+'-composed) or stored code name")

    design_input = argparse.ArgumentParser(add_help=False)
    design_input.add_argument("-d", "--design", metavar="FILE", required=True,
                              help="design JSON file")

    parser = argparse.ArgumentParser(
        prog="amdesign",
        description="Exact tooling for binary codes, harmonic enumerators, "
                    "and the block designs they support.")
    top = parser.add_subparsers(dest="command", required=True)

    code = top.add_parser("code", help="code-level operations")
    sub = code.add_subparsers(dest="subcommand", required=True)
    sub.add_parser("info", parents=[common, code_input]).set_defaults(
        func=_cmd_code_info)
    sub.add_parser("dual", parents=[common, code_input]).set_defaults(
        func=_cmd_code_dual)
    sub.add_parser("weights", parents=[common, code_input]).set_defaults(
        func=_cmd_code_weights)
    sub.add_parser("subcode", parents=[common, code_input]).set_defaults(
        func=_cmd_code_subcode)

    design = top.add_parser("design", help="design-level operations")
    sub = design.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("check", parents=[common, design_input])
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_design_check)
    p = sub.add_parser("from-code", parents=[common, code_input])
    p.add_argument("--w", type=int, required=True)
    p.set_defaults(func=_cmd_design_from_code)
    sub.add_parser("complement", parents=[common, design_input]).set_defaults(
        func=_cmd_design_complement)
    p = sub.add_parser("intersections", parents=[common, design_input])
    p.add_argument("--block", type=int, default=0)
    p.set_defaults(func=_cmd_design_intersections)
    p = sub.add_parser("mendelsohn", parents=[common])
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lam", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--allowed", required=True, metavar="I,J,...",
                   help="comma-separated intersection sizes")
    p.add_argument("--fixed", action="append", metavar="I=N",
                   help="fix n_I to N (repeatable)")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_cmd_design_mendelsohn)

    harmonic = top.add_parser("harmonic", help="harmonic-function operations")
    sub = harmonic.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("basis-dim", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_harmonic_basis_dim)
    p = sub.add_parser("wenum", parents=[common, code_input])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--index", type=int, default=0)
    p.set_defaults(func=_cmd_harmonic_wenum)
    p = sub.add_parser("transform-check", parents=[common, code_input])
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_harmonic_transform_check)

    poly = top.add_parser("poly", help="invariant-polynomial operations")
    sub = poly.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("gleason", parents=[common, code_input])
    p.add_argument("--t", type=int, default=0,
                   help="0: classical enumerator; else harmonic degree")
    p.add_argument("--index", type=int, default=0)
    p.set_defaults(func=_cmd_poly_gleason)
    p = sub.add_parser("lemma4.1", parents=[common])
    p.add_argument("--alpha-max", type=int, default=16)
    p.set_defaults(func=_cmd_poly_lemma41)

    search = top.add_parser("search", help="randomized seeded code searches")
    sub = search.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("type1-16", parents=[common])
    p.add_argument("--max-iterations", type=int, default=1_000_000)
    p.set_defaults(func=_cmd_search_type1)
    p = sub.add_parser("fsd", parents=[common])
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--max-iterations", type=int, default=1_000_000)
    p.set_defaults(func=_cmd_search_fsd)

    verify = top.add_parser("verify", help="theorem scenarios")
    verify.set_defaults(func=_cmd_verify)
    sub = verify.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("am", parents=[common, code_input])
    p.add_argument("--t", type=int, required=True)
    sub.add_parser("thm1.1", parents=[common, code_input])
    p = sub.add_parser("thm1.2-1", parents=[common, code_input])
    p.add_argument("-d", "--design", metavar="FILE", default=None,
                   help="substitute block multiset for the weight-6 design")
    sub.add_parser("thm1.2-2", parents=[common, code_input])
    sub.add_parser("thm1.4", parents=[common, design_input])
    sub.add_parser("cor1.5", parents=[common, code_input])
    p = sub.add_parser("profile", parents=[common, code_input])
    p.add_argument("--t-cap", type=int, default=3)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (EnumerationGuardError, SearchBudgetError) as err:
        print(f"resource guard: {err}", file=sys.stderr)
        return 3
    except (ValueError, LookupError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
