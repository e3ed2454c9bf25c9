"""``amdesign design``: t-design checks, support designs, complements,
intersection profiles and the block-intersection system."""

from __future__ import annotations

import sys

from .. import designs
from ..gf2core import codewords_of_weight, exact_json, support
from .common import print_payload, read_code


def design_json(v: int, blocks):
    """The design's JSON and a newline, as json.dumps spaces it, by block."""
    yield f'{{"v": {v}, "blocks": ['
    sep = ""
    for block in blocks:
        yield f"{sep}{list(block)}"
        sep = ", "
    yield "]}\n"


def run_check(args) -> int:
    v, k, b, lam, violation = designs._check_design_file(args.design, args.t)
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
    d = designs.complement_design(designs.read_design_file(args.design))
    sys.stdout.writelines(design_json(d.v, d.blocks))
    return 0


def run_intersections(args) -> int:
    d = designs.read_design_file(args.design)
    profile = designs.intersection_profile(d, args.block).as_dict()
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
