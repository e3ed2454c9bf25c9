"""``amdesign verify``: the theorem scenarios and their report envelope."""

from __future__ import annotations

import json
import time

from .. import designs, verify
from ..gf2core import PreconditionError
from .common import read_code


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


# The report of each verify subcommand. Verifiers are looked up in verify when
# the command runs, so a rebinding of a verifier there takes effect.
_VERIFIERS = {
    "am": lambda args: verify.assmus_mattson_check(read_code(args), args.t),
    "thm1.1": lambda args: verify.verify_thm_1_1(read_code(args)),
    "thm1.2-1": _verify_thm121,
    "thm1.2-2": lambda args: verify.verify_thm_1_2_fsd(read_code(args)),
    "thm1.4": lambda args: verify.verify_thm_1_4_pipeline(
        designs.read_design_file(args.design)),
    "cor1.5": lambda args: verify.verify_cor_1_5(read_code(args)),
    "profile": _verify_profile,
}


def run_scenario(args) -> int:
    started = time.perf_counter()
    return _emit_report(args, _VERIFIERS[args.subcommand](args), started)
