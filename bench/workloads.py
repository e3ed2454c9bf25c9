"""The benchmark's workloads: inputs generated from the workload seed, the
command list of one pass, and an output check for every command.

A check receives the command's stdout and stderr, raises CheckError when the
output is wrong, and returns an invariant summary: the part of the output that
does not depend on the seed (coordinate order, search seed, mutant choice), so
that two seeds can be compared.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import count
from math import comb
from pathlib import Path
from typing import Callable

import exact

WORKLOADS = ("paper16", "scale", "fresh")
# Trace keys of the verify commands; per_layer reports verify.<key>.walks/.s.
VERIFY_KEYS = ("am", "thm1.1", "thm1.1-fsd", "thm1.2-1", "thm1.2-2", "thm1.4", "cor1.5",
               "profile")


class CheckError(Exception):
    """A command's exit code or output is wrong."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class Command:
    argv: list[str]
    expect_rc: int
    check: Callable[[str, str], object]
    # Trace label: the per-layer verify.<key>.* metrics are read from this command.
    key: str | None = None
    # Keep stdout in this file, for a later command of the same pass.
    stdout_path: Path | None = None


def _json(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError as err:
        raise CheckError(f"output is not JSON: {err}") from None


def _ints(d: dict) -> dict[int, int]:
    return {int(k): int(v) for k, v in d.items()}


def _perm_rows(rows, n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return [exact.permute_word(r, perm) for r in rows]


def _write_code(path: Path, rows, n) -> str:
    path.write_text(exact.format_rows(rows, n))
    return str(path)


def _write_design(path: Path, v, blocks) -> str:
    path.write_text(json.dumps({"v": v, "blocks": [list(b) for b in blocks]}))
    return str(path)


def _mutant(blocks, v, rng):
    """One-point swap in one block: the result is never a 2-design."""
    blocks = [list(b) for b in blocks]
    b = blocks[rng.randrange(len(blocks))]
    outside = [p for p in range(1, v + 1) if p not in b]
    b[rng.randrange(len(b))] = rng.choice(outside)
    return [tuple(sorted(b)) for b in blocks]


def _pinned(root: Path, name: str) -> list[int]:
    return exact.parse_rows((root / "src/amdesign/data" / f"{name}.gm").read_text())


# ----------------------------------------------------------------- checks


def check_code_info(wd, flags: dict, dmin: int):
    def check(out, err):
        rep = _json(out)
        expect(_ints(rep["weight_distribution"]) == wd, "weight distribution differs")
        expect(rep["minimum_distance"] == dmin, "minimum distance differs")
        for name, value in flags.items():
            expect(rep["class"][name] == value, f"class flag {name} differs")
        return ["code info", rep["length"], rep["dimension"], sorted(wd.items()), rep["class"]]
    return check


def check_weights(wd):
    def check(out, err):
        expect(_ints(_json(out)["weight_distribution"]) == wd, "weight distribution differs")
        return ["weights", sorted(wd.items())]
    return check


def check_am(rows, n, t):
    wd = exact.weight_distribution(rows)
    dwd = exact.weight_distribution(exact.dual_rows(rows, n))
    d = min(w for w in wd if w)
    dd = min(w for w in dwd if w)
    small = [w for w in wd if 0 < w <= n - t]
    applicable = len(small) <= dd - t

    def check(out, err):
        rep = _json(out)
        w = rep["witnesses"]
        expect(rep["verdict"] == ("pass" if applicable else "fail"), "verdict differs")
        expect(w["minimum_distance"] == str(d), "minimum distance differs")
        expect(w["dual_minimum_distance"] == str(dd), "dual minimum distance differs")
        expect(w["weight_count"] == str(len(small)), "weight count differs")
        expect(w["bound"] == str(dd - t), "bound differs")
        if applicable:
            expect(w["promised_code_weights"] == [str(u) for u in wd if d <= u <= n - t],
                   "promised code weights differ")
        return ["am", t, rep["verdict"], w]
    return check, (0 if applicable else 1)


def check_thm11(rows, n):
    wd = exact.weight_distribution(rows)
    dwd = exact.weight_distribution(exact.dual_rows(rows, n))
    self_dual = exact.rref(rows) == exact.rref(exact.dual_rows(rows, n))
    lam = {}
    for w in wd:
        if 0 < w < n:
            b = wd[w] + (0 if self_dual else dwd.get(w, 0))
            lam[str(w)] = str(b * w // n)

    def check(out, err):
        rep = _json(out)
        w = rep["witnesses"]
        expect(rep["verdict"] == "pass", "verdict differs")
        expect(w["lambda_1_per_weight"] == lam, "lambda_1 differs from the recount")
        expect(w["counting_route"] and w["harmonic_route"], "routes disagree")
        return ["thm1.1", w]
    return check


def check_thm121(rows, n):
    c6 = exact.support_blocks(rows, 6)
    wd = exact.weight_distribution(rows)
    strengths = {str(w): str(exact.strength(exact.support_blocks(rows, w), n, 3))
                 for w in wd if 0 < w < n}

    def check(out, err):
        rep = _json(out)
        w = rep["witnesses"]
        expect(rep["verdict"] == "pass", "verdict differs")
        expect(w["lambda_2"] == "8" == str(exact.design_lambda(c6, n, 2)), "lambda_2 is not 8")
        expect(w["block_count"] == str(len(c6)), "block count differs")
        expect(w["strengths"] == strengths, "strengths differ from the recount")
        expect((w["delta"], w["s"]) == ("1", "2"), "strength gap is not delta=1 < s=2")
        expect(w["strength_2_weights"] == ["6", "10"], "strength 2 is not at {6, 10}")
        return ["thm1.2-1", w]
    return check, strengths


def check_thm122(rows, n):
    drows = exact.dual_rows(rows, n)
    lam = {}
    for w in (6, 10):
        blocks = exact.support_blocks(rows, w) + exact.support_blocks(drows, w)
        lam[str(w)] = str(exact.design_lambda(blocks, n, 2))

    def check(out, err):
        rep = _json(out)
        expect(rep["verdict"] == "pass", "verdict differs")
        expect(rep["witnesses"]["lambda_2_per_weight"] == lam, "lambda_2 differs from the recount")
        return ["thm1.2-2", rep["witnesses"]]
    return check


def check_cor15(rows, n):
    sub = [x for x in exact.codewords(rows) if x.bit_count() % 4 == 0]
    sub_wd = {str(w): str(a) for w, a in exact.weight_distribution(sub).items()}
    sub_dual = exact.dual_rows(sub, n)
    dual_strengths = {str(w): str(exact.strength(exact.support_blocks(sub_dual, w), n, 3))
                      for w in exact.weight_distribution(sub_dual) if 0 < w < n}

    def check(out, err):
        rep = _json(out)
        w = rep["witnesses"]
        expect(rep["verdict"] == "pass", "verdict differs")
        expect(w["subcode_weight_distribution"] == sub_wd, "subcode distribution differs")
        expect(w["dual_strengths"] == dual_strengths, "dual strengths differ from the recount")
        return ["cor1.5", w]
    return check


def check_profile(strengths):
    def check(out, err):
        w = _json(out)["witnesses"]
        expect(w["per_weight"] == strengths, "strengths differ from the recount")
        expect((w["delta"], w["s"]) == ("1", "2"), "strength gap is not delta=1 < s=2")
        return ["profile", w]
    return check


def check_design(blocks, v):
    def check(out, err):
        rep = _json(out)
        expect(rep["v"] == v, "point count differs")
        expect(sorted(tuple(b) for b in rep["blocks"]) == blocks, "blocks differ")
        return ["design", v, len(blocks), len(blocks[0])]
    return check


def check_lambda(lam):
    def check(out, err):
        rep = _json(out)
        expect(rep["lambda"] == lam, f"lambda is not {lam}")
        return ["design check", rep["t"], lam]
    return check


def check_thm14(wd):
    def check(out, err):
        rep = _json(out)
        w = rep["witnesses"]
        expect(rep["verdict"] == "pass", "verdict differs")
        expect(_ints(w["weight_distribution"]) == wd, "pipeline code distribution differs")
        return ["thm1.4", w]
    return check


def check_gleason0(wd, n):
    enum = [wd.get(j, 0) for j in range(n + 1)]
    basis = exact.gleason_invariants(n)

    def check(out, err):
        rep = _json(out)
        expect(rep["in_span"], "enumerator is outside the invariant span")
        coeffs = [int(x) for x in rep["coefficients"]]
        total = [0] * (n + 1)
        for c, b in zip(coeffs, basis):
            total = [x + c * y for x, y in zip(total, b)]
        expect(total == enum, "Gleason coordinates do not reproduce the enumerator")
        return ["gleason0", coeffs]
    return check


def check_lemma41(out, err):
    pairs = exact.lemma41_pairs(16)
    expect(_json(out)["pairs"] == pairs, "vanishing pairs differ from the binomial recount")
    return ["lemma4.1", pairs]


def check_mendelsohn(c6, v, k, t, lam):
    prof = exact.intersection_profile(c6, 0)
    allowed = [0, 2, 4, 6]
    row = [prof.get(i, 0) for i in allowed]
    lambdas = [str(lam * comb(v - j, t - j) // comb(k - j, t - j)) for j in range(t + 1)]

    def check(out, err):
        rep = _json(out)
        expect(rep["lambda_j"] == lambdas, "lambda_j differ")
        expect(row in rep["solutions"], "C_6 intersection numbers are not a solution")
        return ["mendelsohn", rep]
    return check


def check_transform(functions):
    def check(out, err):
        rep = _json(out)
        expect(rep["functions"] == functions, "basis size differs")
        expect(rep["mismatches"] == [], "Bachoc transform mismatches")
        return ["transform", rep["k"], functions]
    return check


def _recount_violation(blocks, violation):
    pts1, c1, pts2, c2 = violation
    r1 = exact.covered(blocks, [int(p) for p in pts1])
    r2 = exact.covered(blocks, [int(p) for p in pts2])
    expect((str(r1), str(r2)) == (str(c1), str(c2)), "violation counts differ from the recount")
    expect(r1 != r2, "violation witness counts are equal")


def check_mutant_design(blocks):
    def check(out, err):
        rep = _json(out)
        expect(rep["lambda"] is None, "a mutant was reported as a design")
        _recount_violation(blocks, rep["violation"])
        return ["mutant check", rep["t"]]
    return check


def check_mutant_thm121(blocks):
    def check(out, err):
        rep = _json(out)
        expect(rep["verdict"] == "fail", "mutant passed thm1.2-1")
        expect(rep["witnesses"]["counting_route"] is False, "counting route passed a mutant")
        _recount_violation(blocks, rep["witnesses"]["violation"])
        return ["mutant thm1.2-1", rep["verdict"]]
    return check


def check_usage_error(out, err):
    expect(err.startswith("error:"), "input error is not reported on stderr")
    return ["input error"]


def check_fsd_search(n, d):
    def check(out, err):
        rep = _json(out)
        rows = exact.parse_rows("\n".join(rep["rows"]))
        wd = exact.weight_distribution(rows)
        drows = exact.dual_rows(rows, n)
        expect(len(exact.rref(rows)) == n // 2, "dimension is not n/2")
        expect(all(w % 2 == 0 for w in wd), "code is not even")
        expect(min(w for w in wd if w) == d, "minimum distance differs")
        expect(wd == exact.weight_distribution(drows), "code is not formally self-dual")
        expect(exact.rref(rows) != exact.rref(drows), "code is self-dual")
        expect(_ints(rep["weight_distribution"]) == wd, "reported distribution differs")
        return ["search fsd", n, d]
    return check


def check_type1_search(out, err):
    rep = _json(out)
    rows = exact.parse_rows("\n".join(rep["rows"]))
    wd = exact.weight_distribution(rows)
    expect(len(exact.rref(rows)) == 8, "dimension is not 8")
    expect(all((a & b).bit_count() % 2 == 0 for a in rows for b in rows), "not self-orthogonal")
    expect(min(w for w in wd if w) == 4, "minimum distance is not 4")
    expect(any(w % 4 for w in wd), "code is doubly even")
    expect(_ints(rep["weight_distribution"]) == wd, "reported distribution differs")
    return ["search type1-16"]


# ----------------------------------------------------------------- workloads


def _json_cmd(*argv) -> list[str]:
    return [*argv, "--format", "json"]


def paper16(work: Path, root: Path, rng: random.Random) -> Callable[[], list[Command]]:
    """The paper's scenario suite on the pinned length-16 codes, permuted."""
    n = 16
    t_rows = _perm_rows(_pinned(root, "type1_16"), n, rng)
    f_rows = _perm_rows(_pinned(root, "fsd_16"), n, rng)
    tg = _write_code(work / "type1.gm", t_rows, n)
    fg = _write_code(work / "fsd.gm", f_rows, n)
    c6 = exact.support_blocks(t_rows, 6)
    mutant = _mutant(c6, n, rng)
    mut = _write_design(work / "mutant.json", n, mutant)
    c6_path = work / "c6.json"
    t_wd = exact.weight_distribution(t_rows)
    f_wd = exact.weight_distribution(f_rows)

    commands = [
        Command(_json_cmd("code", "info", "-g", tg), 0, check_code_info(
            t_wd, {"type_one": True, "self_dual": True, "extremality": "near_extremal"}, 4)),
        Command(_json_cmd("code", "info", "-g", fg), 0, check_code_info(
            f_wd, {"formally_self_dual": True, "self_dual": False,
                   "extremality": "near_extremal"}, 4)),
    ]
    for path, rows in ((tg, t_rows), (fg, f_rows)):
        for t in (1, 2):
            check, rc = check_am(rows, n, t)
            commands.append(Command(_json_cmd("verify", "am", "-g", path, "--t", str(t)), rc,
                                    check, key="am" if path == tg and t == 1 else None))
    thm121, strengths = check_thm121(t_rows, n)
    commands += [
        Command(_json_cmd("verify", "thm1.1", "-g", tg), 0, check_thm11(t_rows, n), "thm1.1"),
        Command(_json_cmd("verify", "thm1.1", "-g", fg), 0, check_thm11(f_rows, n),
                "thm1.1-fsd"),
        Command(_json_cmd("verify", "thm1.2-1", "-g", tg), 0, thm121, "thm1.2-1"),
        Command(_json_cmd("verify", "thm1.2-2", "-g", fg), 0, check_thm122(f_rows, n),
                "thm1.2-2"),
        Command(_json_cmd("verify", "cor1.5", "-g", tg), 0, check_cor15(t_rows, n), "cor1.5"),
        Command(_json_cmd("verify", "profile", "-g", tg, "--t-cap", "3"), 0,
                check_profile(strengths), "profile"),
        Command(["design", "from-code", "-g", tg, "--w", "6"], 0, check_design(c6, n),
                stdout_path=c6_path),
        Command(_json_cmd("verify", "thm1.4", "-d", str(c6_path)), 0, check_thm14(t_wd),
                "thm1.4"),
        Command(_json_cmd("poly", "gleason", "-g", tg, "--t", "0"), 0, check_gleason0(t_wd, n)),
        Command(_json_cmd("poly", "lemma4.1"), 0, check_lemma41),
        Command(_json_cmd("design", "mendelsohn", "--t", "2", "--v", "16", "--k", "6",
                          "--lam", "8", "--m", "6", "--allowed", "0,2,4,6", "--fixed", "6=1"),
                0, check_mendelsohn(c6, 16, 6, 2, 8)),
        Command(_json_cmd("harmonic", "transform-check", "-g", tg, "--k", "1"), 0,
                check_transform(15)),
        Command(_json_cmd("design", "check", "-d", mut, "--t", "2"), 1,
                check_mutant_design(mutant)),
        Command(_json_cmd("verify", "thm1.2-1", "-g", tg, "-d", mut), 1,
                check_mutant_thm121(mutant)),
        Command(_json_cmd("verify", "thm1.4", "-d", mut), 2, check_usage_error),
    ]
    return lambda: commands


def _stress_rows(rng, k: int) -> list[int]:
    return [(1 << i) | (rng.getrandbits(k) << k) for i in range(k)]


def scale(work: Path, root: Path, rng: random.Random) -> Callable[[], list[Command]]:
    """Golay [24,12,8], e8^4 [32,16,4] and a random [40,20] code: enumeration
    of 2^12 to 2^20 words and 5-subset coverage scans; no harmonic calls."""
    g_rows = _perm_rows(exact.golay_rows(), 24, rng)
    gg = _write_code(work / "golay.gm", g_rows, 24)
    s_rows = _stress_rows(rng, 20)
    sg = _write_code(work / "stress.gm", s_rows, 40)
    e8 = exact.parse_rows("11111111\n00001111\n00110011\n01010101")
    e8x4 = [r << (8 * i) for i in range(4) for r in e8]
    c8_path, c12_path = work / "c8.json", work / "c12.json"
    c8 = exact.support_blocks(g_rows, 8)
    c12 = exact.support_blocks(g_rows, 12)
    check_golay_am, am_rc = check_am(g_rows, 24, 5)
    # The stress code's distribution takes a 2^20-word recount: do it once, on
    # first use, outside any timed command.
    stress_wd = {}

    def stress_check(check_of):
        def check(out, err):
            if not stress_wd:
                stress_wd.update(exact.weight_distribution(s_rows))
            check_of(stress_wd)(out, err)
            # The distribution of a random code depends on the seed.
            return ["stress", sum(stress_wd.values())]
        return check

    def stress_info(wd):
        fsd = exact.macwilliams(wd, 40) == wd
        return check_code_info(wd, {"formally_self_dual": fsd}, min(x for x in wd if x))

    commands = [
        Command(_json_cmd("code", "info", "-g", gg), 0, check_code_info(
            exact.GOLAY_WEIGHTS, {"type_two": True, "self_dual": True}, 8)),
        Command(_json_cmd("verify", "am", "-g", gg, "--t", "5"), am_rc, check_golay_am, "am"),
        Command(["design", "from-code", "-g", gg, "--w", "8"], 0, check_design(c8, 24),
                stdout_path=c8_path),
        Command(_json_cmd("design", "check", "-d", str(c8_path), "--t", "5"), 0,
                check_lambda(1)),
        Command(["design", "from-code", "-g", gg, "--w", "12"], 0, check_design(c12, 24),
                stdout_path=c12_path),
        Command(_json_cmd("design", "check", "-d", str(c12_path), "--t", "5"), 0,
                check_lambda(48)),
        Command(_json_cmd("code", "info", "-b", "e8+e8+e8+e8"), 0, check_code_info(
            exact.weight_distribution(e8x4), {"type_two": True}, 4)),
        Command(_json_cmd("code", "weights", "-g", sg), 0, stress_check(check_weights)),
        Command(_json_cmd("code", "info", "-g", sg), 0, stress_check(stress_info)),
    ]
    return lambda: commands


# Candidate counts of a search are geometric in the seed, so each pass runs
# several cheap length-16 searches rather than one long one: a run then sums
# enough searches that its time does not hinge on a few unlucky seeds.
FRESH_FSD_SEARCHES = 4
FRESH_MUTANTS = 3


def fresh(work: Path, root: Path, rng: random.Random) -> Callable[[], list[Command]]:
    """Inputs never seen twice: new search seeds and new mutants every pass."""
    base = _pinned(root, "type1_16")
    serial = count()

    def one_pass() -> list[Command]:
        commands = [
            Command(_json_cmd("search", "fsd", "--n", "16", "--seed",
                              str(rng.randrange(2**31))), 0, check_fsd_search(16, 4))
            for _ in range(FRESH_FSD_SEARCHES)
        ]
        commands.append(Command(_json_cmd("search", "type1-16", "--seed",
                                          str(rng.randrange(2**31))), 0, check_type1_search))
        for _ in range(FRESH_MUTANTS):
            blocks = _mutant(exact.support_blocks(_perm_rows(base, 16, rng), 6), 16, rng)
            path = _write_design(work / f"mutant{next(serial)}.json", 16, blocks)
            commands.append(Command(_json_cmd("design", "check", "-d", path, "--t", "2"), 1,
                                    check_mutant_design(blocks)))
        return commands

    return one_pass


BUILDERS = {"paper16": paper16, "scale": scale, "fresh": fresh}
