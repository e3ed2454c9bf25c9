"""Acceptance checks: one test per shipped claim, each printing one verdict
line. All arithmetic is exact; every equality below is tolerance-zero."""

import random
import time
from itertools import combinations

import pytest

from amdesign.catalog import builtin, search_type_i_16
from amdesign.designs import (
    Design,
    code_from_design,
    complement_design,
    intersection_profile,
    is_t_design,
    lambda_i,
    mendelsohn_solve,
    support_design,
)
from amdesign.gf2core import (
    EnumerationGuardError,
    code_from_rows,
    dual,
    macwilliams,
    weight_distribution,
)
from amdesign.harmonic import bachoc_transform, delsarte_design_check, harm_basis, zcf
from amdesign.polyring import vanishing_coefficient_search
from amdesign.verify import (
    assmus_mattson_check,
    strength_profile,
    verify_thm_1_1,
    verify_thm_1_2_fsd,
    verify_thm_1_2_type1,
    verify_thm_1_4_pipeline,
)

TYPE1_WD = {0: 1, 4: 12, 6: 64, 8: 102, 10: 64, 12: 12, 16: 1}


def _line(num: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num:>3s} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_type1_search_pipeline():
    started = time.perf_counter()
    c, spectrum = search_type_i_16(seed=0, max_iterations=10**6)
    elapsed = time.perf_counter() - started
    assert spectrum == weight_distribution(c)
    wd = spectrum
    c6 = support_design(c, 6)
    lam0 = lambda_i(2, 16, 6, 8, 0)
    ok = elapsed < 60 and wd == TYPE1_WD and c6.b == 64 == lam0
    assert _line("01", ok, f"search {elapsed:.2f}s, weights {wd}, |C_6| = {c6.b}")
    assert ok


def test_criterion_02_c6_is_a_2_design_both_routes(type1, c6):
    started = time.perf_counter()
    lam = is_t_design(c6, 2)
    counted = all(
        sum(1 for b in c6.blocks if set(pair) <= set(b)) == 8
        for pair in combinations(range(1, 17), 2)
    )
    harmonic = delsarte_design_check(c6, 2)
    complement_ok = complement_design(c6) == support_design(type1, 10)
    elapsed = time.perf_counter() - started
    ok = (lam == 8 and counted and harmonic and complement_ok
          and len(harm_basis(16, 2)) == 104 and elapsed < 5)
    assert _line("02", ok, f"lambda={lam}, both routes on 120 pairs / 104 "
                        f"functions, complement matches, {elapsed:.2f}s")
    assert ok


def test_criterion_03_strength_gap(type1):
    per = strength_profile(type1, 3)
    delta, s = min(per.values()), max(per.values())
    gap_at = sorted(w for w, t in per.items() if t >= 2)
    control = strength_profile(builtin("e8+e8"), 2).values()
    ok = (delta == 1 and s == 2 and gap_at == [6, 10]
          and min(control) == max(control))
    assert _line("03", ok, f"delta={delta} s={s} strength-2 at "
                        f"{gap_at}; control delta=s={min(control)}")
    assert ok


def test_criterion_04_vanishing_coefficients():
    started = time.perf_counter()
    found = vanishing_coefficient_search(16)
    elapsed = time.perf_counter() - started
    # The coefficient of z^i in (1+z)^2 (1-z)^a, z = y^2/x^2. At a = 7 the
    # z^0..z^9 coefficients are 1, -5, 8, 0, -14, 14, 0, -8, 5, -1: z^2 is 8
    # and z^3 is 0, so the pair is (7, 3). This list once read (7, 2).
    stated = [(2, 1), (7, 3), (14, 6)]
    ok = elapsed < 1 and found == stated
    assert _line("04", ok, f"found {found}, stated {stated}, {elapsed:.2f}s")
    assert ok


def test_criterion_05_block_intersection_numbers(c6):
    sols = mendelsohn_solve(2, 16, 6, 8, 6, (0, 2, 4, 6), fixed={6: 1})
    want = {0: 3, 2: 51, 4: 9}
    ok = sols == [(3, 51, 9, 1)] and all(
        intersection_profile(c6, i) == want for i in range(c6.b))
    assert _line("05", ok, f"solver {sols}, all 64 measured profiles {want}")
    assert ok


def test_criterion_06_one_designs_everywhere(type1, fsd16):
    reports = {}
    for name, c in [("d4+d4", builtin("d4+d4")),
                    ("i2+i2+i2+i2", builtin("i2+i2+i2+i2")),
                    ("d4+i2+i2", builtin("d4+i2+i2")),
                    ("type1-16", type1),
                    ("fsd-16", fsd16)]:
        rep = verify_thm_1_1(c)
        reports[name] = (rep["verdict"] == "pass", rep["witnesses"]["counting_route"],
                         rep["witnesses"]["harmonic_route"])
    ok = all(all(flags) for flags in reports.values())
    assert _line("06", ok, "; ".join(
        f"{n}: designs={v[1]} enumerators_zero={v[2]}"
        for n, v in reports.items()))
    assert ok


def test_criterion_07_fsd_unions_are_2_designs(fsd16):
    started = time.perf_counter()
    rep = verify_thm_1_2_fsd(fsd16)
    elapsed = time.perf_counter() - started
    lambdas = rep["witnesses"]["lambda_2_per_weight"]
    ok = rep["verdict"] == "pass" and elapsed < 10
    assert _line("07", ok, f"lambda_2 per weight {lambdas}, {elapsed:.2f}s")
    assert ok


def test_criterion_08_design_to_code_pipeline(type1, c6):
    rep = verify_thm_1_4_pipeline(c6)
    steps = rep["witnesses"]["steps"]
    recovered = code_from_design(c6)
    assert steps["dual_minimum_distance"] is True
    assert steps["count_bound"] is True
    ok = rep["verdict"] == "pass" and recovered == type1
    assert _line("08", ok, f"steps {steps}, recovered code equals original: "
                        f"{recovered == type1}")
    assert ok


def test_criterion_09_classical_criterion_gap(type1):
    am = {t: assmus_mattson_check(type1, t)["verdict"] == "pass" for t in (1, 2)}
    designs_anyway = (verify_thm_1_2_type1(type1)["verdict"] == "pass"
                      and verify_thm_1_1(type1)["verdict"] == "pass")
    ok = am == {1: False, 2: False} and designs_anyway
    assert _line("09", ok, f"criterion applicable: {am}; designs verified "
                        f"anyway: {designs_anyway}")
    assert ok


def test_criterion_10a_transform_identity_on_random_codes():
    rng = random.Random(17)
    checked = 0
    while checked < 50:
        n = rng.choice((4, 6, 8, 10, 12))
        deg_cap = min(3 if n <= 10 else 2, n // 2)
        deg = rng.randrange(0, deg_cap + 1)
        dim = max(1, min(n - 1, n // 2 + rng.choice((-1, 0, 1))))
        c = code_from_rows((rng.getrandbits(n) for _ in range(dim)), n)
        if c.dimension == 0:
            continue
        basis = harm_basis(n, deg)
        f = basis[rng.randrange(len(basis))]
        lhs = bachoc_transform(zcf(c, f), deg, c.size, n)
        assert lhs == zcf(dual(c), f), (n, deg, c.basis)
        checked += 1
    _line("10a", True, f"transform identity on {checked} random codes "
                       f"(degree <= 3, n <= 12)")


def test_criterion_10b_design_check_route_agreement():
    rng = random.Random(23)
    checked = 0
    while checked < 100:
        v = rng.randrange(4, 11)
        k = rng.randrange(2, v)
        t = rng.randrange(1, min(k, 3) + 1)
        blocks = tuple(
            tuple(sorted(rng.sample(range(1, v + 1), k)))
            for _ in range(rng.randrange(2, 9))
        )
        d = Design(v, blocks)
        counting = is_t_design(d, t) is not None
        harmonic = delsarte_design_check(d, t)
        assert counting == harmonic, (v, k, t, blocks)
        checked += 1
    _line("10b", True, f"counting and harmonic verdicts agree on "
                       f"{checked} random block multisets")


def test_criterion_10c_dual_distribution_for_catalog_codes(type1, fsd16):
    names = ["i2", "d4", "e8", "d4+d4", "i2+i2+i2+i2", "d4+i2+i2", "e8+e8"]
    codes = [(n, builtin(n)) for n in names]
    codes += [("type1-16", type1), ("fsd-16", fsd16)]
    for name, c in codes:
        wd = weight_distribution(c)
        assert macwilliams(wd, c.n, c.dimension) == weight_distribution(dual(c)), name
    _line("10c", True, f"dual spectra match the transform for "
                       f"{len(codes)} catalog codes")


def test_criterion_10d_length_64_stays_gated():
    with pytest.raises(EnumerationGuardError):
        verify_thm_1_2_fsd(code_from_rows([0b11], 64))
    _line("10d", True, "length-64 scenario rejects with the "
                       "enumeration-guard error")


def test_criterion_11_mutation_sensitivity(type1, c6):
    rng = random.Random(29)
    witnesses = []
    ok = True
    for _ in range(5):
        idx = rng.randrange(c6.b)
        mutated = Design(c6.v, c6.blocks[:idx] + c6.blocks[idx + 1:])
        rep = verify_thm_1_2_type1(type1, mutated)
        flipped = (rep["verdict"] == "fail"
                   and rep["witnesses"]["counting_route"] is False
                   and rep["witnesses"].get("violation") is not None)
        ok = ok and flipped
        if rep["witnesses"].get("violation"):
            witnesses.append(rep["witnesses"]["violation"][0])
    assert _line("11", ok, f"5 single-block deletions all flip the counting "
                         f"check; sample witness pairs {witnesses[:3]}")
    assert ok
