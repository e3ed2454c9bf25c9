"""Scenario verifiers: reports, witnesses, preconditions, mutation checks."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from amdesign.catalog import builtin, direct_sum
from amdesign.designs import (
    Design,
    is_t_design,
    support_design,
)
from amdesign.gf2core import BinaryCode, EnumerationGuardError, classify, code_from_rows
from amdesign.verify import (
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


def drop_block(d, index):
    return Design(d.v, d.blocks[:index] + d.blocks[index + 1:])


def test_exact_json():
    assert exact_json(None) is None
    assert exact_json(True) is True
    assert exact_json(7) == "7"
    assert exact_json(Fraction(3, 2)) == "3/2"
    assert exact_json({4: Fraction(1, 3)}) == {"4": "1/3"}
    assert exact_json((1, [2, False])) == ["1", ["2", False]]
    assert exact_json([True, 0, Fraction(-4, 2)]) == [True, "0", "-2"]
    for inexact in (1.5, 2.0, Decimal("1.5"), Decimal(3), [1, 0.5], {1: Decimal(2)}):
        with pytest.raises(TypeError):
            exact_json(inexact)


def test_report_round_trip():
    rep = report("demo", True, {"lambda": 8, "ratio": Fraction(1, 2)})
    assert rep.verdict == "pass"
    obj = rep.to_dict()
    assert obj == {
        "scenario": "demo",
        "verdict": "pass",
        "witnesses": {"lambda": "8", "ratio": "1/2"},
    }


def test_strength_profile(type1):
    prof = strength_profile(type1, 3)
    assert prof.per_weight == {4: 1, 6: 2, 8: 1, 10: 2, 12: 1}
    assert prof.delta == 1 and prof.s == 2
    with pytest.raises(ValueError):
        strength_profile(BinaryCode(4), 2)


def test_strength_profile_no_gap_control():
    prof = strength_profile(direct_sum(builtin("e8"), builtin("e8")), 2)
    assert prof.delta == prof.s


def test_assmus_mattson_applicable():
    rep = assmus_mattson_check(builtin("e8"), 3)
    assert rep.passed
    w = rep.witnesses
    assert w["applicable"] is True
    assert w["nonzero_weights_at_most_n_minus_t"] == ["4"]
    assert w["promised_code_weights"] == ["4"]
    assert w["promised_dual_weights"] == ["4", "8"]
    # confirm the promise by direct counting
    c4 = support_design(builtin("e8"), 4)
    assert is_t_design(c4, 3) == 1
    assert c4.b == 14


def test_assmus_mattson_not_applicable(type1):
    for t in (1, 2):
        rep = assmus_mattson_check(type1, t)
        assert not rep.passed
        w = rep.witnesses
        assert w["applicable"] is False
        assert w["nonzero_weights_at_most_n_minus_t"] == \
            ["4", "6", "8", "10", "12"]
        assert int(w["weight_count"]) > int(w["bound"])
    for t in (4, 0, -1):
        with pytest.raises(PreconditionError):
            assmus_mattson_check(type1, t)


def test_thm_1_1_self_dual_cases(type1):
    for c in (builtin("d4+d4"), builtin("i2+i2+i2+i2"),
              builtin("d4+i2+i2"), type1):
        rep = verify_thm_1_1(c)
        assert rep.passed
        assert rep.witnesses["branch"] == "self_dual"
        assert rep.witnesses["counting_route"] is True
        assert rep.witnesses["harmonic_route"] is True


def test_thm_1_1_fsd_case(fsd16):
    rep = verify_thm_1_1(fsd16)
    assert rep.passed
    assert rep.witnesses["branch"] == "formally_self_dual"
    assert rep.witnesses["counting_route"] is True
    assert rep.witnesses["harmonic_route"] is True


def test_thm_1_1_preconditions(type1):
    with pytest.raises(PreconditionError):
        verify_thm_1_1(builtin("i2"))  # length not divisible by 8
    with pytest.raises(PreconditionError):
        verify_thm_1_1(builtin("e8"))  # extremal, not near-extremal
    with pytest.raises(PreconditionError):
        verify_thm_1_1(code_from_rows([1, 2], 8))  # not even fsd


def test_thm_1_2_type1_pass(type1):
    rep = verify_thm_1_2_type1(type1)
    assert rep.passed
    w = rep.witnesses
    assert w["lambda_2"] == "8"
    assert w["block_count"] == "64"
    assert w["counting_route"] is True and w["harmonic_route"] is True
    assert w["complement_matches"] is True
    assert w["strengths"] == {"4": "1", "6": "2", "8": "1", "10": "2", "12": "1"}
    assert w["delta"] == "1" and w["s"] == "2"
    assert w["strength_2_weights"] == ["6", "10"]


def test_thm_1_2_type1_preconditions():
    with pytest.raises(PreconditionError):
        verify_thm_1_2_type1(direct_sum(builtin("e8"), builtin("e8")))
    with pytest.raises(PreconditionError):
        verify_thm_1_2_type1(builtin("e8"))


def test_thm_1_2_type1_mutation_sensitivity(type1, c6):
    rng = random.Random(2)
    for _ in range(5):
        mutated = drop_block(c6, rng.randrange(c6.b))
        rep = verify_thm_1_2_type1(type1, mutated)
        assert not rep.passed
        assert rep.witnesses["counting_route"] is False
        pts1, cover1, pts2, cover2 = rep.witnesses["violation"]
        assert cover1 != cover2
        assert len(pts1) == len(pts2) == 2


def test_thm_1_2_fsd_pass(fsd16):
    rep = verify_thm_1_2_fsd(fsd16)
    assert rep.passed
    lambdas = rep.witnesses["lambda_2_per_weight"]
    assert set(lambdas) == {"6", "10"}
    assert all(v is not None for v in lambdas.values())
    assert rep.witnesses["self_dual"] is False


def test_thm_1_2_fsd_accepts_self_dual(type1):
    rep = verify_thm_1_2_fsd(type1)
    assert rep.passed
    assert rep.witnesses["self_dual"] is True
    assert rep.witnesses["lambda_2_per_weight"] == {"6": "16", "10": "48"}


def test_thm_1_2_fsd_preconditions():
    with pytest.raises(PreconditionError):
        verify_thm_1_2_fsd(direct_sum(builtin("e8"), builtin("e8")))  # doubly even
    c24 = direct_sum(direct_sum(builtin("e8"), builtin("e8")), builtin("e8"))
    with pytest.raises(PreconditionError):
        verify_thm_1_2_fsd(c24)  # wrong length
    with pytest.raises(EnumerationGuardError):
        big = code_from_rows([1], 64)
        verify_thm_1_2_fsd(big)  # length-64 branch is gated


def test_thm_1_4_pipeline_pass(type1, c6):
    rep = verify_thm_1_4_pipeline(c6)
    assert rep.passed
    steps = rep.witnesses["steps"]
    assert steps == {
        "even_self_orthogonal": True,
        "dual_minimum_distance": True,
        "count_bound": True,
        "self_dual": True,
        "classification": True,
        "support_design_match": True,
    }
    assert rep.witnesses["dimension"] == "8"
    assert int(rep.witnesses["counted_words_0_6_10_16"]) == 130
    # the generated code is the original one
    from amdesign.designs import code_from_design
    assert code_from_design(c6) == type1


def test_thm_1_4_pipeline_preconditions(c6, bent_design):
    with pytest.raises(PreconditionError, match="v = 16"):
        verify_thm_1_4_pipeline(Design(15, ((1, 2, 3, 4, 5, 6),)))
    with pytest.raises(PreconditionError, match="k = 6"):
        verify_thm_1_4_pipeline(Design(16, ((1, 2, 3, 4, 5),)))
    with pytest.raises(PreconditionError, match="lambda = 8"):
        verify_thm_1_4_pipeline(drop_block(c6, 0))
    with pytest.raises(PreconditionError, match="odd block intersection"):
        verify_thm_1_4_pipeline(bent_design)


def test_thm_1_4_pipeline_names_the_first_failing_step(monkeypatch, c6):
    def not_type_one(c):
        cls = classify(c)
        return type(cls)(**{**cls.fields(), "type_one": False})

    monkeypatch.setattr("amdesign.verify.classify", not_type_one)
    rep = verify_thm_1_4_pipeline(c6)
    assert not rep.passed
    assert [name for name, ok in rep.witnesses["steps"].items() if not ok] == \
        ["classification"]
    assert rep.witnesses["failing_step"] == "classification"


def test_cor_1_5(type1):
    rep = verify_cor_1_5(type1)
    assert rep.passed
    w = rep.witnesses
    assert all(w["checks"].values())
    assert w["subcode_weight_distribution"] == \
        {"0": "1", "4": "12", "8": "102", "12": "12", "16": "1"}
    assert w["subcode_strengths"] == {"4": "1", "8": "1", "12": "1"}
    assert w["dual_strengths"] == \
        {"4": "1", "6": "2", "8": "1", "10": "2", "12": "1"}
    with pytest.raises(PreconditionError):
        verify_cor_1_5(builtin("e8"))


def test_routes_always_agree(type1, fsd16):
    for c in (builtin("d4+d4"), builtin("d4+i2+i2"), type1, fsd16):
        w = verify_thm_1_1(c).witnesses
        assert w["counting_route"] == w["harmonic_route"]


def test_reports_are_deterministic(type1):
    assert verify_thm_1_2_type1(type1) == verify_thm_1_2_type1(type1)
    assert verify_cor_1_5(type1).to_dict() == verify_cor_1_5(type1).to_dict()
