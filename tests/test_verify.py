"""Scenario verifiers: reports, witnesses, preconditions, mutation checks."""

import json
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest

import oracles
from amdesign import designs, gf2core
from amdesign.catalog import builtin, direct_sum
from amdesign.designs import (
    Design,
    is_t_design,
    support_design,
)
from amdesign.cli import run
from amdesign.gf2core import (
    BinaryCode, EnumerationGuardError, classify, code_from_rows, weight_distribution)
from amdesign.verify import (
    PreconditionError,
    VerificationReport,
    assmus_mattson_check,
    exact_json,
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
    # A report renders its witnesses with exact_json when it is built.
    rep = VerificationReport("demo", True, {"lambda": 8, "ratio": Fraction(1, 2)})
    assert rep.verdict == "pass"
    obj = rep.to_dict()
    assert obj == {
        "scenario": "demo",
        "verdict": "pass",
        "witnesses": {"lambda": "8", "ratio": "1/2"},
    }
    assert VerificationReport("demo", True, obj["witnesses"]) == rep
    # __reduce__ rebuilds the report through __init__, from rendered witnesses.
    assert pickle.loads(pickle.dumps(rep)) == rep


def test_strength_profile(type1):
    prof = strength_profile(type1, 3)
    assert prof.per_weight == {4: 1, 6: 2, 8: 1, 10: 2, 12: 1}
    # verify_thm_1_2_type1 reads its strength-2 weights off in this order.
    assert list(prof.per_weight) == [4, 6, 8, 10, 12]
    assert prof.delta == 1 and prof.s == 2
    with pytest.raises(ValueError):
        strength_profile(BinaryCode(4), 2)


def test_thm_1_1_on_the_extended_qr_code_of_length_32():
    # 2^16 words: the support designs are read off the weight slices.
    qr32 = oracles.extended_qr(31)
    assert weight_distribution(qr32).counts == {
        0: 1, 8: 620, 12: 13888, 16: 36518, 20: 13888, 24: 620, 32: 1}
    rep = verify_thm_1_1(qr32)
    assert rep.passed
    assert rep.witnesses == {
        "branch": "self_dual",
        "lambda_1_per_weight": {"8": "155", "12": "5208", "16": "18259", "20": "8680",
                                "24": "465"},
        "counting_route": True,
        "harmonic_route": True,
    }


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
    # Dimension 30, past the enumeration guard, but not n/2: refused unwalked.
    rng = random.Random(1)
    big = code_from_rows([rng.getrandbits(64) for _ in range(30)], 64)
    assert big.dimension == 30
    with pytest.raises(PreconditionError, match="not near-extremal"):
        verify_thm_1_1(big)


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
    assert rep.witnesses["counting_route"] is rep.witnesses["harmonic_route"] is True


def test_thm_1_2_fsd_accepts_self_dual(type1):
    rep = verify_thm_1_2_fsd(type1)
    assert rep.passed
    assert rep.witnesses["self_dual"] is True
    assert rep.witnesses["lambda_2_per_weight"] == {"6": "16", "10": "48"}
    assert rep.witnesses["counting_route"] is rep.witnesses["harmonic_route"] is True


@pytest.mark.parametrize("mutated", [(6,), (10,), (6, 10)], ids=["6", "10", "6-10"])
def test_thm_1_2_fsd_fails_both_routes_on_a_mutant_union(monkeypatch, capsys, mutated):
    # One point of the first block of the union at each mutated weight is
    # swapped for a point outside it: that union is not even a 1-design. The
    # report names the first failing weight.
    real = designs.union

    def union(d1, d2):
        u = real(d1, d2)
        if u.k not in mutated:
            return u
        block = u.blocks[0]
        outside = min(set(range(1, u.v + 1)) - set(block))
        return Design(u.v, ((*block[1:], outside),) + u.blocks[1:])

    monkeypatch.setattr(designs, "union", union)
    assert run(["verify", "thm1.2-2", "-b", "fsd_16", "--format", "json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "fail"
    w = rep["witnesses"]
    assert (w["counting_route"], w["harmonic_route"]) == (False, False)
    assert w["violation_weight"] == str(mutated[0])
    assert all(w["lambda_2_per_weight"][str(m)] is None for m in mutated)


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


def test_thm_1_4_pipeline_on_a_design_with_repeated_blocks(biplane):
    # Four copies of the 2-(16,6,2) biplane: a self-orthogonal 2-(16,6,8)
    # design whose code has only 16 words of weight 6, one per block.
    rep = verify_thm_1_4_pipeline(Design(16, tuple(4 * biplane)))
    assert not rep.passed
    assert rep.witnesses["steps"]["support_design_match"] is False
    assert rep.witnesses["failing_step"] == "count_bound"
    assert rep.witnesses["dimension"] == "6"
    assert rep.witnesses["weight_distribution"] == \
        {"0": "1", "6": "16", "8": "30", "10": "16", "16": "1"}


def test_thm_1_4_pipeline_names_the_first_failing_step(monkeypatch, c6):
    def not_type_one(c, wd):
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


def test_cor_1_5_matches_the_subcode_walk_oracle(type1):
    """C0 read off the slice of the code gives the report that building C0
    by doubly_even_subcode and slicing it gave, key order included."""
    rng = random.Random(15)
    for _ in range(8):
        c = oracles.permuted(type1, rng.sample(range(16), 16))
        rep = verify_cor_1_5(c)
        assert rep.passed
        assert json.dumps(rep.to_dict()) == json.dumps(oracles.verify_cor_1_5(c).to_dict())


def test_reports_are_deterministic(type1):
    assert verify_thm_1_2_type1(type1) == verify_thm_1_2_type1(type1)
    assert verify_cor_1_5(type1).to_dict() == verify_cor_1_5(type1).to_dict()


@pytest.mark.parametrize("argv, walks", [
    (["verify", "am", "-b", "type1_16", "--t", "1"], 1),
    (["verify", "am", "-b", "e8", "--t", "3"], 1),
    (["verify", "am", "-b", "fsd_16", "--t", "1"], 2),
    (["verify", "thm1.1", "-b", "type1_16"], 2),
    (["verify", "thm1.1", "-b", "fsd_16"], 4),
    (["verify", "thm1.2-1", "-b", "type1_16"], 1),
    (["verify", "thm1.2-1", "-b", "type1_16", "-d", "c6.json"], 1),
    (["verify", "thm1.2-2", "-b", "fsd_16"], 8),
    (["verify", "thm1.4", "-d", "c6.json"], 1),
    (["verify", "cor1.5", "-b", "type1_16"], 2),
    (["verify", "profile", "-b", "type1_16"], 1),
    (["code", "info", "-b", "type1_16"], 1),
    (["code", "info", "-b", "fsd_16"], 2),
    (["search", "fsd"], 2),
    (["search", "fsd", "--seed", "7"], 10),
    (["search", "type1-16"], 1),
    (["search", "type1-16", "--seed", "3"], 2),
], ids=["am", "am-applicable", "am-fsd", "thm1.1-type1", "thm1.1-fsd", "thm1.2-1",
        "thm1.2-1-substitute", "thm1.2-2", "thm1.4", "cor1.5", "profile",
        "code-info-type1", "code-info-fsd", "search-fsd", "search-fsd-seed7",
        "search-type1", "search-type1-seed3"])
def test_each_scenario_walks_its_codes_a_pinned_number_of_times(
        monkeypatch, capsys, tmp_path, c6, argv, walks):
    """Codeword walks per command: each starts one Gray walk of
    gf2core.iter_codewords. A self-dual code is its own dual, so am and thm1.4
    read d_dual off the code's own spectrum, and walk a dual only when it is
    another code (fsd_16). thm1.1's two routes read one slice per code.
    classify walks any code of dimension n/2 that is not self-dual twice, for
    its spectrum and its dual's, and an even formally self-dual code once for
    d. thm1.1 hands classify the code's spectrum, so its one walk beyond the
    slice of type1_16 is that spectrum, and on fsd_16 the two beyond the slices
    are the spectra of the code and its dual. code info hands classify the
    spectrum it has computed, so classify walks only the dual of a code that is
    not self-dual, and reads d off the spectrum. thm1.2-1 reads the spectrum,
    C_6, C_10 and the strengths off one slice of the code, with or without a
    substitute C_6. thm1.4 walks only the code of the design. cor1.5 reads C0's
    words, spectrum and strengths off the slice of the code, and slices C0's
    dual. thm1.2-2 stays at 8: classify walks fsd_16 twice (its spectrum and d)
    and its dual once, weight_distribution walks fsd_16 again, and
    support_design walks each of the two codes at w = 6 and 10. A search walks
    each candidate whose spectrum it counts, and the fsd search the dual of
    each candidate it compares with it; the payload prints the spectrum the
    search tested, so no hit is walked again."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c6.json").write_text(oracles.format_design(c6) + "\n")
    real, count = gf2core.iter_codewords, [0]

    def counted(c):
        count[0] += 1
        return real(c)

    monkeypatch.setattr(gf2core, "iter_codewords", counted)
    assert run(argv) in (0, 1)
    capsys.readouterr()
    assert count[0] == walks
