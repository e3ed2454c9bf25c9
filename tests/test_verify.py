"""Scenario verifiers: reports, witnesses, preconditions, mutation checks."""

import json
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest

import oracles
from amdesign import designs, gf2core, harmonic
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
    # report renders its witnesses with exact_json, in the envelope's order.
    rep = report("demo", True, {"lambda": 8, "ratio": Fraction(1, 2)})
    assert rep["verdict"] == "pass"
    assert rep == {
        "scenario": "demo",
        "verdict": "pass",
        "witnesses": {"lambda": "8", "ratio": "1/2"},
    }
    assert list(rep) == ["scenario", "verdict", "witnesses"]
    # Witnesses already rendered give the same dict again.
    assert report("demo", True, rep["witnesses"]) == rep
    assert pickle.loads(pickle.dumps(rep)) == rep
    assert report("demo", False, {})["verdict"] == "fail"
    with pytest.raises(TypeError):
        report("demo", True, {"ratio": 0.5})


def test_strength_profile(type1):
    per = strength_profile(type1, 3)
    assert per == {4: 1, 6: 2, 8: 1, 10: 2, 12: 1}
    # verify_thm_1_2_type1 reads its strength-2 weights off in this order.
    assert list(per) == [4, 6, 8, 10, 12]
    assert min(per.values()) == 1 and max(per.values()) == 2
    with pytest.raises(ValueError):
        strength_profile(BinaryCode(4), 2)


def test_thm_1_1_on_the_extended_qr_code_of_length_32():
    # 2^16 words: the support designs are read off the weight slices.
    qr32 = oracles.extended_qr(31)
    assert weight_distribution(qr32) == {
        0: 1, 8: 620, 12: 13888, 16: 36518, 20: 13888, 24: 620, 32: 1}
    rep = verify_thm_1_1(qr32)
    assert rep["verdict"] == "pass"
    assert rep["witnesses"] == {
        "branch": "self_dual",
        "lambda_1_per_weight": {"8": "155", "12": "5208", "16": "18259", "20": "8680",
                                "24": "465"},
        "counting_route": True,
        "harmonic_route": True,
    }


def test_strength_profile_no_gap_control():
    per = strength_profile(direct_sum(builtin("e8"), builtin("e8")), 2)
    assert min(per.values()) == max(per.values())


def test_assmus_mattson_applicable():
    rep = assmus_mattson_check(builtin("e8"), 3)
    assert rep["verdict"] == "pass"
    w = rep["witnesses"]
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
        assert rep["verdict"] == "fail"
        w = rep["witnesses"]
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
        assert rep["verdict"] == "pass"
        assert rep["witnesses"]["branch"] == "self_dual"
        assert rep["witnesses"]["counting_route"] is True
        assert rep["witnesses"]["harmonic_route"] is True


def test_thm_1_1_fsd_case(fsd16):
    rep = verify_thm_1_1(fsd16)
    assert rep["verdict"] == "pass"
    assert rep["witnesses"]["branch"] == "formally_self_dual"
    assert rep["witnesses"]["counting_route"] is True
    assert rep["witnesses"]["harmonic_route"] is True


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
    assert rep["verdict"] == "pass"
    w = rep["witnesses"]
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
        assert rep["verdict"] == "fail"
        assert rep["witnesses"]["counting_route"] is False
        pts1, cover1, pts2, cover2 = rep["witnesses"]["violation"]
        assert cover1 != cover2
        assert len(pts1) == len(pts2) == 2


def test_thm_1_2_type1_runs_no_design_check_on_its_own_c6(type1, monkeypatch):
    # Both routes and the complement read the slice's masks: no Design is
    # built, validated, walked or complemented.
    def refuse(*args):
        raise AssertionError("called")

    for module, name in [(designs, "_checked_blocks"), (designs, "_blocks_check"),
                         (designs, "complement_design"), (harmonic, "delsarte_design_check")]:
        monkeypatch.setattr(module, name, refuse)
    assert verify_thm_1_2_type1(type1)["verdict"] == "pass"


def test_thm_1_2_type1_fails_a_2_design_that_is_not_c10s_complement(type1, c6):
    # The C_6 of a permuted copy is a 2-(16,6,8) design of 64 blocks, but not
    # the complement of type1's C_10.
    other = support_design(oracles.permuted(type1, random.Random(3).sample(range(16), 16)), 6)
    assert other != c6
    rep = verify_thm_1_2_type1(type1, other)
    w = rep["witnesses"]
    assert w["counting_route"] is True and w["harmonic_route"] is True
    assert w["lambda_2"] == "8" and w["block_count"] == "64"
    assert w["complement_matches"] is False
    assert rep["verdict"] == "fail"


def test_thm_1_2_type1_names_no_violation_of_a_2_design(type1, c6):
    # C_6 twice is a 2-design with lambda_2 = 16: no pair of 2-subsets
    # covered differently exists to name.
    rep = verify_thm_1_2_type1(type1, Design(16, c6.blocks * 2))
    w = rep["witnesses"]
    assert (w["lambda_2"], w["block_count"]) == ("16", "128")
    assert w["counting_route"] is False and w["harmonic_route"] is True
    assert w["complement_matches"] is False
    assert "violation" not in w


def test_thm_1_2_type1_reports_on_blocks_of_every_point(type1, tmp_path, capsys):
    # Blocks of all 16 points have empty complements: the report says that
    # they are not C_10's complement, with exit 1.
    path = tmp_path / "full.json"
    path.write_text(oracles.format_design(Design(16, [range(1, 17)] * 3)) + "\n")
    argv = ["verify", "thm1.2-1", "-b", "type1_16", "-d", str(path), "--format", "json"]
    assert run(argv) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "fail"
    assert out["witnesses"] == {
        "lambda_2": "3", "block_count": "3", "counting_route": False,
        "harmonic_route": True, "complement_matches": False,
        "strengths": {"4": "1", "6": "2", "8": "1", "10": "2", "12": "1"},
        "delta": "1", "s": "2", "strength_2_weights": ["6", "10"]}


def test_thm_1_2_fsd_pass(fsd16):
    rep = verify_thm_1_2_fsd(fsd16)
    assert rep["verdict"] == "pass"
    lambdas = rep["witnesses"]["lambda_2_per_weight"]
    assert set(lambdas) == {"6", "10"}
    assert all(v is not None for v in lambdas.values())
    assert rep["witnesses"]["self_dual"] is False
    assert rep["witnesses"]["counting_route"] is rep["witnesses"]["harmonic_route"] is True


def test_thm_1_2_fsd_accepts_self_dual(type1):
    rep = verify_thm_1_2_fsd(type1)
    assert rep["verdict"] == "pass"
    assert rep["witnesses"]["self_dual"] is True
    assert rep["witnesses"]["lambda_2_per_weight"] == {"6": "16", "10": "48"}
    assert rep["witnesses"]["counting_route"] is rep["witnesses"]["harmonic_route"] is True


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


# The Type I [16,8,2] code i2^8: self-dual, singly even and d = 2, two
# below the near-extremal distance 4 at length 16.
I2_8 = "+".join(["i2"] * 8)


def test_thm_1_2_fsd_preconditions():
    # e8+e8 is even, self-dual and near-extremal (d = 4), but holds no word
    # of weight 6 or 10.
    with pytest.raises(PreconditionError, match="the union designs are empty"):
        verify_thm_1_2_fsd(direct_sum(builtin("e8"), builtin("e8")))
    c24 = direct_sum(direct_sum(builtin("e8"), builtin("e8")), builtin("e8"))
    with pytest.raises(PreconditionError, match="length must be 16"):
        verify_thm_1_2_fsd(c24)
    # A [16,2] code of two weight-1 rows is not even.
    with pytest.raises(PreconditionError, match="code is not even formally self-dual"):
        verify_thm_1_2_fsd(code_from_rows([1, 2], 16))
    with pytest.raises(PreconditionError, match="code is not near-extremal"):
        verify_thm_1_2_fsd(builtin(I2_8))
    with pytest.raises(EnumerationGuardError, match="length-64 unions"):
        big = code_from_rows([1], 64)
        verify_thm_1_2_fsd(big)  # length-64 branch is gated


# _require_type1_16 refuses a Type I code of length 16 below d = 4.
@pytest.mark.parametrize("scenario", ["thm1.2-1", "cor1.5"])
def test_a_type_i_16_scenario_refuses_a_code_that_is_not_near_extremal(capsys, scenario):
    assert run(["verify", scenario, "-b", I2_8]) == 2
    assert capsys.readouterr() == ("", "error: code is not near-extremal\n")


def test_thm_1_4_pipeline_pass(type1, c6):
    rep = verify_thm_1_4_pipeline(c6)
    assert rep["verdict"] == "pass"
    steps = rep["witnesses"]["steps"]
    assert steps == {
        "even_self_orthogonal": True,
        "dual_minimum_distance": True,
        "count_bound": True,
        "self_dual": True,
        "classification": True,
        "support_design_match": True,
    }
    assert rep["witnesses"]["dimension"] == "8"
    assert int(rep["witnesses"]["counted_words_0_6_10_16"]) == 130
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


def test_thm_1_4_pipeline_reduces_the_design_to_one_basis(monkeypatch, c6):
    # k = 6 is even, so the blocks' own span is tested for self-orthogonality:
    # no [17] code of the blocks with a parity point is built beside it.
    def refuse(*args):
        raise AssertionError("called")

    real, built = BinaryCode.__init__, []

    def counted(self, n, basis=()):
        built.append((n, len(basis)))
        real(self, n, basis)

    monkeypatch.setattr(designs, "is_self_orthogonal_design", refuse)
    monkeypatch.setattr(BinaryCode, "__init__", counted)
    assert verify_thm_1_4_pipeline(c6)["verdict"] == "pass"
    assert [code for code in built if code[1] == c6.b] == [(16, 64)]


def test_thm_1_4_pipeline_on_a_design_with_repeated_blocks(biplane):
    # Four copies of the 2-(16,6,2) biplane: a self-orthogonal 2-(16,6,8)
    # design whose code has only 16 words of weight 6, one per block.
    rep = verify_thm_1_4_pipeline(Design(16, tuple(4 * biplane)))
    assert rep["verdict"] == "fail"
    assert rep["witnesses"]["steps"]["support_design_match"] is False
    assert rep["witnesses"]["failing_step"] == "count_bound"
    assert rep["witnesses"]["dimension"] == "6"
    assert rep["witnesses"]["weight_distribution"] == \
        {"0": "1", "6": "16", "8": "30", "10": "16", "16": "1"}


def test_thm_1_4_pipeline_names_the_first_failing_step(monkeypatch, c6):
    def not_type_one(c, wd):
        return {**classify(c), "type_one": False}

    monkeypatch.setattr("amdesign.verify.classify", not_type_one)
    rep = verify_thm_1_4_pipeline(c6)
    assert rep["verdict"] == "fail"
    assert [name for name, ok in rep["witnesses"]["steps"].items() if not ok] == \
        ["classification"]
    assert rep["witnesses"]["failing_step"] == "classification"


def test_cor_1_5(type1):
    rep = verify_cor_1_5(type1)
    assert rep["verdict"] == "pass"
    w = rep["witnesses"]
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
        w = verify_thm_1_1(c)["witnesses"]
        assert w["counting_route"] == w["harmonic_route"]


def test_cor_1_5_matches_the_subcode_walk_oracle(type1):
    """C0 read off the slice of the code gives the report that building C0
    by doubly_even_subcode and slicing it gave, key order included."""
    rng = random.Random(15)
    for _ in range(8):
        c = oracles.permuted(type1, rng.sample(range(16), 16))
        rep = verify_cor_1_5(c)
        assert rep["verdict"] == "pass"
        assert json.dumps(rep) == json.dumps(oracles.verify_cor_1_5(c))


def test_reports_are_deterministic(type1):
    assert verify_thm_1_2_type1(type1) == verify_thm_1_2_type1(type1)
    assert verify_cor_1_5(type1) == verify_cor_1_5(type1)


@pytest.mark.parametrize("argv, walks", [
    (["verify", "am", "-b", "type1_16", "--t", "1"], 1),
    (["verify", "am", "-b", "e8", "--t", "3"], 1),
    (["verify", "am", "-b", "fsd_16", "--t", "1"], 1),
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
    (["search", "fsd"], 1),
    (["search", "fsd", "--seed", "7"], 8),
    (["search", "type1-16"], 1),
    (["search", "type1-16", "--seed", "3"], 2),
], ids=["am", "am-applicable", "am-fsd", "thm1.1-type1", "thm1.1-fsd", "thm1.2-1",
        "thm1.2-1-substitute", "thm1.2-2", "thm1.4", "cor1.5", "profile",
        "code-info-type1", "code-info-fsd", "search-fsd", "search-fsd-seed7",
        "search-type1", "search-type1-seed3"])
def test_each_scenario_walks_its_codes_a_pinned_number_of_times(
        monkeypatch, capsys, tmp_path, c6, argv, walks):
    """Codeword walks per command: each starts one Gray walk of
    gf2core.iter_codewords. am and thm1.4 walk no dual: gf2core.macwilliams
    reads the dual's spectrum off the code's. thm1.1's two routes read one
    slice per code. classify still walks the dual of any code of dimension n/2
    that is not self-dual, for its spectrum: thm1.2-2 calls it with no
    spectrum, and bench/test_bench.py pins thm1.2-2's walks, so the transform
    replaces that walk only with the bench pin (ROADMAP item 5). Not handed
    the code's spectrum, classify walks the code for it, and an even formally
    self-dual code once more for d. thm1.1 hands classify the code's spectrum,
    so its one walk beyond the slice of type1_16 is that spectrum, and on
    fsd_16 the two beyond the slices are the spectra of the code and its dual.
    code info hands classify the spectrum it has computed, so classify walks
    only the dual of a code that is not self-dual, and reads d off the
    spectrum. thm1.2-1 reads the spectrum, C_6, C_10 and the strengths off one
    slice of the code, with or without a substitute C_6. thm1.4 walks only the
    code of the design. cor1.5 reads C0's words, spectrum and strengths off
    the slice of the code, and slices C0's dual. thm1.2-2 stays at 8: classify
    walks fsd_16 twice (its spectrum and d) and its dual once,
    weight_distribution walks fsd_16 again, and support_design walks each of
    the two codes at w = 6 and 10. A search walks each candidate whose
    spectrum it counts and no dual; the payload prints the spectrum the
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
