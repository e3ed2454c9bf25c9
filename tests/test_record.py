"""The Record base of the library's value classes: equality, hashing, repr,
immutability, and each class's validation, normalisation and keywords."""

import copy
import json
import pickle
from fractions import Fraction

import pytest

from amdesign.catalog import SearchConfig
from amdesign.cli import run
from amdesign.designs import Design
from amdesign.gf2core import (
    BinaryCode, CodeClass, Record, WeightDistribution, _rref, classify)
from amdesign.harmonic import HarmonicFunction
from amdesign.polyring import HomPoly
from amdesign.verify import StrengthProfile, VerificationReport

CLASS_FLAGS = ("even", "doubly_even", "self_orthogonal", "self_dual",
               "formally_self_dual", "type_one", "type_two")

# One keyword-built instance of each class.
SAMPLES = [
    BinaryCode(n=4, basis=(0b0011, 0b0110)),
    WeightDistribution(counts={0: 1, 2: 3}),
    CodeClass(**dict.fromkeys(CLASS_FLAGS, False), extremality="neither"),
    Design(v=4, blocks=((1, 2), (3, 4))),
    HomPoly(degree=1, coeffs=(1, 2)),
    HarmonicFunction(n=5, pairs=((1, 3), (2, 4))),
    VerificationReport(scenario="am", passed=True, witnesses={"t": "1"}),
    StrengthProfile(per_weight={4: 1, 6: 2}),
    SearchConfig(seed=3, max_iterations=10),
]


def _id(x):
    return type(x).__name__


def test_every_value_class_is_a_record():
    assert len({type(x) for x in SAMPLES}) == 9
    assert all(isinstance(x, Record) for x in SAMPLES)


@pytest.mark.parametrize("x", SAMPLES, ids=_id)
def test_fields_are_the_slots_in_order(x):
    assert list(x.fields()) == list(type(x).__slots__)
    assert not hasattr(x, "__dict__")


@pytest.mark.parametrize("x", SAMPLES, ids=_id)
def test_assignment_and_deletion_raise(x):
    name = type(x).__slots__[0]
    before = getattr(x, name)
    with pytest.raises(AttributeError):
        setattr(x, name, before)
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert getattr(x, name) is before


@pytest.mark.parametrize("x", SAMPLES, ids=_id)
def test_equal_to_a_copy_of_its_fields(x):
    twin = type(x)(*x.fields().values())
    assert twin == x and not twin != x
    assert copy.copy(x) == x
    assert pickle.loads(pickle.dumps(x)) == x


def test_equality_goes_by_fields():
    assert BinaryCode(4, (0b0011, 0b0110)) == BinaryCode(4, (0b0101, 0b0011))
    assert BinaryCode(4, (0b0011,)) != BinaryCode(5, (0b0011,))
    assert SearchConfig() == SearchConfig(0, 1_000_000) != SearchConfig(seed=1)


def test_instances_of_different_classes_are_never_equal():
    # The same field values in two classes.
    assert WeightDistribution({4: 1}) != StrengthProfile({4: 1})
    assert not WeightDistribution({4: 1}) == StrengthProfile({4: 1})
    assert Design(4, ((1, 2),)) != (4, ((1, 2),))
    assert Record.__eq__(SearchConfig(), (0, 1_000_000)) is NotImplemented


def test_hash_is_the_hash_of_the_fields():
    a, b = BinaryCode(4, (0b0011, 0b0110)), BinaryCode(4, (0b0101, 0b0011))
    assert hash(a) == hash(b) == hash((4, a.basis))
    assert len({a, b, BinaryCode(4)}) == 2
    assert hash(SearchConfig(seed=2)) == hash((2, 1_000_000))
    with pytest.raises(TypeError):
        hash(WeightDistribution({0: 1}))  # a dict field is unhashable


def test_repr_shows_the_fields():
    assert repr(BinaryCode(3, (0b110, 0b011))) == "BinaryCode(n=3, basis=(5, 6))"
    assert repr(SearchConfig()) == "SearchConfig(seed=0, max_iterations=1000000)"
    assert repr(Design(2, ((2, 1),))) == "Design(v=2, blocks=((1, 2),))"


def test_binary_code_validates_and_reduces():
    with pytest.raises(ValueError, match="code length must be positive"):
        BinaryCode(0)
    with pytest.raises(ValueError, match="generator row does not fit"):
        BinaryCode(2, (0b100,))
    with pytest.raises(ValueError, match="generator row does not fit"):
        BinaryCode(2, (-1,))
    rows = [0b1110, 0b0111, 0b1001]
    c = BinaryCode(n=4, basis=rows)
    assert c.basis == tuple(_rref(rows)) and isinstance(c.basis, tuple)
    assert BinaryCode(3).basis == ()


def test_weight_distribution_validates_and_sorts():
    with pytest.raises(ValueError, match="nonnegative"):
        WeightDistribution({-1: 1})
    with pytest.raises(ValueError, match="nonnegative"):
        WeightDistribution({2: -1})
    wd = WeightDistribution(counts={8: 2, 0: 1, 4: 0})
    assert list(wd.counts.items()) == [(0, 1), (8, 2)]


def test_code_class_keywords_and_json_order(capsys):
    cls = classify(BinaryCode(2, (0b11,)))
    assert cls == CodeClass(even=True, doubly_even=False, self_orthogonal=True,
                            self_dual=True, formally_self_dual=True, type_one=True,
                            type_two=False, extremality="extremal")
    assert run(["code", "info", "-b", "type1_16", "--format", "json"]) == 0
    block = json.loads(capsys.readouterr().out)["class"]
    assert list(block) == [*CLASS_FLAGS, "extremality"]


def test_design_validates_and_sorts():
    for v, blocks, message in [
        (1.5, ((1,),), "must be an integer"),
        (0, ((1,),), "must be positive"),
        (3, (), "at least one block"),
        (3, ((1, 1),), "repeated point"),
        (3, ((1, 2), (3,)), "share one size"),
        (3, ((1, 4),), "out of range"),
        (3, ((1, 2.0),), "must be integers"),
    ]:
        with pytest.raises(ValueError, match=message):
            Design(v, blocks)
    d = Design(v=4, blocks=[(4, 2), (3, 1), (2, 1)])
    assert d.blocks == ((1, 2), (1, 3), (2, 4))


def test_hom_poly_validates_and_keeps_exact_coefficients():
    with pytest.raises(ValueError, match="nonnegative"):
        HomPoly(-1, ())
    with pytest.raises(ValueError, match="wrong length"):
        HomPoly(2, (1, 0))
    p = HomPoly(degree=2, coeffs=[1, Fraction(1, 2), 0])
    assert p.coeffs == (1, Fraction(1, 2), 0) and isinstance(p.coeffs, tuple)
    assert [type(x) for x in p.coeffs] == [int, Fraction, int]
    ints, fractions = HomPoly(1, (1, 2)), HomPoly(1, (Fraction(1), Fraction(2)))
    assert ints == fractions and hash(ints) == hash(fractions)
    assert str(ints) == str(fractions) == "x + 2*y"
    for q in (p, ints, fractions):
        back = pickle.loads(pickle.dumps(q))
        assert back == q and [type(x) for x in back.coeffs] == [type(x) for x in q.coeffs]


def test_harmonic_function_validates_and_makes_tuples():
    with pytest.raises(ValueError, match="the column pairs overlap"):
        HarmonicFunction(4, ((1, 2), (3, 1)))
    with pytest.raises(ValueError, match="point 5 is outside 1..4"):
        HarmonicFunction(4, ((5, 1),))
    with pytest.raises(ValueError):
        HarmonicFunction(4, ((1, 2, 3),))
    f = HarmonicFunction(n=4, pairs=[[1, 2], [3, 4]])
    assert f.pairs == ((1, 2), (3, 4)) and f.k == 2
    assert hash(f) == hash((4, ((1, 2), (3, 4))))


def test_reports_and_profiles_by_keyword():
    rep = VerificationReport(scenario="thm1.1", passed=False, witnesses={"w": "6"})
    assert rep.verdict == "fail"
    prof = StrengthProfile(per_weight={4: 1, 6: 3})
    assert (prof.delta, prof.s) == (1, 3)


def test_search_config_defaults():
    cfg = SearchConfig(max_iterations=5)
    assert (cfg.seed, cfg.max_iterations) == (0, 5)
    assert SearchConfig().fields() == {"seed": 0, "max_iterations": 1_000_000}


def test_search_config_rejects_a_negative_budget():
    assert SearchConfig(max_iterations=0).max_iterations == 0
    for bad in (-1, -5):
        with pytest.raises(ValueError, match="max_iterations must be nonnegative"):
            SearchConfig(seed=1, max_iterations=bad)
