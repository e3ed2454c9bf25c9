"""Builtin constructions, randomized searches, and the pinned-code store."""

import json

import pytest
from hypothesis import assume, given, settings, strategies as st

import amdesign.catalog
import oracles

from amdesign.catalog import (
    BUILTIN_NAMES,
    SearchBudgetError,
    SearchConfig,
    builtin,
    data_dir,
    direct_sum,
    load_code,
    pinned_even_fsd_16,
    pinned_type_i_16,
    save_code,
    search_even_fsd,
    search_type_i_16,
)
from amdesign.gf2core import (
    classify,
    code_from_rows,
    dual,
    minimum_distance,
    weight_distribution,
)
from amdesign.polyring import weight_enumerator_poly

TYPE1_WD = {0: 1, 4: 12, 6: 64, 8: 102, 10: 64, 12: 12, 16: 1}


def test_builtin_atoms():
    assert BUILTIN_NAMES == ("d4", "e8", "i2")
    i2 = builtin("i2")
    assert (i2.n, i2.dimension, minimum_distance(i2)) == (2, 1, 2)
    e8 = builtin("e8")
    assert (e8.n, e8.dimension, minimum_distance(e8)) == (8, 4, 4)
    assert classify(e8).type_two
    with pytest.raises(ValueError):
        builtin("golay")
    with pytest.raises(ValueError):
        builtin("d4++e8")


def test_builtin_composites():
    dd = builtin("d4+d4")
    assert (dd.n, dd.dimension, minimum_distance(dd)) == (8, 4, 2)
    assert classify(dd).type_one
    quad = builtin("i2+i2+i2+i2")
    assert (quad.n, quad.dimension) == (8, 4)
    assert classify(quad).self_dual


def test_direct_sum_properties():
    a, b = builtin("i2"), builtin("d4")
    s = direct_sum(a, b)
    assert s.n == 6 and s.dimension == 3
    assert minimum_distance(s) == 2
    wa = weight_enumerator_poly(weight_distribution(a), a.n)
    wb = weight_enumerator_poly(weight_distribution(b), b.n)
    ws = weight_enumerator_poly(weight_distribution(s), s.n)
    assert ws == wa * wb
    ee = direct_sum(builtin("e8"), builtin("e8"))
    assert classify(ee).type_two


def test_search_type1_16():
    c, wd = search_type_i_16()
    assert wd == weight_distribution(c)
    assert wd.counts == TYPE1_WD
    cls = classify(c)
    assert cls.type_one and cls.self_dual and not cls.doubly_even
    assert minimum_distance(c) == 4


def test_search_seeds_share_the_spectrum():
    for seed in (1, 2):
        c, wd = search_type_i_16(SearchConfig(seed=seed))
        assert wd == weight_distribution(c)
        assert wd.counts == TYPE1_WD


def test_search_determinism():
    c, wd = search_type_i_16(SearchConfig(seed=5))
    assert wd == weight_distribution(c)
    assert search_type_i_16(SearchConfig(seed=5)) == (c, wd)


def test_search_budget_error():
    with pytest.raises(SearchBudgetError):
        search_type_i_16(SearchConfig(seed=0, max_iterations=1))


def test_search_fsd_16():
    c, wd = search_even_fsd(16, 4)
    assert wd == weight_distribution(c)
    cls = classify(c)
    assert cls.even and cls.formally_self_dual and not cls.self_dual
    assert c != dual(c)
    assert minimum_distance(c) == 4
    assert weight_distribution(c) == weight_distribution(dual(c))
    assert cls.extremality == "near_extremal"


def test_search_fsd_small():
    c, wd = search_even_fsd(8, 2)
    assert wd == weight_distribution(c)
    assert c.n == 8 and c.dimension == 4
    assert weight_distribution(c) == weight_distribution(dual(c))
    with pytest.raises(ValueError):
        search_even_fsd(7, 2)


def test_search_many_seeds_succeed_quickly():
    hits = 0
    for seed in range(100):
        try:
            c, wd = search_even_fsd(16, 4, SearchConfig(seed=seed, max_iterations=50_000))
            assert wd == weight_distribution(c)
            hits += 1
        except SearchBudgetError:
            pass
    assert hits >= 95


def _search_outcome(search, n, d, cfg):
    try:
        return search(n, d, cfg)
    except SearchBudgetError as err:
        return str(err)


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from([(8, 2), (12, 4), (14, 4), (16, 4), (20, 4)]),
    st.integers(0, 300) | st.just(5000),
)
def test_search_even_fsd_matches_the_full_search(seed, nd, budget):
    cfg = SearchConfig(seed=seed, max_iterations=budget)
    found = _search_outcome(search_even_fsd, *nd, cfg)
    if isinstance(found, tuple):
        found, wd = found
        assert wd == weight_distribution(found)
    assert found == _search_outcome(oracles.search_even_fsd, *nd, cfg)


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 6).flatmap(lambda half: st.tuples(
    st.just(2 * half),
    st.lists(st.integers(0, 4**half - 1), min_size=half, max_size=half))))
def test_even_codes_with_their_duals_spectrum_contain_all_ones(case):
    n, words = case
    c = code_from_rows([w ^ (w.bit_count() % 2) for w in words], n)
    assume(2 * c.dimension == n)
    if weight_distribution(c) == weight_distribution(dual(c)):
        assert code_from_rows(c.basis + ((1 << n) - 1,), n) == c


def test_search_fsd_counts_only_spectra_of_codes_with_all_ones(monkeypatch):
    seen = []

    def counted(c):
        assert code_from_rows(c.basis + ((1 << c.n) - 1,), c.n) == c
        seen.append(c)
        return weight_distribution(c)

    monkeypatch.setattr(amdesign.catalog, "weight_distribution", counted)
    c, wd = search_even_fsd(16, 4)
    # The full search counts 75 spectra for seed 0; its first candidate with
    # the all-ones word is the hit, so only it and its dual are counted.
    assert seen == [c, dual(c)]
    assert wd == weight_distribution(c)
    assert c == oracles.search_even_fsd(16, 4)


def test_store_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("AMDESIGN_DATA", str(tmp_path))
    assert data_dir() == tmp_path
    c = builtin("d4+d4")
    save_code("twin", c, {"kind": "builtin", "name": "d4+d4"})
    assert load_code("twin") == c
    index = json.loads((tmp_path / "index.json").read_text())
    assert list(index) == ["twin"]
    assert index["twin"]["provenance"]["kind"] == "builtin"
    with pytest.raises(KeyError):
        load_code("missing")


# The recorded search target -> the search it names.
_SEARCHES = {
    "type1-16": lambda prov, cfg: search_type_i_16(cfg),
    "fsd": lambda prov, cfg: search_even_fsd(prov["n"], prov["d"], cfg),
}


def test_pinned_codes_are_their_recorded_searches():
    index = json.loads((data_dir() / "index.json").read_text())
    searched = {name for name, entry in index.items()
                if entry["provenance"]["kind"] == "search"}
    assert searched == {"type1_16", "fsd_16"}
    for name in searched:
        prov = index[name]["provenance"]
        cfg = SearchConfig(seed=prov["seed"])
        c, wd = _SEARCHES[prov["target"]](prov, cfg)
        assert c == load_code(name), name
        assert wd == weight_distribution(c), name
    assert pinned_type_i_16() == load_code("type1_16")
    assert pinned_even_fsd_16() == load_code("fsd_16")
