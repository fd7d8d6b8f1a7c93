"""The output-sensitive constructions against their brute-force oracles."""

import random

import pytest

import oracles
from treehopf.bases import forest_down_set, r_product_endo, r_product_forest
from treehopf.realization import pi_image
from treehopf.structures import (
    EnumerationBoundError,
    OrderedForest,
    PackedWord,
    enumerate_packed_words,
)
from treehopf.words import wqsym_product


def pairs(keys, total):
    return [(a, b) for da in range(total + 1) for a in keys(da) for b in keys(total - da)]


def test_packed_words_match_the_oracle_in_order():
    for n in range(7):
        assert enumerate_packed_words(n) == list(oracles.packed_words(n)), n


@pytest.mark.parametrize("total", range(6))
def test_wqsym_product_matches_the_oracle(total):
    for u, v in pairs(oracles.packed_words, total):
        assert wqsym_product(u, v) == oracles.wqsym_product(u, v), (u, v)


@pytest.mark.parametrize("n", range(6))
def test_pi_image_matches_the_oracle(n):
    for forest in oracles.ordered_forests(n):
        assert pi_image(forest) == oracles.pi_image(forest), forest


@pytest.mark.parametrize("n", range(6))
def test_forest_down_set_matches_the_oracle_in_order(n):
    for forest in oracles.ordered_forests(n):
        assert forest_down_set(forest) == oracles.forest_down_set(forest), forest


@pytest.mark.parametrize("total", range(5))
def test_r_products_match_the_oracle(total):
    for a, b in pairs(oracles.ordered_forests, total):
        assert r_product_forest(a, b) == oracles.r_product_forest(a, b), (a, b)
    for a, b in pairs(oracles.endofunctions, total):
        assert r_product_endo(a, b) == oracles.r_product_endo(a, b), (a, b)


def test_r_products_match_the_oracle_on_a_degree_5_sample():
    rng = random.Random(5)
    for a, b in rng.sample(pairs(oracles.ordered_forests, 5), 12):
        assert r_product_forest(a, b) == oracles.r_product_forest(a, b), (a, b)
    for a, b in rng.sample(pairs(oracles.endofunctions, 5), 12):
        assert r_product_endo(a, b) == oracles.r_product_endo(a, b), (a, b)


def test_wqsym_product_and_pi_image_keep_the_enumeration_bound():
    # total length 9 and 9 vertices: one past DEFAULT_ENUMERATION_BOUND
    with pytest.raises(EnumerationBoundError):
        wqsym_product(PackedWord((1, 2, 3, 4)), PackedWord((1, 2, 3, 4, 5)))
    with pytest.raises(EnumerationBoundError):
        pi_image(OrderedForest((0,) * 9))
