import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

import treehopf  # noqa: F401  (registers the algebras)
from treehopf.algebra import (
    ALGEBRAS,
    AlgebraTagError,
    FreeElement,
    TensorElement,
    antipode,
    antipode_key,
    check_antipode,
    check_bialgebra_compat,
    check_coassociativity,
    element_from_json,
    element_to_json,
    element_to_latex,
    get_algebra,
    product_elements,
    tensor_from_json,
    unit_element,
)
from treehopf.structures import OrderedForest, RootedForest, enumerate_ordered_forests

KEYS = enumerate_ordered_forests(2) + enumerate_ordered_forests(1)


def elt(pairs):
    return FreeElement("ho", dict(pairs))


# ---------------------------------------------------------------------------
# Element arithmetic
# ---------------------------------------------------------------------------

def test_add_cancels_and_merges():
    x = elt([(KEYS[0], 2)])
    assert (x + (-1) * x).is_zero()
    y = elt([(KEYS[0], 3)])
    assert (x + y).terms == {KEYS[0]: 5}
    z = elt([(KEYS[1], 1)])
    assert (x + z).terms == {KEYS[0]: 2, KEYS[1]: 1}


def test_tag_mismatch_raises():
    x = elt([(KEYS[0], 1)])
    y = FreeElement("ck", {RootedForest("()"): 1})
    with pytest.raises(AlgebraTagError):
        x + y
    with pytest.raises(AlgebraTagError):
        product_elements(x, y)


def test_non_integer_coefficients_are_rejected():
    with pytest.raises(TypeError):
        FreeElement("ho", {KEYS[0]: 1.5})
    with pytest.raises(TypeError):
        0.5 * elt([(KEYS[0], 1)])


small_elements = st.builds(
    lambda pairs: elt(pairs),
    st.lists(st.tuples(st.sampled_from(KEYS), st.integers(-4, 4)), max_size=4),
)


@given(small_elements, small_elements, small_elements)
def test_addition_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)


@given(small_elements, small_elements, st.integers(-3, 3))
def test_scalar_and_product_distribute(x, y, c):
    assert c * (x + y) == c * x + c * y
    assert product_elements(x + y, x) == product_elements(x, x) + product_elements(y, x)
    assert product_elements(x, x + y) == product_elements(x, x) + product_elements(x, y)


@given(small_elements, small_elements, small_elements)
def test_element_product_is_associative(x, y, z):
    assert product_elements(product_elements(x, y), z) == product_elements(
        x, product_elements(y, z)
    )


def test_tensor_arithmetic():
    pair = (KEYS[0], KEYS[1])
    t = TensorElement("ho", {pair: 2})
    assert (t - t).is_zero()
    assert (3 * t).terms == {pair: 6}
    assert repr(t) == f"TensorElement('ho', {t.terms!r})"


def test_elements_and_tensors_stay_apart():
    pair = (KEYS[0], KEYS[1])
    t = TensorElement("ho", {pair: 2})
    x = FreeElement("ho", {pair: 2})  # same tag and terms, different type
    assert x != t and t != x
    with pytest.raises(AlgebraTagError):
        x + t
    with pytest.raises(AlgebraTagError):
        t + x
    with pytest.raises(AlgebraTagError):
        t - x


# ---------------------------------------------------------------------------
# Antipode
# ---------------------------------------------------------------------------

def test_antipode_examples():
    assert antipode(unit_element("ck")) == unit_element("ck")
    vertex = RootedForest("()")
    assert antipode_key("ck", vertex) == FreeElement("ck", {vertex: -1})
    chain = RootedForest("(())")
    two_vertices = RootedForest("() ()")
    assert antipode_key("ck", chain) == FreeElement("ck", {chain: -1, two_vertices: 1})


def test_antipode_rejects_unknown_algebra():
    with pytest.raises(AlgebraTagError):
        antipode_key("nonexistent", OrderedForest((0,)))


def test_convolution_identity_degrees_1_to_4():
    for tag in ("ck", "ho", "wqsym", "sgsym", "efsym"):
        report = check_antipode(tag, 4)
        assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# Generic checks at small sizes
# ---------------------------------------------------------------------------

def test_coassociativity_ck_and_ho_degree_4():
    assert check_coassociativity("ck", 4).ok
    report = check_coassociativity("ho", 4)
    assert report.ok and report.checked == 1 + 1 + 3 + 16 + 125


def test_coassociativity_efsym_degree_3():
    report = check_coassociativity("efsym", 3)
    assert report.ok and report.checked == 1 + 1 + 4 + 27


def test_compat_examples():
    assert check_bialgebra_compat("ho", 2).ok
    assert check_bialgebra_compat("ck", 4).ok
    assert check_bialgebra_compat("sgsym", 4).ok


def test_compat_failure_reporting_is_data_not_exception():
    report = check_bialgebra_compat("ck", 2)
    assert report.failures == []


@pytest.mark.slow
@pytest.mark.parametrize("tag", ["ck", "nck", "ho", "wqsym", "sgsym", "efsym"])
def test_coassoc_and_compat_exhaustive_degree_4(tag):
    assert check_coassociativity(tag, 4).ok
    assert check_bialgebra_compat(tag, 4).ok


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

def test_element_json_roundtrip_and_order():
    x = FreeElement(
        "ho",
        {
            OrderedForest.parse("0 1"): -2,
            OrderedForest.parse("0"): 3,
            OrderedForest.parse("0 0"): 1,
        },
    )
    payload = element_to_json(x)
    assert payload["algebra"] == "ho" and payload["basis"] == "S"
    assert [t["key"] for t in payload["terms"]] == ["0", "0 0", "0 1"]
    assert [t["coeff"] for t in payload["terms"]] == ["3", "1", "-2"]
    back, basis = element_from_json(json.loads(json.dumps(payload)))
    assert back == x and basis == "S"


def test_element_json_merges_duplicate_keys():
    payload = {
        "algebra": "ho",
        "basis": "S",
        "terms": [{"coeff": "1", "key": "0"}, {"coeff": "2", "key": "0"}],
    }
    x, _ = element_from_json(payload)
    assert x.terms == {OrderedForest((0,)): 3}


@pytest.mark.parametrize("coeff, value", [(7, 7), (-3, -3), ("12", 12), ("-4", -4), ("0", 0)])
def test_json_coefficients_accept_integers_and_decimal_strings(coeff, value):
    payload = {"algebra": "ho", "basis": "S", "terms": [{"coeff": coeff, "key": "0 0"}]}
    x, _ = element_from_json(payload)
    assert x.terms == ({OrderedForest((0, 0)): value} if value else {})
    pair = {"algebra": "ho", "terms": [{"coeff": coeff, "left": "0", "right": ""}]}
    assert tensor_from_json(pair).terms == ({(OrderedForest((0,)), OrderedForest(())): value} if value else {})


@pytest.mark.parametrize("coeff", [1.7, 2.0, True, False, " 7", "7 ", "1_000", "+3", "1.0", "", "0x1f", None, [1]])
def test_json_coefficients_reject_everything_else(coeff):
    payload = {"algebra": "ho", "basis": "S", "terms": [{"coeff": coeff, "key": "0"}]}
    with pytest.raises(AlgebraTagError):
        element_from_json(payload)
    pair = {"algebra": "ho", "terms": [{"coeff": coeff, "left": "0", "right": ""}]}
    with pytest.raises(AlgebraTagError):
        tensor_from_json(pair)


@pytest.mark.parametrize("payload", [
    {"algebra": "ho", "basis": "S", "terms": 5},
    {"algebra": 5, "basis": "S", "terms": []},
    {"algebra": "ho", "basis": "S", "terms": [{"coeff": "1", "key": 5}]},
    {"algebra": "ho", "basis": "S", "terms": [5]},
    {"basis": "S", "terms": []},
    [],
])
def test_element_json_of_the_wrong_shape_is_rejected(payload):
    with pytest.raises(AlgebraTagError):
        element_from_json(payload)


@pytest.mark.parametrize("payload", [
    {"algebra": "ho", "terms": 5},
    {"algebra": 5, "terms": []},
    {"algebra": "ho", "terms": [{"coeff": "1", "left": 5, "right": ""}]},
    {"algebra": "ho", "terms": [{"coeff": "1", "left": "0"}]},
    {"algebra": "ho", "terms": [None]},
    "ho",
])
def test_tensor_json_of_the_wrong_shape_is_rejected(payload):
    with pytest.raises(AlgebraTagError):
        tensor_from_json(payload)


def test_registry_reads_keys_through_their_own_methods():
    for tag, ops in ALGEBRAS.items():
        fields = [f.name for f in dataclasses.fields(ops)]
        assert fields == ["tag", "key_type", "keys_of_degree", "product", "coproduct", "default_basis"]
        assert ops.unit_key == ops.key_type.parse("") and ops.unit_key.n == 0, tag
        for d in range(4):
            for key in ops.keys_of_degree(d):
                assert ops.parse_key(key.render()) == key and key.n == d and key.sort_key()[0] == d, key


def test_latex_rendering():
    x = FreeElement("ho", {OrderedForest.parse("0 1"): -2, OrderedForest.parse("0 0"): 1})
    assert element_to_latex(x) == "S^{(0 0)}-2\\,S^{(0 1)}"


def test_wqsym_default_basis_is_m():
    assert get_algebra("wqsym").default_basis == "M"
    assert get_algebra("WQSym").tag == "wqsym"
