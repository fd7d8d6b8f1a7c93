import collections
import inspect
import json

import pytest
from hypothesis import given, strategies as st

import treehopf  # noqa: F401  (registers the algebras)
from treehopf import algebra
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
    tensor_product,
    unit_element,
)
from treehopf.structures import (
    EnumerationBoundError,
    OrderedForest,
    PackedWord,
    RootedForest,
    canonicalize,
    enumerate_ordered_forests,
)

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
    y = FreeElement("ck", {RootedForest.parse("()"): 1})
    with pytest.raises(AlgebraTagError):
        x + y
    with pytest.raises(AlgebraTagError):
        product_elements(x, y)


def test_non_integer_coefficients_are_rejected():
    with pytest.raises(TypeError):
        FreeElement("ho", {KEYS[0]: 1.5})
    with pytest.raises(TypeError):
        0.5 * elt([(KEYS[0], 1)])


def test_bool_coefficients_are_rejected():
    # True would be written as "coeff": "True", which the JSON decoder refuses.
    with pytest.raises(TypeError):
        FreeElement("ho", {KEYS[0]: True})
    with pytest.raises(TypeError):
        TensorElement("ho", {(KEYS[0], KEYS[1]): False})
    with pytest.raises(TypeError):
        True * elt([(KEYS[0], 1)])


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
    vertex = RootedForest.parse("()")
    assert antipode_key("ck", vertex) == FreeElement("ck", {vertex: -1})
    chain = RootedForest.parse("(())")
    two_vertices = RootedForest.parse("() ()")
    assert antipode_key("ck", chain) == FreeElement("ck", {chain: -1, two_vertices: 1})


def test_antipode_rejects_unknown_algebra():
    with pytest.raises(AlgebraTagError):
        antipode_key("nonexistent", OrderedForest((0,)))


def test_convolution_identity_degrees_1_to_4():
    for tag in ("ck", "ho", "wqsym", "sgsym", "efsym"):
        report = check_antipode(tag, 4)
        assert report.ok, report.summary()


def test_antipode_check_keeps_its_antipodes_to_itself(swap_kernels):
    """check_antipode builds its antipodes from the kernels it checks, in a
    cache of its own: it leaves antipode_key's cache untouched, and its
    verdict is the same whether that cache is cold or warm."""
    assert check_antipode("ho", 3).ok and not algebra._ANTIPODE_CACHE
    for n in range(5):
        for key in ALGEBRAS["ho"].keys_of_degree(n):
            antipode_key("ho", key)
    warm_cache = dict(algebra._ANTIPODE_CACHE)
    swap_kernels("ho", coproduct=plus_one_coproduct("ho"))
    warm = check_antipode("ho", 4).failures
    assert algebra._ANTIPODE_CACHE == warm_cache
    algebra._ANTIPODE_CACHE.clear()
    cold = check_antipode("ho", 4).failures
    assert warm == cold and len(cold) == 129 and not algebra._ANTIPODE_CACHE


# ---------------------------------------------------------------------------
# Generic checks at small sizes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tag, cases", [
    ("ck", 37), ("nck", 65), ("ho", 1442), ("wqsym", 634), ("sgsym", 154), ("efsym", 3414),
])
def test_coassociativity_degree_5(tag, cases):
    report = check_coassociativity(tag, 5)
    assert report.ok and report.checked == cases


def test_compat_examples():
    assert check_bialgebra_compat("ho", 2).ok
    assert check_bialgebra_compat("ck", 4).ok
    assert check_bialgebra_compat("sgsym", 4).ok


@pytest.mark.slow
@pytest.mark.parametrize("tag", ["ck", "nck", "ho", "wqsym", "sgsym", "efsym"])
def test_coassoc_and_compat_exhaustive_degree_4(tag):
    assert check_coassociativity(tag, 4).ok
    report = check_bialgebra_compat(tag, 4)
    assert report.ok
    # a sample at or below max_degree would recount pairs already checked
    assert check_bialgebra_compat(tag, 4, sample_degree=4).checked == report.checked


# ---------------------------------------------------------------------------
# Checks against deliberately broken kernels
# ---------------------------------------------------------------------------

@pytest.fixture
def swap_kernels(monkeypatch):
    """swap(tag, product=..., coproduct=...) replaces kernels of ALGEBRAS[tag]
    for one test; no antipode built from them outlives it."""
    algebra._ANTIPODE_CACHE.clear()

    def swap(tag, **kernels):
        monkeypatch.setitem(ALGEBRAS, tag, ALGEBRAS[tag]._replace(**kernels))

    yield swap
    algebra._ANTIPODE_CACHE.clear()


def plus_one_coproduct(tag):
    """The coproduct of ``tag`` with +1 on the first reduced term of every
    key of degree >= 3 that has one."""
    ops = ALGEBRAS[tag]

    def broken(key):
        terms = dict(ops.coproduct(key).terms)
        reduced = [pair for pair in terms if pair[0].n and pair[1].n]
        if key.n >= 3 and reduced:
            terms[min(reduced, key=lambda pair: (pair[0].sort_key(), pair[1].sort_key()))] += 1
        return TensorElement(tag, terms)

    return broken


def test_coassociativity_reports_a_broken_coproduct(swap_kernels):
    swap_kernels("ho", coproduct=plus_one_coproduct("ho"))
    report = check_coassociativity("ho", 4)
    assert report.checked == 146 and len(report.failures) == 141
    assert all(OrderedForest.parse(text).n >= 3 for text in report.failures)


def test_antipode_check_reports_a_broken_coproduct(swap_kernels):
    """The recursion makes S * id = unit.counit hold for any coproduct; the
    check tests the other side, id * S, so a broken coproduct shows."""
    for tag, failures in [("ho", 129), ("efsym", 179), ("wqsym", 54), ("ck", 13)]:
        swap_kernels(tag, coproduct=plus_one_coproduct(tag))
        report = check_antipode(tag, 4)
        assert len(report.failures) == failures, report.summary()
        assert report.failures[0] in {key.render() for key in ALGEBRAS[tag].keys_of_degree(3)}


def test_compat_failure_reporting_is_data_not_exception(swap_kernels):
    product = ALGEBRAS["ho"].product
    swap_kernels("ho", product=lambda a, b: 2 * product(a, b) if a.n and b.n else product(a, b))
    report = check_bialgebra_compat("ho", 3)
    assert report.checked == 48
    assert report.failures == ["0 | 0", "0 | 0 0", "0 | 0 1", "0 | 2 0", "0 0 | 0", "0 1 | 0", "2 0 | 0"]
    assert report.summary() == "bialgebra-compat[ho]: 48 cases, 7 FAILURES"


# ---------------------------------------------------------------------------
# Each check computes each kernel once
# ---------------------------------------------------------------------------

@pytest.fixture
def count_kernels(swap_kernels):
    """count(tag) wraps the kernels of ALGEBRAS[tag] with one counter per
    distinct call and returns the counters."""

    def count(tag):
        ops = ALGEBRAS[tag]
        calls = collections.Counter()

        def product(a, b):
            calls["product", a, b] += 1
            return ops.product(a, b)

        def coproduct(key):
            calls["coproduct", key] += 1
            return ops.coproduct(key)

        swap_kernels(tag, product=product, coproduct=coproduct)
        return calls

    return count


@pytest.mark.parametrize("check, tag, degree", [
    (check_coassociativity, "wqsym", 4),
    (check_bialgebra_compat, "ho", 3),
    (check_antipode, "efsym", 3),
])
def test_each_check_computes_each_kernel_once(count_kernels, check, tag, degree):
    calls = count_kernels(tag)
    assert check(tag, degree).ok
    assert calls and max(calls.values()) == 1
    calls.clear()
    assert check(tag, degree).ok  # the tables died with the first call
    assert calls and max(calls.values()) == 1


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
        fields = list(ops._fields)
        assert fields == ["tag", "key_type", "keys_of_degree", "product", "coproduct", "default_basis"]
        assert ops.unit_key == ops.key_type.parse("") and ops.unit_key.n == 0, tag
        for d in range(4):
            for key in ops.keys_of_degree(d):
                assert ops.parse_key(key.render()) == key and key.n == d and key.sort_key()[0] == d, key


def test_every_keys_of_degree_takes_only_a_degree():
    """The enumeration bound is a constant of ``structures``, not a knob."""
    for tag, ops in ALGEBRAS.items():
        assert len(inspect.signature(ops.keys_of_degree).parameters) == 1, tag


def test_latex_rendering():
    x = FreeElement("ho", {OrderedForest.parse("0 1"): -2, OrderedForest.parse("0 0"): 1})
    assert element_to_latex(x) == "S^{(0 0)}-2\\,S^{(0 1)}"
    assert element_to_latex(x, "R") == "R^{(0 0)}-2\\,R^{(0 1)}"
    assert element_to_latex(FreeElement("wqsym", {PackedWord((1, 1)): 3})) == "3\\,M^{(1 1)}"


def test_wqsym_default_basis_is_m():
    assert get_algebra("wqsym").default_basis == "M"
    assert get_algebra("WQSym").tag == "wqsym"


def test_negation_and_the_hash_of_equal_elements():
    x = elt([(KEYS[0], 2), (KEYS[1], -1)])
    assert -x == elt([(KEYS[0], -2), (KEYS[1], 1)]) and -(-x) == x
    same = elt([(KEYS[1], -1), (KEYS[0], 2)])  # other insertion order
    assert hash(same) == hash(x) and len({x, same}) == 1


def test_map_keys_refuses_an_image_of_another_tag():
    x = elt([(KEYS[0], 3)])
    to_ck = lambda key: FreeElement.from_key("ck", canonicalize(key))
    assert x.map_keys(to_ck, "ck") == FreeElement("ck", {canonicalize(KEYS[0]): 3})
    with pytest.raises(AlgebraTagError, match="cannot combine ho with 'ck'"):
        x.map_keys(to_ck)


def test_tensor_product_refuses_two_tags():
    leaf = RootedForest.parse("()")
    ho = TensorElement("ho", {(KEYS[0], KEYS[1]): 1})
    ck = TensorElement("ck", {(leaf, leaf): 1})
    with pytest.raises(AlgebraTagError, match="cannot multiply ho by ck tensors"):
        tensor_product(ho, ck)


def test_latex_of_a_minus_one_coefficient():
    a, b = OrderedForest.parse("0 0"), OrderedForest.parse("0 1")
    assert element_to_latex(FreeElement("ho", {a: -1, b: 1})) == "-S^{(0 0)}+S^{(0 1)}"
    assert element_to_latex(FreeElement("ho", {a: 3, b: -1})) == "3\\,S^{(0 0)}-S^{(0 1)}"


@pytest.mark.parametrize("check, args", [
    (check_coassociativity, (9,)),
    (check_bialgebra_compat, (9,)),
    (check_bialgebra_compat, (2, 9)),
    (check_antipode, (9,)),
], ids=["coassociativity", "compat", "compat-sample", "antipode"])
def test_axiom_checks_ask_for_the_top_degree_first(monkeypatch, check, args):
    """A degree over the enumeration bound raises before any lower degree is
    built: efsym at degree 8 alone holds 16.7 M keys."""
    ops, asked = ALGEBRAS["efsym"], []

    def keys_of_degree(n):
        asked.append(n)
        assert n == 9, f"degree {n} built before degree 9"
        return ops.keys_of_degree(n)

    monkeypatch.setitem(ALGEBRAS, "efsym", ops._replace(keys_of_degree=keys_of_degree))
    with pytest.raises(EnumerationBoundError, match="endofunction enumeration at size 9 exceeds bound 8"):
        check("efsym", *args)
    assert asked == [9]
