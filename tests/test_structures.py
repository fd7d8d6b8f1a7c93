import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from oracles import ancestors, relabel_forest, restrict_forest
from treehopf import bases, morphisms, structures
from treehopf.algebra import ALGEBRAS, FreeElement, antipode_key, get_algebra
from treehopf.endo import ideals
from treehopf.forests import nwarrow
from treehopf.realization import FAMILIES, pi_image
from treehopf.structures import (
    DEFAULT_ENUMERATION_BOUND,
    Endofunction,
    EnumerationBoundError,
    FormatError,
    OrderedForest,
    PackedWord,
    Permutation,
    PlaneForest,
    RootedForest,
    StructureError,
    canonicalize,
    enumerate_admissible_cuts,
    enumerate_endofunctions,
    enumerate_ordered_forests,
    enumerate_packed_words,
    enumerate_permutations,
    enumerate_plane_forests,
    enumerate_rooted_forests,
    ordered_to_plane,
    pack,
    plane_to_ordered,
)
from treehopf.words import b_word

# ---------------------------------------------------------------------------
# Counting oracles
# ---------------------------------------------------------------------------

def catalan(n):
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def rooted_forest_counts(limit):
    """Independent counting oracle: Euler transform of the rooted-tree counts."""
    trees = [0] * (limit + 1)
    if limit >= 1:
        trees[1] = 1
    for n in range(1, limit):
        total = 0
        for k in range(1, n + 1):
            weighted = sum(d * trees[d] for d in range(1, k + 1) if k % d == 0)
            total += weighted * trees[n - k + 1]
        trees[n + 1] = total // n
    forests = [1] + [0] * limit
    for n in range(1, limit + 1):
        total = 0
        for k in range(1, n + 1):
            weighted = sum(d * trees[d] for d in range(1, k + 1) if k % d == 0)
            total += weighted * forests[n - k]
        forests[n] = total // n
    return forests


def test_ordered_forest_counts():
    for n in range(7):
        expected = 1 if n == 0 else (n + 1) ** (n - 1)
        assert len(enumerate_ordered_forests(n)) == expected


@pytest.mark.slow
def test_ordered_forest_count_at_the_enumeration_edge():
    assert len(enumerate_ordered_forests(7)) == 8 ** 6


def test_ordered_forest_enumeration_is_lexicographic_and_distinct():
    forests = enumerate_ordered_forests(3)
    vectors = [f.parent for f in forests]
    assert vectors == sorted(vectors)
    assert len(set(vectors)) == len(vectors)


def test_plane_forest_counts_match_catalan():
    for n in range(8):
        assert len(enumerate_plane_forests(n)) == catalan(n)


def test_rooted_forest_counts_match_euler_transform_oracle():
    expected = rooted_forest_counts(6)
    for n in range(7):
        assert len(enumerate_rooted_forests(n)) == expected[n]


def test_packed_word_counts_are_ordered_bell():
    assert [len(enumerate_packed_words(n)) for n in range(5)] == [1, 1, 3, 13, 75]


def test_endofunction_counts():
    for n in range(5):
        assert len(enumerate_endofunctions(n)) == n ** n if n else 1


def test_enumeration_bound_is_enforced():
    with pytest.raises(EnumerationBoundError):
        enumerate_ordered_forests(9)


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

def brute_isomorphic(f, g):
    import itertools

    if f.n != g.n:
        return False
    for perm in itertools.permutations(range(1, f.n + 1)):
        mapping = {v: perm[v - 1] for v in range(1, f.n + 1)}
        if relabel_forest(f, mapping) == g:
            return True
    return False


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_canonicalize_classifies_up_to_isomorphism(n):
    forests = enumerate_ordered_forests(n)
    for f in forests:
        for g in forests:
            assert (canonicalize(f) == canonicalize(g)) == brute_isomorphic(f, g)


def test_rooted_forest_parse_normalizes():
    assert RootedForest.parse("() (())") == RootedForest.parse("(()) ()")
    with pytest.raises(StructureError, match="not in canonical form"):
        RootedForest((0, 0, 2))  # "() (())": not sorted, hence not canonical


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_ordered_forest_rejects_self_parent_and_cycles():
    with pytest.raises(StructureError, match="^vertex 1 is its own parent$"):
        OrderedForest((1,))
    with pytest.raises(StructureError, match="^parent vector contains a cycle through 1$"):
        OrderedForest((2, 1))
    with pytest.raises(StructureError, match="^parent vector contains a cycle through 1$"):
        OrderedForest((2, 3, 1))
    with pytest.raises(StructureError, match="^parent of vertex 1 out of range: 5$"):
        OrderedForest((5,))
    # range and self-parent errors come first, in vertex order; a cycle is
    # named by its least vertex, the cycle with the least such vertex first
    with pytest.raises(StructureError, match="^parent of vertex 3 out of range: 9$"):
        OrderedForest((2, 1, 9))
    with pytest.raises(StructureError, match="^vertex 3 is its own parent$"):
        OrderedForest((2, 1, 3))
    with pytest.raises(StructureError, match="^parent vector contains a cycle through 3$"):
        OrderedForest((3, 0, 4, 3))
    with pytest.raises(StructureError, match="^parent vector contains a cycle through 2$"):
        OrderedForest((0, 3, 4, 2))


@pytest.mark.parametrize("parent, vertex", [((3, 3, 2), 2), ((0, 4, 4, 3), 3), ((5, 3, 2, 5, 4), 2)])
def test_a_cycle_is_named_by_its_least_vertex(parent, vertex):
    """The least vertex of the cycle with the least vertex, not the first
    vertex repeated on a chain: from vertex 1, (3, 3, 2) repeats 3 first and
    (5, 3, 2, 5, 4) repeats 5 first, on the cycle {4, 5}."""
    with pytest.raises(StructureError, match=f"^parent vector contains a cycle through {vertex}$"):
        OrderedForest(parent)


@pytest.mark.parametrize(
    "key_type, vector",
    [
        (OrderedForest, (False, 1)),
        (PlaneForest, (0, True)),
        (RootedForest, (False,)),
        (Endofunction, (1.0,)),
        (Permutation, (True,)),
        (PackedWord, (True,)),
    ],
)
def test_checked_constructors_take_only_ints(key_type, vector):
    # Each vector passes the type's own check, but would render as text
    # ("False 1", "1.0") that parse rejects.
    with pytest.raises(StructureError, match="entries must be integers"):
        key_type(vector)


def test_packed_word_rejects_gaps():
    with pytest.raises(StructureError):
        PackedWord((1, 3))
    with pytest.raises(StructureError):
        PackedWord((2, 2))


def test_permutation_rejects_non_bijections():
    with pytest.raises(StructureError):
        Permutation((1, 1))
    assert Permutation((2, 1)).inverse() == Permutation((2, 1))


def test_parse_errors_carry_positions():
    with pytest.raises(FormatError) as info:
        OrderedForest.parse("0 x 1")
    assert info.value.position == 2
    with pytest.raises(FormatError) as info:
        PlaneForest.parse("(() ())")  # splits into two unbalanced tokens
    assert info.value.position == 1


@pytest.mark.parametrize("text, message", [
    ("() (()", "unbalanced '(' (at token 2)"),
    ("() ())", "unbalanced ')' (at token 2)"),
    ("()) (x", "unbalanced ')' (at token 1)"),
    ("(()) ()()", "each token must be a single tree (at token 2)"),
    ("() (x)", "unexpected character 'x' (at token 2)"),
    ("([])", "unexpected character '[' (at token 1)"),
])
def test_plane_parse_errors_name_the_token(text, message):
    with pytest.raises(FormatError) as info:
        PlaneForest.parse(text)
    assert str(info.value) == message
    with pytest.raises(FormatError) as info:
        RootedForest.parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("token", ["+1", "\u0661", "\uff101", "1_0"])
def test_integer_tokens_are_ascii_digits(token):
    """``int`` reads a sign, other scripts' digits and underscores; a key does not."""
    for cls in (OrderedForest, Endofunction, Permutation, PackedWord):
        with pytest.raises(FormatError) as info:
            cls.parse(f"1 {token}")
        assert info.value.position == 2 and repr(token) in str(info.value)


def test_plane_forests_are_depth_first_parent_vectors():
    assert PlaneForest.parse("(()(())) ((())())").parent == (0, 1, 1, 3, 0, 5, 6, 5)
    assert PlaneForest.parse("").parent == ()
    for parent in [((),), (0, 2), (1,), (0, 0, 1), (0, 1, 0, 2), (-1,)]:
        with pytest.raises(StructureError):
            PlaneForest(parent)


# ---------------------------------------------------------------------------
# pack
# ---------------------------------------------------------------------------

def test_pack_examples():
    assert pack((1, 2, 2)) == PackedWord((1, 2, 2))
    assert pack((4, 1, 4)) == PackedWord((2, 1, 2))
    assert pack((2, 1, 3, 1)) == PackedWord((2, 1, 3, 1))


@given(st.lists(st.integers(min_value=1, max_value=6), max_size=5))
def test_pack_is_idempotent(word):
    packed = pack(word)
    assert pack(packed.letters) == packed


# ---------------------------------------------------------------------------
# Cuts and restriction
# ---------------------------------------------------------------------------

def test_admissible_cut_counts():
    single = OrderedForest((0,))
    assert len(enumerate_admissible_cuts(single)) == 2
    chain2 = OrderedForest((0, 1))
    cuts = enumerate_admissible_cuts(chain2)
    assert len(cuts) == 3  # the two-element subset has a path inside it
    forked = OrderedForest.parse("4 0 2 2")
    assert len(enumerate_admissible_cuts(forked)) == 7
    # same count through the unlabelled and plane interfaces (one cut per coproduct term)
    assert len(enumerate_admissible_cuts(RootedForest.parse("((())())"))) == 7
    assert len(enumerate_admissible_cuts(PlaneForest.parse("((())())"))) == 7


def test_nck_cuts_are_the_cuts_of_the_depth_first_labelling():
    for n in range(7):
        for plane in enumerate_plane_forests(n):
            cuts = enumerate_admissible_cuts(plane)
            assert cuts == enumerate_admissible_cuts(plane_to_ordered(plane)), plane
            assert len(cuts) == sum(get_algebra("nck").coproduct(plane).terms.values()), plane


def test_lea_roo_on_unlabelled_forests():
    # Roo (x) Lea terms of the ck coproduct of ((())()), whose depth-first
    # labelling is 0 1 2 1: cutting nothing, the root, vertex 3 and vertex 2.
    tree = RootedForest.parse("((())())")
    empty = RootedForest.parse("")
    terms = get_algebra("ck").coproduct(tree).terms
    assert terms[tree, empty] == 1
    assert terms[empty, tree] == 1
    assert terms[RootedForest.parse("(()())"), RootedForest.parse("()")] == 1
    assert terms[RootedForest.parse("(())"), RootedForest.parse("(())")] == 1


def test_lea_roo_examples():
    # Roo (x) Lea terms of the ho coproduct: cutting the single vertex, the
    # leaf 1 of 4 0 2 2, and the middle vertex of the chain 0 1 2.
    for forest, roo, lea in [("0", "", "0"), ("4 0 2 2", "0 1 1", "0"), ("0 1 2", "0", "0 1")]:
        terms = get_algebra("ho").coproduct(OrderedForest.parse(forest)).terms
        assert terms[OrderedForest.parse(roo), OrderedForest.parse(lea)] == 1, forest


def test_lea_roo_partitions_and_keeps_induced_edges():
    # Lea is a cut with everything above it and Roo the rest; restricting
    # the forest to both parts keeps exactly the edges that do not cross, and
    # the pairs, one per admissible cut, are the terms of the coproduct.
    for forest in enumerate_ordered_forests(4):
        vertices = set(range(1, forest.n + 1))
        terms: dict = {}
        for cut in enumerate_admissible_cuts(forest):
            lea_set = {v for v in vertices if v in cut or ancestors(forest, v) & cut}
            roo, lea = restrict_forest(forest, vertices - lea_set), restrict_forest(forest, lea_set)
            assert roo.n + lea.n == forest.n
            kept = [e for e in forest.edges() if (e[0] in lea_set) == (e[1] in lea_set)]
            assert len(roo.edges()) + len(lea.edges()) == len(kept)
            terms[roo, lea] = terms.get((roo, lea), 0) + 1
        assert get_algebra("ho").coproduct(forest).terms == terms, forest


def test_restrict_forest_examples():
    forest = OrderedForest.parse("4 3 0 0 6 4")
    assert restrict_forest(forest, range(1, 7)) == forest
    assert restrict_forest(forest, ()) == OrderedForest(())
    chain = OrderedForest.parse("0 1")
    assert restrict_forest(chain, {2}) == OrderedForest((0,))
    with pytest.raises(StructureError):
        restrict_forest(chain, {3})


def test_restriction_complement_loses_only_crossing_edges():
    forest = OrderedForest.parse("4 3 0 0 6 4")
    for mask in range(1 << forest.n):
        inside = {v for v in range(1, forest.n + 1) if mask >> (v - 1) & 1}
        outside = set(range(1, forest.n + 1)) - inside
        crossing = [e for e in forest.edges() if (e[0] in inside) != (e[1] in inside)]
        kept = len(restrict_forest(forest, inside).edges()) + len(
            restrict_forest(forest, outside).edges()
        )
        assert kept == len(forest.edges()) - len(crossing)


# ---------------------------------------------------------------------------
# Text round-trips
# ---------------------------------------------------------------------------

def test_parse_render_roundtrips():
    assert OrderedForest.parse("0") == OrderedForest((0,))
    for text in ["", "0", "4 3 0 0 6 4"]:
        assert OrderedForest.parse(text).render() == text
    assert Endofunction.parse("2 3 2 3 4").render() == "2 3 2 3 4"
    assert PackedWord.parse("1 2 2").render() == "1 2 2"
    assert PlaneForest.parse("(()())").render() == "(()())"
    for key_type, enumerate_keys in VECTOR_KEYS.items():
        for n in range(5):
            for key in enumerate_keys(n):
                back = key_type.parse(key.render())
                assert back == key and hash(back) == hash(key) and type(back) is key_type


def test_plane_ordered_labelling_roundtrip():
    for n in range(6):
        for plane in enumerate_plane_forests(n):
            assert ordered_to_plane(plane_to_ordered(plane)) == plane
    with pytest.raises(StructureError):
        ordered_to_plane(OrderedForest.parse("2 0"))  # labels decrease along the edge


# ---------------------------------------------------------------------------
# Keys are tuples of their vector
# ---------------------------------------------------------------------------

VECTOR_KEYS = {
    OrderedForest: enumerate_ordered_forests,
    PlaneForest: enumerate_plane_forests,
    Endofunction: enumerate_endofunctions,
    Permutation: enumerate_permutations,
    PackedWord: enumerate_packed_words,
    RootedForest: enumerate_rooted_forests,
}
MAP_ALGEBRAS = ["ho", "nck", "efsym", "sgsym", "ck"]


def assert_valid(key, key_type):
    """``key`` is of ``key_type`` and survives its checking constructor."""
    assert type(key) is key_type
    assert type(key)(tuple(key)) == key


def test_library_built_keys_pass_the_checking_constructor():
    # Enumerations, products, cut parts and the wqsym kernels build their
    # keys unchecked; every key they build must be one the check accepts.
    for key_type, enumerate_keys in VECTOR_KEYS.items():
        for n in range(7):
            for key in enumerate_keys(n):
                assert_valid(key, key_type)
    for tag in MAP_ALGEBRAS + ["wqsym"]:
        ops = get_algebra(tag)
        keys = [ops.keys_of_degree(n) for n in range(6)]
        for total in range(6):
            for da in range(total + 1):
                for a in keys[da]:
                    for b in keys[total - da]:
                        for key in ops.product(a, b).terms:
                            assert_valid(key, ops.key_type)
        for degree_keys in keys:
            for x in degree_keys:
                for pair in ops.coproduct(x).terms:
                    for part in pair:
                        assert_valid(part, ops.key_type)


def test_library_builds_no_key_through_the_checking_constructor(monkeypatch):
    # ``cls(vector)`` validates input at the boundary; every key the library
    # builds valid by construction comes from the unchecked ``cls._of``.
    checked = []
    check = structures._VectorKey.__new__

    def counted(cls, vector):
        vector = tuple(vector)
        checked.append((cls.__name__, vector))
        return check(cls, vector)

    monkeypatch.setattr(structures._VectorKey, "__new__", counted)
    degrees = range(4)
    for tag, ops in ALGEBRAS.items():
        keys = [key for n in degrees for key in ops.keys_of_degree(n)]
        for a in keys:
            ops.coproduct(a)
            antipode_key(tag, a)
            for b in keys:
                if a.n + b.n <= 3:
                    ops.product(a, b)
    for m in morphisms.MAPS.values():
        for n in degrees:
            for key in get_algebra(m.source).keys_of_degree(n):
                m.apply(FreeElement.from_key(m.source, key))
    for tag, basis in bases.R_BASES.items():
        keys = [key for n in degrees for key in get_algebra(tag).keys_of_degree(n)]
        for a in keys:
            basis.r_from_s(a)
            basis.s_in_r(a)
            for b in keys:
                if basis.r_product and a.n + b.n <= 3:
                    basis.r_product(a, b)
    for n in degrees:
        for forest in enumerate_ordered_forests(n):
            pi_image(forest)
            morphisms.b_plus(forest)
            morphisms.minimal_admissible_word(forest)
            for right in enumerate_ordered_forests(3 - n) if n else ():
                nwarrow(forest, right)
        for plane in enumerate_plane_forests(n):
            morphisms.b_plus(plane)
            morphisms.plane_to_parking(plane)
        for word in enumerate_packed_words(n):
            b_word(word)
            morphisms.f_w_preimage(word)
        for sigma in enumerate_permutations(n):
            sigma.inverse()
        for f in enumerate_endofunctions(n):
            f.compose(f)
            f.power(3)
    size = 4
    for fam in FAMILIES.values():
        for n in degrees:
            for key in fam.ops.keys_of_degree(n):
                codes = list(fam.words(key, size))
                list(fam.words(key, size, True))
                fam.witness(key, size)
                for code in codes[:3]:
                    assert fam.contains(key, code, size)
    assert checked == []


def test_key_repr_keeps_the_field_form():
    assert repr(OrderedForest.parse("0 1")) == "OrderedForest(parent=(0, 1))"
    assert repr(PlaneForest.parse("(())")) == "PlaneForest(parent=(0, 1))"
    assert repr(Endofunction.parse("2 2")) == "Endofunction(image=(2, 2))"
    assert repr(Permutation.parse("2 1")) == "Permutation(image=(2, 1))"
    assert repr(PackedWord.parse("1 2 1")) == "PackedWord(letters=(1, 2, 1))"
    assert repr(OrderedForest.parse("")) == "OrderedForest(parent=())"
    assert repr(RootedForest.parse("() (())")) == "RootedForest(parent=(0, 1, 0))"


@pytest.mark.parametrize("key_type", list(VECTOR_KEYS))
def test_pickle_and_copy_go_through_the_checking_constructor(key_type):
    clones = [copy.copy, copy.deepcopy]
    clones += [lambda k, p=p: pickle.loads(pickle.dumps(k, protocol=p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones:
        for key in VECTOR_KEYS[key_type](3):
            assert clone(key) == key and type(clone(key)) is key_type
        with pytest.raises(StructureError):
            clone(key_type._of((2, 2, 4)))  # invalid for every type: 4 exceeds n, 3 is missing


def test_keys_of_equal_vectors_compare_equal_but_elements_do_not():
    # Keys are tuples, so keys of two types with one vector are equal; an
    # element is tagged with its algebra, so elements of two algebras differ.
    assert OrderedForest((0, 1)) == PlaneForest((0, 1)) == RootedForest((0, 1)) == (0, 1)
    assert Endofunction((2, 1)) == Permutation((2, 1)) == (2, 1)
    assert FreeElement("ho", {OrderedForest((0, 1)): 1}) != FreeElement("nck", {PlaneForest((0, 1)): 1})
    assert FreeElement("efsym", {Endofunction((2, 1)): 1}) != FreeElement("sgsym", {Permutation((2, 1)): 1})
    assert FreeElement("ck", {RootedForest((0, 1)): 1}) != FreeElement("nck", {PlaneForest((0, 1)): 1})


@pytest.mark.parametrize("n", range(9))
def test_sort_key_orders_plane_and_rooted_forests_like_their_text(n):
    for keys in (enumerate_plane_forests(n), enumerate_rooted_forests(n)):
        assert sorted(keys, key=lambda key: key.sort_key()) == sorted(keys, key=lambda key: key.render())
    rooted = enumerate_rooted_forests(n)
    assert rooted == sorted(rooted, key=lambda key: key.render())


def test_part_table_stays_bounded():
    limit = 2 ** (DEFAULT_ENUMERATION_BOUND + 1)
    edgeless = OrderedForest((0,) * DEFAULT_ENUMERATION_BOUND)  # every vertex set is a cut
    assert sum(get_algebra("ho").coproduct(edgeless).terms.values()) == 2 ** DEFAULT_ENUMERATION_BOUND
    for tag in ("ck", "efsym"):
        for x in get_algebra(tag).keys_of_degree(4):
            get_algebra(tag).coproduct(x)
    size = len(structures._PART_TABLE)
    assert 2 ** DEFAULT_ENUMERATION_BOUND <= size < limit
    # a coproduct past the bound is refused before any part is restricted
    with pytest.raises(EnumerationBoundError, match="closed set enumeration at size 12 exceeds bound 8"):
        get_algebra("efsym").coproduct(Endofunction(tuple(range(1, 13))))
    assert len(structures._PART_TABLE) == size


def test_compose_and_power_refuse_bad_arguments():
    f = Endofunction((2, 1))
    with pytest.raises(StructureError, match="composition needs equal domains"):
        f.compose(Endofunction((1, 1, 1)))
    with pytest.raises(StructureError, match="negative iteration"):
        f.power(-1)


def test_closed_sets_are_bounded_for_every_caller():
    chain = OrderedForest(tuple(range(DEFAULT_ENUMERATION_BOUND + 1)))  # one vertex past the bound
    image = structures.forest_image(chain)
    for call in (
        lambda: structures.closed_subsets(image),
        lambda: enumerate_admissible_cuts(chain),
        lambda: ideals(Endofunction(image)),
    ):
        with pytest.raises(EnumerationBoundError, match="^closed set enumeration at size 9 exceeds bound 8$"):
            call()
