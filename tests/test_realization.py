import itertools
import resource
import subprocess
import sys
import tracemalloc

import pytest

import oracles
from treehopf import realization, verify
from treehopf.algebra import AlgebraTagError, FreeElement, accumulate
from treehopf.realization import (
    FAMILIES,
    NCPolynomial,
    code_base,
    commutative_image,
    decode_word,
    family,
    letter_codes,
    pi_image,
    project_second_subscript,
    rank_check,
    rank_of_rows,
    realizer_for,
)
from treehopf.structures import (
    Endofunction,
    EnumerationBoundError,
    OrderedForest,
    Permutation,
    StructureError,
    canonicalize,
    enumerate_endofunctions,
    enumerate_ordered_forests,
)
from treehopf.verify import doubling_transport_ok, multiplicativity_ok
from treehopf.words import wqsym_realize


def A(i, j):
    return ("A", i, j)


# ---------------------------------------------------------------------------
# Word codes
# ---------------------------------------------------------------------------

def test_letter_codes_read_a_word_first_letter_first():
    size = 3
    word = (A(1, 2), ("B", 0, 3), A(3, 1))
    code = oracles.encode_word(word, size)
    assert letter_codes(code, size) == [oracles.encode_word((letter,), size) for letter in word]
    assert letter_codes(0, size) == [] and decode_word(0, size) == ()
    assert decode_word(code, size) == word


def test_a_negative_word_code_never_decodes():
    """divmod(-1, base) is (-1, base - 1), so a digit loop that took a
    negative code would grow its list until memory ran out: the calls run
    in a child under a 200 MB address space."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))

    script = (
        "from treehopf.realization import decode_word, letter_codes\n"
        "for read in (letter_codes, decode_word):\n"
        "    try:\n"
        "        read(-1, 3)\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__, exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, preexec_fn=cap)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout == "StructureError word code must be >= 0, got -1\n" * 2


# ---------------------------------------------------------------------------
# Frozen letter patterns from the worked realizations
# ---------------------------------------------------------------------------

def test_single_vertex_v2():
    assert family("v2").realize(OrderedForest((0,)), 2).terms == {(A(1, 1),): 1, (A(2, 2),): 1}


def test_six_vertex_forest_v2_matches_its_constraint_sum():
    forest = OrderedForest.parse("4 3 0 0 6 4")
    size = 4
    expected = {}
    rng = range(1, size + 1)
    for i1, i2, i3, i4, i5, i6 in itertools.product(rng, repeat=6):
        if i3 < i2 and i4 < i1 and i4 < i6 < i5:
            word = (A(i4, i1), A(i3, i2), A(i3, i3), A(i4, i4), A(i6, i5), A(i4, i6))
            expected[word] = 1
    assert family("v2").realize(forest, size).terms == expected


def test_six_vertex_forest_v1_has_free_virtual_subscripts():
    forest = OrderedForest.parse("4 3 0 0 6 4")
    size = 3
    expected = {}
    rng = range(1, size + 1)
    for i1, i2, i3, i4, i5, i6 in itertools.product(rng, repeat=6):
        for x3 in range(size):
            for x4 in range(size):
                if x3 < i3 < i2 and x4 < i4 < i1 and i4 < i6 < i5:
                    word = (A(i4, i1), A(i3, i2), A(x3, i3), A(x4, i4), A(i6, i5), A(i4, i6))
                    expected[word] = 1
    assert family("v1").realize(forest, size).terms == expected


def test_single_fixed_point_func():
    assert family("func").realize(Endofunction((1,)), 3).terms == {
        (A(i, j),): 1 for i in (1, 2, 3) for j in (1, 2, 3) if i != j
    }


def test_endofunction_24352_matches_its_constraint_sum():
    f = Endofunction.parse("2 4 3 5 2")
    size = 3
    expected = {}
    rng = range(1, size + 1)
    for i, j, k, l, m, n in itertools.product(rng, repeat=6):
        if i not in (k, j, n) and k != n and l != m:
            expected[(A(i, j), A(k, i), A(l, m), A(n, k), A(i, n))] = 1
    assert family("func").realize(f, size).terms == expected


def test_endofunction_23234_matches_its_constraint_sum():
    f = Endofunction.parse("2 3 2 3 4")
    size = 3
    expected = {}
    rng = range(1, size + 1)
    for i, j, k, l, m in itertools.product(rng, repeat=5):
        if j not in (i, k) and l not in (k, m):
            expected[(A(j, i), A(k, j), A(j, k), A(k, l), A(l, m))] = 1
    assert family("func").realize(f, size).terms == expected


def test_permutation_24513_matches_its_subscript_pattern():
    sigma = Permutation.parse("2 4 5 1 3")
    size = 2
    expected = {}
    for i1, i2, i3, i4, i5 in itertools.product(range(1, size + 1), repeat=5):
        expected[(A(i4, i1), A(i1, i2), A(i5, i3), A(i2, i4), A(i3, i5))] = 1
    assert family("perm").realize(sigma, size).terms == expected


def test_identity_permutation_realizes_as_loops():
    assert family("perm").realize(Permutation((1,)), 2).terms == {(A(1, 1),): 1, (A(2, 2),): 1}


def test_truncation_must_be_positive():
    with pytest.raises(StructureError):
        family("v2").realize(OrderedForest((0,)), 0)
    with pytest.raises(StructureError):
        family("v7").realize(OrderedForest((0,)), 3)


def test_forest_words_take_only_forest_versions():
    with pytest.raises(StructureError, match="^forest realization version must be v1 or v2, got 'func'$"):
        next(realization.iter_forest_words(OrderedForest((0,)), "func", 3))


def test_word_streams_check_their_arguments_when_asked_for_not_when_read():
    with pytest.raises(StructureError, match="^forest realization version must be v1 or v2, got 'func'$"):
        realization.iter_forest_words(OrderedForest((0,)), "func", 3)
    for version, fam in FAMILIES.items():
        (key,) = fam.ops.keys_of_degree(1)
        with pytest.raises(StructureError, match="^truncation must be >= 1, got 0$"):
            fam.words(key, 0)


def test_family_registry_pairs_versions_with_algebras():
    assert {v: fam.algebra for v, fam in FAMILIES.items()} == {
        "v1": "ho", "v2": "ho", "func": "efsym", "perm": "sgsym",
    }
    with pytest.raises(StructureError, match="unknown realization version 'v7'"):
        family("v7")


def test_realize_is_linear_over_elements():
    fam = family("v2")
    a, b = OrderedForest((0,)), OrderedForest((0, 1))
    x = FreeElement("ho", {a: 2, b: -1})
    expected = {}
    accumulate(expected, fam.realize(a, 3).codes, 2)
    accumulate(expected, fam.realize(b, 3).codes, -1)
    assert fam.realize(x, 3) == NCPolynomial(expected, 3)
    with pytest.raises(AlgebraTagError):
        fam.realize(FreeElement("efsym", {Endofunction((1,)): 1}), 3)


def test_realize_rejects_a_key_of_another_algebra():
    cases = [
        ("v1", Endofunction((1,))),
        ("func", OrderedForest((0,))),
        ("perm", Endofunction((1, 1))),  # not a bijection
    ]
    for version, key in cases:
        with pytest.raises(AlgebraTagError, match=f"{version} realizes"):
            family(version).realize(key, 3)
        with pytest.raises(AlgebraTagError, match=f"{version} realizes"):
            rank_check([key], family(version), 3)


# ---------------------------------------------------------------------------
# Multiplicativity and doubling at module scale
# ---------------------------------------------------------------------------

def test_words_are_distinct_plain_and_within_each_doubled_block():
    # multiplicativity_ok and doubling_transport_ok compare word lists as
    # sets; a repeated word sends them down their slower exact paths.
    for version, fam in FAMILIES.items():
        for d in range(5):
            for key in fam.ops.keys_of_degree(d):
                words = list(fam.words(key, 4))
                assert len(set(words)) == len(words), (version, key)
                for mask, a_codes, b_codes in fam.words(key, 4, True):
                    assert len(set(a_codes)) == len(a_codes), (version, key, mask)
                    assert len(set(b_codes)) == len(b_codes), (version, key, mask)


def product_pairs(fam, max_total):
    keys = [fam.ops.keys_of_degree(d) for d in range(max_total + 1)]
    for total in range(2, max_total + 1):
        for d1 in range(1, total):
            for a in keys[d1]:
                for b in keys[total - d1]:
                    yield a, b


@pytest.mark.parametrize("version", sorted(FAMILIES))
def test_products_list_their_words_in_engine_order(version):
    # multiplicativity_ok then matches on its first, unsorted comparison.
    fam, size = FAMILIES[version], 3
    for a, b in product_pairs(fam, 4):
        (key,) = fam.ops.product(a, b).terms
        shift = code_base(size) ** a.n
        firsts = list(fam.words(a, size))
        expected = [w1 + w2 * shift for w2 in fam.words(b, size) for w1 in firsts]
        assert list(fam.words(key, size)) == expected, (version, a, b)


@pytest.mark.parametrize("version", sorted(FAMILIES))
def test_words_are_a_lazy_stream_in_engine_order(version):
    fam, size = FAMILIES[version], 3
    (empty,) = fam.ops.keys_of_degree(0)
    assert list(fam.words(empty, size)) == [0]
    for a, b in product_pairs(fam, 4):
        (key,) = fam.ops.product(a, b).terms
        words, firsts, shift = fam.words(key, size), list(fam.words(a, size)), code_base(size) ** a.n
        assert iter(words) is words, (version, key)
        assert list(words) == [w1 + w2 * shift for w2 in fam.words(b, size) for w1 in firsts], (version, a, b)


def spy_comparisons(monkeypatch) -> list[bool]:
    verdicts, compare = [], verify._concatenations_match

    def spy(*args):
        verdicts.append(compare(*args))
        return verdicts[-1]

    monkeypatch.setattr(verify, "_concatenations_match", spy)
    return verdicts


def with_words(monkeypatch, fam, change):
    """Register a copy of ``fam`` whose word lists pass through ``change``."""
    def words(key, size, doubled=False):
        return change(key, list(fam.words(key, size, doubled)))

    monkeypatch.setitem(realization.FAMILIES, fam.version, fam._replace(words=words))


@pytest.mark.parametrize("version", sorted(FAMILIES))
def test_multiplicativity_sorts_words_listed_out_of_engine_order(monkeypatch, version):
    fam = FAMILIES[version]
    with_words(monkeypatch, fam, lambda key, words: words[1:] + words[:1])
    verdicts = spy_comparisons(monkeypatch)
    for a, b in product_pairs(fam, 3):
        verdicts.clear()
        assert multiplicativity_ok(version, a, b, 3), (a, b)
        assert verdicts == [False, True], (a, b)


@pytest.mark.parametrize("version", sorted(FAMILIES))
def test_multiplicativity_reads_the_product_to_its_end(monkeypatch, version):
    fam = FAMILIES[version]
    extra = lambda key, words: words + [max(words) + 1] if key.n == 3 else words
    short = lambda key, words: words[:-1] if key.n == 3 else words
    for change in (extra, short):
        with_words(monkeypatch, fam, change)
        for a, b in product_pairs(fam, 3):
            if a.n + b.n == 3:
                assert not multiplicativity_ok(version, a, b, 3), (change, a, b)


@pytest.mark.parametrize("version", sorted(FAMILIES))
def test_multiplicativity_fails_on_a_missing_word(monkeypatch, version):
    fam = FAMILIES[version]
    dropped = lambda key, words: words[1:] if key.n == 3 else words
    repeated = lambda key, words: words[1:2] + words[1:] if key.n == 3 else words
    for change in (dropped, repeated):
        with_words(monkeypatch, fam, change)
        for a, b in product_pairs(fam, 3):
            if a.n + b.n == 3:
                assert not multiplicativity_ok(version, a, b, 3), (a, b)


@pytest.mark.parametrize("version", ["v1", "v2", "func", "perm"])
def test_multiplicativity_total_degree_3_at_n5(version):
    for d1 in (1, 2):
        for a in family(version).ops.keys_of_degree(d1):
            for b in family(version).ops.keys_of_degree(3 - d1):
                assert multiplicativity_ok(version, a, b, 5)


@pytest.mark.parametrize("version", ["v1", "v2", "func", "perm"])
def test_doubling_transport_degree_2_at_n5(version):
    for d in (0, 1, 2):
        for key in family(version).ops.keys_of_degree(d):
            assert doubling_transport_ok(version, key, 5)


def test_doubled_blocks_keep_the_closed_set_bound():
    """Nine positions, one past the enumeration bound: the doubled blocks
    refuse before the first one, as the coproduct they mirror does."""
    nine = {
        "v1": OrderedForest((0,) * 9),
        "v2": OrderedForest((0,) * 9),
        "func": Endofunction(tuple(range(1, 10))),
        "perm": Permutation(tuple(range(1, 10))),
    }
    for version, key in nine.items():
        blocks = family(version).words(key, 2, doubled=True)
        with pytest.raises(EnumerationBoundError, match="^closed set enumeration at size 9 exceeds bound 8$"):
            next(iter(blocks))


@pytest.mark.slow
@pytest.mark.parametrize("version", ["v1", "v2", "func", "perm"])
def test_multiplicativity_total_degree_4_at_n8(version):
    for total in (2, 3, 4):
        for d1 in range(1, total):
            for a in family(version).ops.keys_of_degree(d1):
                for b in family(version).ops.keys_of_degree(total - d1):
                    assert multiplicativity_ok(version, a, b, 8), (version, a, b)


def test_product_check_holds_one_row_of_the_product():
    """S^{x.y} of func 1 2 3 . 1 at N=5 is 160,000 words, about 8 MB as a
    list: the check reads it |S^x| words at a time."""
    x, y = Endofunction.parse("1 2 3"), Endofunction.parse("1")
    tracemalloc.start()
    try:
        assert multiplicativity_ok("func", x, y, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


@pytest.mark.slow
def test_product_check_streams_under_a_small_address_space():
    """The suite's largest product, func 1 2 3 . 1 at N=8, has 9,834,496
    words, about 460 MB as a list: the check answers within 250 MB."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (250 << 20, 250 << 20))

    script = (
        "from treehopf.structures import Endofunction\n"
        "from treehopf.verify import multiplicativity_ok\n"
        "print(multiplicativity_ok('func', Endofunction.parse('1 2 3'), Endofunction.parse('1'), 8))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, preexec_fn=cap)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout == "True\n"


# ---------------------------------------------------------------------------
# Commutative image
# ---------------------------------------------------------------------------

def test_commutative_image_of_one_word():
    poly = NCPolynomial({oracles.encode_word((A(2, 3), A(1, 2)), 3): 1}, 3)
    assert commutative_image(poly) == {(A(1, 2), A(2, 3)): 1}


@pytest.mark.parametrize("version", ["v1", "v2"])
def test_commutative_image_kernel_is_shape_equality(version):
    for n in (1, 2, 3):
        size = 2 * n + 2
        forests = enumerate_ordered_forests(n)
        images = {f: commutative_image(family(version).realize(f, size)) for f in forests}
        for f in forests:
            for g in forests:
                same_shape = canonicalize(f) == canonicalize(g)
                assert (images[f] == images[g]) == same_shape, (version, f, g)


# ---------------------------------------------------------------------------
# Rank
# ---------------------------------------------------------------------------

def test_rank_of_rows_on_known_matrices():
    assert rank_of_rows([{1: 1, 2: 1}, {2: 1}, {1: 1}]) == 2
    assert rank_of_rows([{1: 2, 2: 4}, {1: 1, 2: 2}]) == 1
    assert rank_of_rows([]) == 0
    assert rank_of_rows([{}, {1: 1}]) == 1
    # needs the general elimination fallback: no singleton columns
    rows = [{1: 1, 2: 1}, {2: 1, 3: 1}, {1: 1, 3: 1}, {1: 1, 2: 1, 3: 1}]
    assert rank_of_rows(rows) == 3


def test_rank_check_families_degree_2():
    rep = rank_check(enumerate_ordered_forests(2), realizer_for("v2"), 6, label="v2 deg 2")
    assert rep.full and rep.rank == 3
    rep = rank_check(enumerate_endofunctions(2), realizer_for("func"), 6, label="func deg 2")
    assert rep.full and rep.rank == 4


def test_rank_check_accepts_a_generator_of_keys():
    fam = family("v2")
    rep = rank_check((k for k in fam.ops.keys_of_degree(2)), fam, 6)
    assert rep.summary() == "N=6: rank 3 of 3 (independent)"


def witness_cases():
    for version, fam in FAMILIES.items():
        for d in range(5):
            yield fam, fam.ops.keys_of_degree(d), 6 if (version, d) == ("func", 4) else 2 * d + 2


def test_witnesses_are_distinct_words_of_their_realizations():
    for fam, keys, size in witness_cases():
        witnesses = [fam.witness(key, size) for key in keys]
        assert len(set(witnesses)) == len(keys), (fam.version, size)
        for key, w in zip(keys, witnesses):
            assert w in fam.words(key, size), (fam.version, key)
            seconds = [j for _, _, j in decode_word(w, size)]
            assert len(set(seconds)) == len(seconds) == key.n, (fam.version, key)


@pytest.mark.parametrize("version", sorted(FAMILIES))
def test_contains_matches_enumeration(version):
    fam = FAMILIES[version]
    for size in (2, 3, 4):
        base, b_side = code_base(size), (size + 1) ** 2
        for d in range(4):
            keys = fam.ops.keys_of_degree(d)
            realized = [set(fam.words(key, size)) for key in keys]
            # every word, and its first letter's subscripts moved by one
            shifts = (0, 1, -1, size + 1, -size - 1)
            codes = {w + e for w in set().union(*realized) for e in shifts}
            for key, words in zip(keys, realized):
                for w in codes:
                    assert fam.contains(key, w, size) == (w in words), (key, w, size)
                for w in words:
                    outside = [w + base**d * (size + 2)]  # one letter too many
                    if d:
                        outside.append(w % base ** (d - 1))  # one letter too few
                        outside.append(w + b_side * base ** (d - 1))  # a B letter
                    assert not any(fam.contains(key, v, size) for v in outside), (key, w, size)


def raise_on_words(key, size, doubled=False):
    raise AssertionError("the witness proof built words")


@pytest.mark.parametrize(
    "version, degree, size", [("v1", 4, 10), ("v2", 4, 10), ("func", 4, 10), ("func", 3, 8)]
)
def test_rank_check_proves_full_rank_building_no_words(version, degree, size):
    fam = family(version)._replace(words=raise_on_words)
    keys = fam.ops.keys_of_degree(degree)
    assert rank_check(keys, fam, size).rank == len(keys)


def oracle_rank(fam, keys, size):
    return rank_of_rows([fam.realize(key, size).codes for key in keys])


def test_rank_check_falls_back_on_a_repeated_key():
    fam = family("v2")
    keys = [*fam.ops.keys_of_degree(2), OrderedForest((0, 1))]
    rep = rank_check(keys, fam, 6)
    assert (rep.rank, rep.keys) == (3, 4)
    assert rep.summary() == "N=6: rank 3 of 4 (DEPENDENT)"


def test_rank_check_falls_back_when_a_witness_is_missing():
    # At N = n a fixed point leaves no value for its free first subscript.
    fam = family("func")
    keys = fam.ops.keys_of_degree(3)
    assert fam.witness(Endofunction((1, 2, 3)), 3) is None
    rep = rank_check(keys, fam, 3)
    assert rep.rank == oracle_rank(fam, keys, 3) == 24
    assert not rep.full


@pytest.mark.parametrize("version", sorted(FAMILIES))
def test_rank_check_does_not_trust_a_wrong_witness(version):
    fam = FAMILIES[version]
    keys = fam.ops.keys_of_degree(3)
    base = code_base(8)
    constant = fam._replace(witness=lambda key, size: 1)
    # one more letter: distinct words, each outside every S^x of degree 3
    outside = fam._replace(witness=lambda key, size: fam.witness(key, size) + base**key.n)
    for wrong in (constant, outside):
        assert rank_check(keys, wrong, 8).rank == oracle_rank(fam, keys, 8) == len(keys)
    assert rank_check(keys, constant, 2).rank == oracle_rank(fam, keys, 2) < len(keys)


# ---------------------------------------------------------------------------
# pi and the ordered-alphabet consistency
# ---------------------------------------------------------------------------

def test_pi_image_reproduces_the_six_worked_values():
    assert sorted(m.render() for m in pi_image(OrderedForest.parse("0 1 1")).terms) == [
        "1 2 2",
        "1 2 3",
        "1 3 2",
    ]


def test_pi_commutes_with_the_letter_projection_at_n6():
    for n in (1, 2, 3):
        for forest in enumerate_ordered_forests(n):
            lhs = project_second_subscript(family("v2").realize(forest, 6))
            rhs = wqsym_realize(pi_image(forest), 6)
            assert lhs == rhs, forest
