"""Polynomial realizations over truncated relation-equipped alphabets.

Letters are bi-indexed variables tagged with an alphabet side:
``("A", i, j)`` or ``("B", i, j)``.  Three letter regimes are supported:

* ``v1``   -- 0 <= i < j; each tree root carries a free first subscript
  (the value of its virtual-root variable).
* ``v2``   -- 1 <= i <= j; roots carry loop letters a_ii instead.
* ``func`` -- i != j, both >= 1; endofunction letters, one per position,
  with a free first subscript at every fixed point.

Permutations use the unrestricted alphabet with loop letters (``perm``
internally).  A word compatible with a structure chains the second subscript
of each vertex's letter into the first subscript of its children's letters;
the polynomial S^x is the sum of all compatible words with coefficient 1.
Each regime reads the key as a map: f_F for forests, f for endofunctions,
the inverse for permutations; a position's parent is its image, and the
fixed points are the roots.

Doubling replaces the alphabet by the disjoint union A + B: B letters can
never sit below A letters, so the B positions are a closed set of the map,
the Lea part of a cut; where an A parent meets a B child the child's
letter restarts like a root's (loop for v2, free first subscript otherwise).
Truncation is controlled by N: all subscripts lie in {1..N} ({0..N} for the
first subscripts of v1 root letters).  Product and doubling identities are
exact at every N; linear independence needs N large enough (2n+2 suffices).
Each key owns a witness word of its S^x, read from the same steps as its
words, and a membership test that reads a word letter by letter;
``rank_check`` proves independence on the witnesses' columns by membership
alone, building no word, and eliminates every realized row only when that
proof fails.  The steps take the components in the order of their first
positions, so the words of a shifted concatenation x.y come out as the
concatenations of S^x and S^y, w2 the outer loop: the product check
compares them in that order first.

Words are integers inside the engine.  At truncation N let K = N + 1; the
letter (side, i, j) has the code ((side == "B") * K + i) * K + j, which is
at least 1 because j >= 1.  A word is the little-endian number of its letter
codes in base 2K^2, so the empty word is 0 and concatenation w1 w2 is
``w1 + w2 * base ** len(w1)``; ``letter_codes`` alone takes a code apart.
Each letter's subscripts are values of the structure's vertex variables,
so a word's code is a sum of value * weight terms and the compatible words
are enumerated as sums, one variable at a time.  Over the doubled alphabet the enumerator yields one block per closed
set: (B-position mask, A-subword codes, B-subword codes), the B letters
coded as if they were A.  The doubled words of a block are every pair of an
A-subword and a B-subword, so they come out already split by side, and a
check can compare whole blocks without forming the pairs.
"""

from __future__ import annotations

import operator
from functools import cache
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .algebra import AlgebraOps, AlgebraTagError, FreeElement, get_algebra
from .structures import (
    Endofunction,
    EnumerationBoundError,
    OrderedForest,
    PackedWord,
    Permutation,
    StructureError,
    _check_bound,
    closed_subsets,
    forest_from_image,
)

Letter = tuple[str, int, int]
Word = tuple[Letter, ...]


def _check_truncation(size: int):
    if size < 1:
        raise StructureError(f"truncation must be >= 1, got {size}")


# ---------------------------------------------------------------------------
# Word codes
# ---------------------------------------------------------------------------

def code_base(size: int) -> int:
    """The base 2(N+1)^2 of the word codes at truncation N."""
    return 2 * (size + 1) * (size + 1)


def letter_codes(code: int, size: int) -> list[int]:
    """The letter codes of a word code at truncation N, first letter first.
    A letter's code is the code of its one-letter word."""
    if code < 0:
        raise StructureError(f"word code must be >= 0, got {code}")
    base = code_base(size)
    digits = []
    while code:
        code, d = divmod(code, base)
        digits.append(d)
    return digits


def decode_word(code: int, size: int) -> Word:
    k = size + 1
    return tuple([("AB"[d // k // k], d // k % k, d % k) for d in letter_codes(code, size)])


class NCPolynomial:
    """Sparse integer polynomial in noncommuting letters at one truncation.

    ``codes`` maps word codes at truncation ``size`` to nonzero coefficients;
    ``terms`` decodes them to letter words on every access.  Polynomials at
    two truncations are never equal, and their product is an error.
    """

    __slots__ = ("codes", "size")

    def __init__(self, codes: dict[int, int], size: int):
        self.codes = codes
        self.size = size

    @property
    def terms(self) -> dict[Word, int]:
        return {decode_word(w, self.size): c for w, c in self.codes.items()}

    def __mul__(self, other: "NCPolynomial") -> "NCPolynomial":
        left, right, size = self.codes, other.codes, self.size
        if other.size != size:
            raise StructureError(f"cannot multiply polynomials truncated at {size} and {other.size}")
        if not left or not right:
            return NCPolynomial({}, size)
        base = code_base(size)
        length = len(letter_codes(min(left), size))
        if length == len(letter_codes(max(left), size)):
            # A longer word has a larger code, so every left word has this
            # length: distinct pairs give distinct products.
            shift = base**length
            out = {
                w1 + w2: c1 * c2
                for w, c2 in right.items()
                for w2 in (w * shift,)
                for w1, c1 in left.items()
            }
            return NCPolynomial(out, size)
        out = {}
        for w1, c1 in left.items():
            shift = base ** len(letter_codes(w1, size))
            for w2, c2 in right.items():
                w = w1 + w2 * shift
                out[w] = out.get(w, 0) + c1 * c2
        return NCPolynomial({w: c for w, c in out.items() if c}, size)

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPolynomial) and self.size == other.size and self.codes == other.codes

    def __len__(self):
        return len(self.codes)

    def __repr__(self):
        return f"NCPolynomial({len(self.codes)} terms)"


# ---------------------------------------------------------------------------
# Word enumeration
# ---------------------------------------------------------------------------
#
# Every regime has the same shape: position v carries the letter
# (first_v, y_v), and first_v = y_p when v is linked to a parent p on its
# own side of the alphabet.  An unlinked position restarts like a root: a
# loop letter (v2), or a free first subscript below y_v (v1) or different
# from it (func).  A linked pair is constrained by y_v > y_p (forests) or
# y_v != y_p (func); permutations link every moved position to its
# preimage and constrain nothing, and a fixed point's loop letter is the
# letter a link to itself would give.

_REVERSED = {">": "<", "!=": "!="}


def _steps(
    parent: Sequence[int], side: Sequence[int], relation: str | None, root: str, size: int
) -> list:
    """The variables of one side's letters as (weight, lo, hi, relations,
    free) steps; a relation (op, t) compares the value with the earlier step
    t, and ``free`` marks the free first subscript of a root-like letter.
    Letters are coded by their rank on the side, as A letters.

    The components come in the order of their first positions.  A shifted
    concatenation x.y therefore has x's steps followed by y's, shifted, and
    ``_assign`` yields S^{x.y} as w1 + w2 * base^|x| for w2 in S^y for w1 in
    S^x: the engine order the product check compares first."""
    k = size + 1
    base = code_base(size)
    weight = {v: base**r for r, v in enumerate(side)}
    linked = [v for v in side if parent[v - 1] in weight]
    coef = dict(weight)
    kids: dict[int, list[int]] = {v: [] for v in side}
    for v in linked:
        p = parent[v - 1]
        coef[p] += k * weight[v]
        kids[p].append(v)
    if root == "loop":
        for v in side:
            if parent[v - 1] not in weight:
                coef[v] += k * weight[v]
    # One preorder per component, in the order of their first positions, so
    # that a vertex's parent is usually assigned just before it.  A component
    # starts at its root, or at the cycle vertex its first position reaches.
    order: list[int] = []
    seen: set[int] = set()
    for first in side:
        if first in seen:
            continue
        start, path = first, set()
        while start not in path and parent[start - 1] in weight:
            path.add(start)
            start = parent[start - 1]
        stack = [start]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                order.append(v)
                stack.extend(reversed(kids[v]))
    rank = {v: r for r, v in enumerate(order)}
    relations: dict[int, list] = {v: [] for v in side}
    if relation is not None:
        for v in linked:
            p = parent[v - 1]
            if rank[v] > rank[p]:
                relations[v].append((relation, p))
            else:
                relations[p].append((_REVERSED[relation], v))
    steps: list = []
    step_of: dict[int, int] = {}
    for v in order:
        step_of[v] = len(steps)
        steps.append((coef[v], 1, size, [(op, step_of[u]) for op, u in relations[v]], False))
        if parent[v - 1] not in weight and root != "loop":
            # the free first subscript of a root-like letter
            lo, op = (0, "<") if root == "below" else (1, "!=")
            steps.append((k * weight[v], lo, size, [(op, step_of[v])], True))
    return steps


# The most partial sums one step of ``_assign`` may list: above the 9,834,496
# words of the func identity at degree 4, N=8.  The product check streams them;
# ``realize`` lists them to sort (450 MB), and the doubling check holds them
# twice, as the empty closed set's A side and as the sorted S^x (950 MB).
WORD_BUDGET = 10_000_000


def _assign(steps: list) -> Iterator[list[int]]:
    """Codes of every assignment of the steps' variables: each value times
    its weight, summed, yielded one block per value of the last variable.
    Partial sums are grouped by the values later steps still compare
    against.  A step that would list more than ``WORD_BUDGET`` partial sums
    raises ``EnumerationBoundError`` before it allocates them."""
    last: dict[int, int] = {}
    for t, (_, _, _, relations, _) in enumerate(steps):
        for _, u in relations:
            last[u] = t
    live: list[int] = []  # the steps whose values a group's state holds
    groups: dict[tuple, list[int]] = {(): [0]}
    for t, (coef, lo, hi, relations, _) in enumerate(steps):
        slot = {u: i for i, u in enumerate(live)}
        checks = [(op, slot[u]) for op, u in relations]
        kept = [u for u in live + [t] if last.get(u, -1) > t]
        picks = [slot.get(u, len(live)) for u in kept]
        allowed, count = [], 0
        for state, codes in groups.items():
            a, b, banned = lo, hi, []
            for op, i in checks:
                value = state[i]
                if op == ">":
                    a = max(a, value + 1)
                elif op == "<":
                    b = min(b, value - 1)
                else:
                    banned.append(value)
            ys = range(a, b + 1)
            if banned:
                ys = [y for y in ys if y not in banned]
            if ys:
                allowed.append((state, codes, ys))
                count += len(ys) * len(codes)
        if count > WORD_BUDGET:
            raise EnumerationBoundError(
                f"word enumeration of {count} partial words exceeds bound {WORD_BUDGET}"
            )
        if t == len(steps) - 1:  # the last step hands out each block as it is built
            for _, codes, ys in allowed:
                for d in [y * coef for y in ys]:
                    yield [c + d for c in codes]
            return
        nxt: dict[tuple, list[int]] = {}
        for state, codes, ys in allowed:
            if len(live) in picks:  # later steps compare against this value
                shifts: dict[tuple, list[int]] = {}
                for y in ys:
                    full = state + (y,)
                    shifts.setdefault(tuple([full[i] for i in picks]), []).append(y * coef)
            else:
                shifts = {tuple([state[i] for i in picks]): [y * coef for y in ys]}
            for key, ds in shifts.items():
                nxt.setdefault(key, []).extend([c + d for d in ds for c in codes])
        groups = nxt
        live = kept
    yield [0]  # no steps: the empty word


def _witness(steps: list) -> int | None:
    """The code of one assignment of the steps, or None when a value exceeds
    its bound: the n main variables take 1..n in step order, and a free
    first subscript takes a value none of them takes, its lower bound 0 (v1)
    or n + 1 (func).  Preorder puts a parent before its child and the values
    are distinct, so every relation holds."""
    n = sum(not free for *_, free in steps)
    main = iter(range(1, n + 1))
    values = [(lo if lo < 1 else n + 1) if free else next(main) for _, lo, _, _, free in steps]
    if any(y > hi for y, (_, _, hi, _, _) in zip(values, steps)):
        return None
    return sum(y * coef for y, (coef, *_) in zip(values, steps))


# relation -> the test of a linked letter's second subscript against its
# parent's; root kind -> the test of a root letter's first subscript against
# its second
_LINKED = {">": operator.gt, "!=": operator.ne, None: lambda y, q: True}
_ROOTED = {"below": operator.lt, "loop": operator.eq, "different": lambda i, y: 0 < i != y}


def _regime(parent_of: Callable[[Any], Sequence[int]], relation: str | None, root: str):
    """The ``words``, ``witness`` and ``contains`` slots of a family whose
    keys are read as the maps ``parent_of``: codes of S^x, or one (mask,
    A-subwords, B-subwords) block per closed set over the doubled alphabet;
    the code of one word of S^x, read from the same steps; and whether a
    code is a word of S^x, read letter by letter.  Each position is linked
    to its parent; the positions whose parent is 0, the fixed points of the
    map, are roots."""

    def side_words(parent: Sequence[int], side: Sequence[int], size: int) -> Iterator[int]:
        return chain.from_iterable(_assign(_steps(parent, side, relation, root, size)))

    def doubled_words(parent: Sequence[int], size: int) -> Iterator[tuple]:
        # No B letter sits above an A letter: the B positions form a closed
        # set of the map, the Lea part of a cut.  closed_subsets holds the
        # size to the enumeration bound; WORD_BUDGET bounds each side's words.
        positions = range(1, len(parent) + 1)
        image = [p or v for v, p in enumerate(parent, start=1)]
        for mask in closed_subsets(image):
            yield (
                mask,
                list(side_words(parent, [v for v in positions if not mask >> (v - 1) & 1], size)),
                list(side_words(parent, [v for v in positions if mask >> (v - 1) & 1], size)),
            )

    def parents(key, size: int) -> Sequence[int]:
        _check_truncation(size)
        return parent_of(key)

    def words(key, size: int, doubled: bool = False) -> Iterable:
        parent = parents(key, size)
        if doubled:
            return doubled_words(parent, size)
        return side_words(parent, range(1, len(parent) + 1), size)

    def witness(key, size: int) -> int | None:
        parent = parents(key, size)
        return _witness(_steps(parent, range(1, len(parent) + 1), relation, root, size))

    linked, rooted = _LINKED[relation], _ROOTED[root]

    def contains(key, code: int, size: int) -> bool:
        parent = parents(key, size)
        if code < 0:
            return False
        k, digits = size + 1, letter_codes(code, size)
        if len(digits) != len(parent):
            return False
        for d, p in zip(digits, parent):
            first, y = divmod(d, k)
            if first >= k or not y:  # a B letter, or no second subscript
                return False
            if p:
                if first != digits[p - 1] % k or not linked(y, first):
                    return False
            elif not rooted(first, y):
                return False
        return True

    return words, witness, contains


def _interleave(blocks: Iterable[tuple[int, list, list]], n: int, size: int) -> Iterator[int]:
    """Full doubled-word codes of (mask, A-subwords, B-subwords) blocks: one
    word per pair of a block's A- and B-subwords.  A full code is the sum of
    its A letters and its B letters placed at their positions, so each
    subword is spread once and the pairs are sums."""
    base = code_base(size)
    b_side = (size + 1) * (size + 1)

    def spread(code: int, places: list[int], offset: int) -> int:
        return sum(map(operator.mul, letter_codes(code, size), places)) + offset * sum(places)

    for mask, a_codes, b_codes in blocks:
        a_places = [base**v for v in range(n) if not mask >> v & 1]
        b_places = [base**v for v in range(n) if mask >> v & 1]
        spread_a = [spread(a, a_places, 0) for a in a_codes]
        for b in b_codes:
            sb = spread(b, b_places, b_side)
            for sa in spread_a:
                yield sa + sb


def _decoded(version: str, key, size: int, doubled: bool) -> Iterator[Word]:
    return (decode_word(code, size) for code in family(version)._codes(key, size, doubled))


def iter_forest_words(
    forest: OrderedForest, version: str, size: int, doubled: bool = False
) -> Iterator[Word]:
    """All forest-compatible words with subscripts bounded by ``size``."""
    if version not in ("v1", "v2"):
        raise StructureError(f"forest realization version must be v1 or v2, got {version!r}")
    return _decoded(version, forest, size, doubled)


def iter_endofunction_words(
    f: Endofunction, size: int, doubled: bool = False
) -> Iterator[Word]:
    """All f-compatible words over the i != j alphabet, subscripts <= size."""
    return _decoded("func", f, size, doubled)


def iter_permutation_words(
    sigma: Permutation, size: int, doubled: bool = False
) -> Iterator[Word]:
    """Words a_{i_{sigma^-1(1)} i_1} ... a_{i_{sigma^-1(n)} i_n}; cycles stay
    on one side of a doubled alphabet."""
    return _decoded("perm", sigma, size, doubled)


# ---------------------------------------------------------------------------
# Realization families
# ---------------------------------------------------------------------------

class RealizationFamily(NamedTuple):
    """A polynomial realization: an algebra and the letter regime whose
    compatible words make S^x.  Keys, product, coproduct and parser are the
    algebra's own (``ops``); ``words(key, size, doubled)`` yields the codes
    of S^x, or, when doubled, one (B mask, A-subword codes, B-subword codes)
    block per closed set, whose words are all the pairs of the two lists.
    ``witness(key, size)`` is the code of one word of S^x, or None when the
    truncation leaves no room for it (see ``rank_check``).
    ``contains(key, code, size)`` tells whether a code is a word of S^x in
    O(n), building no word: it decodes n A letters and tests each against
    its parent's letter and the regime's relation and root kind.  An
    ``internal`` family is left out of ``realize --version`` and of the rank
    checks of the realization suite.  Calling a family realizes."""

    version: str
    algebra: str
    words: Callable[[Any, int, bool], Iterable]
    witness: Callable[[Any, int], int | None]
    contains: Callable[[Any, int, int], bool]
    internal: bool = False

    @property
    def ops(self) -> AlgebraOps:
        return get_algebra(self.algebra)

    def _tag_error(self, x) -> AlgebraTagError:
        got = getattr(x, "algebra", type(x).__name__)
        return AlgebraTagError(f"{self.version} realizes {self.algebra}, not {got}")

    def realize(self, x, size: int, doubled: bool = False) -> NCPolynomial:
        """S^x of a key, or the linear extension over an element's terms."""
        if isinstance(x, self.ops.key_type):
            x = FreeElement.from_key(self.algebra, x)
        elif not (isinstance(x, FreeElement) and x.algebra == self.algebra):
            raise self._tag_error(x)
        if len(x.terms) == 1:  # one key's words are distinct, so dict.fromkeys builds its S^x
            ((key, c),) = x.terms.items()
            return NCPolynomial(dict.fromkeys(self._codes(key, size, doubled), c), size)
        terms = ((w, c) for key, c in x.terms.items() for w in self._codes(key, size, doubled))
        return NCPolynomial(_collected(terms), size)

    def _codes(self, key, size: int, doubled: bool) -> Iterable[int]:
        """The word codes of S^x, the doubled blocks interleaved into full codes."""
        found = self.words(key, size, doubled)
        return _interleave(found, key.n, size) if doubled else found

    __call__ = realize


FAMILIES: dict[str, RealizationFamily] = {
    fam.version: fam
    for fam in (
        RealizationFamily("v1", "ho", *_regime(lambda f: f.parent, ">", "below")),
        RealizationFamily("v2", "ho", *_regime(lambda f: f.parent, ">", "loop")),
        RealizationFamily("func", "efsym", *_regime(lambda f: forest_from_image(f.image, list), "!=", "different")),
        RealizationFamily(
            "perm", "sgsym", *_regime(lambda s: forest_from_image(s.inverse().image, list), None, "loop"), internal=True
        ),
    )
}


def family(version: str) -> RealizationFamily:
    try:
        return FAMILIES[version]
    except KeyError:
        raise StructureError(f"unknown realization version {version!r}") from None


def realizer_for(version: str) -> RealizationFamily:
    """The family of a letter regime; calling it realizes a key."""
    return family(version)


def oplus_double(key, version: str, size: int) -> NCPolynomial:
    """Realize over the doubled alphabet A + B."""
    return family(version).realize(key, size, doubled=True)


def group_doubled(poly: NCPolynomial) -> dict[tuple[Word, Word], int]:
    """Collect a doubled polynomial by (A-subword, B-subword); this is the
    P(A)Q(B) ~ P (x) Q identification."""
    size = poly.size
    b_side = (size + 1) * (size + 1)  # letter codes from here on are B letters
    letter = cache(lambda d: decode_word(d, size)[0])  # one decode per distinct letter code
    out: dict[tuple[Word, Word], int] = {}
    for code, coeff in poly.codes.items():
        digits = letter_codes(code, size)
        a = tuple([letter(d) for d in digits if d < b_side])
        b = tuple([letter(d) for d in digits if d >= b_side])
        out[a, b] = out.get((a, b), 0) + coeff
    return {pair: c for pair, c in out.items() if c}


# ---------------------------------------------------------------------------
# Commutative image
# ---------------------------------------------------------------------------

def _collected(terms: Iterable[tuple[Any, int]]) -> dict:
    """The (key, coefficient) pairs summed by key, zeros dropped."""
    out: dict = {}
    for key, coeff in terms:
        out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


def commutative_image(poly: NCPolynomial) -> dict[tuple[Letter, ...], int]:
    """Let the letters commute: words collapse to sorted letter multisets."""
    return _collected((tuple(sorted(word)), c) for word, c in poly.terms.items())


# ---------------------------------------------------------------------------
# The projection onto WQSym
# ---------------------------------------------------------------------------

def pi_image(forest: OrderedForest) -> FreeElement:
    """pi(S^F) in the M basis: packed words whose value drops strictly along
    every edge (parent strictly smaller than child).

    The words are built one value at a time: value k goes to a nonempty set
    of the vertices still free whose parents already hold smaller values
    (the roots, at first).  Each level-set sequence is one packed word.
    """
    _check_bound(forest.n, "packed word enumeration")
    n = forest.n
    kids = forest.children()
    letters = [0] * n
    words: list[tuple[int, ...]] = []

    def assign(k: int, ready: list[int], left: int):
        if not left:
            words.append(tuple(letters))
            return
        for mask in range(1, 1 << len(ready)):
            chosen = [v for i, v in enumerate(ready) if mask >> i & 1]
            rest = [v for i, v in enumerate(ready) if not mask >> i & 1]
            for v in chosen:
                letters[v - 1] = k
                rest.extend(kids[v])
            assign(k + 1, rest, left - len(chosen))

    assign(1, list(forest.roots()), n)
    words.sort()
    return FreeElement("wqsym", dict.fromkeys(map(PackedWord._of, words), 1))


def project_second_subscript(poly: NCPolynomial) -> dict[tuple[int, ...], int]:
    """The letter map a_ij -> a_j applied to a realized polynomial."""
    return _collected((tuple(j for (_, _, j) in word), c) for word, c in poly.terms.items())


# ---------------------------------------------------------------------------
# Exact rank
# ---------------------------------------------------------------------------

def rank_of_rows(rows: Sequence[dict]) -> int:
    """Exact rank of sparse integer rows by fraction-free elimination.

    Columns owned by a single row are peeled first; they are pivots whose
    elimination step is a no-op.  ``rank_check`` feeds it the witness
    submatrix first, where each basis element owns its reconstructing word,
    and every realized row only when that submatrix is singular.
    """
    live = [r for r in rows if r]  # rows are read, never changed in place
    rank = 0
    while live:
        seen: set = set()
        shared: set = set()
        for row in live:
            shared.update(seen.intersection(row))
            seen.update(row)
        rest = [r for r in live if shared.issuperset(r)]
        if len(rest) < len(live):
            rank += len(live) - len(rest)
            live = rest
            continue
        pivot = live.pop()
        col0 = next(iter(pivot))
        a = pivot[col0]
        rank += 1
        reduced = []
        for row in live:
            if col0 in row:
                b = row[col0]
                merged = {c: a * v for c, v in row.items()}
                for c, v in pivot.items():
                    merged[c] = merged.get(c, 0) - b * v
                merged = {c: v for c, v in merged.items() if v}
                if merged:
                    reduced.append(merged)
            else:
                reduced.append(row)
        live = reduced
    return rank


class RankReport(NamedTuple):
    label: str
    keys: int
    rank: int

    @property
    def full(self) -> bool:
        return self.rank == self.keys

    def summary(self) -> str:
        verdict = "independent" if self.full else "DEPENDENT"
        return f"{self.label}: rank {self.rank} of {self.keys} ({verdict})"


def rank_check(keys: Iterable, fam: RealizationFamily, size: int, label: str = "") -> RankReport:
    """Exact rank of the S^x of ``keys`` as vectors over word codes.

    Every key owns a witness word of its S^x (``RealizationFamily.witness``).
    The columns of the witnesses form a k x k submatrix, whose entries are
    membership tests (``RealizationFamily.contains``), so proving it builds
    no word; its rank is at most the full rank: when it is k the S^x are
    independent.  Otherwise, or when a witness is missing or repeated, every
    S^x is realized and eliminated by ``rank_of_rows``."""
    keys, label = list(keys), label or f"N={size}"
    for key in keys:
        if not isinstance(key, fam.ops.key_type):
            raise fam._tag_error(key)
    column = {fam.witness(key, size): i for i, key in enumerate(keys)}
    if None not in column and len(column) == len(keys):
        rows = [{column[w]: 1 for w in column if fam.contains(key, w, size)} for key in keys]
        if rank_of_rows(rows) == len(keys):
            return RankReport(label, len(keys), len(keys))
    rows = [fam.realize(key, size).codes for key in keys]
    return RankReport(label, len(keys), rank_of_rows(rows))
