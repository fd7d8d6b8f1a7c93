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

Words are integers inside the engine.  At truncation N let K = N + 1; the
letter (side, i, j) has the code ((side == "B") * K + i) * K + j, which is
at least 1 because j >= 1.  A word is the little-endian number of its letter
codes in base 2K^2, so the empty word is 0 and concatenation w1 w2 is
``w1 + w2 * base ** len(w1)``.  Each letter's subscripts are values of the
structure's vertex variables, so a word's code is a sum of value * weight
terms and the compatible words are enumerated as sums, one variable at a
time.  Over the doubled alphabet the enumerator yields one block per closed
set: (B-position mask, A-subword codes, B-subword codes), the B letters
coded as if they were A.  The doubled words of a block are every pair of an
A-subword and a B-subword, so they come out already split by side, and a
check can compare whole blocks without forming the pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .algebra import AlgebraOps, AlgebraTagError, FreeElement, accumulate, get_algebra
from .structures import (
    Endofunction,
    OrderedForest,
    PackedWord,
    Permutation,
    StructureError,
    _check_bound,
    closed_subsets,
    forest_image,
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


def decode_word(code: int, size: int) -> Word:
    k = size + 1
    base = code_base(size)
    word = []
    while code:
        code, d = divmod(code, base)
        side, i = divmod(d // k, k)
        word.append(("AB"[side], i, d % k))
    return tuple(word)


def _word_length(code: int, base: int) -> int:
    n = 0
    while code:
        code //= base
        n += 1
    return n


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
        length = _word_length(min(left), base)
        if length == _word_length(max(left), base):
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
            shift = base ** _word_length(w1, base)
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
    """The variables of one side's letters as (weight, lo, hi, relations)
    steps; a relation (op, t) compares the value with the earlier step t.
    Letters are coded by their rank on the side, as A letters."""
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
    # Preorder from the side's roots, then around any cycle left, so that a
    # vertex's parent is usually assigned just before it.
    order: list[int] = []
    seen: set[int] = set()
    for start in [v for v in side if parent[v - 1] not in weight] + list(side):
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
        steps.append((coef[v], 1, size, [(op, step_of[u]) for op, u in relations[v]]))
        if parent[v - 1] not in weight and root != "loop":
            # the free first subscript of a root-like letter
            lo, op = (0, "<") if root == "below" else (1, "!=")
            steps.append((k * weight[v], lo, size, [(op, step_of[v])]))
    return steps


def _assign(steps: list) -> list[int]:
    """Codes of every assignment of the steps' variables: each value times
    its weight, summed.  Partial sums are grouped by the values later steps
    still compare against."""
    last: dict[int, int] = {}
    for t, (_, _, _, relations) in enumerate(steps):
        for _, u in relations:
            last[u] = t
    live: list[int] = []  # the steps whose values a group's state holds
    groups: dict[tuple, list[int]] = {(): [0]}
    for t, (coef, lo, hi, relations) in enumerate(steps):
        slot = {u: i for i, u in enumerate(live)}
        checks = [(op, slot[u]) for op, u in relations]
        kept = [u for u in live + [t] if last.get(u, -1) > t]
        picks = [slot.get(u, len(live)) for u in kept]
        nxt: dict[tuple, list[int]] = {}
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
            shifts: dict[tuple, list[int]] = {}
            for y in range(a, b + 1):
                if y not in banned:
                    full = state + (y,)
                    shifts.setdefault(tuple([full[i] for i in picks]), []).append(y * coef)
            for key, ds in shifts.items():
                nxt.setdefault(key, []).extend([c + d for d in ds for c in codes])
        groups = nxt
        live = kept
    return groups.get((), [])


def _regime(image_of: Callable[[Any], Sequence[int]], relation: str | None, root: str):
    """The ``words`` slot of a family whose keys are the maps ``image_of``:
    codes of S^x, or one (mask, A-subwords, B-subwords) block per closed set
    over the doubled alphabet.  Each position is linked to its image; fixed
    points are roots."""

    def side_words(parent: Sequence[int], side: Sequence[int], size: int) -> list[int]:
        return _assign(_steps(parent, side, relation, root, size))

    def doubled_words(image: Sequence[int], parent: Sequence[int], size: int) -> Iterator[tuple]:
        # No B letter sits above an A letter: the B positions form a closed
        # set of the map, the Lea part of a cut.  The word count, not the
        # size, bounds them.
        positions = range(1, len(image) + 1)
        for mask in closed_subsets(image, bound=len(image)):
            yield (
                mask,
                side_words(parent, [v for v in positions if not mask >> (v - 1) & 1], size),
                side_words(parent, [v for v in positions if mask >> (v - 1) & 1], size),
            )

    def words(key, size: int, doubled: bool = False) -> Iterable:
        _check_truncation(size)
        image = image_of(key)
        parent = [0 if w == v else w for v, w in enumerate(image, start=1)]
        if doubled:
            return doubled_words(image, parent, size)
        return side_words(parent, range(1, len(image) + 1), size)

    return words


def _interleave(blocks: Iterable[tuple[int, list, list]], n: int, size: int) -> Iterator[int]:
    """Full doubled-word codes of (mask, A-subwords, B-subwords) blocks: one
    word per pair of a block's A- and B-subwords.  A full code is the sum of
    its A letters and its B letters placed at their positions, so each
    subword is spread once and the pairs are sums."""
    base = code_base(size)
    b_side = (size + 1) * (size + 1)

    def spread(code: int, places: list[int], offset: int) -> int:
        out = 0
        for p in places:
            code, d = divmod(code, base)
            out += (d + offset) * p
        return out

    for mask, a_codes, b_codes in blocks:
        a_places = [base**v for v in range(n) if not mask >> v & 1]
        b_places = [base**v for v in range(n) if mask >> v & 1]
        spread_a = [spread(a, a_places, 0) for a in a_codes]
        for b in b_codes:
            sb = spread(b, b_places, b_side)
            for sa in spread_a:
                yield sa + sb


def _decoded(version: str, key, size: int, doubled: bool) -> Iterator[Word]:
    codes = family(version).words(key, size, doubled)
    if doubled:
        codes = _interleave(codes, key.n, size)
    for code in codes:
        yield decode_word(code, size)


def iter_forest_words(
    forest: OrderedForest, version: str, size: int, doubled: bool = False
) -> Iterator[Word]:
    """All forest-compatible words with subscripts bounded by ``size``."""
    if version not in ("v1", "v2"):
        raise StructureError(f"forest realization version must be v1 or v2, got {version!r}")
    yield from _decoded(version, forest, size, doubled)


def iter_endofunction_words(
    f: Endofunction, size: int, doubled: bool = False
) -> Iterator[Word]:
    """All f-compatible words over the i != j alphabet, subscripts <= size."""
    yield from _decoded("func", f, size, doubled)


def iter_permutation_words(
    sigma: Permutation, size: int, doubled: bool = False
) -> Iterator[Word]:
    """Words a_{i_{sigma^-1(1)} i_1} ... a_{i_{sigma^-1(n)} i_n}; cycles stay
    on one side of a doubled alphabet."""
    yield from _decoded("perm", sigma, size, doubled)


# ---------------------------------------------------------------------------
# Realization families
# ---------------------------------------------------------------------------

class RealizationFamily(NamedTuple):
    """A polynomial realization: an algebra and the letter regime whose
    compatible words make S^x.  Keys, product, coproduct and parser are the
    algebra's own (``ops``); ``words(key, size, doubled)`` lists the codes
    of S^x, or, when doubled, one (B mask, A-subword codes, B-subword codes)
    block per closed set, whose words are all the pairs of the two lists.
    An ``internal`` family is left out of ``realize --version`` and of the
    rank checks of the realization suite."""

    version: str
    algebra: str
    words: Callable[[Any, int, bool], Iterable]
    internal: bool = False

    @property
    def ops(self) -> AlgebraOps:
        return get_algebra(self.algebra)

    def realize(self, x, size: int, doubled: bool = False) -> NCPolynomial:
        """S^x of a key, or the linear extension over an element's terms."""
        if isinstance(x, self.ops.key_type):
            x = FreeElement.from_key(self.algebra, x)
        elif not (isinstance(x, FreeElement) and x.algebra == self.algebra):
            got = getattr(x, "algebra", type(x).__name__)
            raise AlgebraTagError(f"{self.version} realizes {self.algebra}, not {got}")

        def codes(key):
            found = self.words(key, size, doubled)
            return _interleave(found, key.n, size) if doubled else found

        # One key's words are distinct, so dict.fromkeys builds its S^x; the
        # first key's dict then accumulates the others.
        parts = (dict.fromkeys(codes(key), c) for key, c in x.terms.items())
        terms = next(parts, {})
        if len(x.terms) > 1:
            for part in parts:
                accumulate(terms, part)
            terms = {w: c for w, c in terms.items() if c}
        return NCPolynomial(terms, size)


FAMILIES: dict[str, RealizationFamily] = {
    fam.version: fam
    for fam in (
        RealizationFamily("v1", "ho", _regime(forest_image, ">", "below")),
        RealizationFamily("v2", "ho", _regime(forest_image, ">", "loop")),
        RealizationFamily("func", "efsym", _regime(lambda f: f.image, "!=", "different")),
        RealizationFamily("perm", "sgsym", _regime(lambda s: s.inverse().image, None, "loop"), internal=True),
    )
}


def family(version: str) -> RealizationFamily:
    try:
        return FAMILIES[version]
    except KeyError:
        raise StructureError(f"unknown realization version {version!r}") from None


def realizer_for(version: str) -> Callable:
    """Key realizer matching a letter regime."""
    return family(version).realize


def oplus_double(key, version: str, size: int) -> NCPolynomial:
    """Realize over the doubled alphabet A + B."""
    return family(version).realize(key, size, doubled=True)


def group_doubled(poly: NCPolynomial) -> dict[tuple[Word, Word], int]:
    """Collect a doubled polynomial by (A-subword, B-subword); this is the
    P(A)Q(B) ~ P (x) Q identification."""
    base = code_base(poly.size)
    b_side = (poly.size + 1) * (poly.size + 1)  # letter codes from here on are B letters
    out: dict[tuple[int, int], int] = {}
    for code, coeff in poly.codes.items():
        a = b = 0
        a_place = b_place = 1
        while code:
            code, d = divmod(code, base)
            if d < b_side:
                a += d * a_place
                a_place *= base
            else:
                b += d * b_place
                b_place *= base
        out[a, b] = out.get((a, b), 0) + coeff
    return {
        (decode_word(a, poly.size), decode_word(b, poly.size)): c for (a, b), c in out.items() if c
    }


# ---------------------------------------------------------------------------
# Commutative image
# ---------------------------------------------------------------------------

def commutative_image(poly: NCPolynomial) -> dict[tuple[Letter, ...], int]:
    """Let the letters commute: words collapse to sorted letter multisets."""
    out: dict[tuple[Letter, ...], int] = {}
    for word, coeff in poly.terms.items():
        key = tuple(sorted(word))
        out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


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
    _check_bound(forest.n, None, "packed word enumeration")
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
    return FreeElement("wqsym", {PackedWord(w): 1 for w in words})


def project_second_subscript(poly: NCPolynomial) -> dict[tuple[int, ...], int]:
    """The letter map a_ij -> a_j applied to a realized polynomial."""
    out: dict[tuple[int, ...], int] = {}
    for word, coeff in poly.terms.items():
        image = tuple(j for (_, _, j) in word)
        out[image] = out.get(image, 0) + coeff
    return {w: c for w, c in out.items() if c}


# ---------------------------------------------------------------------------
# Exact rank
# ---------------------------------------------------------------------------

def rank_of_rows(rows: Sequence[dict]) -> int:
    """Exact rank of sparse integer rows by fraction-free elimination.

    Columns owned by a single row are peeled first; they are pivots whose
    elimination step is a no-op, which covers the realization families where
    each basis element owns a reconstructing word.
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


@dataclass
class RankReport:
    label: str
    keys: int
    rank: int

    @property
    def full(self) -> bool:
        return self.rank == self.keys

    def summary(self) -> str:
        verdict = "independent" if self.full else "DEPENDENT"
        return f"{self.label}: rank {self.rank} of {self.keys} ({verdict})"


def rank_check(keys: Iterable, realize: Callable, size: int, label: str = "") -> RankReport:
    """Exact rank of {realize(key, size)} as vectors over word codes."""
    keys = list(keys)
    rows = [realize(key, size).codes for key in keys]
    return RankReport(label or f"N={size}", len(keys), rank_of_rows(rows))


# ---------------------------------------------------------------------------
# JSON dump (CLI `realize`)
# ---------------------------------------------------------------------------

def polynomial_to_json(poly: NCPolynomial, version: str) -> dict:
    words = sorted(poly.terms.items(), key=lambda kv: kv[0])
    return {
        "version": version.upper(),
        "N": poly.size,
        "terms": [
            {"coeff": str(c), "word": [[s, i, j] for (s, i, j) in w]} for w, c in words
        ],
    }
