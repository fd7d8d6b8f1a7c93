"""Exact free-module arithmetic and generic graded-bialgebra utilities.

Elements are finite integer combinations of basis keys; every structure
constant in this package is an integer, so any non-integer coefficient is a
bug.  Concrete algebras register themselves in :data:`ALGEBRAS` with their
key type, enumeration, product and coproduct (the five whose keys are maps
on {1..n} through :func:`register_map_algebra`), and the axiom checkers below
(coassociativity, product/coproduct compatibility, antipode convolution)
work uniformly over the registry.  Each check call computes the coproduct of
each key and the product of each key pair once, from tables that live only
for that call.  The coassociativity check sums (Delta (x) id)Delta(x) -
(id (x) Delta)Delta(x) into one dict of triples: the two sides are equal
exactly when every coefficient of the difference is zero.  The antipode
recursion S(x) = -x - sum S(x') x'' makes S * id = unit.counit hold by
construction, so the antipode check tests id * S = unit.counit, the sum of
a S(b) over Delta(x) = sum a (x) b.  Keys carry their own degree ``.n``,
``parse``, ``render()`` and ``sort_key()``; the unit key is the empty key,
``parse("")``.
"""

from __future__ import annotations

import random
import re
from functools import partial
from typing import Any, Callable, NamedTuple, Sequence

from .structures import Table, cut_terms


class AlgebraTagError(ValueError):
    """Mixed or unknown algebra tags in an element operation."""


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

def accumulate(acc: dict, terms: dict, scale: int = 1) -> None:
    """acc += scale * terms, in place; ``acc`` is a caller's private dict."""
    for key, coeff in terms.items():
        acc[key] = acc.get(key, 0) + scale * coeff


class _Combination:
    """Finite mapping from keys to integer coefficients, tagged with an
    algebra; the arithmetic shared by elements and two-fold tensors.

    Immutable by convention: no method mutates ``terms`` after construction,
    and zero coefficients are never stored.  Only combinations of the same
    type and tag add or compare equal.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: str, terms: dict | None = None):
        self.algebra = algebra
        clean = {}
        for key, coeff in (terms or {}).items():
            if type(coeff) is not int:  # no float, and no bool, which would render as "True"
                raise TypeError(f"non-integer coefficient {coeff!r}")
            if coeff:
                clean[key] = coeff
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self):
            raise AlgebraTagError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.algebra != self.algebra:
            raise AlgebraTagError(f"cannot combine {self.algebra} with {other.algebra!r}")
        out = dict(self.terms)
        accumulate(out, other.terms)
        return type(self)(self.algebra, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar: int):
        if type(scalar) is not int:
            raise TypeError(f"scalars must be integers, got {scalar!r}")
        return type(self)(self.algebra, {k: scalar * c for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.algebra == other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((self.algebra, frozenset(self.terms.items())))

    def __repr__(self):
        return f"{type(self).__name__}({self.algebra!r}, {self.terms!r})"


class FreeElement(_Combination):
    """Finite integer combination of basis keys."""

    __slots__ = ()

    @classmethod
    def from_key(cls, algebra: str, key, coeff: int = 1) -> "FreeElement":
        return cls(algebra, {key: coeff})

    def __neg__(self) -> "FreeElement":
        return (-1) * self

    def map_keys(self, fn: Callable, algebra: str | None = None) -> "FreeElement":
        """Linear extension of a key map (which may itself return elements)."""
        target = algebra or self.algebra
        out: dict = {}
        for key, coeff in self.terms.items():
            image = fn(key)
            if isinstance(image, FreeElement):
                if image.algebra != target:
                    raise AlgebraTagError(f"cannot combine {target} with {image.algebra!r}")
                accumulate(out, image.terms, coeff)
            else:
                out[image] = out.get(image, 0) + coeff
        return FreeElement(target, out)


class TensorElement(_Combination):
    """Finite integer combination of key pairs (two-fold tensors)."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class AlgebraOps(NamedTuple):
    """Callbacks a concrete algebra registers for the generic machinery."""

    tag: str
    key_type: type
    keys_of_degree: Callable[[int], Sequence]
    product: Callable[[Any, Any], FreeElement]
    coproduct: Callable[[Any], TensorElement]
    default_basis: str = "S"

    parse_key = property(lambda self: self.key_type.parse)
    unit_key = property(lambda self: self.key_type._of(()))


ALGEBRAS: dict[str, AlgebraOps] = {}


def register_algebra(ops: AlgebraOps) -> None:
    ALGEBRAS[ops.tag] = ops


def register_map_algebra(tag: str, key_type: type, keys_of_degree: Callable[[int], Sequence],
                         image: Callable, from_image: Callable) -> None:
    """Register an algebra whose key x is read as the map ``image(x)`` on
    {1..n} and rebuilt from a map by ``from_image``.  The product is shifted
    concatenation of the maps; the coproduct is the cut rule
    (:func:`~treehopf.structures.cut_terms`)."""

    def product(a, b) -> FreeElement:
        shift = a.n
        return FreeElement.from_key(tag, from_image(image(a) + tuple([w + shift for w in image(b)])))

    def coproduct(x) -> TensorElement:
        return TensorElement(tag, cut_terms(image(x), from_image))

    register_algebra(AlgebraOps(tag, key_type, keys_of_degree, product, coproduct))


def get_algebra(tag: str) -> AlgebraOps:
    try:
        return ALGEBRAS[tag.lower()]
    except KeyError:
        raise AlgebraTagError(f"unknown algebra {tag!r}; known: {sorted(ALGEBRAS)}") from None


def unit_element(tag: str) -> FreeElement:
    ops = get_algebra(tag)
    return FreeElement.from_key(ops.tag, ops.unit_key)


def counit(x: FreeElement) -> int:
    ops = get_algebra(x.algebra)
    return x.terms.get(ops.unit_key, 0)


# ---------------------------------------------------------------------------
# Linear extensions
# ---------------------------------------------------------------------------

def product_elements(x: FreeElement, y: FreeElement, rule: Callable | None = None) -> FreeElement:
    """Bilinear extension of the key product ``rule`` (the algebra's own
    product by default)."""
    if x.algebra != y.algebra:
        raise AlgebraTagError(f"cannot multiply {x.algebra} by {y.algebra}")
    rule = rule or get_algebra(x.algebra).product
    out: dict = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            accumulate(out, rule(a, b).terms, ca * cb)
    return FreeElement(x.algebra, out)


def coproduct_element(x: FreeElement, rule: Callable | None = None) -> TensorElement:
    """Linear extension of the key coproduct ``rule`` (the algebra's own
    coproduct by default)."""
    rule = rule or get_algebra(x.algebra).coproduct
    out: dict = {}
    for key, coeff in x.terms.items():
        accumulate(out, rule(key).terms, coeff)
    return TensorElement(x.algebra, out)


def tensor_product(t1: TensorElement, t2: TensorElement, rule: Callable | None = None) -> TensorElement:
    """(a (x) b)(c (x) d) = ac (x) bd, componentwise in the key product
    ``rule`` (the algebra's own product by default)."""
    if t1.algebra != t2.algebra:
        raise AlgebraTagError(f"cannot multiply {t1.algebra} by {t2.algebra} tensors")
    rule = rule or get_algebra(t1.algebra).product
    out: dict = {}
    for (a, b), c1 in t1.terms.items():
        for (c, d), c2 in t2.terms.items():
            left = rule(a, c)
            right = rule(b, d)
            for ka, cl in left.terms.items():
                for kb, cr in right.terms.items():
                    pair = (ka, kb)
                    out[pair] = out.get(pair, 0) + c1 * c2 * cl * cr
    return TensorElement(t1.algebra, out)


def _tables(ops: AlgebraOps) -> tuple[Callable, Callable]:
    """The product and coproduct of ``ops``, each computed once per distinct
    argument in a table that lives as long as the returned functions (one
    check call).  A coproduct hit is a dict lookup that runs no Python frame."""
    products = Table(lambda pair: ops.product(*pair))
    return (lambda a, b: products[a, b]), Table(ops.coproduct).__getitem__


def keys_up_to(ops: AlgebraOps, top: int) -> list[Sequence]:
    """The key lists of degrees 0..top, in ascending order.  The top degree
    is asked for first, so one over the enumeration bound raises before any
    lower degree is built."""
    return [ops.keys_of_degree(d) for d in range(top, -1, -1)][::-1]


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------

class CheckReport:
    """Outcome of a brute-force axiom check; failures are data, not errors."""

    __slots__ = ("name", "algebra", "checked", "failures")

    def __init__(self, name: str, algebra: str, checked: int = 0, failures: list[str] | None = None):
        self.name, self.algebra, self.checked = name, algebra, checked
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        return f"{self.name}[{self.algebra}]: {self.checked} cases, {status}"


def check_coassociativity(tag: str, max_degree: int) -> CheckReport:
    """(Delta (x) id)Delta = (id (x) Delta)Delta on every key of degree <= max_degree.

    The difference of the two sides is summed into one dict of triples, so
    a key fails exactly when some coefficient of it is non-zero."""
    ops = get_algebra(tag)
    report = CheckReport("coassociativity", ops.tag)
    coproduct = Table(ops.coproduct)
    for keys in keys_up_to(ops, max_degree):
        for key in keys:
            report.checked += 1
            diff: dict = {}
            for (a, b), c in coproduct[key].terms.items():
                for (x, y), d in coproduct[a].terms.items():
                    triple = (x, y, b)
                    diff[triple] = diff.get(triple, 0) + c * d
                for (x, y), d in coproduct[b].terms.items():
                    triple = (a, x, y)
                    diff[triple] = diff.get(triple, 0) - c * d
            if any(diff.values()):
                report.failures.append(key.render())
    return report


COMPAT_SAMPLE_COUNT = 200


def check_bialgebra_compat(tag: str, max_degree: int, sample_degree: int | None = None) -> CheckReport:
    """Delta(xy) = Delta(x)Delta(y) on all key pairs of total degree <= max_degree.

    If ``sample_degree`` is above ``max_degree``, additionally checks
    COMPAT_SAMPLE_COUNT pairs with that total degree, drawn with seed 0 (all
    of them if fewer exist); at or below it every pair is checked already.
    """
    ops = get_algebra(tag)
    report = CheckReport("bialgebra-compat", ops.tag)
    product, coproduct = _tables(ops)

    def check_pair(a, b):
        report.checked += 1
        lhs = coproduct_element(product(a, b), coproduct)
        rhs = tensor_product(coproduct(a), coproduct(b), product)
        if lhs != rhs:
            report.failures.append(f"{a.render()} | {b.render()}")

    top = max_degree if sample_degree is None else max(max_degree, sample_degree)
    keys = keys_up_to(ops, top)
    for total in range(max_degree + 1):
        for da in range(total + 1):
            for a in keys[da]:
                for b in keys[total - da]:
                    check_pair(a, b)
    if top > max_degree:
        pairs = [(a, b) for da in range(sample_degree + 1) for a in keys[da] for b in keys[sample_degree - da]]
        if len(pairs) > COMPAT_SAMPLE_COUNT:
            pairs = random.Random(0).sample(pairs, COMPAT_SAMPLE_COUNT)
        for a, b in pairs:
            check_pair(a, b)
    return report


# ---------------------------------------------------------------------------
# Antipode
# ---------------------------------------------------------------------------

_ANTIPODE_CACHE: dict[tuple[str, Any], FreeElement] = {}


def _antipode(ops: AlgebraOps, key, product: Callable, coproduct: Callable, cache: dict) -> FreeElement:
    """antipode_key with ``product`` and ``coproduct`` as the key kernels,
    memoized in ``cache``."""
    cached = cache.get((ops.tag, key))
    if cached is not None:
        return cached
    if key.n == 0:
        if key != ops.unit_key:
            raise AlgebraTagError(f"degree-0 key {key.render()!r} is not the unit")
        return unit_element(ops.tag)
    acc = {key: -1}
    for (a, b), coeff in coproduct(key).terms.items():
        if a.n == 0 or b.n == 0:
            continue  # reduced coproduct only
        for k, c in _antipode(ops, a, product, coproduct, cache).terms.items():
            accumulate(acc, product(k, b).terms, -coeff * c)
    result = FreeElement(ops.tag, acc)
    cache[(ops.tag, key)] = result
    return result


def antipode_key(tag: str, key) -> FreeElement:
    """Recursive antipode of a graded connected bialgebra on a basis key:
    S(1) = 1 and S(x) = -x - sum S(x') x'' over the reduced coproduct."""
    ops = get_algebra(tag)
    return _antipode(ops, key, ops.product, ops.coproduct, _ANTIPODE_CACHE)


def antipode(x: FreeElement) -> FreeElement:
    return x.map_keys(partial(antipode_key, x.algebra))


def check_antipode(tag: str, max_degree: int) -> CheckReport:
    """Convolution identity (id * S)(key) = unit.counit(key) for degrees
    1..max; S * id holds by the construction of S (module docstring).  S is
    memoized for this call only, like the kernel tables, so earlier
    ``antipode_key`` calls cannot change the verdict."""
    ops = get_algebra(tag)
    report = CheckReport("antipode-convolution", ops.tag)
    product, coproduct = _tables(ops)
    antipodes: dict = {}
    for keys in keys_up_to(ops, max_degree)[1:]:
        for key in keys:
            report.checked += 1
            conv: dict = {}
            for (a, b), coeff in coproduct(key).terms.items():
                for k, c in _antipode(ops, b, product, coproduct, antipodes).terms.items():
                    accumulate(conv, product(a, k).terms, coeff * c)
            if any(conv.values()):  # counit vanishes in positive degree
                report.failures.append(key.render())
    return report


# ---------------------------------------------------------------------------
# JSON element schema
# ---------------------------------------------------------------------------

def element_to_json(x: FreeElement, basis: str | None = None) -> dict:
    ops = get_algebra(x.algebra)
    chosen = basis or ops.default_basis
    terms = sorted(x.terms.items(), key=lambda kv: kv[0].sort_key())
    return {
        "algebra": ops.tag,
        "basis": chosen,
        "terms": [{"coeff": str(c), "key": k.render()} for k, c in terms],
    }


_INTEGER = re.compile(r"-?[0-9]+")


def _coeff_from_json(raw) -> int:
    """A coefficient is a JSON integer or a string of decimal digits with an
    optional minus sign; floats, booleans, padding and underscores are
    rejected rather than truncated or coerced."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str) and _INTEGER.fullmatch(raw):
        return int(raw)
    raise AlgebraTagError(f"bad coefficient {raw!r}")


def _json_field(data, name: str, kind: type | None, what: Callable[[], str]):
    """data[name], which must hold a value of JSON type ``kind`` if given;
    ``what()`` names ``data`` in the error, formatted only when one is raised."""
    try:
        value = data[name]
    except (KeyError, TypeError) as exc:
        raise AlgebraTagError(f"bad {what()}: {exc}") from None
    if kind is not None and not isinstance(value, kind):
        raise AlgebraTagError(f"bad {what()}: {name!r} must be a {kind.__name__}, got {value!r}")
    return value


def _terms_from_json(data, fields: tuple[str, ...], what: str) -> tuple[AlgebraOps, dict]:
    """The algebra and summed terms of a JSON element (``fields`` ("key",))
    or tensor (("left", "right")); a wrong shape raises AlgebraTagError."""
    whole = lambda: f"{what} JSON"
    ops = get_algebra(_json_field(data, "algebra", str, whole))
    parse = ops.parse_key
    terms: dict = {}
    for entry in _json_field(data, "terms", list, whole):
        term = lambda: f"{what} term {entry!r}"
        texts = [_json_field(entry, name, str, term) for name in fields]
        raw = _json_field(entry, "coeff", None, term)
        key = tuple(map(parse, texts)) if len(texts) > 1 else parse(texts[0])
        terms[key] = terms.get(key, 0) + _coeff_from_json(raw)
    return ops, terms


def element_from_json(data: dict) -> tuple[FreeElement, str]:
    """Decode the JSON element schema; returns (element, basis)."""
    ops, terms = _terms_from_json(data, ("key",), "element")
    return FreeElement(ops.tag, terms), data.get("basis", ops.default_basis)


def tensor_to_json(t: TensorElement) -> dict:
    ops = get_algebra(t.algebra)
    terms = sorted(t.terms.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key()))
    return {
        "algebra": ops.tag,
        "basis": ops.default_basis,
        "terms": [{"coeff": str(c), "left": a.render(), "right": b.render()} for (a, b), c in terms],
    }


def tensor_from_json(data: dict) -> TensorElement:
    ops, terms = _terms_from_json(data, ("left", "right"), "tensor")
    return TensorElement(ops.tag, terms)


def element_to_latex(x: FreeElement, basis: str | None = None) -> str:
    """Best-effort LaTeX: basis keys rendered by their text form, not pictures,
    under the letter of ``basis`` (the algebra's default basis if None)."""
    letter = basis or get_algebra(x.algebra).default_basis
    bits = []
    for key, coeff in sorted(x.terms.items(), key=lambda kv: kv[0].sort_key()):
        body = f"{letter}^{{({key.render()})}}"
        if coeff == 1:
            piece = body
        elif coeff == -1:
            piece = f"-{body}"
        else:
            piece = f"{coeff}\\,{body}"
        if bits and not piece.startswith("-"):
            bits.append("+")
        bits.append(piece)
    return "".join(bits) if bits else "0"
