"""Exact free-module arithmetic and generic graded-bialgebra utilities.

Elements are finite integer combinations of basis keys; every structure
constant in this package is an integer, so any non-integer coefficient is a
bug.  Concrete algebras register themselves in :data:`ALGEBRAS` with their
key type, enumeration, product and coproduct, and the axiom checkers below
(coassociativity, product/coproduct compatibility, antipode convolution)
work uniformly over the registry.  Keys carry their own degree ``.n``,
``parse``, ``render()`` and ``sort_key()``; the unit key is ``parse("")``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence


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
            if not isinstance(coeff, int):
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
        if not isinstance(scalar, int):
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

@dataclass(frozen=True)
class AlgebraOps:
    """Callbacks a concrete algebra registers for the generic machinery."""

    tag: str
    key_type: type
    keys_of_degree: Callable[[int], Sequence]
    product: Callable[[Any, Any], FreeElement]
    coproduct: Callable[[Any], TensorElement]
    default_basis: str = "S"

    parse_key = property(lambda self: self.key_type.parse)
    unit_key = property(lambda self: self.key_type.parse(""))


ALGEBRAS: dict[str, AlgebraOps] = {}


def register_algebra(ops: AlgebraOps) -> None:
    ALGEBRAS[ops.tag] = ops


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

def product_elements(x: FreeElement, y: FreeElement) -> FreeElement:
    if x.algebra != y.algebra:
        raise AlgebraTagError(f"cannot multiply {x.algebra} by {y.algebra}")
    ops = get_algebra(x.algebra)
    out: dict = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            accumulate(out, ops.product(a, b).terms, ca * cb)
    return FreeElement(x.algebra, out)


def coproduct_element(x: FreeElement) -> TensorElement:
    ops = get_algebra(x.algebra)
    out: dict = {}
    for key, coeff in x.terms.items():
        accumulate(out, ops.coproduct(key).terms, coeff)
    return TensorElement(x.algebra, out)


def tensor_product(t1: TensorElement, t2: TensorElement) -> TensorElement:
    """(a (x) b)(c (x) d) = ac (x) bd, componentwise in the algebra product."""
    if t1.algebra != t2.algebra:
        raise AlgebraTagError(f"cannot multiply {t1.algebra} by {t2.algebra} tensors")
    ops = get_algebra(t1.algebra)
    out: dict = {}
    for (a, b), c1 in t1.terms.items():
        for (c, d), c2 in t2.terms.items():
            left = ops.product(a, c)
            right = ops.product(b, d)
            for ka, cl in left.terms.items():
                for kb, cr in right.terms.items():
                    pair = (ka, kb)
                    out[pair] = out.get(pair, 0) + c1 * c2 * cl * cr
    return TensorElement(t1.algebra, out)


def _triple_coproduct(tag: str, key, left_first: bool) -> dict:
    """(Delta (x) id)Delta or (id (x) Delta)Delta applied to a basis key."""
    ops = get_algebra(tag)
    out: dict = {}
    for (a, b), c in ops.coproduct(key).terms.items():
        if left_first:
            for (x, y), d in ops.coproduct(a).terms.items():
                out[(x, y, b)] = out.get((x, y, b), 0) + c * d
        else:
            for (x, y), d in ops.coproduct(b).terms.items():
                out[(a, x, y)] = out.get((a, x, y), 0) + c * d
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    """Outcome of a brute-force axiom check; failures are data, not errors."""

    name: str
    algebra: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        return f"{self.name}[{self.algebra}]: {self.checked} cases, {status}"


def check_coassociativity(tag: str, max_degree: int) -> CheckReport:
    """(Delta (x) id)Delta = (id (x) Delta)Delta on every key of degree <= max_degree."""
    ops = get_algebra(tag)
    report = CheckReport("coassociativity", ops.tag)
    for n in range(max_degree + 1):
        for key in ops.keys_of_degree(n):
            report.checked += 1
            if _triple_coproduct(ops.tag, key, True) != _triple_coproduct(ops.tag, key, False):
                report.failures.append(key.render())
    return report


def check_bialgebra_compat(
    tag: str,
    max_degree: int,
    sample_degree: int | None = None,
    sample_count: int = 200,
    seed: int = 0,
) -> CheckReport:
    """Delta(xy) = Delta(x)Delta(y) on all key pairs of total degree <= max_degree.

    If ``sample_degree`` is given, additionally checks a deterministic random
    sample of pairs with that total degree (all of them if fewer exist).
    """
    ops = get_algebra(tag)
    report = CheckReport("bialgebra-compat", ops.tag)

    def check_pair(a, b):
        report.checked += 1
        lhs = coproduct_element(ops.product(a, b))
        rhs = tensor_product(ops.coproduct(a), ops.coproduct(b))
        if lhs != rhs:
            report.failures.append(f"{a.render()} | {b.render()}")

    top = max_degree if sample_degree is None else max(max_degree, sample_degree)
    keys = [ops.keys_of_degree(d) for d in range(top + 1)]
    for total in range(max_degree + 1):
        for da in range(total + 1):
            for a in keys[da]:
                for b in keys[total - da]:
                    check_pair(a, b)
    if sample_degree is not None:
        pairs = [(a, b) for da in range(sample_degree + 1) for a in keys[da] for b in keys[sample_degree - da]]
        if len(pairs) > sample_count:
            pairs = random.Random(seed).sample(pairs, sample_count)
        for a, b in pairs:
            check_pair(a, b)
    return report


# ---------------------------------------------------------------------------
# Antipode
# ---------------------------------------------------------------------------

_ANTIPODE_CACHE: dict[tuple[str, Any], FreeElement] = {}


def antipode_key(tag: str, key) -> FreeElement:
    """Recursive antipode of a graded connected bialgebra on a basis key:
    S(1) = 1 and S(x) = -x - sum S(x') x'' over the reduced coproduct."""
    ops = get_algebra(tag)
    cached = _ANTIPODE_CACHE.get((ops.tag, key))
    if cached is not None:
        return cached
    if key.n == 0:
        if key != ops.unit_key:
            raise AlgebraTagError(f"degree-0 key {key.render()!r} is not the unit")
        return unit_element(ops.tag)
    acc = {key: -1}
    for (a, b), coeff in ops.coproduct(key).terms.items():
        if a.n == 0 or b.n == 0:
            continue  # reduced coproduct only
        for k, c in antipode_key(ops.tag, a).terms.items():
            accumulate(acc, ops.product(k, b).terms, -coeff * c)
    result = FreeElement(ops.tag, acc)
    _ANTIPODE_CACHE[(ops.tag, key)] = result
    return result


def antipode(x: FreeElement) -> FreeElement:
    out: dict = {}
    for key, coeff in x.terms.items():
        accumulate(out, antipode_key(x.algebra, key).terms, coeff)
    return FreeElement(x.algebra, out)


def check_antipode(tag: str, max_degree: int) -> CheckReport:
    """Convolution identity (S * id)(key) = unit.counit(key) for degrees 1..max."""
    ops = get_algebra(tag)
    report = CheckReport("antipode-convolution", ops.tag)
    for n in range(1, max_degree + 1):
        for key in ops.keys_of_degree(n):
            report.checked += 1
            conv: dict = {}
            for (a, b), coeff in ops.coproduct(key).terms.items():
                for k, c in antipode_key(ops.tag, a).terms.items():
                    accumulate(conv, ops.product(k, b).terms, coeff * c)
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


def _coeff_from_json(raw) -> int:
    """A coefficient is a JSON integer or a string of decimal digits with an
    optional minus sign; floats, booleans, padding and underscores are
    rejected rather than truncated or coerced."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str) and re.fullmatch(r"-?[0-9]+", raw):
        return int(raw)
    raise AlgebraTagError(f"bad coefficient {raw!r}")


def _json_field(data, name: str, kind: type | None, what: str):
    """data[name], which must hold a value of JSON type ``kind`` if given."""
    try:
        value = data[name]
    except (KeyError, TypeError) as exc:
        raise AlgebraTagError(f"bad {what}: {exc}") from None
    if kind is not None and not isinstance(value, kind):
        raise AlgebraTagError(f"bad {what}: {name!r} must be a {kind.__name__}, got {value!r}")
    return value


def _terms_from_json(data, fields: tuple[str, ...], what: str) -> tuple[AlgebraOps, dict]:
    """The algebra and summed terms of a JSON element (``fields`` ("key",))
    or tensor (("left", "right")); a wrong shape raises AlgebraTagError."""
    ops = get_algebra(_json_field(data, "algebra", str, f"{what} JSON"))
    terms: dict = {}
    for entry in _json_field(data, "terms", list, f"{what} JSON"):
        texts = [_json_field(entry, name, str, f"{what} term {entry!r}") for name in fields]
        raw = _json_field(entry, "coeff", None, f"{what} term {entry!r}")
        key = tuple(map(ops.parse_key, texts)) if len(texts) > 1 else ops.parse_key(texts[0])
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


def element_to_latex(x: FreeElement) -> str:
    """Best-effort LaTeX: basis keys rendered by their text form, not pictures."""
    ops = get_algebra(x.algebra)
    letter = {"wqsym": "M"}.get(ops.tag, "S")
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
