"""Command-line front-end.

Exit codes: 0 on success, 1 on verification failure, 2 on usage or parse
errors.  Element I/O uses the JSON schema of :mod:`treehopf.algebra`; every
command writes deterministic output to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from functools import cache

from . import bases, verify
from .algebra import (
    AlgebraTagError,
    FreeElement,
    coproduct_element,
    element_from_json,
    element_to_json,
    element_to_latex,
    get_algebra,
    product_elements,
    tensor_to_json,
)
from .morphisms import MAPS
from .realization import FAMILIES, code_base, decode_word, family, letter_codes
from .structures import _NATURAL, EnumerationBoundError, FormatError, StructureError


class UsageError(Exception):
    pass


CONFIG_KEYS = ("enumeration_bound", "default_indices")


def _parse_json(text: str, what: str):
    """``text`` as JSON; nesting past the recursion limit is a parse error."""
    try:
        return json.loads(text)
    except RecursionError:
        raise UsageError(f"{what} JSON is nested too deeply") from None


def _load_config(path: str | None) -> dict:
    """The --config file: a JSON object of known keys holding integers."""
    if not path:
        return {}
    with open(path) as fh:
        config = _parse_json(fh.read(), "config")
    if not isinstance(config, dict):
        raise UsageError(f"config must be a JSON object, got {type(config).__name__}")
    for key in config:
        if key not in CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}; known keys: {', '.join(CONFIG_KEYS)}")
    for key in CONFIG_KEYS:
        if key in config and (not isinstance(config[key], int) or isinstance(config[key], bool)):
            raise UsageError(f"config key {key!r} must be an integer, got {config[key]!r}")
    return config


def _read_element(path: str, algebra: str | None, basis: str | None = None) -> FreeElement:
    """The element in ``path`` (``-`` for stdin), tagged ``algebra`` (any
    tag if None) and written in ``basis`` (its algebra's default if None)."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    x, found = element_from_json(_parse_json(text, "element"))
    if algebra is not None and x.algebra != algebra:
        raise UsageError(f"element is tagged {x.algebra}, not {algebra}")
    expected = basis or get_algebra(x.algebra).default_basis
    if found != expected:
        raise UsageError(f"{x.algebra} element carries basis {found}, expected {expected}")
    return x


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=None, separators=(",", ":"), sort_keys=False))
    sys.stdout.write("\n")


def _emit_element(x: FreeElement, basis: str | None, fmt: str) -> None:
    if fmt == "latex":
        sys.stdout.write(element_to_latex(x, basis) + "\n")
    else:
        _emit(element_to_json(x, basis=basis))


def cmd_product(args, config: dict) -> int:
    basis = "R" if args.basis == "R" else None
    tag = get_algebra(args.algebra).tag
    x = _read_element(args.x, tag, basis)
    y = _read_element(args.y, tag, basis)
    rule = None
    if basis == "R":
        r_basis = bases.R_BASES.get(tag)
        if r_basis is None or r_basis.r_product is None:
            with_product = [name for name, entry in bases.R_BASES.items() if entry.r_product]
            raise UsageError(f"R-basis products are available for {' and '.join(with_product)}")
        rule = r_basis.r_product
    _emit_element(product_elements(x, y, rule), basis, args.format)
    return 0


def cmd_coproduct(args, config: dict) -> int:
    _emit(tensor_to_json(coproduct_element(_read_element(args.x, get_algebra(args.algebra).tag))))
    return 0


def cmd_basis_change(args, config: dict) -> int:
    x = _read_element(args.x, args.algebra, args.src)
    if args.src == args.dst:
        raise UsageError("--from and --to must differ")
    out = bases.to_r_basis(x) if args.dst == "R" else bases.to_s_basis(x)
    _emit_element(out, args.dst, args.format)
    return 0


def cmd_realize(args, config: dict) -> int:
    size = args.indices if args.indices is not None else config.get("default_indices")
    fam = family(args.version)
    obj = fam.ops.parse_key(args.object)
    if size is None:
        size = 2 * (obj.n if obj.n else 1) + 2
    # Every word of one key has n letters, so letter order is the order of
    # the codes read as big-endian digits (the first letter most
    # significant).  The words of one key are distinct: each coefficient is 1.
    codes = list(fam.words(obj, size))
    base = code_base(size)
    for t, code in enumerate(codes):
        big = 0
        for d in letter_codes(code, size):
            big = big * base + d
        codes[t] = big
    codes.sort()
    # a letter code's JSON text: the letter of the code's one-letter word
    letter = cache(lambda d: json.dumps(decode_word(d, size)[0], separators=(",", ":")))
    out = sys.stdout
    out.write(f'{{"version":{json.dumps(args.version.upper())},"N":{size},"terms":[')
    for t, code in enumerate(codes):
        word = ",".join(map(letter, letter_codes(code, size)[::-1]))
        out.write(f'{"," if t else ""}{{"coeff":"1","word":[{word}]}}')
    out.write("]}\n")
    return 0


def cmd_morphism(args, config: dict) -> int:
    _emit_element(MAPS[args.map].apply(_read_element(args.x, None)), None, args.format)
    return 0


def cmd_dims(args, config: dict) -> int:
    ops = get_algebra(args.algebra)
    bound = config.get("enumeration_bound")
    # A config bound only lowers the library's; the top degree is asked for
    # first, so one over the library's bound exits before any is built.
    if bound is not None and args.max_degree > bound:
        raise EnumerationBoundError(f"dims --max-degree {args.max_degree} exceeds bound {bound}")
    counts = [str(len(ops.keys_of_degree(n))) for n in range(args.max_degree, -1, -1)]
    sys.stdout.write(" ".join(reversed(counts)) + "\n")
    return 0


def cmd_verify(args, config: dict) -> int:
    checks = failures = 0
    for label, ok, detail in verify.SUITES[args.suite](args.max_degree):
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'} {label}: {detail}\n")
        sys.stdout.flush()  # a run stopped by an error keeps the lines of the checks that ended
        checks += 1
        failures += not ok
    sys.stdout.write(f"{checks - failures}/{checks} checks passed\n")
    return 0 if failures == 0 else 1


# subcommand -> handler; each takes the parsed arguments and the --config dict
COMMANDS = {
    "product": cmd_product,
    "coproduct": cmd_coproduct,
    "basis-change": cmd_basis_change,
    "realize": cmd_realize,
    "morphism": cmd_morphism,
    "dims": cmd_dims,
    "verify": cmd_verify,
}


def natural(text: str) -> int:
    """A ``--max-degree`` or ``--indices`` value: a run of ASCII digits, the
    rule of key text.  A sign, padding, an underscore or another script's
    digit, all of which ``int`` accepts, is a usage error."""
    if not _NATURAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected a natural number, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treehopf",
        description="Exact computation in combinatorial Hopf algebras on forests, words and endofunctions.",
    )
    parser.add_argument("--config", help="JSON config: enumeration_bound, default_indices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="multiply two elements")
    p.add_argument("--algebra", required=True)
    p.add_argument("--basis", choices=["S", "R"], default="S")
    p.add_argument("--format", choices=["json", "latex"], default="json")
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("coproduct", help="coproduct of an element")
    p.add_argument("--algebra", required=True)
    p.add_argument("x")

    p = sub.add_parser("basis-change", help="rewrite between the S and R bases")
    p.add_argument("--from", dest="src", choices=["S", "R"], required=True)
    p.add_argument("--to", dest="dst", choices=["S", "R"], required=True)
    p.add_argument("--algebra", type=str.lower, choices=list(bases.R_BASES), required=True)
    p.add_argument("--format", choices=["json", "latex"], default="json")
    p.add_argument("x")

    p = sub.add_parser("realize", help="polynomial realization of one object")
    p.add_argument("--version", choices=[v for v, fam in FAMILIES.items() if not fam.internal], required=True)
    p.add_argument("--indices", type=natural, default=None, help="truncation N (default 2n+2)")
    p.add_argument("--object", required=True, help="text form of the forest or endofunction")

    p = sub.add_parser("morphism", help="apply a named map to an element")
    p.add_argument("--map", choices=list(MAPS), required=True)
    p.add_argument("--format", choices=["json", "latex"], default="json")
    p.add_argument("x")

    p = sub.add_parser("dims", help="dimensions of the graded components")
    p.add_argument("--algebra", required=True)
    p.add_argument("--max-degree", type=natural, required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=list(verify.SUITES), required=True)
    p.add_argument("--max-degree", type=natural, default=3)
    return parser


@contextlib.contextmanager
def _exact_integers():
    """Lift CPython's limit on int <-> str conversion (3.11 and later) while
    a command runs, so coefficients of any length are read and printed."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _exact_integers():
            config = _load_config(args.config)
            return COMMANDS[args.command](args, config)
    except (UsageError, FormatError, StructureError, AlgebraTagError, EnumerationBoundError,
            json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
