import json
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from treehopf import realization, verify
from treehopf.algebra import (
    ALGEBRAS,
    FreeElement,
    element_from_json,
    element_to_json,
    get_algebra,
    product_elements,
)
from treehopf.cli import main
from treehopf.morphisms import MAPS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_element(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


HO_CHAIN = {"algebra": "ho", "basis": "S", "terms": [{"coeff": "1", "key": "0 1"}]}


def test_dims_ho(capsys):
    code, out, _ = run(capsys, "dims", "--algebra", "ho", "--max-degree", "4")
    assert code == 0 and out == "1 1 3 16 125\n"


def test_dims_other_algebras(capsys):
    assert run(capsys, "dims", "--algebra", "nck", "--max-degree", "5")[1] == "1 1 2 5 14 42\n"
    assert run(capsys, "dims", "--algebra", "efsym", "--max-degree", "4")[1] == "1 1 4 27 256\n"


def test_coproduct_output_is_deterministic(capsys, tmp_path):
    x = write_element(tmp_path, "x.json", {
        "algebra": "ck", "basis": "S", "terms": [{"coeff": "1", "key": "((())())"}],
    })
    code, out1, _ = run(capsys, "coproduct", "--algebra", "ck", x)
    assert code == 0
    payload = json.loads(out1)
    assert len(payload["terms"]) == 7
    _, out2, _ = run(capsys, "coproduct", "--algebra", "ck", x)
    assert out1 == out2


def test_product_s_basis(capsys, tmp_path):
    x = write_element(tmp_path, "x.json", {
        "algebra": "ho", "basis": "S", "terms": [{"coeff": "1", "key": "0"}],
    })
    code, out, _ = run(capsys, "product", "--algebra", "ho", "--basis", "S", x, x)
    assert code == 0
    assert json.loads(out)["terms"] == [{"coeff": "1", "key": "0 0"}]


def test_product_r_basis(capsys, tmp_path):
    x = write_element(tmp_path, "x.json", {
        "algebra": "ho", "basis": "R", "terms": [{"coeff": "1", "key": "0 0"}],
    })
    y = write_element(tmp_path, "y.json", {
        "algebra": "ho", "basis": "R", "terms": [{"coeff": "1", "key": "0"}],
    })
    code, out, _ = run(capsys, "product", "--algebra", "ho", "--basis", "R", x, y)
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == "R" and len(payload["terms"]) == 8


@pytest.mark.parametrize("tag", ["ck", "nck"])
def test_chains_deeper_than_the_recursion_limit(capsys, tmp_path, tag):
    depth = sys.getrecursionlimit() + 200
    chain = "(" * depth + ")" * depth
    x = write_element(tmp_path, "x.json", {"algebra": tag, "basis": "S", "terms": [{"coeff": "1", "key": chain}]})
    y = write_element(tmp_path, "y.json", {"algebra": tag, "basis": "S", "terms": [{"coeff": "1", "key": "()"}]})
    code, out, err = run(capsys, "product", "--algebra", tag, x, y)
    assert code == 0 and err == ""
    assert json.loads(out)["terms"] == [{"coeff": "1", "key": chain + " ()"}]
    code, out, err = run(capsys, "coproduct", "--algebra", tag, x)
    assert code == 2 and out == "" and f"closed set enumeration at size {depth} exceeds bound 8" in err


def test_basis_change_roundtrip(capsys, tmp_path):
    x = write_element(tmp_path, "x.json", HO_CHAIN)
    code, out, _ = run(capsys, "basis-change", "--from", "S", "--to", "R", "--algebra", "ho", x)
    assert code == 0
    r_path = tmp_path / "r.json"
    r_path.write_text(out)
    code, out2, _ = run(capsys, "basis-change", "--from", "R", "--to", "S", "--algebra", "ho", str(r_path))
    assert code == 0
    assert json.loads(out2)["terms"] == HO_CHAIN["terms"]


def test_realize_json_schema(capsys):
    code, out, _ = run(capsys, "realize", "--version", "v2", "--indices", "2", "--object", "0")
    assert code == 0
    assert json.loads(out) == {
        "version": "V2",
        "N": 2,
        "terms": [
            {"coeff": "1", "word": [["A", 1, 1]]},
            {"coeff": "1", "word": [["A", 2, 2]]},
        ],
    }
    code, out, _ = run(capsys, "realize", "--version", "func", "--indices", "2", "--object", "1")
    assert json.loads(out)["terms"] == [
        {"coeff": "1", "word": [["A", 1, 2]]},
        {"coeff": "1", "word": [["A", 2, 1]]},
    ]


def test_realize_output_is_the_sorted_polynomial(capsys):
    """The streamed JSON equals the whole polynomial decoded, sorted by its
    letters and dumped at once, byte for byte."""
    for version in ("v1", "v2", "func"):
        ops = realization.family(version).ops
        for key in (key for n in range(4) for key in ops.keys_of_degree(n)):
            for size in (2, 3, 4):
                code, out, _ = run(capsys, "realize", "--version", version, "--indices", str(size),
                                   "--object", key.render())
                payload = oracles.realize_json(version, key, size)
                assert code == 0 and out == json.dumps(payload, separators=(",", ":")) + "\n", (version, key, size)


def test_realize_streams_under_a_small_address_space():
    """175,616 words print within a 100 MB address space: the output is
    written term by term, not built as one JSON document first."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20))

    proc = subprocess.run(
        [sys.executable, "-m", "treehopf.cli", "realize", "--version", "func", "--indices", "8",
         "--object", "1 2 3"],
        capture_output=True, text=True, preexec_fn=cap,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    words = [term["word"] for term in json.loads(proc.stdout)["terms"]]
    assert len(words) == 56**3 and words == sorted(words)


def test_morphism_maps(capsys, tmp_path):
    x = write_element(tmp_path, "x.json", HO_CHAIN)
    code, out, _ = run(capsys, "morphism", "--map", "pi", x)
    assert code == 0
    assert json.loads(out)["terms"] == [{"coeff": "1", "key": "1 2"}]
    code, out, _ = run(capsys, "morphism", "--map", "f_F", x)
    assert json.loads(out)["terms"] == [{"coeff": "1", "key": "1 1"}]
    code, out, _ = run(capsys, "morphism", "--map", "ck", x)
    assert json.loads(out)["terms"] == [{"coeff": "1", "key": "(())"}]
    p = write_element(tmp_path, "p.json", {
        "algebra": "nck", "basis": "S", "terms": [{"coeff": "1", "key": "(())"}],
    })
    code, out, _ = run(capsys, "morphism", "--map", "plane", p)
    assert json.loads(out)["terms"] == [{"coeff": "1", "key": "0 1"}]


def test_latex_format(capsys, tmp_path):
    x = write_element(tmp_path, "x.json", HO_CHAIN)
    code, out, _ = run(capsys, "morphism", "--map", "ck", "--format", "latex", x)
    assert code == 0 and out == "S^{((()))}\n"


def test_latex_letter_is_the_output_basis(capsys, tmp_path):
    x = write_element(tmp_path, "x.json", HO_CHAIN)
    code, out, _ = run(capsys, "basis-change", "--from", "S", "--to", "R", "--algebra", "ho", "--format", "latex", x)
    assert code == 0 and out == "R^{(0 1)}\n"
    r = write_element(tmp_path, "r.json", {"algebra": "ho", "basis": "R", "terms": [{"coeff": "1", "key": "0"}]})
    code, out, _ = run(capsys, "product", "--algebra", "ho", "--basis", "R", "--format", "latex", r, r)
    assert code == 0 and out.startswith("R^{") and "S^" not in out
    code, out, _ = run(capsys, "basis-change", "--from", "R", "--to", "S", "--algebra", "ho", "--format", "latex", r)
    assert code == 0 and out == "S^{(0)}\n"


def _default_basis_json(tag: str) -> dict:
    """A two-term element of ``tag`` in its default basis."""
    keys = get_algebra(tag).keys_of_degree(2)
    return element_to_json(FreeElement(tag, {keys[0]: 1, keys[-1]: -3}))


@pytest.mark.parametrize("name", list(MAPS))
@pytest.mark.parametrize("tag", list(ALGEBRAS))
def test_each_map_takes_only_its_source(capsys, tmp_path, name, tag):
    m = MAPS[name]
    payload = _default_basis_json(tag)
    code, out, err = run(capsys, "morphism", "--map", name, write_element(tmp_path, "x.json", payload))
    if tag == m.source:
        expected = element_to_json(m.apply(element_from_json(payload)[0]))
        assert code == 0 and json.loads(out) == expected and expected["algebra"] == m.target
    else:
        assert code == 2 and out == "" and f"{name} maps {m.source} elements, not {tag}" in err


def test_wqsym_product_takes_the_m_basis(capsys, tmp_path):
    x = {"algebra": "wqsym", "basis": "M", "terms": [{"coeff": "2", "key": "1 1"}, {"coeff": "-1", "key": "1 2"}]}
    y = {"algebra": "wqsym", "basis": "M", "terms": [{"coeff": "1", "key": "1"}]}
    px, py = write_element(tmp_path, "x.json", x), write_element(tmp_path, "y.json", y)
    expected = element_to_json(product_elements(element_from_json(x)[0], element_from_json(y)[0]))
    for argv in (("product", "--algebra", "wqsym", px, py), ("product", "--algebra", "wqsym", "--basis", "S", px, py)):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out) == expected and expected["basis"] == "M"
    s_word = write_element(tmp_path, "s.json", {**y, "basis": "S"})
    code, out, err = run(capsys, "product", "--algebra", "wqsym", s_word, py)
    assert code == 2 and out == "" and "basis S, expected M" in err


SUBCOMMANDS = ("product", "coproduct", "basis-change", "realize", "morphism", "dims", "verify")


def test_help_texts_are_pinned(capsys, monkeypatch):
    # Every --help text at 80 columns, saved byte for byte from a known-good run.
    monkeypatch.setenv("COLUMNS", "80")
    expected = (Path(__file__).parent / "data" / "cli_help.txt").read_bytes()
    out = []
    for argv in ([], *([command] for command in SUBCOMMANDS)):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        out.append(capsys.readouterr().out)
    assert "".join(out).encode() == expected


def test_verify_examples_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "examples")
    assert code == 0
    assert "FAIL" not in out and out.strip().endswith("checks passed")


def test_verify_examples_transcript(capsys):
    # The replay's full stdout, saved byte for byte from a known-good run.
    expected = (Path(__file__).parent / "data" / "verify_examples.txt").read_bytes()
    code, out, _ = run(capsys, "verify", "--suite", "examples")
    assert code == 0 and out.encode() == expected


REALIZE_EXAMPLES = [
    ("v1", "0 1"), ("v1", "0 0 2"), ("v2", "0 1"), ("v2", "0 0 2"), ("func", "2 1"), ("func", "1 1 2"),
]


def test_realize_transcripts(capsys):
    # One stdout line per call, saved byte for byte from a known-good run.
    expected = (Path(__file__).parent / "data" / "realize_examples.txt").read_bytes()
    out = []
    for version, obj in REALIZE_EXAMPLES:
        code, text, _ = run(capsys, "realize", "--version", version, "--indices", "3", "--object", obj)
        assert code == 0
        out.append(text)
    assert "".join(out).encode() == expected


def test_golden_replay_diffs_the_terms():
    cases = json.loads(Path(verify.__file__).with_name("golden").joinpath("forests.json").read_text())["cases"]
    case = next(c for c in cases if c["name"] == "ck-coproduct-forked-4-tree-7-terms")
    changed = dict(case, expected=[dict(t) for t in case["expected"]])
    changed["expected"][2]["coeff"] = "2"  # (()) (x) (()) has coefficient 1
    assert verify._replay_case(changed) == (
        "ck-coproduct-forked-4-tree-7-terms",
        False,
        "missing: {'coeff': '2', 'left': '(())', 'right': '(())'}"
        " | unexpected: {'coeff': '1', 'left': '(())', 'right': '(())'}",
    )


def test_unknown_golden_op_is_rejected():
    from treehopf.verify import _replay_case

    with pytest.raises(ValueError, match="unknown golden op"):
        _replay_case({"name": "x", "op": "nope"})


def test_usage_errors_exit_2(capsys, tmp_path):
    x = write_element(tmp_path, "x.json", HO_CHAIN)
    assert run(capsys, "coproduct", "--algebra", "nope", x)[0] == 2
    assert run(capsys, "realize", "--version", "v2", "--indices", "3", "--object", "0 zz")[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "coproduct", "--algebra", "ho", str(bad))[0] == 2
    assert run(capsys, "basis-change", "--from", "S", "--to", "S", "--algebra", "ho", x)[0] == 2
    assert run(capsys, "product", "--algebra", "ck", "--basis", "R", x, x)[0] == 2
    ck_leaf = write_element(tmp_path, "ck.json", {
        "algebra": "ck", "basis": "R", "terms": [{"coeff": "1", "key": "()"}],
    })
    assert run(capsys, "product", "--algebra", "ck", "--basis", "R", ck_leaf, ck_leaf) == (
        2, "", "error: R-basis products are available for ho and efsym\n")
    y = write_element(tmp_path, "y.json", {
        "algebra": "ho", "basis": "R", "terms": [{"coeff": "1", "key": "0"}],
    })
    assert run(capsys, "product", "--algebra", "ho", "--basis", "S", str(x), str(y))[0] == 2
    bad_coeff = write_element(tmp_path, "badc.json", {
        "algebra": "ho", "basis": "S", "terms": [{"coeff": "one", "key": "0"}],
    })
    assert run(capsys, "coproduct", "--algebra", "ho", bad_coeff)[0] == 2
    float_coeff = write_element(tmp_path, "floatc.json", {
        "algebra": "ho", "basis": "S", "terms": [{"coeff": 1.7, "key": "0"}],
    })
    code, out, err = run(capsys, "coproduct", "--algebra", "ho", float_coeff)
    assert code == 2 and out == "" and "bad coefficient 1.7" in err
    bad_term = write_element(tmp_path, "badt.json", {
        "algebra": "ho", "basis": "S", "terms": [{"key": "0"}],
    })
    assert run(capsys, "coproduct", "--algebra", "ho", bad_term)[0] == 2
    # an element must be written in its algebra's default basis
    r_chain = write_element(tmp_path, "r.json", {
        "algebra": "ho", "basis": "R", "terms": [{"coeff": "1", "key": "0 0"}],
    })
    code, out, err = run(capsys, "morphism", "--map", "pi", r_chain)
    assert code == 2 and out == "" and "basis R, expected S" in err
    assert run(capsys, "coproduct", "--algebra", "ho", r_chain)[0] == 2
    m_chain = write_element(tmp_path, "m.json", {
        "algebra": "ho", "basis": "M", "terms": [{"coeff": "1", "key": "0 0"}],
    })
    assert run(capsys, "coproduct", "--algebra", "ho", m_chain)[0] == 2
    assert run(capsys, "morphism", "--map", "f_F", m_chain)[0] == 2
    s_word = write_element(tmp_path, "s.json", {
        "algebra": "wqsym", "basis": "S", "terms": [{"coeff": "1", "key": "1 1"}],
    })
    assert run(capsys, "coproduct", "--algebra", "wqsym", s_word)[0] == 2


def test_algebra_tags_are_case_insensitive(capsys, tmp_path):
    s = write_element(tmp_path, "s.json", HO_CHAIN)
    r = write_element(tmp_path, "r.json", dict(HO_CHAIN, basis="R"))
    calls = [
        ("product", "--basis", "S", s, s),
        ("product", "--basis", "R", r, r),
        ("coproduct", s),
        ("basis-change", "--from", "S", "--to", "R", s),
        ("dims", "--max-degree", "3"),
    ]
    for command, *rest in calls:
        lower = run(capsys, command, "--algebra", "ho", *rest)
        assert lower[0] == 0 and run(capsys, command, "--algebra", "HO", *rest) == lower, command


@pytest.mark.parametrize("argv, tag", [
    (("dims", "--algebra", "efsym", "--max-degree", "9"), "efsym"),
    (("verify", "--suite", "realization", "--max-degree", "9"), "ho"),
])
def test_an_over_bound_degree_exits_before_building(capsys, monkeypatch, argv, tag):
    """The top degree is asked for first, so a degree over the enumeration
    bound exits 2 before any lower degree is built."""
    ops, asked = ALGEBRAS[tag], []

    def keys_of_degree(n):
        asked.append(n)
        assert n == 9, f"degree {n} built before degree 9"
        return ops.keys_of_degree(n)

    monkeypatch.setitem(ALGEBRAS, tag, ops._replace(keys_of_degree=keys_of_degree))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: ") and "exceeds bound 8" in err
    assert asked == [9]


@pytest.mark.parametrize("text", ["+3", " 3", "\u0663", "1_0"])
def test_integer_options_read_ascii_digits_only(capsys, text):
    """--max-degree and --indices follow the rule of key text: a sign,
    padding, another script's digit (here an Arabic-Indic 3) or an
    underscore, all of which ``int`` accepts, exits 2."""
    for argv in (
        ("dims", "--algebra", "ho", "--max-degree", text),
        ("realize", "--version", "v1", "--object", "0", "--indices", text),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, ""), argv
        assert f"expected a natural number, got {text!r}" in err


def test_import_loads_no_dataclasses_or_introspection():
    """Every CLI call and benchmark child pays for ``import treehopf.cli``.
    One ``dataclasses`` import pulled in ``inspect``, ``ast`` and ``dis`` and
    took about 13 ms of a 117 ms fresh import (2-core x86, CPython 3.11)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import treehopf.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_efsym_r_basis_over_the_bound_exits_2(capsys, tmp_path):
    cycle = write_element(tmp_path, "cycle.json", {
        "algebra": "efsym", "basis": "S", "terms": [{"coeff": "1", "key": "2 3 4 5 6 7 8 9 10 11 1"}],
    })
    assert run(capsys, "basis-change", "--from", "S", "--to", "R", "--algebra", "efsym", cycle) == (
        2, "", "error: endofunction R basis restricted to degree <= 5, got 11\n")


def test_ck_r_basis_over_the_bound_names_one_basis_both_ways(capsys, tmp_path):
    for src, dst in (("S", "R"), ("R", "S")):
        chain = write_element(tmp_path, f"{src}.json", {
            "algebra": "ck", "basis": src, "terms": [{"coeff": "1", "key": "(((((())))))"}],
        })
        assert run(capsys, "basis-change", "--from", src, "--to", dst, "--algebra", "ck", chain) == (
            2, "", "error: forest R basis restricted to degree <= 5, got 6\n"), src


def test_realize_over_the_word_budget_exits_2(capsys, monkeypatch):
    # 105^6 words at the default N=14: stopped at the first step over budget
    code, out, err = run(capsys, "realize", "--version", "v1", "--object", "0 0 0 0 0 0")
    assert code == 2 and out == ""
    assert err == "error: word enumeration of 16206750 partial words exceeds bound 10000000\n"
    monkeypatch.setattr(realization, "WORD_BUDGET", 100)
    code, out, err = run(capsys, "realize", "--version", "func", "--indices", "3", "--object", "1 2 3")
    assert code == 2 and out == "" and err.startswith("error: ") and "exceeds bound 100" in err
    assert run(capsys, "realize", "--version", "func", "--indices", "3", "--object", "1 2")[0] == 0


@pytest.mark.parametrize("token", ["+1", "\u0661", "\uff101", "1_0", "0\u30001"])
def test_keys_take_only_ascii_digits(capsys, tmp_path, token):
    x = write_element(tmp_path, "x.json", {
        "algebra": "ho", "basis": "S", "terms": [{"coeff": "1", "key": f"0 {token}"}],
    })
    code, out, err = run(capsys, "coproduct", "--algebra", "ho", x)
    assert code == 2 and out == "" and f"got {token!r} (at token 2)" in err
    code, out, err = run(capsys, "realize", "--version", "v1", "--indices", "3", "--object", f"0 {token}")
    assert code == 2 and out == "" and "(at token 2)" in err


@pytest.mark.parametrize("payload", [
    {"algebra": "ho", "basis": "S", "terms": 5},
    {"algebra": 5, "basis": "S", "terms": []},
    {"algebra": "ho", "basis": "S", "terms": [{"coeff": "1", "key": 5}]},
])
def test_element_json_of_the_wrong_shape_exits_2(capsys, tmp_path, payload):
    x = write_element(tmp_path, "x.json", payload)
    for argv in (("coproduct", "--algebra", "ho", x), ("morphism", "--map", "pi", x)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: bad element"), argv


def test_wqsym_coproduct_takes_the_m_basis(capsys, tmp_path):
    m_word = write_element(tmp_path, "m.json", {
        "algebra": "wqsym", "basis": "M", "terms": [{"coeff": "1", "key": "1 1"}],
    })
    code, out, _ = run(capsys, "coproduct", "--algebra", "wqsym", m_word)
    assert code == 0 and json.loads(out)["basis"] == "M" and len(json.loads(out)["terms"]) == 2


@pytest.mark.parametrize("argv", [
    ("dims", "--algebra", "ho", "--max-degree", "-1"),
    ("verify", "--suite", "all", "--max-degree", "-2"),
    ("dims", "--algebra", "ho", "--max-degree", "two"),
])
def test_max_degree_must_be_a_natural_number(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "argument --max-degree:" in captured.err


def test_max_degree_zero_is_degree_zero(capsys):
    assert run(capsys, "dims", "--algebra", "ho", "--max-degree", "0") == (0, "1\n", "")


def test_config_bound_is_respected(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"enumeration_bound": 2}))
    code, _, err = run(capsys, "--config", str(config), "dims", "--algebra", "ho", "--max-degree", "4")
    assert code == 2 and "bound" in err


def test_a_lowered_config_bound_refuses_before_any_enumeration(capsys, tmp_path, monkeypatch):
    asked = []
    monkeypatch.setitem(ALGEBRAS, "ho", ALGEBRAS["ho"]._replace(keys_of_degree=lambda n: asked.append(n) or []))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"enumeration_bound": 2}))
    assert run(capsys, "--config", str(config), "dims", "--algebra", "ho", "--max-degree", "4") == (
        2, "", "error: dims --max-degree 4 exceeds bound 2\n")
    assert asked == []


def test_a_raised_config_bound_changes_nothing(capsys, tmp_path, monkeypatch):
    """A config bound only lowers the library's bound 8: with 9, degree 9
    is still refused by its enumerator, the first degree asked for."""
    ops, asked = ALGEBRAS["efsym"], []

    def keys_of_degree(n):
        asked.append(n)
        assert n == 9, f"degree {n} built before degree 9"
        return ops.keys_of_degree(n)

    monkeypatch.setitem(ALGEBRAS, "efsym", ops._replace(keys_of_degree=keys_of_degree))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"enumeration_bound": 9}))
    assert run(capsys, "--config", str(config), "dims", "--algebra", "efsym", "--max-degree", "9") == (
        2, "", "error: endofunction enumeration at size 9 exceeds bound 8\n")
    assert asked == [9]


def test_config_default_indices(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"default_indices": 2}))
    code, out, _ = run(capsys, "--config", str(config), "realize", "--version", "v2", "--object", "0")
    assert code == 0 and json.loads(out)["N"] == 2


@pytest.mark.parametrize(
    "payload, needle",
    [
        ({"default_indices": "3"}, "default_indices"),
        ({"default_indices": True}, "default_indices"),
        ({"enumeration_bound": 2.5}, "enumeration_bound"),
        ([1], "JSON object"),
        ({"default_indice": 2}, "unknown config key 'default_indice'"),
    ],
)
def test_config_values_are_strict(capsys, tmp_path, payload, needle):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    code, out, err = run(capsys, "--config", str(config), "realize", "--version", "v2", "--object", "0")
    assert code == 2 and out == "" and needle in err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "treehopf.cli", "dims", "--algebra", "sgsym", "--max-degree", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout == "1 1 2 6\n"


@pytest.mark.slow
def test_verify_all_suite_passes(capsys):
    # The full stdout, saved byte for byte from a known-good run.
    expected = (Path(__file__).parent / "data" / "verify_all.txt").read_bytes()
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-degree", "3")
    assert code == 0 and "FAIL" not in out
    assert out.encode() == expected


def test_verify_all_runs_every_suite_at_degree_2(capsys):
    # The rows of the pinned degree-3 run, less its degree-3 rank rows.
    pinned = (Path(__file__).parent / "data" / "verify_all.txt").read_text().splitlines()[:-1]
    labels = [line.split(": ")[0] for line in pinned]  # "PASS <label>"
    expected = [label.replace("deg<=3", "deg<=2") for label in labels if not label.endswith(" deg 3 N=8")]
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-degree", "2")
    lines = out.splitlines()
    assert code == 0 and "FAIL" not in out and lines[-1] == f"{len(expected)}/{len(expected)} checks passed"
    assert [line.split(": ")[0] for line in lines[:-1]] == expected


def test_verify_realization_ranks_every_degree(capsys, monkeypatch):
    # The product and doubling checks are stubbed out: at degree 4 they take
    # most of a minute, while each rank row takes well under a second.
    monkeypatch.setattr(verify, "multiplicativity_ok", lambda *args: True)
    monkeypatch.setattr(verify, "doubling_transport_ok", lambda *args: True)
    code, out, _ = run(capsys, "verify", "--suite", "realization", "--max-degree", "4")
    # Degrees 1-3 keep the rows of ``verify --suite all --max-degree 3``.
    pinned = (Path(__file__).parent / "data" / "verify_all.txt").read_text().splitlines()
    degree_4 = {
        "v1": "PASS realize-rank[v1] deg 4 N=10: v1 deg 4: rank 125 of 125 (independent)",
        "v2": "PASS realize-rank[v2] deg 4 N=10: v2 deg 4: rank 125 of 125 (independent)",
        "func": "PASS realize-rank[func] deg 4 N=10: func deg 4: rank 256 of 256 (independent)",
    }
    expected = [
        line for version, row in degree_4.items() for line in pinned + [row] if f"realize-rank[{version}]" in line
    ]
    assert code == 0 and out.endswith("20/20 checks passed\n")
    assert [line for line in out.splitlines() if "realize-rank" in line] == expected


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(HO_CHAIN)))
    code, out, _ = run(capsys, "morphism", "--map", "ck", "-")
    assert code == 0 and json.loads(out)["terms"] == [{"coeff": "1", "key": "(())"}]


NOT_UTF8 = b"\xff\xfe{}"


def test_undecodable_element_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(NOT_UTF8)
    code, out, err = run(capsys, "coproduct", "--algebra", "ho", str(bad))
    assert code == 2 and out == "" and err.startswith("error: ")


def test_undecodable_stdin_exits_2(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8"))
    code, out, err = run(capsys, "coproduct", "--algebra", "ho", "-")
    assert code == 2 and out == "" and err.startswith("error: ")


def test_undecodable_config_exits_2(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(NOT_UTF8)
    code, out, err = run(capsys, "--config", str(config), "dims", "--algebra", "ho", "--max-degree", "2")
    assert code == 2 and out == "" and err.startswith("error: ")


DEEP = "[" * 200_000


def test_deeply_nested_element_file_exits_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    code, out, err = run(capsys, "coproduct", "--algebra", "ho", str(deep))
    assert code == 2 and out == "" and err == "error: element JSON is nested too deeply\n"


def test_deeply_nested_config_exits_2(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(DEEP)
    code, out, err = run(capsys, "--config", str(config), "dims", "--algebra", "ho", "--max-degree", "2")
    assert code == 2 and out == "" and err == "error: config JSON is nested too deeply\n"


@pytest.mark.parametrize("raw", ["9" * 5000, '"' + "9" * 5000 + '"', '"-' + "9" * 5000 + '"'],
                         ids=["number", "string", "negative-string"])
def test_coefficients_past_4300_digits_are_read_exactly(capsys, tmp_path, raw):
    path = tmp_path / "long.json"
    path.write_text('{"algebra":"ho","basis":"S","terms":[{"coeff":%s,"key":"0 1"}]}' % raw)
    code, out, _ = run(capsys, "morphism", "--map", "ck", str(path))
    digits = raw.strip('"')
    assert code == 0 and out == '{"algebra":"ck","basis":"S","terms":[{"coeff":"%s","key":"(())"}]}\n' % digits


def test_products_past_4300_digits_are_printed_exactly(capsys, tmp_path):
    # (10^2500 - 1)^2 = 10^5000 - 2 * 10^2500 + 1
    x = write_element(tmp_path, "x.json", {"algebra": "ho", "basis": "S", "terms": [{"coeff": "9" * 2500, "key": "0"}]})
    code, out, _ = run(capsys, "product", "--algebra", "ho", x, x)
    square = "9" * 2499 + "8" + "0" * 2499 + "1"
    assert code == 0 and out == '{"algebra":"ho","basis":"S","terms":[{"coeff":"%s","key":"0 0"}]}\n' % square
