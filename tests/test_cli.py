import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert code == 2 and out == "" and f"admissible cut enumeration at size {depth} exceeds bound 8" in err


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
