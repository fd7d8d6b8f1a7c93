import json
import subprocess
import sys
from pathlib import Path

import pytest

from treehopf.cli import main


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
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-degree", "3")
    assert code == 0 and "FAIL" not in out


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(HO_CHAIN)))
    code, out, _ = run(capsys, "morphism", "--map", "ck", "-")
    assert code == 0 and json.loads(out)["terms"] == [{"coeff": "1", "key": "(())"}]
