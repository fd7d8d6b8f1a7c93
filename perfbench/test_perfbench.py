"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import run  # noqa: E402
from metrics import END_TO_END, LAYER, tail  # noqa: E402
from plans import PLANS, load_pool  # noqa: E402
from sweep import sweep  # noqa: E402
from tracing import Tracer  # noqa: E402
import treehopf.algebra  # noqa: E402
from treehopf.algebra import CheckReport, FreeElement, get_algebra  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
OFF = Tracer("test", enabled=False)


def plan_bytes(plan: list) -> bytes:
    return json.dumps(plan, sort_keys=True, separators=(",", ":")).encode()


def small_plan(workload: str, seed: int = 7) -> list:
    """A few cheap ops of the workload's real plan."""
    plan = PLANS[workload](seed)
    if workload == "axioms":
        return [op for op in plan if op["degree"] == 3]
    if workload == "realize":
        return [op for op in plan if op["op"] != "rank" and op["N"] == 5][:12] + \
               [op for op in plan if op["op"] == "rank" and op["N"] <= 6]
    return [req for req in plan if req["id"].endswith("/0") or req["id"] == "faa_di_bruno/1"]


def test_same_seed_gives_identical_inputs():
    for workload, make in PLANS.items():
        assert plan_bytes(make(3)) == plan_bytes(make(3)), workload


def test_other_seed_changes_the_elements_stream():
    assert plan_bytes(PLANS["elements"](3)) != plan_bytes(PLANS["elements"](4))


def test_every_seed_streams_the_whole_pool():
    ids = sorted(req["id"] for req in load_pool()["requests"])
    assert len(set(ids)) == len(ids)
    for seed in (1, 2):
        assert sorted(req["id"] for req in PLANS["elements"](seed)) == ids


def test_every_digest_op_has_a_recorded_digest():
    for req in load_pool()["requests"]:
        assert ("digest" in req) == (req["op"] in jobs.DIGEST_OPS), req["id"]


def test_metric_names_match_benchmark_json():
    e2e = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: m for m in BENCHMARK["per_layer"]}
    assert set(e2e) == set(END_TO_END)
    assert set(layer) == set(LAYER)
    for name, (unit, better) in END_TO_END.items():
        assert NAME.fullmatch(name) and len(name) <= 64
        assert (e2e[name]["unit"], e2e[name]["better"]) == (unit, better)
    for name, (unit, better, _, _) in LAYER.items():
        assert NAME.fullmatch(name) and len(name) <= 64
        assert (layer[name]["unit"], layer[name]["better"]) == (unit, better)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(PLANS)


def test_emitted_names_are_the_declared_ones():
    layers = {}
    for workload in PLANS:
        items = jobs.materialize(workload, small_plan(workload))
        job = dict(jobs.run_job(workload, items, OFF), setup_s=0.1, peak_rss_mb=20.0)
        assert job["failed"] == 0, job["failures"]
        metrics = run.end_to_end([0.1], [job])
        line = run.result_line(metrics, [job], traced=False)
        assert set(line["metrics"]) == set(END_TO_END)
        swept = sweep(workload, items)
        assert set(swept) == {name for name, entry in LAYER.items() if entry[2] == workload}, workload
        layers.update(swept)
    line = run.result_line(run.per_layer([job], [job], layers), [job], traced=True)
    assert set(line["metrics"]) == set(LAYER)
    for name, entry in line["metrics"].items():
        assert NAME.fullmatch(name)
        assert isinstance(entry["value"], (int, float)) and entry["value"] > 0, name


def test_tail_leaves_ten_ops_per_job_beyond_it():
    job = [float(i) for i in range(40)]
    assert tail([job]) == 29.0
    assert tail([job, [d + 100 for d in job]]) == 119.0
    assert tail([job[:5]]) == 4.0


def test_traced_job_records_nested_spans(tmp_path):
    tracer = Tracer("test-run", enabled=True)
    jobs.run_job("elements", small_plan("elements")[:5], tracer)
    tracer.write(tmp_path / "trace.json")
    data = json.loads((tmp_path / "trace.json").read_text())
    spans = data["spans"]
    assert spans[0]["name"] == "job.elements" and spans[0]["parent"] is None
    assert all(s["run"] == "test-run" and s["end"] >= s["start"] for s in spans)
    assert any(s["name"] == "algebra.element_from_json" and spans[s["parent"]]["name"] == "op" for s in spans)
    assert data["self_times"]["op"]["count"] == 5


def _corrupt_product(tracer, req):
    out, encoded = jobs._product(tracer, req)
    encoded["terms"][0]["coeff"] = str(int(encoded["terms"][0]["coeff"]) + 1)
    return out, encoded


def test_corrupted_output_raises_error_rate(monkeypatch):
    plan = [req for req in small_plan("elements") if req["op"] == "product"][:3]
    assert jobs.run_job("elements", plan, OFF)["failed"] == 0
    monkeypatch.setitem(jobs.ELEMENT_OPS, "product", _corrupt_product)
    job = dict(jobs.run_job("elements", plan, OFF), setup_s=0.1, peak_rss_mb=20.0)
    assert job["failed"] == len(plan)
    line = run.result_line(run.end_to_end([0.1], [job]), [job], traced=False)
    assert line["correct"] is False and line["failed"] / line["attempted"] == 1.0


def test_every_element_check_catches_a_wrong_coefficient():
    for req in PLANS["elements"](5):
        if req["op"] == "faa_di_bruno" or req.get("x", {}).get("algebra") == "wqsym" and req["op"] == "product":
            continue
        out, encoded = jobs.ELEMENT_OPS[req["op"]](OFF, req)
        assert jobs.element_failure(req, out, encoded) is None, req["id"]
        wrong = (-2) * out
        wrong_encoded = jobs.tensor_to_json(wrong) if req["op"] == "coproduct" else \
            jobs.element_to_json(wrong, basis=encoded["basis"])
        assert jobs.element_failure(req, wrong, wrong_encoded) is not None, req["id"]


def test_failed_axiom_and_realize_checks_count(monkeypatch):
    def broken(tag, degree):
        report = CheckReport("coassociativity", tag, checked=jobs.expected_cases("coassociativity", tag, degree))
        report.failures.append("x")
        return report

    monkeypatch.setitem(jobs.AXIOM_CHECKS, "coassociativity", broken)
    plan = [op for op in small_plan("axioms") if op["check"] == "coassociativity"]
    assert jobs.run_job("axioms", plan, OFF)["failed"] == len(plan)
    monkeypatch.setattr(jobs, "multiplicativity_ok", lambda *args: False)
    items = jobs.materialize("realize", [op for op in small_plan("realize") if op["op"] == "multiplicativity"])
    assert jobs.run_job("realize", items, OFF)["failed"] == len(items)


def test_antipode_check_catches_a_wrong_lower_degree_antipode(monkeypatch):
    """The library's recursion carries a wrong cached S(leaf) into a matching
    wrong S(x); the other-sided identity of the check does not."""
    req = next(r for r in load_pool()["requests"] if r["id"] == "antipode/ck/0")
    (leaf,) = get_algebra("ck").keys_of_degree(1)
    wrong = {("ck", leaf): FreeElement.from_key("ck", leaf, 2)}  # S(leaf) is -leaf
    monkeypatch.setattr(treehopf.algebra, "_ANTIPODE_CACHE", wrong)
    out, encoded = jobs.ELEMENT_OPS["antipode"](OFF, req)
    assert jobs.element_failure(req, out, encoded) is not None


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", "axioms", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
