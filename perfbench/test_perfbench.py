"""The benchmark's own checks: its oracle fires, and no metric or call path goes missing.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import contextlib
import io
import json
import time

import pytest

import run
import workloads
from oracle import Oracle
from tracing import Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _verify_json(failing=(), all_pass=None) -> str:
    names = sorted(workloads.CONTROL_FAILING | {"legendrian_defect", "tri_symmetry"})
    checks = [
        {"name": n, "status": "FAIL" if n in failing else "PASS", "value": 1e-12}
        for n in names
    ]
    if all_pass is None:
        all_pass = not failing
    return json.dumps({"checks": checks, "aggregates": {"all_pass": all_pass}})


def _op(**expect) -> workloads.Op:
    return workloads.Op("verify x", "verify_s", ("verify",), 256, expect=workloads.Expect(**expect))


def test_correct_output_passes():
    problems, _ = Oracle().check(_op(), 0, _verify_json())
    assert problems == []


def test_wrong_exit_code_is_a_failure():
    problems, _ = Oracle().check(_op(), 1, _verify_json())
    assert any("exit code" in p for p in problems)


@pytest.mark.parametrize(
    "failing",
    [
        workloads.CONTROL_FAILING - {"obstruction_trace"},
        workloads.CONTROL_FAILING | {"tri_symmetry"},
        frozenset(),
    ],
)
def test_changed_failing_set_is_a_failure(failing):
    op = _op(exit_code=1, failing=workloads.CONTROL_FAILING)
    problems, _ = Oracle().check(op, 1, _verify_json(failing, all_pass=False))
    assert problems
    assert Oracle().check(op, 1, _verify_json(workloads.CONTROL_FAILING))[0] == []


def test_non_identical_repeat_is_a_failure():
    oracle = Oracle()
    assert oracle.check(_op(), 0, _verify_json())[0] == []
    problems, _ = oracle.check(_op(), 0, _verify_json() + " ")
    assert any("differs" in p for p in problems)


def test_wrong_energy_and_verdict_are_failures():
    energy = workloads.calabi_energy(0.8, 0.6, 0.6, 0.8)
    op = workloads.Op("energy", "energy_s", ("energy",), 1, expect=workloads.Expect(energy=energy))
    off = json.dumps({"quantities": {"energy": energy * (1 + 1e-8)}, "aggregates": {"all_pass": True}})
    assert any("closed form" in p for p in Oracle().check(op, 0, off)[0])
    op = workloads.Op("classify", "classify_s", ("classify",), 1,
                      expect=workloads.Expect(verdicts={"csl": "no"}))
    wrong = json.dumps({"aggregates": {"verdicts": {"csl": "yes"}}})
    assert Oracle().check(op, 0, wrong)[0]


def test_every_workload_has_its_two_call_metrics():
    files = {role: role for role in ("control", "torus", "tight")}
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    for name in workloads.WORKLOADS:
        ops = workloads.build(name, 7, files)
        assert {op.metric for op in ops} == set(workloads.CALL_METRICS[name])
        assert ops == workloads.build(name, 7, files)  # the seed fixes the inputs


def _attributes(modules):
    return {(m.__name__, k): id(v) for m in modules for k, v in vars(m).items()}


def test_tracer_patches_imported_bindings_and_restores_them():
    from legendrian_lab import cli, geometry, jets, operators, surfaces

    modules = (cli, geometry, jets, operators, surfaces)
    before = _attributes(modules)
    jet_mul, jet_rmul = jets.Jet2.__dict__["__mul__"], jets.Jet2.__dict__["__rmul__"]
    tracer = Tracer()
    tracer.install()
    try:
        assert id(geometry.evaluate_jet_batch) != before[("legendrian_lab.geometry", "evaluate_jet_batch")]
        for name in ("grid_residuals", "run_verification", "willmore_energy"):
            assert id(getattr(cli, name)) != before[("legendrian_lab.cli", name)]
        assert id(jets.analytic) != before[("legendrian_lab.jets", "analytic")]
        assert jets.Jet2.__dict__["__rmul__"] is not jet_rmul
        assert cli.ChartFrame is operators.ChartFrame is geometry.ChartFrame
    finally:
        tracer.restore()
    assert _attributes(modules) == before
    assert jets.Jet2.__dict__["__mul__"] is jet_mul and jets.Jet2.__dict__["__rmul__"] is jet_rmul


def test_call_time_outside_the_spans_shows_as_a_gap():
    tracer = Tracer()
    main = tracer._wrap("cli.main", lambda: time.sleep(0.01))
    start = time.perf_counter()
    main()
    covered = time.perf_counter() - start
    time.sleep(0.01)  # work of the call that escaped the tracer
    calls = time.perf_counter() - start
    assert tracer.summary(calls, covered)["spans.gap_s"] < 1e-3
    summary = tracer.summary(calls, calls)
    assert summary["spans.gap_s"] > 0.009
    assert summary["cli.self_s"] + summary["harness.self_s"] == pytest.approx(
        calls - summary["spans.gap_s"])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(monkeypatch, trace):
    full = workloads.build

    def small(name, seed, files):
        keep = ("energy calabi seeded", "table calabi seeded")
        return [op for op in full(name, seed, files) if op.name in keep]

    monkeypatch.setattr(workloads, "build", small)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "quadrature", "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)])
    assert code == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    if not trace:
        for name in ("setup_s", "energy_s", "table_s", "error_rate"):
            assert any(line.startswith(f"# {name}: ") for line in lines), name
