"""Tests of the benchmark itself: checker, span arithmetic, seeding, wrapping."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gawsim.cli  # noqa: E402
import gawsim.coefficients  # noqa: E402
from bench import checks, spans, workloads  # noqa: E402


def _rewrite_value(path, row, col, delta):
    """Add delta to one data cell of a CLI CSV, leaving everything else alone."""
    lines = path.read_text().splitlines()
    data_start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    fields = lines[data_start + row].split(",")
    fields[col] = repr(float(fields[col]) + delta)
    lines[data_start + row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_checker_rejects_corrupted_coefficient_table(tmp_path):
    out = tmp_path / "coeffs.csv"
    lo, hi, steps = 0.3, 0.3 + 2 * math.pi, 40
    assert gawsim.cli.main(["coeffs", "--config", "nested", "--gamma", "1.5", "--theta-min", repr(lo),
                            "--theta-max", repr(hi), "--theta-steps", str(steps), "--out", str(out)]) == 0
    checks.check_coeffs(out, "nested", 1.5, lo, hi, steps, [0, 17, 39])
    _rewrite_value(out, 17, 3, 1e-8)
    with pytest.raises(checks.CheckFailed, match="row 17"):
        checks.check_coeffs(out, "nested", 1.5, lo, hi, steps, [0, 17, 39])


def test_checker_rejects_a_missing_dfi_point(tmp_path):
    out = tmp_path / "dfi.json"
    assert gawsim.cli.main(["dfi-scan", "--config", "braided", "--theta-min", "0.5",
                            "--theta-max", repr(0.5 + 2 * math.pi), "--grid", "2000", "--out", str(out)]) == 0
    checks.check_dfi(out, "braided", 0.5)
    doc = json.loads(out.read_text())
    doc["points"] = doc["points"][:1]
    out.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckFailed, match="found 1, expected 2"):
        checks.check_dfi(out, "braided", 0.5)


def test_self_time_on_synthetic_nested_spans():
    #   a [0, 10] cli
    #     b [1, 4] coefficients
    #       c [2, 3] coefficients  (same layer nested in b)
    #     d [5, 9] pool
    synthetic = [
        ["a", "cli", 0.0, 10.0, None, 0],
        ["b", "coefficients", 1.0, 4.0, 0, 0],
        ["c", "coefficients", 2.0, 3.0, 1, 0],
        ["d", "pool", 5.0, 9.0, 0, 0],
    ]
    assert spans.self_times(synthetic) == [3.0, 2.0, 1.0, 4.0]
    assert spans.outermost(synthetic, "coefficients") == [1]
    tracer = spans.Tracer()
    tracer.spans = synthetic
    metrics = spans.layer_metrics(tracer, {"bytes": 0, "rows": 0})
    assert metrics["cli.self_s"] == 3.0
    assert metrics["cli.pool_wait_s"] == 4.0
    assert metrics["coefficients.busy_s"] == 3.0
    assert metrics["coefficients.calls"] == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_identical_inputs(workload, tmp_path):
    first = workloads.make_inputs(workload, 7)
    assert json.dumps(first) == json.dumps(workloads.make_inputs(workload, 7))
    assert json.dumps(first) != json.dumps(workloads.make_inputs(workload, 8))
    # sizes never depend on the seed
    jobs_a = workloads.build_jobs(workload, first, tmp_path)
    jobs_b = workloads.build_jobs(workload, workloads.make_inputs(workload, 8), tmp_path)
    assert [j.name for j in jobs_a] == [j.name for j in jobs_b]


def test_missing_wrap_target_is_reported_and_skipped():
    targets = (
        ("gawsim.coefficients", "general_coefficients", "coefficients", None),
        ("gawsim.coefficients", "no_such_function", "coefficients", None),
        ("gawsim.no_such_module", "f", "nowhere", None),
    )
    assert spans.missing_targets(targets, None) == [
        "gawsim.coefficients.no_such_function", "gawsim.no_such_module.f"]
    original = gawsim.coefficients.general_coefficients
    tracer = spans.Tracer()
    restore = spans.install(tracer, targets, None)
    try:
        assert len(restore) == 1
        layout = workloads._build_layout([[[0.5, 1.0], [1.7, 0.8]], [[1.1, 0.6], [2.3, 0.9]]])
        gawsim.coefficients.general_coefficients(layout)
    finally:
        spans.uninstall(restore)
    assert gawsim.coefficients.general_coefficients is original
    assert [s[0] for s in tracer.spans] == ["coefficients.general_coefficients"]


def test_traced_cli_call_records_parent_ids(tmp_path):
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        gawsim.cli.main(["dfi-scan", "--config", "nested", "--grid", "200", "--out", str(tmp_path / "d.json")])
    finally:
        spans.uninstall(restore)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][4] is None
    scan = names.index("dfi.scan_dfi")
    assert tracer.spans[scan][4] == 0
    assert all(s[4] == scan for s in tracer.spans if s[0] == "dfi.canonical_decay_amplitudes")
    metrics = spans.layer_metrics(tracer, {"bytes": 0, "rows": 0})
    assert metrics["dfi.points_found"] == 4
    assert metrics["dfi.objective_calls"] >= 200


def test_reference_propagation_matches_closed_form_swap():
    # braided at theta = pi/2: lossless exchange g = gamma, C(t) = |sin(2 gamma t)|
    coeffs = checks.reference_coefficients(*checks.canonical_points("braided", 1.3, math.pi / 2), 2)
    times = np.linspace(0.0, 3.0, 31)
    conc = checks.pair_concurrence(checks.propagate_grid(coeffs, [1.0, 0.0], times))
    np.testing.assert_allclose(conc, np.abs(np.sin(2 * 1.3 * times)), atol=1e-12)
