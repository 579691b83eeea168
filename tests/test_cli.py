import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from oracles import per_value_csv

from gawsim import analytic, cli, dynamics
from gawsim.cli import RunSpec, SpecError, main
from gawsim.coefficients import canonical_coefficients
from gawsim.model import build_canonical, CanonicalConfig, layout_to_json


def read_table(path):
    """Parse a CSV written by the CLI: (header_comments, columns, array)."""
    comments, columns, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return comments, columns, np.array(rows)


def test_coeffs_braided_table(tmp_path):
    out = tmp_path / "coeffs.csv"
    rc = main(["coeffs", "--config", "braided", "--gamma", "1", "--theta-min", "0",
               "--theta-max", "6.283185307179586", "--theta-steps", "1001", "--out", str(out)])
    assert rc == 0
    comments, columns, data = read_table(out)
    assert columns == ["theta", "domega_a", "domega_b", "g_ab", "Gamma_a", "Gamma_b", "Gamma_coll"]
    assert comments[0].startswith("# gawsim")
    assert any("spec:" in c for c in comments)
    assert any("tolerances:" in c for c in comments)
    # row nearest theta = pi/2: decays ~ 0, exchange ~ 1
    idx = np.argmin(np.abs(data[:, 0] - math.pi / 2))
    assert abs(data[idx, 4]) < 1e-2 and abs(data[idx, 5]) < 1e-2 and abs(data[idx, 6]) < 1e-2
    assert data[idx, 3] == pytest.approx(1.0, abs=1e-2)


def test_coeffs_separate_theta_pi_row(tmp_path):
    out = tmp_path / "sep.csv"
    assert main(["coeffs", "--config", "separate", "--theta-min", "0", "--theta-max",
                 "6.283185307179586", "--theta-steps", "2001", "--out", str(out)]) == 0
    _, _, data = read_table(out)
    idx = np.argmin(np.abs(data[:, 0] - math.pi))
    assert np.abs(data[idx, 1:]).max() < 1e-2


def test_coeffs_periodicity_second_window(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    main(["coeffs", "--config", "braided", "--theta-min", "0", "--theta-max",
          "6.283185307179586", "--theta-steps", "200", "--out", str(first)])
    main(["coeffs", "--config", "braided", "--theta-min", "6.283185307179586", "--theta-max",
          "12.566370614359172", "--theta-steps", "200", "--out", str(second)])
    _, _, d1 = read_table(first)
    _, _, d2 = read_table(second)
    np.testing.assert_allclose(d1[:, 1:], d2[:, 1:], atol=1e-11, rtol=0)


def test_coeffs_theta_over_pi(tmp_path):
    out = tmp_path / "c.csv"
    main(["coeffs", "--config", "braided", "--theta-over-pi", "--theta-min", "0",
          "--theta-max", "2", "--theta-steps", "3", "--out", str(out)])
    _, _, data = read_table(out)
    assert data[:, 0] == pytest.approx([0.0, math.pi, 2 * math.pi])


def test_coeffs_custom_layout(tmp_path):
    layout = build_canonical(CanonicalConfig("braided", 1.0, 0.7))
    layout_path = tmp_path / "layout.json"
    layout_path.write_text(layout_to_json(layout))
    out = tmp_path / "layout_coeffs.csv"
    assert main(["coeffs", "--layout", str(layout_path), "--out", str(out)]) == 0
    _, _, data = read_table(out)
    assert data.shape[0] == 1
    assert math.isnan(data[0, 0])


def test_evolve_effective_columns_and_values(tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(["evolve", "--config", "braided", "--theta", str(math.pi / 2),
               "--t-max", "2", "--t-steps", "201", "--method", "effective", "--out", str(out)])
    assert rc == 0
    _, columns, data = read_table(out)
    assert columns == ["t", "re_ceg", "im_ceg", "re_cge", "im_cge", "concurrence"]
    expected = np.abs(np.sin(2 * data[:, 0]))
    np.testing.assert_allclose(data[:, 5], expected, atol=1e-9)


def test_evolve_lindblad_columns_and_populations(tmp_path):
    out = tmp_path / "lind.csv"
    rc = main(["evolve", "--config", "braided", "--theta", "0.7", "--t-max", "1",
               "--method", "lindblad", "--out", str(out)])
    assert rc == 0
    _, columns, data = read_table(out)
    assert columns == ["t", "p_ee", "p_eg", "p_ge", "p_gg", "concurrence"]
    np.testing.assert_allclose(data[:, 1:5].sum(axis=1), 1.0, atol=1e-9)
    assert np.abs(data[:, 1]).max() < 1e-12  # no double excitation appears


def test_evolve_analytic_matches_effective(tmp_path):
    eff = tmp_path / "eff.csv"
    ana = tmp_path / "ana.csv"
    args = ["--config", "braided", "--theta", str(math.pi / 2), "--t-max", "3", "--t-steps", "301"]
    assert main(["evolve", *args, "--method", "effective", "--out", str(eff)]) == 0
    assert main(["evolve", *args, "--method", "analytic", "--out", str(ana)]) == 0
    _, _, d_eff = read_table(eff)
    _, cols, d_ana = read_table(ana)
    assert cols == ["t", "concurrence"]
    assert np.abs(d_eff[:, 5] - d_ana[:, 1]).max() < 1e-6


def test_evolve_custom_initial_amplitudes(tmp_path):
    out = tmp_path / "init.csv"
    rc = main(["evolve", "--config", "braided", "--theta", "1.0", "--t-max", "1",
               "--t-steps", "11", "--c-eg", "0.6", "--c-ge", "0.8j", "--out", str(out)])
    assert rc == 0
    _, _, data = read_table(out)
    assert data[0, 1] == pytest.approx(0.6)
    assert data[0, 4] == pytest.approx(0.8)


def test_evolve_analytic_rejected_for_nested(tmp_path):
    rc = main(["evolve", "--config", "nested", "--theta", "0.5", "--method", "analytic",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1


def test_sweep_grid_and_determinism(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    args = ["sweep", "--config", "braided", "--theta-min", "0.3", "--theta-max", "2.8",
            "--theta-steps", "24", "--t-max", "3", "--t-steps", "40"]
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _, columns, data = read_table(out1)
    assert columns == ["theta", "t", "concurrence"]
    assert data.shape == (24 * 40, 3)


def test_sweep_worker_options_are_gone(tmp_path, monkeypatch):
    out = tmp_path / "s.csv"
    args = ["sweep", "--config", "braided", "--theta-steps", "6", "--t-steps", "10", "--out", str(out)]
    assert main([*args, "--workers", "2"]) == 1
    assert not out.exists()
    monkeypatch.setenv("GAW_SEED_WORKERS", "zero")
    assert main(args) == 0


def test_sweep_braided_max_at_dfi(tmp_path):
    # t grid chosen to contain pi/4, where the oscillation peaks exactly
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", "braided", "--theta-min", str(math.pi / 2 - 0.01),
                 "--theta-max", str(math.pi / 2 + 0.01), "--theta-steps", "3",
                 "--t-max", str(math.pi), "--t-steps", "401",
                 "--out", str(out)]) == 0
    _, _, data = read_table(out)
    assert data[:, 2].max() == pytest.approx(1.0, abs=1e-6)


def test_sweep_lindblad_method_matches_effective(tmp_path):
    lind = tmp_path / "lind.csv"
    eff = tmp_path / "eff.csv"
    args = ["sweep", "--config", "braided", "--theta-min", "0.6", "--theta-max", "1.2",
            "--theta-steps", "3", "--t-max", "1", "--t-steps", "21"]
    assert main([*args, "--method", "lindblad", "--out", str(lind)]) == 0
    assert main([*args, "--method", "effective", "--out", str(eff)]) == 0
    _, _, d_lind = read_table(lind)
    _, _, d_eff = read_table(eff)
    assert d_lind.shape == d_eff.shape
    np.testing.assert_allclose(d_lind[:, 2], d_eff[:, 2], atol=1e-6, rtol=0)


def test_sweep_nested_lindblad_matches_effective_to_roundoff(tmp_path):
    lind = tmp_path / "lind.csv"
    eff = tmp_path / "eff.csv"
    args = ["sweep", "--config", "nested", "--theta-min", "0.4", "--theta-max", "5.9",
            "--theta-steps", "20", "--t-max", "2", "--t-steps", "100"]
    assert main([*args, "--method", "lindblad", "--out", str(lind)]) == 0
    assert main([*args, "--method", "effective", "--out", str(eff)]) == 0
    _, _, d_lind = read_table(lind)
    _, _, d_eff = read_table(eff)
    np.testing.assert_array_equal(d_lind[:, :2], d_eff[:, :2])
    np.testing.assert_allclose(d_lind[:, 2], d_eff[:, 2], atol=1e-13, rtol=0)


def test_evolve_lindblad_large_dt_stays_physical(tmp_path):
    # a step of 1 at total decay 16 would break an explicit scheme; the exact propagator has no step limit
    out = tmp_path / "lind.csv"
    assert main(["evolve", "--config", "braided", "--theta", "0", "--method", "lindblad",
                 "--t-max", "50", "--dt", "1", "--out", str(out)]) == 0
    _, _, data = read_table(out)
    assert len(data) == 51 and np.isfinite(data).all()
    np.testing.assert_allclose(data[:, 1:5].sum(axis=1), 1.0, atol=1e-9, rtol=0)
    np.testing.assert_allclose(data[-1, 1:5], [0.0, 0.25, 0.25, 0.5], atol=1e-12)


@pytest.mark.parametrize("flags,named", [(["--c-eg", "0.3", "--c-ge", "0.2"], "--c-eg"),
                                         (["--c-ge", "0.2"], "--c-ge")])
def test_evolve_analytic_rejects_initial_amplitudes(tmp_path, capsys, flags, named):
    out = tmp_path / "x.csv"
    assert main(["evolve", "--config", "braided", "--theta", "0.5", "--method", "analytic",
                 *flags, "--out", str(out)]) == 1
    assert f"error: {named} does not apply to evolve --method analytic" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_custom_layout(tmp_path):
    layout = build_canonical(CanonicalConfig("braided", 1.0, math.pi / 2))
    path = tmp_path / "layout.json"
    path.write_text(layout_to_json(layout))
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--layout", str(path), "--t-max", "2", "--t-steps", "41",
                 "--method", "effective", "--out", str(out)]) == 0
    _, _, data = read_table(out)
    np.testing.assert_allclose(data[:, 5], np.abs(np.sin(2 * data[:, 0])), atol=1e-9)


@pytest.mark.parametrize("command,flags,named", [
    ("evolve", ["--theta", "9"], "--theta"),
    ("verify-slh", ["--theta", "0.5"], "--theta"),
    ("coeffs", ["--theta-min", "3"], "--theta-min"),
    ("coeffs", ["--theta-max", "3"], "--theta-max"),
    ("coeffs", ["--theta-steps", "5"], "--theta-steps"),
])
def test_layout_rejects_theta_flags(tmp_path, capsys, command, flags, named):
    path = tmp_path / "layout.json"
    path.write_text(layout_to_json(build_canonical(CanonicalConfig("braided", 1.0, 0.7))))
    out = tmp_path / "x.out"
    assert main([command, "--layout", str(path), *flags, "--out", str(out)]) == 1
    assert f"error: {named} does not apply with --layout" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_nested_zero_column_at_pi(tmp_path):
    out = tmp_path / "nested.csv"
    assert main(["sweep", "--config", "nested", "--theta-min", str(math.pi),
                 "--theta-max", str(math.pi + 0.5), "--theta-steps", "2",
                 "--t-max", "4", "--t-steps", "50", "--out", str(out)]) == 0
    _, _, data = read_table(out)
    pi_rows = data[np.abs(data[:, 0] - math.pi) < 1e-12]
    assert np.abs(pi_rows[:, 2]).max() < 1e-12


def test_dfi_scan_json_report(tmp_path):
    out = tmp_path / "dfi.json"
    assert main(["dfi-scan", "--config", "nested", "--grid", "4000", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"] == "nested"
    assert "meta" in doc and "spec" in doc["meta"]
    thetas = [p["theta"] for p in doc["points"]]
    assert len(thetas) == 4
    assert thetas[0] == pytest.approx(math.pi / 4, abs=1e-9)
    assert {"theta", "residual", "g"} == set(doc["points"][0])


def test_dfi_scan_separate_empty(tmp_path):
    out = tmp_path / "sep.json"
    assert main(["dfi-scan", "--config", "separate", "--grid", "4000", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["points"] == []


def test_verify_slh_ok_and_mismatch(tmp_path, capsys):
    assert main(["verify-slh", "--config", "braided", "--theta", "0.7"]) == 0
    captured = capsys.readouterr().out
    assert "max_abs_diff=" in captured and "slh:" in captured
    # impossible tolerance forces the mismatch exit code
    assert main(["verify-slh", "--config", "braided", "--theta", "0.7", "--tol", "1e-30"]) == 2


def test_verify_slh_custom_layout(tmp_path):
    layout = build_canonical(CanonicalConfig("nested", 1.3, 1.1))
    path = tmp_path / "layout.json"
    path.write_text(layout_to_json(layout))
    out = tmp_path / "verify.json"
    assert main(["verify-slh", "--layout", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["within_tol"] is True
    assert doc["max_abs_diff"] < 1e-10


#: The README's example layout, each atom's entry open for an extra key.
_README_LAYOUT = ('{"atoms": [{"id": 0, %s"points": [{"phi": 0.35, "gamma": 1.0}, {"phi": 1.75, "gamma": 1.0}]},'
                  ' {"id": 1, %s"points": [{"phi": 1.05, "gamma": 1.0}, {"phi": 2.45, "gamma": 1.0}]}]}')


def test_layout_omega_keys_change_no_output(tmp_path, capsys):
    # a bare frequency "omega" is ignored like any key outside the schema, so it
    # costs verify-slh no digits however large it is
    path, out = tmp_path / "layout.json", tmp_path / "out.csv"
    outputs = []
    for omega in ("", '"omega": 1e8, ', '"omega": "abc", '):
        path.write_text(_README_LAYOUT % (omega, omega))
        assert main(["verify-slh", "--layout", str(path)]) == 0
        files = [capsys.readouterr().out]
        for argv in (["coeffs"], ["evolve"], ["evolve", "--method", "lindblad"]):
            assert main([*argv, "--layout", str(path), "--out", str(out)]) == 0
            files.append(out.read_text())
        outputs.append(files)
    assert outputs[1] == outputs[2] == outputs[0]
    assert "max_abs_diff=4.4408920985006262e-16 " in outputs[1][0]


def test_invalid_specs_exit_one(tmp_path):
    assert main(["coeffs", "--config", "braided"]) == 1  # no --out
    assert main(["coeffs", "--out", str(tmp_path / "x.csv")]) == 1  # no source
    assert main(["evolve", "--config", "braided", "--out", str(tmp_path / "x.csv")]) == 1  # no theta
    assert main(["coeffs", "--config", "braided", "--gamma", "-1",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["sweep", "--config", "braided", "--theta-min", "2", "--theta-max", "1",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["dfi-scan", "--config", "braided", "--grid", "10",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert main(["evolve", "--config", "braided", "--theta", "0.5", "--c-eg", "2.0",
                 "--out", str(tmp_path / "x.csv")]) == 1  # norm > 1
    assert main(["nonsense"]) == 1


@pytest.mark.parametrize("argv,flag", [
    (["coeffs", "--config", "braided", "--gamma", "inf"], "--gamma"),
    (["dfi-scan", "--config", "nested", "--gamma", "nan"], "--gamma"),
    (["evolve", "--config", "braided", "--theta", "nan"], "--theta"),
    (["coeffs", "--config", "braided", "--theta-min", "nan"], "--theta-min"),
    (["coeffs", "--config", "braided", "--theta-max", "inf"], "--theta-max"),
    (["coeffs", "--config", "braided", "--theta-over-pi", "--theta-max", "1e308"], "--theta-max"),
    (["evolve", "--config", "braided", "--theta", "0.5", "--t-max", "nan"], "--t-max"),
    (["evolve", "--config", "braided", "--theta", "0.5", "--t-max", "inf"], "--t-max"),
    (["evolve", "--config", "braided", "--theta", "0.5", "--dt", "nan"], "--dt"),
    (["dfi-scan", "--config", "nested", "--tol-decay", "nan"], "--tol-decay"),
    (["dfi-scan", "--config", "nested", "--tol-exchange", "inf"], "--tol-exchange"),
    (["verify-slh", "--config", "braided", "--theta", "0.7", "--tol", "nan"], "--tol"),
])
def test_non_finite_flag_exits_one(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert f"error: {flag} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_console_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "gawsim.cli", "coeffs", "--config", "braided",
         "--theta-steps", "5", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ},
    )
    assert proc.returncode == 0
    assert out.exists()


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    jobs = [["coeffs", "--config", "braided", "--theta-steps", "7"],
            ["evolve", "--config", "nested", "--theta", "0.9", "--t-steps", "20"]]
    # a usage error first: coeffs takes no --theta
    assert main(["coeffs", "--theta", "1"]) == 1
    assert "unrecognized arguments: --theta 1" in capsys.readouterr().err
    for i, argv in enumerate(jobs):
        assert main([*argv, "--out", str(tmp_path / f"in-process-{i}.csv")]) == 0
    for i, argv in enumerate(jobs):
        fresh = tmp_path / f"fresh-{i}.csv"
        subprocess.run([sys.executable, "-m", "gawsim.cli", *argv, "--out", str(fresh)], check=True)
        assert (tmp_path / f"in-process-{i}.csv").read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_of_the_shared_parser_is_that_of_a_new_one(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    assert main(["coeffs", "--theta", "1"]) == 1  # the shared parser has been used
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    shared = capsys.readouterr().out
    with pytest.raises(SystemExit):
        cli.build_parser.__wrapped__().parse_args(argv)
    assert shared.startswith("usage: gawsim") and capsys.readouterr().out == shared


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma", ["1e200", "1e300"])
def test_evolve_effective_at_huge_gamma_stays_finite(tmp_path, gamma):
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--config", "braided", "--theta", "0.3", "--gamma", gamma,
                 "--out", str(out)]) == 0
    _, _, data = read_table(out)
    assert np.isfinite(data).all()
    assert (np.hypot(np.hypot(data[:, 1], data[:, 2]), np.hypot(data[:, 3], data[:, 4])) <= 1.0 + 1e-12).all()


def test_identical_specs_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["evolve", "--config", "separate", "--theta", "1.4", "--t-max", "2",
            "--t-steps", "50", "--method", "effective"]
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field,name", [("phi", "phase"), ("gamma", "gamma")])
def test_coeffs_layout_non_finite_value_exits_one(tmp_path, capsys, field, name, value):
    values = {"phi": "0.5", "gamma": "1.0", field: value}
    layout = tmp_path / "layout.json"
    layout.write_text(
        '{"atoms": [{"id": 0, "points": [{"phi": %(phi)s, "gamma": 1.0}]},'
        ' {"id": 1, "points": [{"phi": 1.5, "gamma": %(gamma)s}]}]}' % values
    )
    out = tmp_path / "coeffs.csv"
    assert main(["coeffs", "--layout", str(layout), "--out", str(out)]) == 1
    assert f"{name} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("atoms,message", [
    ("5", "atoms must be an array, got 5"),
    ("null", "atoms must be an array, got null"),
    ('[{"id": "x", "points": [{"phi": 0.5, "gamma": 1.0}]}]', 'atoms[0].id must be a JSON integer, got "x"'),
    ('[{"id": 0.7, "points": [{"phi": 0.5, "gamma": 1.0}]}]', "atoms[0].id must be a JSON integer, got 0.7"),
    ('[{"id": false, "points": [{"phi": 0.5, "gamma": 1.0}]}]', "atoms[0].id must be a JSON integer, got false"),
    ('[{"id": 0, "points": [{"phi": 0.5, "gamma": 1.0}, {"phi": "0.5", "gamma": 1.0}]}]',
     'atoms[0].points[1].phi must be a JSON number, got "0.5"'),
    ('[{"id": 0, "points": [{"phi": 0.5, "gamma": true}]}]',
     "atoms[0].points[0].gamma must be a JSON number, got true"),
    ('[{"id": 0, "points": [{"phi": 1%s, "gamma": 1.0}]}]' % ("0" * 400),
     "atoms[0].points[0].phi is too large for a float"),
], ids=["atoms-number", "atoms-null", "id-string", "id-fraction", "id-bool", "phi-string",
        "gamma-bool", "phi-huge-integer"])
def test_layout_json_type_errors_exit_one_naming_the_field(tmp_path, capsys, atoms, message):
    layout = tmp_path / "layout.json"
    layout.write_text('{"atoms": %s}' % atoms)
    out = tmp_path / "coeffs.csv"
    assert main(["coeffs", "--layout", str(layout), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: layout JSON {message}\n"
    assert not out.exists()


def test_evolve_lindblad_step_budget_exits_one(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["evolve", "--config", "braided", "--theta", "0", "--method", "lindblad",
            "--t-max", "1e9", "--dt", "1", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    # the CLI caps the grid before the library does, naming the flag
    assert "--dt gives 1e+09 time points (t-max 1e+09, dt 1), above the limit of 10000000" in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["effective", "analytic", "lindblad"])
def test_sweep_dt_grid_with_one_point_exits_one(tmp_path, capsys, method):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", "braided", "--method", method, "--t-max", "1",
                 "--dt", "2", "--out", str(out)]) == 1
    assert "--dt" in capsys.readouterr().err
    assert not out.exists()


def test_dt_grid_matches_multiples_of_dt(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["evolve", "--config", "braided", "--theta", "0.5", "--t-max", "1",
                 "--dt", "0.1", "--out", str(out)]) == 0
    _, _, data = read_table(out)
    assert data[:, 0].tolist() == [k * 0.1 for k in range(11)]


@pytest.mark.parametrize("argv,flag", [
    (["coeffs", "--config", "braided", "--theta-steps", "10000000000000"], "--theta-steps"),
    (["evolve", "--config", "braided", "--theta", "0.5", "--t-steps", "10000000000000"], "--t-steps"),
    (["sweep", "--config", "braided", "--t-steps", "10000000000000"], "--t-steps"),
    (["evolve", "--config", "braided", "--theta", "0.5", "--dt", "1e-300"], "--dt"),
    (["sweep", "--config", "braided", "--method", "lindblad", "--dt", "1e-300"], "--dt"),
    (["dfi-scan", "--config", "braided", "--grid", "10000000000000"], "--grid"),
    (["sweep", "--config", "braided", "--theta-steps", "5000", "--t-steps", "5000"], "--theta-steps"),
    # t_max / dt overflows to inf: compared with the cap, never converted to int
    (["evolve", "--config", "braided", "--theta", "0.3", "--dt", "1e-300", "--t-max", "1e300"], "--dt"),
    (["evolve", "--config", "braided", "--theta", "0.3", "--method", "lindblad", "--dt", "1e-300",
      "--t-max", "1e300"], "--dt"),
    (["sweep", "--config", "braided", "--dt", "1e-300", "--t-max", "1e300"], "--dt"),
    (["evolve", "--config", "braided", "--theta", "0.5", "--method", "lindblad", "--t-steps", "10000000000000"],
     "--t-steps"),
])
def test_oversized_grid_exits_one(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert flag in err and "above the limit" in err
    assert not out.exists()


def test_write_csv_matches_per_value_oracle(tmp_path, monkeypatch):
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
               1.0, -3.0, 2.0 ** 53, 1e16, 0.1, 1.0 / 3.0]
    rng = np.random.default_rng(11)
    normals = rng.standard_normal((3, 200)) * 10.0 ** rng.integers(-300, 300, size=(3, 200))
    cols = [np.array(special * 3), np.concatenate([special[::-1]] * 3), np.arange(45.0)]
    cols = [np.concatenate([c, n]) for c, n in zip(cols, normals)]
    spec = RunSpec(command="coeffs", configuration="braided")
    expected = per_value_csv(cli._header_lines(spec), ["a", "b", "c"], zip(*cols))
    out = tmp_path / "table.csv"
    # 245 rows of 3 values: one block, blocks of 2 rows (7 // 3) and of 1 row
    for block_cells in (cli._CSV_BLOCK_CELLS, 7, 1):
        monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", block_cells)
        cli._write_csv(str(out), spec, ["a", "b", "c"], *cols)
        assert out.read_bytes() == expected.encode(), block_cells


def test_write_csv_grid_matches_per_value_oracle(tmp_path, monkeypatch):
    thetas = np.array([-0.0, 5e-324, 1e308, 0.1, -1.0 / 3.0])
    times = np.concatenate([[0.0, 5e-324, 1e-300], np.linspace(0.1, 3.0, 16)])
    rng = np.random.default_rng(12)
    values = rng.uniform(0.0, 1.0, (len(thetas), len(times)))
    values[:, :4] = [math.nan, math.inf, -math.inf, -0.0]
    values[2, -3:] = [math.nan, -0.0, 1e308]
    spec = RunSpec(command="sweep", configuration="nested")
    names = ["theta", "t", "concurrence"]
    expected = per_value_csv(cli._header_lines(spec), names,
                             ((theta, t, v) for theta, column in zip(thetas, values)
                              for t, v in zip(times, column)))
    out = tmp_path / "sweep.csv"
    # 5 thetas x 19 times: all thetas in one block, thetas 2 + 2 + 1 (40 cells),
    # one theta (19), then times 7 + 7 + 5 and 1 at a time
    for block_cells in (cli._CSV_BLOCK_CELLS, 40, len(times), 7, 1):
        monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", block_cells)
        cli._write_csv(str(out), spec, names, grid=(thetas, times, list(values)))
        assert out.read_bytes() == expected.encode(), block_cells


def _kernel_inputs():
    """Values that stress the .17g kernel, each family scaled down from a larger check."""
    rng = np.random.default_rng(14)
    odd = 2 * rng.integers(2 * 10 ** 15, 45 * 10 ** 14, 2000) + 1
    powers = np.array([float(f"1e{e}") for e in range(-300, 300)])
    return {
        "bit patterns": rng.integers(0, 2 ** 64, 8192, dtype=np.uint64).view(np.float64),
        "log-uniform [1e-8, 1e19]": 10.0 ** rng.uniform(-8, 19, 4096) * rng.choice([-1.0, 1.0], 4096),
        "log-uniform [1e-307, 1e308]": 10.0 ** rng.uniform(-307, 308, 4096),
        # (odd m) / 4 in [1e15, 2.25e15]: 10 v ends in exactly .5, a tie rounded half to even
        "ties": odd / 4.0,
        "m 2^-(q+1)": np.concatenate([rng.integers(1, 2 ** 53, 40) * 2.0 ** -(q + 1) for q in range(23, 60)]),
        "subnormals": np.array([5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 3e-320]),
        "powers of ten +-1 ulp": np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]),
        "special": np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                             1.7976931348623157e308, -1.7976931348623157e308, 99999999999999999.0,
                             9.9999999999999991e-05, 1e-4, 1e16, 1e17, 3 * 2.0 ** -24, 0.5, -2.5]),
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", list(_kernel_inputs()))
def test_format_kernel_matches_format_17g(family):
    values = _kernel_inputs()[family]
    # one cell, one row, one column, and tables of 7 and of 3 columns
    for shape in [(1, 1), (1, len(values)), (len(values), 1), (len(values) // 7, 7), (len(values) // 3, 3)]:
        block = values[:shape[0] * shape[1]].reshape(shape)
        expected = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in block.tolist())
        assert cli._format_cells(block).tobytes() == expected.encode(), (family, shape)
    assert cli._cell_texts(values) == [format(v, ".17g").encode() for v in values.tolist()]


def test_format_kernel_leaves_uncertain_ties_to_format():
    # 3 2^-24 = 1.78813934326171875e-07 is an exact tie at 17 digits scaled by 10^23,
    # which is not a double; 1234567890123456.25 is one scaled by 10, which is
    N, k, fallback = cli._decimal_digits(np.array([3 * 2.0 ** -24, 1234567890123456.25, 2.5]))
    assert fallback.tolist() == [True, False, False]
    assert N[1:].tolist() == [12345678901234562, 25000000000000000] and k[1:].tolist() == [15, 0]
    assert cli._format_cells(np.array([[3 * 2.0 ** -24]])).tobytes() == b"1.7881393432617188e-07\n"


def _per_row_bodies():
    """(argv, columns, tuple rows) of three tables at gamma 0.8, rows built from
    the library records of the unit-rate coefficients at gamma * t."""
    coeffs = canonical_coefficients("nested", 1.0, 1.3)
    c0 = dynamics.AmplitudeState(0.6 + 0.48j, -0.64j)
    source = ["--config", "nested", "--gamma", "0.8"]
    times = np.linspace(0.0, 2.0, 9)
    amp = dynamics.amplitude_trajectory(c0, coeffs, 0.8 * times)
    lind = dynamics.evolve_lindblad(dynamics.density_from_amplitudes(c0), coeffs, 10 * (0.8 * 0.05), 0.8 * 0.05,
                                    store_every=1)
    initial = ["--theta", "1.3", "--c-eg", "0.6+0.48j", "--c-ge=-0.64j"]
    # the sweep's values: one amplitude trajectory per theta
    thetas = np.linspace(0.2, 3.0, 4)
    sweep = [(theta, t, c) for theta in thetas for t, c in zip(times, dynamics.amplitude_trajectory(
        dynamics.AmplitudeState(1.0, 0.0), canonical_coefficients("nested", 1.0, theta), 0.8 * times).concurrence)]
    return [
        (["evolve", *source, *initial, "--t-max", "2", "--t-steps", "9"],
         ["t", "re_ceg", "im_ceg", "re_cge", "im_cge", "concurrence"],
         [(t, s[0].real, s[0].imag, s[1].real, s[1].imag, c)
          for t, s, c in zip(times, amp.states, amp.concurrence)]),
        (["evolve", *source, *initial, "--method", "lindblad", "--t-max", "0.5", "--dt", "0.05"],
         ["t", "p_ee", "p_eg", "p_ge", "p_gg", "concurrence"],
         [(t, rho[0, 0].real, rho[1, 1].real, rho[2, 2].real, rho[3, 3].real, c)
          for t, rho, c in zip(np.arange(11) * 0.05, lind.states, lind.concurrence)]),
        (["sweep", *source, "--theta-min", "0.2", "--theta-max", "3", "--theta-steps", "4",
          "--t-max", "2", "--t-steps", "9"], ["theta", "t", "concurrence"], sweep),
    ]


def test_csv_bodies_match_per_row_oracle(tmp_path):
    for argv, columns, rows in _per_row_bodies():
        out = tmp_path / "table.csv"
        assert main([*argv, "--out", str(out)]) == 0
        body = "".join(line for line in out.read_text().splitlines(keepends=True) if line[0] != "#")
        assert body == per_value_csv([], columns, rows), argv


@pytest.mark.parametrize("method", ["effective", "lindblad"])
@pytest.mark.parametrize("flag", ["--c-eg", "--c-ge"])
@pytest.mark.parametrize("value", ["nan", "inf", "nan+1j"])
def test_evolve_non_finite_amplitude_exits_one(tmp_path, capsys, method, flag, value):
    out = tmp_path / "x.csv"
    assert main(["evolve", "--config", "braided", "--theta", "0.3", "--method", method,
                 "--t-max", "1", f"{flag}={value}", "--out", str(out)]) == 1
    assert f"error: {flag} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_lindblad_under_normalised_amplitudes_exit_one(tmp_path, capsys):
    # a density matrix needs unit trace; --method effective accepts the same spec
    out = tmp_path / "x.csv"
    argv = ["evolve", "--config", "braided", "--theta", "1", "--c-eg", "0.5", "--out", str(out)]
    assert main([*argv, "--method", "lindblad"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --c-eg and --c-ge must have") and "off by 7.500e-01" in err
    assert not out.exists()
    assert main([*argv, "--method", "effective"]) == 0


_OVER_NORMALISED = ("--c-eg and --c-ge must have |c_eg|^2 + |c_ge|^2 <= 1 for --method effective, "
                    "got sqrt(|c_eg|^2 + |c_ge|^2) = ")


def test_evolve_effective_over_normalised_amplitudes_exit_one_naming_the_flags(tmp_path, capsys):
    # as --method lindblad does, --method effective names both flags
    out = tmp_path / "x.csv"
    assert main(["evolve", "--config", "braided", "--theta", "0.3", "--c-eg", "0.9", "--c-ge", "0.9",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {_OVER_NORMALISED}1.2727922061357855\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["--c-ge", "1e308"], f"{_OVER_NORMALISED}1e+308"),
    (["--c-eg", "1e155"], f"{_OVER_NORMALISED}1e+155"),
    (["--c-ge", "1.7e308+1.7e308j"], f"{_OVER_NORMALISED}inf"),
    (["--method", "lindblad", "--c-ge", "1e200"], "--c-eg and --c-ge must have |c_eg|^2 + |c_ge|^2 = 1"),
], ids=["c-ge-1e308", "c-eg-1e155", "complex-overflow", "lindblad-1e200"])
def test_evolve_huge_amplitudes_exit_one(tmp_path, capsys, argv, message):
    # the norms are taken without squaring a float, so no OverflowError escapes
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--config", "braided", "--theta", "0.3", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["evolve", "--config", "separate", "--theta", "0.3", "--t-max", "1e-320", "--t-steps", "3"],
    ["sweep", "--config", "nested", "--t-max", "1e-320", "--theta-steps", "3", "--t-steps", "3"],
], ids=["evolve", "sweep"])
def test_subnormal_unit_rate_times_give_finite_rows(tmp_path, argv):
    # expm1(z) / z overflowed for a subnormal z = 2i s t; phi = 1 there
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(out)]) == 0
    data = read_table(out)[2]
    assert data.shape[0] in (3, 9) and np.isfinite(data).all()
    assert ((0.0 <= data[:, -1]) & (data[:, -1] <= 1.0)).all()


@pytest.mark.parametrize("argv", [
    ["evolve", "--theta", "0.5", "--method", "effective"],
    ["evolve", "--theta", "0.5", "--method", "analytic"],
    ["sweep", "--theta-steps", "3", "--method", "effective"],
    ["sweep", "--theta-steps", "3", "--method", "lindblad"],
], ids=["evolve-effective", "evolve-analytic", "sweep-effective", "sweep-lindblad"])
def test_t_steps_with_dt_exits_one(tmp_path, capsys, argv):
    # --dt sets the time grid; a --t-steps next to it would be recorded and ignored
    out = tmp_path / "x.csv"
    assert main([*argv, "--config", "braided", "--t-max", "1", "--dt", "0.1", "--t-steps", "50",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: --t-steps does not apply with --dt, which sets the "
                                       "time grid; give one of them\n")
    assert not out.exists()


@pytest.mark.parametrize("run", [cli.run_evolve, cli.run_sweep])
@pytest.mark.parametrize("config,method,message", [
    ("nested", "analytic", "--method analytic is only defined for --config braided"),
    ("braided", "bogus", "unknown method 'bogus'"),
])
def test_evolve_and_sweep_share_method_checks(tmp_path, run, config, method, message):
    out = tmp_path / "x.csv"
    spec = RunSpec(command="x", configuration=config, theta=0.5, method=method, out=str(out))
    with pytest.raises(SpecError, match=f"^{message}$"):
        run(spec)
    assert not out.exists()


def test_analytic_sweep_evaluates_terms_once_per_theta(tmp_path, monkeypatch):
    # counted by theta value: a call evaluates a whole array of them
    calls = []
    terms = analytic.concurrence_terms
    monkeypatch.setattr(analytic, "concurrence_terms",
                        lambda theta: calls.extend(np.ravel(theta)) or terms(theta))
    analytic.closed_form_concurrence_braided(0.7, np.linspace(0.0, 1.0, 4))
    assert calls == [0.7]
    calls.clear()
    assert main(["sweep", "--config", "braided", "--method", "analytic", "--theta-steps", "7",
                 "--t-steps", "5", "--out", str(tmp_path / "s.csv")]) == 0
    assert len(calls) == 7 == len(set(calls))


@pytest.mark.parametrize("flags,named", [
    (["--t-max", "1", "--dt", "2"], "--dt 2.0 leaves fewer than 2 time points"),
], ids=["dt"])
def test_evolve_lindblad_one_point_grid_exits_one(tmp_path, capsys, flags, named):
    # the same two-point rule as the effective method's --dt grid
    out = tmp_path / "x.csv"
    assert main(["evolve", "--config", "braided", "--theta", "0.3", "--method", "lindblad",
                 *flags, "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["coeffs", "--config", "braided"],
    ["evolve", "--config", "braided", "--theta", "0.3"],
    ["evolve", "--config", "braided", "--theta", "0.3", "--method", "lindblad"],
    ["sweep", "--config", "nested", "--theta-steps", "3", "--t-steps", "3"],
    ["sweep", "--config", "braided", "--method", "analytic", "--theta-steps", "3", "--t-steps", "3"],
    ["dfi-scan", "--config", "nested"],
    ["verify-slh", "--config", "braided", "--theta", "0.3"],
], ids=["coeffs", "evolve", "evolve-lindblad", "sweep", "sweep-analytic", "dfi-scan", "verify-slh"])
def test_overflowing_gamma_exits_one_naming_gamma(tmp_path, capsys, argv):
    out = tmp_path / "x.out"
    for gamma in ("1e308", "1.7e308"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way
            assert main([*argv, "--gamma", gamma, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: --gamma must be at most 1.124e+307, where rates of "
                                           f"8 gamma stay finite, got {float(gamma):g}\n")
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["coeffs", "--config", "braided", "--theta-steps", "5"],
    ["evolve", "--config", "braided", "--theta", "0.3"],
    ["sweep", "--config", "nested", "--theta-steps", "3", "--t-steps", "3"],
    ["dfi-scan", "--config", "separate", "--grid", "100"],
    ["verify-slh", "--config", "braided", "--theta", "0.3"],
], ids=["coeffs", "evolve", "sweep", "dfi-scan", "verify-slh"])
def test_large_finite_gamma_runs(tmp_path, argv):
    # 1e305 is below the --gamma bound: every coefficient stays finite, and
    # verify-slh's --tol is relative to the point rate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--gamma", "1e305", "--out", str(tmp_path / "x.out")]) == 0


_PI_HALF = "1.5707963267948966"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,code,message", [
    (["verify-slh", "--config", "braided", "--theta", "0.3", "--gamma", "1e6"], 0, ""),
    (["evolve", "--config", "braided", "--theta", "0.3", "--gamma", "1e307"], 1,
     "error: --gamma x --t-max must be at most 7.022e+305"),
    (["sweep", "--config", "nested", "--theta-steps", "3", "--t-steps", "3", "--gamma", "1e307"], 1,
     "error: --gamma x --t-max must be at most 7.022e+305"),
    (["sweep", "--config", "braided", "--method", "analytic", "--theta-steps", "5", "--t-steps", "5",
      "--gamma", "1e305"], 0, ""),
    (["sweep", "--config", "braided", "--method", "lindblad", "--gamma", "1e50", "--theta-min", _PI_HALF,
      "--theta-max", "1.6", "--theta-steps", "2", "--t-steps", "5"], 2, "numerical failure: "),
    (["evolve", "--config", "braided", "--theta", _PI_HALF, "--method", "lindblad", "--gamma", "1e50",
      "--dt", "1"], 2, "numerical failure: "),
], ids=["verify-slh", "evolve", "sweep", "sweep-analytic", "sweep-lindblad", "evolve-lindblad"])
def test_huge_gamma_ends_in_an_exit_code_without_warning(tmp_path, capsys, argv, code, message):
    # a CSV written is finite; a failure names the flags, or the Lindblad
    # propagator's overflow reaches the state checks
    out = tmp_path / "x.out"
    assert main([*argv, "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(message)
    if code == 0 and argv[0] != "verify-slh":
        _, _, data = read_table(out)
        assert np.isfinite(data).all() and (data[:, -1] <= 1.0).all()
    assert out.exists() == (code == 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["evolve", "--config", "braided", "--theta", "0.3"],
    ["evolve", "--config", "braided", "--theta", "0.3", "--method", "analytic"],
    ["evolve", "--config", "nested", "--theta", "0.3", "--method", "lindblad", "--dt", "1"],
    ["sweep", "--config", "nested", "--theta-steps", "3", "--t-steps", "3"],
    ["sweep", "--config", "braided", "--method", "analytic", "--theta-steps", "3", "--t-steps", "3"],
], ids=["evolve", "evolve-analytic", "evolve-lindblad", "sweep", "sweep-analytic"])
def test_gamma_times_t_max_bound(tmp_path, capsys, argv):
    # at the default t-max 4, gamma * 4 is the bound itself, and the next
    # gamma up is above it
    below = float(cli.MAX_GAMMA_T) / 4
    out = tmp_path / "x.csv"
    assert main([*argv, "--gamma", repr(below), "--out", str(out)]) == 0
    _, _, data = read_table(out)
    assert np.isfinite(data).all() and (data[:, -1] <= 1.0).all()
    out.unlink()
    above = float(np.nextafter(below, math.inf))
    assert main([*argv, "--gamma", repr(above), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --gamma x --t-max must be at most 7.022e+305, got {4 * above:g}\n"
    assert not out.exists()


@pytest.mark.parametrize("gamma", [0.8, 1.7])
def test_lindblad_evolve_runs_the_unit_rate_step_on_gamma_t(tmp_path, gamma):
    # every row of the t grid, propagated by the unit-rate coefficients in steps of gamma * dt
    out = tmp_path / "x.csv"
    assert main(["evolve", "--config", "nested", "--theta", "0.3", "--method", "lindblad",
                 "--gamma", repr(gamma), "--t-max", repr(0.5 / gamma), "--t-steps", "41",
                 "--out", str(out)]) == 0
    _, _, data = read_table(out)
    times = np.linspace(0.0, 0.5 / gamma, 41)
    step = gamma * times[1] - gamma * times[0]
    record = dynamics.evolve_lindblad(dynamics.density_from_amplitudes(dynamics.AmplitudeState(1.0, 0.0)),
                                      canonical_coefficients("nested", 1.0, 0.3), 40 * step, step, store_every=1)
    assert np.array_equal(data[:, 0], times)
    assert np.array_equal(data[:, 1:5], np.diagonal(record.states, axis1=1, axis2=2).real)
    assert np.array_equal(data[:, -1], record.concurrence)


@pytest.mark.parametrize("argv", [
    ["evolve", "--config", "braided", "--theta", "1e308"],
    ["coeffs", "--config", "braided", "--theta-max", "1.7e308"],
    ["sweep", "--config", "braided", "--theta-max", "1.7e308", "--theta-steps", "3", "--t-steps", "3"],
    # the closed form reads theta alone; the sweep checks it once by canonical_phases
    ["sweep", "--config", "braided", "--method", "analytic", "--theta-max", "1e308", "--theta-steps", "3",
     "--t-steps", "3"],
    ["sweep", "--config", "braided", "--method", "lindblad", "--theta-max", "1e308", "--theta-steps", "3",
     "--t-steps", "3"],
], ids=["evolve", "coeffs", "sweep", "sweep-analytic", "sweep-lindblad"])
def test_overflowing_theta_exits_one_naming_theta(tmp_path, capsys, argv):
    out = tmp_path / "x.out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on the way
        assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "theta must keep the connection-point phases (2i + 1) theta / 2 finite" in err
    assert "gamma" not in err
    assert not out.exists()


def test_effective_sweep_time_blocks_give_identical_bytes(tmp_path, monkeypatch):
    # one theta a block: whole 11-time columns, then each split into 4 + 4 + 3 times
    argv = ["sweep", "--config", "nested", "--theta-steps", "3", "--t-steps", "11"]
    concurrences = dynamics.amplitude_concurrences
    outputs = {}
    for block_rows, blocks in ((11, [(1, 11)] * 3), (4, [(1, 4), (1, 4), (1, 3)] * 3)):
        monkeypatch.setattr(cli, "_SWEEP_BLOCK_ROWS", block_rows)
        calls = []

        def counted(initial, shift, decay, times):
            calls.append((len(shift), len(times)))
            return concurrences(initial, shift, decay, times)

        monkeypatch.setattr(dynamics, "amplitude_concurrences", counted)
        outputs[block_rows] = tmp_path / f"blocked-{block_rows}.csv"
        assert main([*argv, "--out", str(outputs[block_rows])]) == 0
        assert calls == blocks
    assert outputs[4].read_bytes() == outputs[11].read_bytes()


@pytest.mark.parametrize("block_rows,blocks", [
    (4, [(1, 4), (1, 4), (1, 3)] * 3),
    (11, [(1, 11)] * 3),
    (22, [(2, 11), (1, 11)]),
    (1 << 14, [(3, 11)]),
], ids=["split-column", "column", "two-columns", "grid"])
@pytest.mark.parametrize("method", ["analytic", "effective"])
def test_sweep_blocks_stay_within_the_cell_bound(tmp_path, monkeypatch, method, block_rows, blocks):
    # every call gets at most _SWEEP_BLOCK_ROWS theta x t cells, and the blocks
    # cover the grid theta-major, a column longer than the bound split over t
    argv = ["sweep", "--config", "braided", "--method", method, "--theta-steps", "3", "--t-steps", "11"]
    monkeypatch.setattr(cli, "_SWEEP_BLOCK_ROWS", block_rows)
    calls = []
    if method == "analytic":
        closed_form = analytic.closed_form_concurrence_braided

        def counted(theta, t):
            calls.append((len(theta), len(t)))
            return closed_form(theta, t)

        monkeypatch.setattr(analytic, "closed_form_concurrence_braided", counted)
    else:
        concurrences = dynamics.amplitude_concurrences

        def counted(initial, shift, decay, times):
            calls.append((len(shift), len(times)))
            return concurrences(initial, shift, decay, times)

        monkeypatch.setattr(dynamics, "amplitude_concurrences", counted)
    out = tmp_path / "s.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert calls == blocks
    assert max(rows * times for rows, times in calls) <= block_rows


@pytest.mark.parametrize("kind", ["braided", "separate", "nested"])
def test_effective_sweep_matches_per_theta_trajectories(tmp_path, monkeypatch, kind):
    # blocks of two theta columns; the grid holds theta = 0, pi and 2 pi
    monkeypatch.setattr(cli, "_SWEEP_BLOCK_ROWS", 80)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", kind, "--gamma", "0.9", "--theta-steps", "25", "--t-steps", "40",
                 "--t-max", "6", "--out", str(out)]) == 0
    grid = read_table(out)[2].reshape(25, 40, 3)
    times = grid[0, :, 1]
    for row in grid:
        # the sweep runs the unit-rate coefficients at gamma * t
        single = dynamics.amplitude_trajectory(dynamics.AmplitudeState(1.0, 0.0),
                                               canonical_coefficients(kind, 1.0, row[0, 0]), 0.9 * times)
        assert np.array_equal(row[:, 2], single.concurrence)


@pytest.mark.parametrize("kind", ["braided", "separate", "nested"])
def test_effective_sweep_bytes_do_not_depend_on_the_block(tmp_path, monkeypatch, kind):
    # the whole 60 x 50 grid in one block, then one theta column a block
    argv = ["sweep", "--config", kind, "--theta-steps", "60", "--t-steps", "50"]
    for gamma in ("0.8", "1.7"):
        whole, column = tmp_path / "whole.csv", tmp_path / "column.csv"
        assert main([*argv, "--gamma", gamma, "--out", str(whole)]) == 0
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_SWEEP_BLOCK_ROWS", 50)
            assert main([*argv, "--gamma", gamma, "--out", str(column)]) == 0
        assert column.read_bytes() == whole.read_bytes(), gamma


def _coeffs_rows(tmp_path, kind, gamma, *flags):
    """Text fields of each body row of a ``coeffs --config`` table."""
    out = tmp_path / "coeffs.csv"
    assert main(["coeffs", "--config", kind, "--gamma", gamma, *flags, "--out", str(out)]) == 0
    columns, *rows = [line for line in out.read_text().splitlines() if line[0] != "#"]
    assert columns == "theta,domega_a,domega_b,g_ab,Gamma_a,Gamma_b,Gamma_coll"
    return [row.split(",") for row in rows]


@pytest.mark.parametrize("kind", ["braided", "separate", "nested"])
def test_coeffs_rows_are_the_text_of_single_theta_coefficients(tmp_path, kind):
    for gamma in ("0.8", "1.7"):
        for row in _coeffs_rows(tmp_path, kind, gamma, "--theta-steps", "1000"):
            coeffs = canonical_coefficients(kind, float(gamma), float(row[0]))
            values = [coeffs.lamb_shifts[0], coeffs.lamb_shifts[1], coeffs.exchange[0, 1],
                      coeffs.individual_decay[0], coeffs.individual_decay[1], coeffs.collective_decay[0, 1]]
            assert row[1:] == [format(v, ".17g") for v in values], (gamma, row[0])


@pytest.mark.parametrize("kind", ["braided", "separate", "nested"])
def test_verify_slh_closed_form_is_the_coeffs_row(tmp_path, capsys, kind):
    for gamma in ("0.8", "1.7"):
        for row in _coeffs_rows(tmp_path, kind, gamma, "--theta-min", "0.1", "--theta-steps", "7"):
            assert main(["verify-slh", "--config", kind, "--gamma", gamma, "--theta", row[0]]) == 0
            printed = capsys.readouterr().out.splitlines()[0]
            assert printed.startswith("closed_form: ")
            assert [field.split("=")[1] for field in printed.split()[1:]] == row[1:], (gamma, row[0])


def test_analytic_sweep_rows_equal_single_theta_calls(tmp_path):
    # each row of the CSV is exactly the closed form at that theta alone, blocks split or not
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", "braided", "--method", "analytic", "--gamma", "1.3",
                 "--theta-min", "-2", "--theta-max", "9", "--theta-steps", "37", "--t-steps", "50",
                 "--out", str(out)]) == 0
    _, _, data = read_table(out)
    grid = data.reshape(37, 50, 3)
    times = grid[0, :, 1]
    for row in grid:
        assert np.array_equal(row[:, 2], analytic.closed_form_concurrence_braided(row[0, 0], 1.3 * times))


@pytest.mark.parametrize("argv", [
    ["coeffs"],
    ["verify-slh"],
    ["evolve"],
    ["evolve", "--method", "lindblad", "--dt", "0.01"],
    ["evolve", "--method", "lindblad", "--t-max", "0.5"],
], ids=["coeffs", "verify-slh", "evolve-effective", "evolve-lindblad-dt", "evolve-lindblad"])
def test_layout_rejects_gamma_nothing_reads(tmp_path, capsys, argv):
    # the layout file fixes every rate: nothing reads --gamma
    path = tmp_path / "layout.json"
    path.write_text(layout_to_json(build_canonical(CanonicalConfig("braided", 1.0, 0.7))))
    out = tmp_path / "x.out"
    for gamma in ("5", "1"):
        assert main([*argv, "--layout", str(path), "--gamma", gamma, "--out", str(out)]) == 1
        assert "error: --gamma does not apply with --layout" in capsys.readouterr().err
        assert not out.exists()
    assert main([*argv, "--layout", str(path), "--out", str(out)]) == 0


@pytest.mark.parametrize("block_rows", ["theta", 7, "grid"])
def test_lindblad_sweep_blocks_give_identical_bytes(tmp_path, monkeypatch, block_rows):
    # 9 theta x 3 t: blocks of one theta, of two (7 rows) and of the whole grid
    argv = ["sweep", "--config", "braided", "--method", "lindblad", "--theta-min", "-1",
            "--theta-max", "4", "--theta-steps", "9", "--t-steps", "3"]
    reference = tmp_path / "reference.csv"
    assert main([*argv, "--out", str(reference)]) == 0
    rows = {"theta": 3, 7: 7, "grid": 27}[block_rows]
    monkeypatch.setattr(cli, "_SWEEP_BLOCK_ROWS", rows)
    calls = []
    many = dynamics.evolve_lindblad_many

    def counted(rho0, shift, decay, *args, **kwargs):
        calls.append(len(shift))
        return many(rho0, shift, decay, *args, **kwargs)

    monkeypatch.setattr(dynamics, "evolve_lindblad_many", counted)
    out = tmp_path / "blocked.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert calls == {"theta": [1] * 9, 7: [2, 2, 2, 2, 1], "grid": [9]}[block_rows]
    assert out.read_bytes() == reference.read_bytes()


def _count_sweep_sums(tmp_path, monkeypatch, argv, block_rows):
    """Sizes of the ``canonical_sums`` theta arrays of a sweep at ``block_rows``
    cells a block, whose bytes must equal the unblocked run's; a sweep that
    built a coefficient set fails."""
    reference = tmp_path / "reference.csv"
    assert main([*argv, "--out", str(reference)]) == 0
    monkeypatch.setattr(cli, "_SWEEP_BLOCK_ROWS", block_rows)
    calls = []
    sums = cli.canonical_sums

    def counted(kind, gamma, theta):
        calls.append(len(theta))
        return sums(kind, gamma, theta)

    def never(*args):
        raise AssertionError("a sweep built a coefficient set")

    monkeypatch.setattr(cli, "canonical_sums", counted)
    monkeypatch.setattr(cli, "canonical_coefficients", never)
    out = tmp_path / "blocked.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == reference.read_bytes()
    return calls


@pytest.mark.parametrize("block_rows", [4, 22])
@pytest.mark.parametrize("method", ["effective", "lindblad"])
def test_sweep_takes_one_canonical_sums_call_per_block(tmp_path, monkeypatch, method, block_rows):
    # 3 theta x 11 t: at 4 cells a block is one theta over at most 4 times;
    # at 22 cells two columns, then one
    argv = ["sweep", "--config", "braided", "--method", method, "--theta-steps", "3", "--t-steps", "11"]
    assert _count_sweep_sums(tmp_path, monkeypatch, argv, block_rows) == {4: [1] * 9, 22: [2, 1]}[block_rows]


@pytest.mark.parametrize("block_rows", [4, 22])
def test_analytic_sweep_takes_no_canonical_sums_call(tmp_path, monkeypatch, block_rows):
    # the closed form reads theta alone
    argv = ["sweep", "--config", "braided", "--method", "analytic", "--theta-steps", "3", "--t-steps", "11"]
    assert _count_sweep_sums(tmp_path, monkeypatch, argv, block_rows) == []


@pytest.mark.parametrize("argv,name,spec", [
    (["coeffs", "--config", "nested", "--gamma", "1.5", "--theta-over-pi", "--theta-min", "0.25",
      "--theta-max", "1.75", "--theta-steps", "5"], "c.csv",
     '# spec: {"command": "coeffs", "configuration": "nested", "gamma": 1.5, "theta_max": '
     '5.497787143782138, "theta_min": 0.7853981633974483, "theta_steps": 5}'),
    (["evolve", "--config", "separate", "--gamma", "0.8", "--theta-over-pi", "--theta", "0.5",
      "--t-max", "1", "--t-steps", "5", "--c-eg", "0.6", "--c-ge", "0.8j"], "e.csv",
     '# spec: {"c_eg": "0.6", "c_ge": "0.8j", "command": "evolve", "configuration": "separate", '
     '"gamma": 0.8, "method": "effective", "t_max": 1.0, "t_steps": 5, "theta": 1.5707963267948966}'),
    (["sweep", "--config", "braided", "--gamma", "2", "--theta-over-pi", "--theta-min", "0.1",
      "--theta-max", "0.9", "--theta-steps", "3", "--t-max", "1", "--dt", "0.25"], "s.csv",
     '# spec: {"command": "sweep", "configuration": "braided", "dt": 0.25, "gamma": 2.0, "method": '
     '"effective", "t_max": 1.0, "theta_max": 2.827433388230814, "theta_min": 0.3141592653589793, '
     '"theta_steps": 3}'),
    (["dfi-scan", "--config", "nested", "--gamma", "2", "--theta-over-pi", "--theta-min", "0.1",
      "--theta-max", "1.1", "--grid", "500", "--tol-decay", "1e-8", "--tol-exchange", "0.01"], "d.json",
     '{"command": "dfi-scan", "configuration": "nested", "gamma": 2.0, "grid": 500, "theta_max": '
     '3.455751918948773, "theta_min": 0.3141592653589793, "tol_decay": 1e-08, "tol_exchange": 0.01}'),
    (["verify-slh", "--config", "braided", "--gamma", "1.3", "--theta-over-pi", "--theta", "0.25",
      "--tol", "1e-9"], "v.json",
     '{"command": "verify-slh", "configuration": "braided", "gamma": 1.3, "theta": 0.7853981633974483, '
     '"tol": 1e-09}'),
], ids=["coeffs", "evolve", "sweep", "dfi-scan", "verify-slh"])
def test_spec_record_is_pinned(tmp_path, capsys, argv, name, spec):
    # the recorded spec of each subcommand, byte for byte: theta flags scaled by
    # --theta-over-pi, --gamma and the default --method recorded, --out left out
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    if name.endswith(".csv"):
        assert [line for line in out.read_text().splitlines() if line.startswith("# spec:")] == [spec]
    else:
        assert json.dumps(json.loads(out.read_text())["meta"]["spec"]) == spec


@pytest.mark.parametrize("argv,message", [
    (["verify-slh", "--config", "nested", "--theta", "0.7", "--tol", "-1"], "--tol must be positive, got -1.0"),
    (["verify-slh", "--config", "nested", "--theta", "0.7", "--tol", "0"], "--tol must be positive, got 0.0"),
    (["dfi-scan", "--config", "nested", "--tol-decay", "-1"], "--tol-decay must be positive, got -1.0"),
    (["dfi-scan", "--config", "nested", "--tol-exchange", "-1"], "--tol-exchange must be positive, got -1.0"),
    (["dfi-scan", "--config", "nested", "--grid", "50"], "--grid must be at least 100 points, got 50"),
    (["coeffs", "--config", "braided", "--gamma", "-1"], "--gamma must be positive, got -1.0"),
], ids=["tol", "tol-zero", "tol-decay", "tol-exchange", "grid", "gamma"])
def test_bad_tolerance_grid_and_gamma_exit_one_naming_flag(tmp_path, capsys, argv, message):
    out = tmp_path / "x.out"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["dfi-scan", "--config", "nested", "--theta-steps", "5"],
    ["coeffs", "--config", "braided", "--theta", "0.5"],
    ["coeffs", "--config", "braided", "--t-max", "2"],
    ["evolve", "--config", "braided", "--theta", "0.5", "--grid", "200"],
    ["sweep", "--config", "braided", "--tol", "1e-3"],
    ["verify-slh", "--config", "braided", "--theta", "0.5", "--method", "lindblad"],
], ids=["dfi-scan-theta-steps", "coeffs-theta", "coeffs-t-max", "evolve-grid", "sweep-tol",
        "verify-slh-method"])
def test_subcommand_rejects_flags_it_does_not_read(tmp_path, capsys, argv):
    out = tmp_path / "x.out"
    assert main([*argv, "--out", str(out)]) == 1
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert not out.exists()


def test_run_spec_defaults_and_unknown_field():
    spec = RunSpec(command="evolve", theta=0.5)
    assert spec.gamma == 1.0 and spec.theta == 0.5
    assert spec.method is None and spec.out is None and spec.tol is None
    assert spec.meta_json() == '{"command": "evolve", "gamma": 1.0, "theta": 0.5}'
    with pytest.raises(TypeError, match="unknown RunSpec fields: tehta, theta_over_pi"):
        RunSpec(command="evolve", tehta=0.5, theta_over_pi=True)


@pytest.mark.parametrize("flags,rows", [([], 400), (["--t-steps", "57"], 57), (["--dt", "0.013"], 308)],
                         ids=["default", "t-steps", "dt"])
def test_evolve_lindblad_writes_the_effective_t_grid(tmp_path, flags, rows):
    # one time-grid rule for every method: the t column's text byte for byte,
    # and the populations and concurrence of the amplitudes to roundoff
    bodies = {}
    for method in ("effective", "lindblad"):
        out = tmp_path / f"{method}.csv"
        assert main(["evolve", "--config", "separate", "--theta", "0.4", "--gamma", "1.3", "--c-eg", "0.6",
                     "--c-ge", "0.8j", "--method", method, *flags, "--out", str(out)]) == 0
        bodies[method] = [line.split(",") for line in out.read_text().splitlines()[4:]]
    assert len(bodies["effective"]) == len(bodies["lindblad"]) == rows
    assert [row[0] for row in bodies["lindblad"]] == [row[0] for row in bodies["effective"]]
    amplitudes = np.array(bodies["effective"], dtype=float)
    populations = np.array(bodies["lindblad"], dtype=float)
    expected = np.column_stack([amplitudes[:, 1] ** 2 + amplitudes[:, 2] ** 2,
                                amplitudes[:, 3] ** 2 + amplitudes[:, 4] ** 2, amplitudes[:, 5]])
    np.testing.assert_allclose(populations[:, [2, 3, 5]], expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("block_rows,steps", [(3, [2, 3, 3, 2]), (7, [6, 4])], ids=["3-rows", "7-rows"])
def test_lindblad_runs_split_over_time_give_identical_bytes(tmp_path, monkeypatch, block_rows, steps):
    # 11 times in blocks of 3 or 7 rows: each block after a column's first
    # continues from the state the one before ended in, one step before its rows
    runs = {"evolve": ["evolve", "--config", "nested", "--theta", "0.9", "--c-eg", "0.6", "--c-ge", "0.8j"],
            "sweep": ["sweep", "--config", "nested", "--theta-steps", "2"]}
    many = dynamics.evolve_lindblad_many
    for name, argv in runs.items():
        argv = [*argv, "--method", "lindblad", "--gamma", "1.7", "--t-max", "2", "--t-steps", "11"]
        reference, out = tmp_path / f"{name}-reference.csv", tmp_path / f"{name}-blocked.csv"
        assert main([*argv, "--out", str(reference)]) == 0
        calls = []

        def counted(rho0, shift, decay, t_max, dt, store_every):
            calls.append((len(shift), round(t_max / dt), store_every))
            return many(rho0, shift, decay, t_max, dt, store_every)

        with monkeypatch.context() as patch:
            patch.setattr(cli, "_SWEEP_BLOCK_ROWS", block_rows)
            patch.setattr(dynamics, "evolve_lindblad_many", counted)
            assert main([*argv, "--out", str(out)]) == 0
        assert calls == [(1, n, 1) for n in steps] * (1 if name == "evolve" else 2)
        assert out.read_bytes() == reference.read_bytes(), name


def test_lindblad_failure_in_a_later_block_names_its_first_row(tmp_path, capsys, monkeypatch):
    # a lossless run at the nested DFI point drifts past a state check within
    # the horizon (ROADMAP item 7); split over time, the failing state is the same
    out = tmp_path / "x.csv"
    argv = ["evolve", "--config", "nested", "--theta", "0.7853981633974483", "--method", "lindblad",
            "--dt", "0.01", "--gamma", "1e6", "--out", str(out)]
    assert main(argv) == 2
    message, row = capsys.readouterr().err[:-1].rsplit(" at step ", 1)
    row = int(row)
    assert message.startswith("numerical failure: ") and row >= 2
    rows = (row + 1) // 2  # the failing row lies in the second or a later block
    monkeypatch.setattr(cli, "_SWEEP_BLOCK_ROWS", rows)
    assert main(argv) == 2
    first = row // rows * rows - 1  # the state the failing block starts from
    assert capsys.readouterr().err == f"{message} at step {row - first} of the block from grid row {first}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["evolve", "--theta", "0.3"], ["coeffs", "--theta-steps", "5"],
                                  ["verify-slh", "--theta", "0.3"]], ids=["evolve", "coeffs", "verify-slh"])
def test_missing_source_names_config(tmp_path, capsys, argv):
    # a theta flag without --config is no theta flag "with --layout"
    out = tmp_path / "x.out"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: this command requires --layout or --config\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "dfi-scan"])
def test_config_only_commands_take_no_layout(tmp_path, capsys, command):
    # --layout is not one of their flags, so its file is never read
    out = tmp_path / "x.out"
    assert main([command, "--layout", os.devnull, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: unrecognized arguments: --layout {os.devnull}\n"
    assert main([command, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {command} requires --config\n"
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--c-ge", "-0.8j"), ("--theta", "-1e-3"), ("--c-eg", "-6e-1")])
def test_negative_values_in_exponent_or_complex_form(tmp_path, capsys, flag, value):
    # argparse alone takes only values like -1 and -0.5 after a flag; no
    # gawsim option starts with -<digit>, so these are values too
    flags = {"--theta": "0.3", "--c-eg": "0.6", "--c-ge": "0.8", flag: value}
    argv = ["evolve", "--config", "braided", "--t-steps", "5"]
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert main([*argv, *(part for item in flags.items() for part in item), "--out", str(spaced)]) == 0
    assert main([*argv, *(f"{name}={text}" for name, text in flags.items()), "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    assert main([*argv, "--theta", "-x", "--out", str(spaced)]) == 1
    assert capsys.readouterr().err == "error: argument --theta: expected one argument\n"
