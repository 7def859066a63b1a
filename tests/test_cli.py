"""CLI exit codes, report files, and the benchmark driver."""

import inspect
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from frameopt import cli, moments, sdp
from frameopt.cli import (
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    METHODS,
    SolveSettings,
    main,
    run_benchmark,
    run_method,
)
from frameopt.local import OcConfig
from frameopt.model import ModelError
from frameopt.moments import build_relaxation, scale_problem
from frameopt.problems import benchmark_case, cantilever
from frameopt.sdp import _BlockData, _Presolve

from conftest import run_python, save_problem

CANT3_AREAS = "0.141767,0.102424,0.055809"


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    code = main(["optimize", "cantilever-3", "--method", "oc", "--bogus"])
    assert code == EXIT_USAGE
    assert "usage" in capsys.readouterr().err


def test_unknown_method_is_usage_error(capsys):
    assert main(["optimize", "cantilever-3", "--method", "zen"]) == EXIT_USAGE


def test_missing_problem_is_usage_error(capsys):
    code = main(["analyze", "atlantis", "--areas", "0.1"])
    assert code == EXIT_USAGE
    assert "neither a file nor a packaged problem" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, message", [
    pytest.param("--eta", "0", "--eta must be positive", id="0"),
    pytest.param("--eta", "-0.3", "--eta must be positive", id="-0.3"),
    pytest.param("--zeta", "0", "--zeta must be in (0, 1]", id="zeta-0"),
    pytest.param("--zeta", "-0.5", "--zeta must be in (0, 1]", id="zeta-negative"),
    pytest.param("--zeta", "1.5", "--zeta must be in (0, 1]", id="zeta-above-1"),
    pytest.param("--eps", "-0.01", "--eps must be non-negative", id="eps-negative"),
    pytest.param("--order-max", "0", "--order-max must be at least 1", id="order-max-0"),
    pytest.param("--order-max", "-2", "--order-max must be at least 1", id="order-max-negative"),
])
def test_nonpositive_eta_is_usage_error(option, value, message, capsys):
    # Out-of-range solver options are refused before any solve.
    code = main(["optimize", "cantilever-3", "--method", "oc", option, value])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "-1e-9", "nan", "inf"])
@pytest.mark.parametrize("command", [
    ["optimize", "cantilever-1", "--method", "po"],
    ["certify", "cantilever-1", "--areas", "0.1", "--order", "1"],
    ["bench", "--case", "cantilever-1", "--methods", "po"]])
def test_bad_gap_tol_is_usage_error(command, value, tmp_path, capsys, monkeypatch):
    # A negative gap tolerance calls a consistent bound pair failed, and a
    # NaN one can never certify: both are refused before any solve.
    monkeypatch.setattr(cli, "solve_relaxation", None)
    monkeypatch.setattr(cli, "run_hierarchy", None)
    out = tmp_path / "bench"
    argv = command + ["--out", str(out)] if command[0] == "bench" else command
    assert main(argv + [f"--gap-tol={value}"]) == EXIT_USAGE
    assert "--gap-tol must be non-negative and finite" in capsys.readouterr().err
    assert not out.exists()


def test_zero_gap_tol_is_accepted(capsys):
    code = main(["certify", "cantilever-1", "--areas", "0.1", "--order", "1", "--gap-tol", "0"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["r"] == 1


@pytest.mark.parametrize("command", ["analyze", "certify", "render"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_areas_are_usage_errors(command, bad, tmp_path, capsys):
    # NaN passes a sign check and inf leaves every other member at width 0;
    # neither reaches a solve or a drawing.
    out = tmp_path / "design.svg"
    argv = [command, "cantilever-3", "--areas", f"0.1,{bad},0.05"]
    argv += {"certify": ["--order", "1"], "render": ["--out", str(out)]}.get(command, [])
    assert main(argv) == EXIT_USAGE
    assert "areas must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_wrong_area_count_is_usage_error(capsys):
    assert main(["analyze", "cantilever-3", "--areas", "0.1"]) == EXIT_USAGE


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK


def test_analyze_reports_compliance(capsys):
    code = main(["analyze", "cantilever-3", "--areas", CANT3_AREAS])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    value = float(next(l for l in out.splitlines()
                       if l.startswith("compliance")).split()[1])
    assert value == pytest.approx(80.302240, rel=1e-5)


def test_analyze_accepts_area_file(tmp_path, capsys):
    path = tmp_path / "areas.txt"
    path.write_text(CANT3_AREAS.replace(",", "\n"), encoding="utf-8")
    assert main(["analyze", "cantilever-3", "--areas", str(path)]) == EXIT_OK


def test_optimize_writes_reports(tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["optimize", "cantilever-3", "--method", "oc",
                 "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "cantilever-3.json").read_text())
    result = report["results"][0]
    assert result["method"] == "oc"
    assert result["status"] == "converged"
    assert result["compliance"] == pytest.approx(80.302240, rel=1e-4)
    assert result["verified_compliance"] == pytest.approx(
        result["compliance"], rel=2e-6)
    assert result["iterations"] > 0
    assert result["message"] == f"{result['iterations']} iterations"
    assert result["reason"] == "criterion met"
    phases = result["phase_s"]
    assert set(phases) == {"fem", "rest"}
    assert phases["fem"] > 0.0 and phases["rest"] >= 0.0
    assert phases["fem"] + phases["rest"] <= result["seconds"]
    csv_text = (out / "report.csv").read_text()
    assert csv_text.startswith("case,method,status,compliance,gap,time_s")
    assert "cantilever-3,oc,converged" in csv_text
    svg = (out / "cantilever-3-oc.svg").read_text()
    assert svg.startswith("<svg ") and svg.count("<line ") == 3


def test_optimize_reports_counts_next_to_iterations(tmp_path):
    # nsdp reports its penalty evaluations and their banded factorizations,
    # nlp its KKT residual at exit; the other methods leave them null.
    def report(method):
        out = tmp_path / method
        assert main(["optimize", "cantilever-3", "--method", method,
                     "--out", str(out)]) == EXIT_OK
        return json.loads((out / "cantilever-3.json").read_text())["results"][0]

    nsdp = report("nsdp")
    assert nsdp["evaluations"] >= nsdp["iterations"] > 0
    assert nsdp["eig_solves"] >= nsdp["evaluations"]
    assert nsdp["kkt_residual"] is None
    nlp = report("nlp")
    assert 0.0 <= nlp["kkt_residual"] <= 1e-6
    assert nlp["evaluations"] is None and nlp["eig_solves"] is None
    oc = report("oc")
    assert (oc["evaluations"], oc["eig_solves"], oc["kkt_residual"]) == (None, None, None)


@pytest.mark.parametrize("method", ["oc", "nlp"])
def test_optimize_budget_below_area_floor_is_error(method, tmp_path, capsys):
    # eps * total length = 1e-6 exceeds the budget, so no design fits.
    path = tmp_path / "tiny.json"
    save_problem(cantilever(1, volume_bound=1e-9), path)
    assert run_method(cantilever(1, volume_bound=1e-9), method).status == "error"
    code = main(["optimize", str(path), "--method", method])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "minimum-area floor" in err
    assert "Traceback" not in err


def test_optimize_po_certifies_cantilever3(capsys):
    code = main(["optimize", "cantilever-3", "--method", "po",
                 "--order-max", "2"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "certified-optimal" in out
    assert "80.30" in out


def test_optimize_nsdp_girder_is_infeasible(capsys):
    assert main(["optimize", "girder", "--method", "nsdp"]) == EXIT_INFEASIBLE


def test_certify_flat_design(capsys):
    code = main(["certify", "cantilever-1", "--areas", "0.1", "--order", "1"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["certified"] is True
    assert report["c_lower"] == pytest.approx(107.5, rel=1e-3)
    assert report["sdp_reason"] == "certified and flat"
    assert report["sdp_status"] == "stopped"
    assert 1 <= report["lower_iteration"] <= report["sdp_iterations"]
    assert report["n_moments"] == 6  # monomials of degree <= 2 in 2 variables
    assert set(report["phase_s"]) == {"scaling", "schur", "factor", "step", "metrics"}
    assert report["schur_gflop"] > 0.0
    assert list(report) == \
        list(run_method(cantilever(1), "po", SolveSettings(order_max=1)).orders[0])


def test_certify_bounds_a_starved_solve(capsys, monkeypatch):
    # One interior-point iteration ends short of tolerance; the bound its Z
    # proves is weak but valid, so certify reports it instead of failing.
    monkeypatch.setattr(sdp, "MAX_ITER", 1)
    code = main(["certify", "cantilever-1", "--areas", "0.1", "--order", "1"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert math.isfinite(report["c_lower"]) and report["c_lower"] <= 107.5
    assert report["certified"] is False
    # The report says that the solve was capped.
    assert report["sdp_status"] == "numerical-failure"
    assert report["sdp_reason"] == "iteration limit"
    assert report["sdp_iterations"] == report["lower_iteration"] == 1


def test_certify_rejects_volume_violation(capsys):
    code = main(["certify", "cantilever-1", "--areas", "0.2", "--order", "1"])
    assert code == EXIT_INFEASIBLE
    assert "exceeds bound" in capsys.readouterr().err


def test_certify_rejects_bad_order(capsys):
    code = main(["certify", "cantilever-1", "--areas", "0.1", "--order", "0"])
    assert code == EXIT_USAGE


def test_render_writes_svg(tmp_path, capsys):
    out = tmp_path / "design.svg"
    code = main(["render", "tenbeam", "--out", str(out), "--areas",
                 "0.0695,0,0.1859,0,0.0425,0,0.0979,0,0.0635,0"])
    assert code == EXIT_OK
    text = out.read_text(encoding="utf-8")
    assert text.startswith("<svg ") and text.count("<line ") == 5


def test_bench_single_case_writes_reports(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(["bench", "--case", "cantilever-1", "--out", str(out)])
    assert code == EXIT_OK
    rows = (out / "report.csv").read_text().strip().splitlines()
    assert len(rows) == 5  # header + four methods
    report = json.loads((out / "cantilever-1.json").read_text())
    assert [r["method"] for r in report["results"]] == \
        ["oc", "nlp", "nsdp", "po"]
    po = report["results"][-1]
    assert po["status"] == "certified-optimal"
    assert po["orders"][0]["certified"] is True
    assert json.loads(json.dumps(report)) == report


def test_bench_methods_filter(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(["bench", "--case", "cantilever-3", "--methods", "oc,nlp",
                 "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "cantilever-3.json").read_text())
    assert [r["method"] for r in report["results"]] == ["oc", "nlp"]


def test_bench_unknown_case_is_usage_error(tmp_path, capsys):
    code = main(["bench", "--case", "bridge", "--out", str(tmp_path)])
    assert code == EXIT_USAGE


def test_bench_requires_out_dir(capsys):
    assert main(["bench", "--case", "cantilever-1"]) == EXIT_USAGE


def test_run_method_verifies_compliance():
    gs = cantilever(3)
    result = run_method(gs, "oc")
    assert result.status == "converged"
    assert result.verified_compliance == pytest.approx(
        result.compliance, rel=1e-9)
    assert result.exit_code == EXIT_OK


def test_run_method_po_reports_orders():
    gs = cantilever(3)
    result = run_method(gs, "po", SolveSettings(order_max=1))
    assert result.status == "bounded"
    assert result.exit_code == EXIT_OK
    assert len(result.orders) == 1
    assert result.gap == pytest.approx(44.9, rel=0.05)
    assert result.lower == pytest.approx(35.81, rel=0.02)
    row = result.orders[0]
    assert row["r"] == 1 and row["c_lower"] == pytest.approx(result.lower)
    assert row["sdp_status"] == "stopped"
    assert isinstance(row["sdp_reason"], str) and row["sdp_reason"]
    assert row["sdp_iterations"] > 0
    assert 1 <= row["lower_iteration"] <= row["sdp_iterations"]
    assert row["n_moments"] == 15  # monomials of degree <= 2 in 4 variables
    assert set(row["phase_s"]) == {"scaling", "schur", "factor", "step", "metrics"}
    assert all(t >= 0.0 for t in row["phase_s"].values())
    assert sum(row["phase_s"].values()) > 0.0
    report = json.loads(json.dumps(result.to_dict()))
    assert report["iterations"] is None
    assert report["reason"] is None
    assert report["phase_s"] is None
    assert report["orders"][0]["phase_s"] == row["phase_s"]
    p = _Presolve(build_relaxation(scale_problem(gs), 1).problem).problem
    flops = sum(_BlockData(blk, p.m).flops for blk in p.blocks)
    assert row["schur_gflop"] == pytest.approx(flops / 1e9, rel=1e-12)
    assert result.message == ""


def test_run_method_po_without_a_design_fails(monkeypatch, capsys):
    # The order-1 basis of cantilever-3 has C(6, 2) = 15 monomials.
    monkeypatch.setattr(moments, "BASIS_LIMIT", 10)
    result = run_method(cantilever(3), "po", SolveSettings(order_max=2))
    assert result.status == "failed" and result.exit_code == EXIT_NUMERICAL
    assert result.compliance is None and result.orders == []
    assert result.message.startswith("no order yielded a design; order 1 skipped: ")
    assert result.message.endswith("exceeds the 10 limit")
    code = main(["optimize", "cantilever-3", "--method", "po", "--order-max", "2"])
    assert code == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert "exceeds the 10 limit" in out and "Traceback" not in out + err
    # An order skipped after one that gave a design is named too.
    monkeypatch.setattr(moments, "BASIS_LIMIT", 20)
    result = run_method(cantilever(3), "po", SolveSettings(order_max=2))
    assert result.status == "bounded" and len(result.orders) == 1
    assert result.message.startswith("order 2 skipped: ")


def test_run_benchmark_respects_case_methods():
    case = benchmark_case("cantilever-150")
    report = run_benchmark(case, methods=("oc", "po"))
    assert [r.method for r in report.results] == ["oc"]
    assert report.results[0].status == "converged"
    areas = report.results[0].areas
    assert np.all(np.diff(areas) <= 1e-6)


# Every setting at a value other than its default.
SETTINGS = SolveSettings(eps=2e-6, zeta=0.25, eta=0.4, gap_tol=1e-3,
                         order_max=3, nsdp_gentle=True)


def record_solvers(monkeypatch) -> dict:
    """Replace the four solvers that cli calls with recorders of their
    bound arguments, defaults filled in.  A recorder raises ModelError, so
    run_method reports status "error" without solving anything."""
    calls = {}
    for name in ("run_oc", "run_local_nlp", "run_nsdp_local", "run_hierarchy"):
        def record(*args, _name=name, _sig=inspect.signature(getattr(cli, name)),
                   **kwargs):
            bound = _sig.bind(*args, **kwargs)
            bound.apply_defaults()
            calls[_name] = bound.arguments
            raise ModelError("recorded")
        monkeypatch.setattr(cli, name, record)
    return calls


def test_run_method_hands_every_setting_to_its_solver(monkeypatch):
    calls = record_solvers(monkeypatch)
    gs = cantilever(3)
    for method in METHODS:
        assert run_method(gs, method, SETTINGS).status == "error"
    assert calls["run_oc"]["cfg"] == OcConfig(eps=2e-6, zeta=0.25, eta=0.4)
    assert calls["run_local_nlp"]["eps"] == 2e-6
    assert calls["run_nsdp_local"]["rho_growth"] == math.sqrt(10.0)
    assert calls["run_hierarchy"]["r_max"] == 3
    assert calls["run_hierarchy"]["gap_tol"] == 1e-3
    run_method(gs, "nsdp", replace(SETTINGS, nsdp_gentle=False))
    assert calls["run_nsdp_local"]["rho_growth"] == 10.0


def test_run_benchmark_takes_order_and_gentle_from_the_case(monkeypatch):
    calls = record_solvers(monkeypatch)
    # cantilever-3: po_order 2, nsdp_gentle; the settings say 3 and not gentle.
    run_benchmark(benchmark_case("cantilever-3"),
                  settings=replace(SETTINGS, nsdp_gentle=False))
    assert calls["run_oc"]["cfg"] == OcConfig(eps=2e-6, zeta=0.25, eta=0.4)
    assert calls["run_local_nlp"]["eps"] == 2e-6
    assert calls["run_nsdp_local"]["rho_growth"] == math.sqrt(10.0)
    assert calls["run_hierarchy"]["r_max"] == 2
    assert calls["run_hierarchy"]["gap_tol"] == 1e-3
    # tenbeam: po_order 2, not gentle; the settings say 3 and gentle.
    run_benchmark(benchmark_case("tenbeam"), methods=("nsdp", "po"), settings=SETTINGS)
    assert calls["run_nsdp_local"]["rho_growth"] == 10.0
    assert calls["run_hierarchy"]["r_max"] == 2


def test_python_dash_m_frameopt_runs_cleanly():
    # The package's __main__ calls cli.main; running frameopt.cli as a script
    # would execute the module a second time beside the imported one.
    run = run_python("-m", "frameopt", "analyze", "cantilever-3",
                     "--areas", "0.141767,0.102424,0.055809")
    assert (run.returncode, run.stderr) == (0, "")
    assert "compliance   80.3022395" in run.stdout
