"""Command-line interface and benchmark reporting.

Subcommands: analyze, optimize, certify, bench, render.  Exit codes:
0 success, 1 usage error, 2 numerical failure, 3 infeasible result.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from frameopt.analysis import DanglingLoadError, SingularSystemError, compliance
from frameopt.local import BracketError, OcConfig, run_local_nlp, run_oc
from frameopt.model import GroundStructure, ModelError
from frameopt.moments import (
    GAP_TOL,
    HierarchyResult,
    build_relaxation,
    gap_certificate,
    rank_certificate,
    run_hierarchy,
    scale_problem,
    sdp_outcome,
    solve_relaxation,
)
from frameopt.nsdp import RHO_GROWTH, run_nsdp_local
from frameopt.problems import (
    benchmark_case,
    build_benchmarks,
    load_problem,
    packaged_problem,
)
from frameopt.render import render_topology

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_INFEASIBLE = 3

METHODS = ("oc", "nlp", "nsdp", "po")

# Relative mismatch allowed between a reported compliance and its
# recomputation from the reported areas through the analysis path.
VERIFY_RTOL = 1e-6

_LOCAL_EXIT = {
    "converged": EXIT_OK,
    "iter-limit": EXIT_NUMERICAL,
    "infeasible-point": EXIT_INFEASIBLE,
}


class _UsageError(Exception):
    """Bad arguments or unusable input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


@dataclass
class SolveSettings:
    """Knobs shared by the optimize and bench commands."""

    eps: float = OcConfig.eps
    zeta: float = OcConfig.zeta
    eta: float = OcConfig.eta
    gap_tol: float = GAP_TOL
    order_max: int = 2
    # Gentler nsdp penalty growth, sqrt(RHO_GROWTH) per stage; serial chains
    # stall under the full steps.
    nsdp_gentle: bool = False


@dataclass
class MethodResult:
    """One method's outcome on one problem, ready for reporting: `iterations`
    to `diagnostics` are the solver's run record, unset on an error."""

    method: str
    status: str
    compliance: float | None
    areas: np.ndarray | None
    seconds: float
    gap: float | None = None
    lower: float | None = None
    orders: list[dict] = field(default_factory=list)
    verified_compliance: float | None = None
    message: str = ""
    iterations: int | None = None
    reason: str | None = None
    phase_s: dict | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        if self.status == "verification-mismatch" or self.status == "error":
            return EXIT_NUMERICAL
        if self.method == "po":
            return EXIT_OK if self.status in ("certified-optimal", "bounded") \
                else EXIT_NUMERICAL
        return _LOCAL_EXIT.get(self.status, EXIT_NUMERICAL)

    def to_dict(self) -> dict:
        def num(v):
            if v is None:
                return None
            v = float(v)
            return v if math.isfinite(v) else None

        return {
            "method": self.method,
            "status": self.status,
            "compliance": num(self.compliance),
            "gap": num(self.gap),
            "lower_bound": num(self.lower),
            "seconds": round(self.seconds, 6),
            "verified_compliance": num(self.verified_compliance),
            "areas": None if self.areas is None
                     else [float(a) for a in self.areas],
            "orders": self.orders,
            "iterations": self.iterations,
            # The counts of the methods that keep them, null for the others.
            "evaluations": self.diagnostics.get("evaluations"),
            "eig_solves": self.diagnostics.get("eig_solves"),
            "kkt_residual": num(self.diagnostics.get("kkt_residual")),
            "reason": self.reason,
            "phase_s": self.phase_s,
            "message": self.message,
        }


@dataclass
class BenchReport:
    """All method results for one benchmark case."""

    case: str
    results: list[MethodResult]

    def to_dict(self) -> dict:
        return {"case": self.case,
                "results": [r.to_dict() for r in self.results]}


def run_method(gs: GroundStructure, method: str,
               settings: SolveSettings | None = None) -> MethodResult:
    """Run one solution method and verify its compliance through the FEM."""
    cfg = settings or SolveSettings()
    if method not in METHODS:
        raise _UsageError(f"unknown method {method!r}; choose from "
                          + ", ".join(METHODS))
    t0 = time.perf_counter()
    try:
        if method == "po":
            res = run_hierarchy(gs, r_max=cfg.order_max, gap_tol=cfg.gap_tol)
        elif method == "oc":
            res = run_oc(gs, OcConfig(eps=cfg.eps, zeta=cfg.zeta, eta=cfg.eta))
        elif method == "nlp":
            res = run_local_nlp(gs, eps=cfg.eps)
        else:
            res = run_nsdp_local(gs, rho_growth=math.sqrt(RHO_GROWTH) if cfg.nsdp_gentle
                                 else RHO_GROWTH)
    except (SingularSystemError, DanglingLoadError, ModelError,
            BracketError) as exc:
        return MethodResult(method=method, status="error", compliance=None,
                            areas=None, seconds=time.perf_counter() - t0,
                            message=str(exc))
    seconds = time.perf_counter() - t0
    extra = _po_bounds(res) if method == "po" else {"message": f"{res.iterations} iterations"}
    out = MethodResult(method=method, status=res.status, compliance=res.compliance,
                       areas=res.areas, seconds=seconds, iterations=res.iterations,
                       reason=res.reason, phase_s=res.phase_s, diagnostics=res.diagnostics,
                       **extra)
    _verify(gs, out)
    return out


# The report key of each field of moments.sdp_outcome, in report order.
_SDP_REPORT_KEYS = {"lower_iteration": "lower_iteration", "status": "sdp_status",
                    "reason": "sdp_reason", "sdp_iterations": "sdp_iterations",
                    "n_moments": "n_moments", "phase_s": "phase_s",
                    "schur_gflop": "schur_gflop"}


def _sdp_report(outcome: dict) -> dict:
    """An order's SDP outcome under its report keys."""
    return {key: outcome[name] for name, key in _SDP_REPORT_KEYS.items()}


def _po_bounds(hr: HierarchyResult) -> dict:
    """po's gap and kept lower bound; its certificate rows, each with the SDP
    outcome of its order; and a message naming the orders skipped, led by a
    note if none gave a design."""
    last = hr.certificates[-1] if hr.certificates else None
    by_order = {o["r"]: o for o in hr.diagnostics["orders"]}
    notes = [f"order {r} {o['status']}" for r, o in by_order.items()
             if o["status"].startswith("skipped")]
    if hr.compliance is None:
        notes.insert(0, "no order yielded a design")
    return {"gap": None if last is None or not math.isfinite(last.gap) else last.gap,
            "lower": hr.lower if math.isfinite(hr.lower) else None,
            "orders": [{**cert.report(), **_sdp_report(by_order[cert.order])}
                       for cert in hr.certificates],
            "message": "; ".join(notes)}


def _verify(gs: GroundStructure, result: MethodResult) -> None:
    """Recompute compliance from the reported areas; flag mismatches."""
    if result.compliance is None or result.areas is None:
        return
    try:
        check = compliance(gs, result.areas).compliance
    except (SingularSystemError, DanglingLoadError) as exc:
        result.status = "verification-mismatch"
        result.message = f"verification solve failed: {exc}"
        return
    result.verified_compliance = check
    rel = abs(check - result.compliance) / max(1.0, abs(check))
    if rel > VERIFY_RTOL:
        result.status = "verification-mismatch"
        result.message = (f"reported {result.compliance:.9g} vs "
                          f"recomputed {check:.9g}")


def run_benchmark(case, methods=None,
                  settings: SolveSettings | None = None) -> BenchReport:
    """Run the requested methods of one benchmark case and collect results."""
    cfg = settings or SolveSettings()
    cfg = replace(cfg, order_max=case.po_order or cfg.order_max,
                  nsdp_gentle=case.nsdp_gentle)
    wanted = case.methods if methods is None else \
        tuple(m for m in case.methods if m in methods)
    gs = case.build()
    results = [run_method(gs, m, cfg) for m in wanted]
    return BenchReport(case=case.name, results=results)


# -- report files -------------------------------------------------------------

CSV_FIELDS = ("case", "method", "status", "compliance", "gap", "time_s",
              "areas")


def _csv_row(case: str, r: MethodResult) -> dict:
    def num(v):
        return "" if v is None or not math.isfinite(v) else f"{v:.9g}"

    return {
        "case": case,
        "method": r.method,
        "status": r.status,
        "compliance": num(r.compliance),
        "gap": num(r.gap),
        "time_s": f"{r.seconds:.3f}",
        "areas": "" if r.areas is None
                 else " ".join(f"{a:.6g}" for a in r.areas),
    }


def write_reports(report: BenchReport, gs: GroundStructure,
                  out_dir: Path, eps: float = OcConfig.eps) -> None:
    """Emit {case}.json, append to report.csv, and render one SVG per design."""
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{report.case}.json"
    json_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n",
                         encoding="utf-8")
    csv_path = out_dir / "report.csv"
    new_file = not csv_path.exists()
    with csv_path.open("a", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        if new_file:
            writer.writeheader()
        for r in report.results:
            writer.writerow(_csv_row(report.case, r))
    for r in report.results:
        if r.areas is not None:
            render_topology(gs, r.areas,
                            out_dir / f"{report.case}-{r.method}.svg",
                            eps=eps)


def _print_result(case: str, r: MethodResult, stream=None) -> None:
    stream = stream or sys.stdout
    c = "-" if r.compliance is None else f"{r.compliance:.6f}"
    line = f"{case:<16} {r.method:<5} {r.status:<20} {c:>14} {r.seconds:7.2f}s"
    if r.message:
        line += f"  ({r.message})"
    print(line, file=stream)
    for row in r.orders:
        lo, hi = row["c_lower"], row["c_upper"]
        verdict = "certified" if row["certified"] else "open"
        print(f"{'':16} r={row['r']}: lower {lo:.6f}  upper {hi:.6f}  "
              f"gap {row['gap']:.3g}  [{verdict}]", file=stream)
    if r.areas is not None:
        areas = " ".join(f"{a:.6g}" for a in r.areas)
        print(f"{'':16} areas: {areas}", file=stream)


# -- subcommands ---------------------------------------------------------------

def _resolve_problem(ref: str) -> tuple[GroundStructure, str]:
    """Interpret ref as a file path first, then as a packaged problem name."""
    path = Path(ref)
    if path.exists():
        return load_problem(path), path.stem
    name = ref[:-5] if ref.endswith(".json") else ref
    try:
        return packaged_problem(name), name
    except ModelError:
        raise _UsageError(
            f"{ref!r} is neither a file nor a packaged problem") from None


def _parse_areas(text: str, n_elements: int) -> np.ndarray:
    """Comma/whitespace-separated floats, or a path to a file of them."""
    path = Path(text)
    if path.is_file():
        text = path.read_text(encoding="utf-8")
    tokens = text.replace(",", " ").split()
    try:
        values = np.array([float(tok) for tok in tokens], dtype=float)
    except ValueError:
        raise _UsageError(f"could not parse areas from {text!r}") from None
    if values.size != n_elements:
        raise _UsageError(
            f"expected {n_elements} areas, got {values.size}")
    if not np.all(np.isfinite(values)):
        raise _UsageError("areas must be finite")
    if np.any(values < 0.0):
        raise _UsageError("areas must be non-negative")
    return values


def _check_gap_tol(gap_tol: float) -> None:
    if not (math.isfinite(gap_tol) and gap_tol >= 0.0):
        raise _UsageError("--gap-tol must be non-negative and finite")


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps >= 0.0):
        raise _UsageError("--eps must be non-negative and finite")


def _cmd_analyze(args) -> int:
    gs, label = _resolve_problem(args.problem)
    areas = _parse_areas(args.areas, gs.n_elements)
    try:
        res = compliance(gs, areas)
    except (SingularSystemError, DanglingLoadError) as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    volume = gs.assembly.volume(areas)
    print(f"problem      {label} ({gs.n_nodes} nodes, "
          f"{gs.n_elements} elements)")
    print(f"compliance   {res.compliance:.9g}")
    print(f"volume       {volume:.9g} (bound {gs.volume_bound:.9g})")
    print(f"max |u|      {float(np.max(np.abs(res.u))):.9g}")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    if not args.eta > 0.0:
        raise _UsageError("--eta must be positive")
    if not 0.0 < args.zeta <= 1.0:
        raise _UsageError("--zeta must be in (0, 1]")
    _check_eps(args.eps)
    if args.order_max < 1:
        raise _UsageError("--order-max must be at least 1")
    _check_gap_tol(args.gap_tol)
    gs, label = _resolve_problem(args.problem)
    settings = SolveSettings(eps=args.eps, zeta=args.zeta, eta=args.eta,
                             gap_tol=args.gap_tol, order_max=args.order_max)
    result = run_method(gs, args.method, settings)
    if result.status == "error":
        print(f"error: {result.message}", file=sys.stderr)
    _print_result(label, result)
    if args.out:
        write_reports(BenchReport(case=label, results=[result]), gs,
                      Path(args.out), eps=args.eps)
    return result.exit_code


def _cmd_certify(args) -> int:
    _check_gap_tol(args.gap_tol)
    gs, _ = _resolve_problem(args.problem)
    areas = _parse_areas(args.areas, gs.n_elements)
    volume = gs.assembly.volume(areas)
    if volume > gs.volume_bound * (1.0 + 1e-9):
        print(f"design infeasible: volume {volume:.9g} exceeds bound "
              f"{gs.volume_bound:.9g}", file=sys.stderr)
        return EXIT_INFEASIBLE
    try:
        upper = compliance(gs, areas).compliance
    except (SingularSystemError, DanglingLoadError) as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    sp = scale_problem(gs)
    try:
        rel = build_relaxation(sp, args.order)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    sol = solve_relaxation(rel, args.gap_tol, upper)
    ranks = rank_certificate(rel, sol.y)
    cert = gap_certificate(sol.lower, upper, gap_tol=args.gap_tol,
                           order=args.order, ranks=ranks, areas=areas)
    print(json.dumps({**cert.report(), **_sdp_report(sdp_outcome(rel, sol))}, indent=2))
    return EXIT_OK if cert.verdict != "failed" else EXIT_NUMERICAL


def _cmd_bench(args) -> int:
    _check_gap_tol(args.gap_tol)
    if args.case:
        try:
            cases = [benchmark_case(args.case)]
        except KeyError as exc:
            raise _UsageError(str(exc.args[0])) from None
    else:
        cases = build_benchmarks()
    methods = None
    if args.methods:
        methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
        bad = [m for m in methods if m not in METHODS]
        if bad:
            raise _UsageError(f"unknown methods: {', '.join(bad)}")
    settings = SolveSettings(gap_tol=args.gap_tol)
    out_dir = Path(args.out)
    code = EXIT_OK
    for case in cases:
        report = run_benchmark(case, methods, settings)
        for r in report.results:
            _print_result(case.name, r)
            if r.status in ("verification-mismatch", "error"):
                code = EXIT_NUMERICAL
        write_reports(report, case.build(), out_dir)
    return code


def _cmd_render(args) -> int:
    _check_eps(args.eps)
    gs, _ = _resolve_problem(args.problem)
    areas = _parse_areas(args.areas, gs.n_elements)
    try:
        render_topology(gs, areas, Path(args.out), eps=args.eps)
    except OSError as exc:
        print(f"could not write {args.out}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="frameopt",
                     description="Frame topology optimization toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="linear analysis of a given design")
    pa.add_argument("problem", help="problem file or packaged problem name")
    pa.add_argument("--areas", required=True,
                    help="comma-separated areas or a file containing them")
    pa.set_defaults(func=_cmd_analyze)

    po = sub.add_parser("optimize", help="optimize a problem with one method")
    po.add_argument("problem")
    po.add_argument("--method", required=True, choices=METHODS)
    po.add_argument("--order-max", type=int, default=SolveSettings.order_max,
                    help="deepest relaxation order for --method po")
    po.add_argument("--eps", type=float, default=OcConfig.eps,
                    help="lower area bound for the local methods")
    po.add_argument("--zeta", type=float, default=OcConfig.zeta,
                    help="move limit of the optimality-criteria update, in (0, 1]")
    po.add_argument("--eta", type=float, default=OcConfig.eta,
                    help="damping exponent of the optimality-criteria update")
    po.add_argument("--gap-tol", type=float, default=GAP_TOL)
    po.add_argument("--out", help="directory for JSON/CSV/SVG reports")
    po.set_defaults(func=_cmd_optimize)

    pc = sub.add_parser("certify",
                        help="bound a given design with one relaxation order")
    pc.add_argument("problem")
    pc.add_argument("--areas", required=True)
    pc.add_argument("--order", required=True, type=int)
    pc.add_argument("--gap-tol", type=float, default=GAP_TOL)
    pc.set_defaults(func=_cmd_certify)

    pb = sub.add_parser("bench", help="run the shipped benchmark suite")
    pb.add_argument("--case", help="run a single named case")
    pb.add_argument("--methods",
                    help="comma-separated subset of oc,nlp,nsdp,po")
    pb.add_argument("--gap-tol", type=float, default=GAP_TOL)
    pb.add_argument("--out", required=True,
                    help="directory for JSON/CSV/SVG reports")
    pb.set_defaults(func=_cmd_bench)

    pr = sub.add_parser("render", help="write an SVG of a design's topology")
    pr.add_argument("problem")
    pr.add_argument("--areas", required=True)
    pr.add_argument("--out", required=True, help="output SVG path")
    pr.add_argument("--eps", type=float, default=OcConfig.eps,
                    help="areas at or below eps are omitted")
    pr.set_defaults(func=_cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help prints and exits 0
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SingularSystemError, DanglingLoadError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

