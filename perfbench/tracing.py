"""Layer tracing from outside the program.

``Tracer`` replaces frameopt's public functions, at the module attributes
their callers look up, with wrappers that record spans in memory: name,
start, end, parent span and op id.  ``FrameAssembly`` is traced through its
``__init__`` on the class, so every module that constructs one is seen.
Leaving the ``with`` block puts every original attribute back, so an
untraced run measures the unmodified program.

Calls made outside an op (set-up, the benchmark's own checks) are passed
straight through and not recorded.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name).  A function imported by name into several
# modules is wrapped in each of them, under one span name.
SPAN_TARGETS = (
    ("frameopt.cli", "run_method", "cli.run_method"),
    ("frameopt.cli", "compliance", "cli.verify"),
    ("frameopt.problems", "problem_from_dict", "problems.parse"),
    ("frameopt.problems", "require_valid", "model.validate"),
    ("frameopt.local", "require_valid", "model.validate"),
    ("frameopt.nsdp", "require_valid", "model.validate"),
    ("frameopt.model", "require_valid", "model.validate"),
    ("frameopt.analysis", "compliance", "analysis.compliance"),
    ("frameopt.local", "compliance", "analysis.compliance"),
    ("frameopt.moments", "compliance", "analysis.compliance"),
    ("frameopt.cli", "run_oc", "local.oc"),
    ("frameopt.cli", "run_local_nlp", "local.nlp"),
    ("frameopt.cli", "run_nsdp_local", "nsdp.run"),
    ("frameopt.cli", "run_hierarchy", "moments.hierarchy"),
    ("frameopt.moments", "scale_problem", "moments.scale"),
    ("frameopt.moments", "build_relaxation", "moments.build"),
    ("frameopt.moments", "extract_design", "moments.extract"),
    ("frameopt.moments", "rank_certificate", "moments.rank"),
    ("frameopt.moments", "solve_sdp", "sdp.solve"),
    ("frameopt.render", "render_svg", "render.svg"),
)

# Hot inner functions that are counted, not spanned.
COUNT_TARGETS = (
    ("frameopt.analysis", "solve_displacements", "analysis.solve"),
    ("frameopt.local", "oc_step", "local.oc_step"),
)

OK_SDP = ("optimal", "near-optimal")


def schur_cost(problem) -> tuple[float, float]:
    """Computed flops and bytes of one Schur build plus its factorization.

    Mirrors the kernel in ``frameopt.sdp``: each block mirrors and coalesces
    its upper-triangle entries, then for every variable v with k entries
    forms Winv A_v Winv either from k gathered columns (2 n^2 k flops) or
    densely (4 n^3 flops, when k >= 2n), and scatters it through the
    block's sparse operator (2 nnz flops).  The factorization is m^3 / 3.
    Bytes count the n x n and n x k operands each variable reads, the m-long
    column it writes, and one pass over the m x m matrix to factor it.
    """
    m = problem.m
    flops = m ** 3 / 3.0
    nbytes = 8.0 * m * m
    for blk in problem.blocks:
        n = blk.n
        off = blk.row != blk.col
        var = np.concatenate([blk.var, blk.var[off]])
        row = np.concatenate([blk.row, blk.col[off]])
        col = np.concatenate([blk.col, blk.row[off]])
        if not var.size:
            continue
        key = np.unique((var * n + row) * n + col)
        per_var = np.bincount(key // (n * n), minlength=m)
        k = per_var[per_var > 0].astype(float)
        nnz = float(key.size)
        sparse = k < 2 * n
        flops += float(np.sum(2.0 * n * n * k[sparse]))
        flops += float(np.count_nonzero(~sparse)) * 4.0 * n ** 3
        flops += 2.0 * nnz * k.size
        nbytes += float(np.sum(8.0 * (n * n + 2.0 * n * k + m)))
    return flops, nbytes


class Tracer:
    """Span recorder; install with ``with Tracer() as tracer:``."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: dict = defaultdict(float)
        self.facts: dict = defaultdict(list)   # span name -> [(span, dict)]
        self._saved: list = []

    # -- installing --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, name in SPAN_TARGETS:
                self._patch(importlib.import_module(module), attr,
                            self._span_wrapper(name))
            for module, attr, name in COUNT_TARGETS:
                self._patch(importlib.import_module(module), attr,
                            self._count_wrapper(name))
            from frameopt.model import FrameAssembly
            self._patch(FrameAssembly, "__init__",
                        self._span_wrapper("model.assembly"))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, make_wrapper) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _span_wrapper(self, name):
        tracer = self
        hook = _HOOKS.get(name)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer.op is None:
                    return fn(*args, **kwargs)
                idx = len(tracer.spans)
                span = [name, 0.0, 0.0,
                        tracer.stack[-1] if tracer.stack else -1, tracer.op]
                tracer.spans.append(span)
                tracer.stack.append(idx)
                span[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    tracer.stack.pop()
                if hook is not None:
                    tracer.facts[name].append((idx, hook(args, result)))
                return result
            return wrapper
        return make

    def _count_wrapper(self, name):
        tracer = self

        def make(fn):
            if name == "analysis.solve":
                @functools.wraps(fn)
                def wrapper(rs):
                    if tracer.op is not None and rs.free.size and np.any(rs.f):
                        n = float(rs.free.size)
                        tracer.counts["analysis.factorizations"] += 1
                        tracer.counts["analysis.free_dof_sum"] += n
                        tracer.counts["analysis.chol_flops"] += n ** 3 / 3.0
                    return fn(rs)
            else:
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    if tracer.op is not None:
                        tracer.counts[name] += 1
                    return fn(*args, **kwargs)
            return wrapper
        return make

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as one JSON document: column names, then one row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out


def _iterations(args, result):
    return {"iterations": result.iterations}


def _nsdp_facts(args, result):
    stages = result.diagnostics.get("stages", [])
    return {"stages": len(stages), "inner": sum(s[1] for s in stages)}


def _hierarchy_facts(args, result):
    return {"orders": len(result.certificates),
            "certified": sum(1 for c in result.certificates if c.certified)}


def _relaxation_facts(args, result):
    return {"n_moments": result.n_moments}


def _sdp_facts(args, result):
    flops, nbytes = schur_cost(args[0])
    return {"m": args[0].m, "iterations": result.iterations,
            "ok": result.status in OK_SDP,
            "flops": flops * result.iterations,
            "bytes": nbytes * result.iterations}


_HOOKS = {
    "local.oc": _iterations,
    "local.nlp": _iterations,
    "nsdp.run": _nsdp_facts,
    "moments.hierarchy": _hierarchy_facts,
    "moments.build": _relaxation_facts,
    "sdp.solve": _sdp_facts,
}

# Per-layer metrics: name -> unit.  Every traced run reports all of them;
# a layer the workload does not reach reads 0.
LAYER_METRICS = {
    "problems.parse_ms": "ms", "problems.parse_calls": "calls/op",
    "model.validate_ms": "ms", "model.validate_calls": "calls/op",
    "model.assembly_ms": "ms", "model.assembly_calls": "calls/op",
    "analysis.compliance_ms": "ms", "analysis.compliance_calls": "calls/op",
    "analysis.busy_s": "s", "analysis.free_dof_mean": "dof",
    "analysis.chol_gflop": "gflop/op",
    "local.oc_iterations": "iter/op", "local.nlp_iterations": "iter/op",
    "local.nlp_evals_per_iter": "calls/iter",
    "local.oc_bisect_steps": "calls/iter",
    "nsdp.busy_s": "s", "nsdp.stages": "stages/op",
    "nsdp.inner_iterations": "iter/op",
    "moments.scale_s": "s/op", "moments.build_s": "s/op",
    "moments.extract_s": "s/op", "moments.rank_s": "s/op",
    "moments.n_moments": "count", "moments.certified_ratio": "ratio",
    "sdp.busy_s": "s", "sdp.iterations": "iter/solve",
    "sdp.ms_per_iter": "ms", "sdp.schur_dim_max": "count",
    "sdp.schur_gflop": "gflop/op", "sdp.schur_mb": "MB/op",
    "sdp.ok_ratio": "ratio",
    "render.svg_ms": "ms", "render.svg_calls": "calls/op",
    "cli.verify_ms": "ms",
    "trace.ops_per_s": "1/s", "trace.overhead_pct": "%",
}


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Reduce the spans and counts of a traced run to the per-layer metrics."""
    self_t = tracer.self_times()
    by_name: dict = defaultdict(list)
    for idx, span in enumerate(tracer.spans):
        by_name[span[0]].append(idx)

    def incl(name):
        return [tracer.spans[i][2] - tracer.spans[i][1] for i in by_name[name]]

    def selft(name):
        return [self_t[i] for i in by_name[name]]

    def facts(name, key):
        return [f[key] for _, f in tracer.facts[name]]

    m: dict[str, float] = {}
    m["problems.parse_ms"] = 1e3 * _ratio(sum(selft("problems.parse")),
                                          len(by_name["problems.parse"]))
    m["problems.parse_calls"] = _ratio(len(by_name["problems.parse"]), n_ops)
    m["model.validate_ms"] = 1e3 * _ratio(sum(incl("model.validate")),
                                          len(by_name["model.validate"]))
    m["model.validate_calls"] = _ratio(len(by_name["model.validate"]), n_ops)
    m["model.assembly_ms"] = 1e3 * _ratio(sum(incl("model.assembly")),
                                          len(by_name["model.assembly"]))
    m["model.assembly_calls"] = _ratio(len(by_name["model.assembly"]), n_ops)

    comp = selft("analysis.compliance")
    m["analysis.compliance_ms"] = 1e3 * _ratio(sum(comp), len(comp))
    m["analysis.compliance_calls"] = _ratio(len(comp), n_ops)
    m["analysis.busy_s"] = float(sum(comp))
    c = tracer.counts
    m["analysis.free_dof_mean"] = _ratio(c["analysis.free_dof_sum"],
                                         c["analysis.factorizations"])
    m["analysis.chol_gflop"] = _ratio(c["analysis.chol_flops"] / 1e9, n_ops)

    oc_iters = sum(facts("local.oc", "iterations"))
    nlp_iters = sum(facts("local.nlp", "iterations"))
    m["local.oc_iterations"] = _ratio(oc_iters, len(by_name["local.oc"]))
    m["local.nlp_iterations"] = _ratio(nlp_iters, len(by_name["local.nlp"]))
    nlp_spans = set(by_name["local.nlp"])
    nlp_evals = sum(1 for i in by_name["analysis.compliance"]
                    if tracer.spans[i][3] in nlp_spans)
    m["local.nlp_evals_per_iter"] = _ratio(nlp_evals, nlp_iters)
    m["local.oc_bisect_steps"] = _ratio(c["local.oc_step"], oc_iters)

    m["nsdp.busy_s"] = float(sum(incl("nsdp.run")))
    m["nsdp.stages"] = _ratio(sum(facts("nsdp.run", "stages")),
                              len(by_name["nsdp.run"]))
    m["nsdp.inner_iterations"] = _ratio(sum(facts("nsdp.run", "inner")),
                                        len(by_name["nsdp.run"]))

    for key, name in (("scale", "moments.scale"), ("build", "moments.build"),
                      ("extract", "moments.extract"), ("rank", "moments.rank")):
        m[f"moments.{key}_s"] = _ratio(sum(incl(name)), n_ops)
    moments = facts("moments.build", "n_moments")
    m["moments.n_moments"] = _ratio(sum(moments), len(moments))
    m["moments.certified_ratio"] = _ratio(
        sum(facts("moments.hierarchy", "certified")),
        sum(facts("moments.hierarchy", "orders")))

    sdp_busy = sum(incl("sdp.solve"))
    sdp_iters = sum(facts("sdp.solve", "iterations"))
    solves = len(by_name["sdp.solve"])
    m["sdp.busy_s"] = float(sdp_busy)
    m["sdp.iterations"] = _ratio(sdp_iters, solves)
    m["sdp.ms_per_iter"] = 1e3 * _ratio(sdp_busy, sdp_iters)
    m["sdp.schur_dim_max"] = float(max(facts("sdp.solve", "m"), default=0))
    m["sdp.schur_gflop"] = _ratio(sum(facts("sdp.solve", "flops")) / 1e9, n_ops)
    m["sdp.schur_mb"] = _ratio(sum(facts("sdp.solve", "bytes")) / 1e6, n_ops)
    m["sdp.ok_ratio"] = _ratio(sum(facts("sdp.solve", "ok")), solves)

    svg = incl("render.svg")
    m["render.svg_ms"] = 1e3 * _ratio(sum(svg), len(svg))
    m["render.svg_calls"] = _ratio(len(svg), n_ops)
    verify = incl("cli.verify")
    m["cli.verify_ms"] = 1e3 * _ratio(sum(verify), len(verify))
    return m
