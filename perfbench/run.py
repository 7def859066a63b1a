#!/usr/bin/env python3
"""frameopt benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload certify|local-sweep|requests \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; frameopt is imported from ``src``.
BLAS and OpenMP are pinned to one thread before numpy loads.  A run
measures whole rounds (one pass over the shipped cases for certify, one
round of slots for local-sweep, ten requests for requests): as many as fit
in ``--seconds`` at the workload's nominal round time, and at least one.
The count depends on ``--seconds`` alone, never on how fast the ops ran,
so two runs with the same seed do the same ops and fail the same ones.
Every op's output is checked.

Lines starting with ``#`` report the environment, the tail latency, the
failure ratio with its reasons and, for requests, the share of requests
that repeat a structure.  The last line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).
"""
import os
import time

T_START = time.perf_counter()

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("certify", "local-sweep", "requests")
SETUPS = 3                  # set-ups in a run; setup_s takes their median
# Wall time of one round, checks included, on one core of a 2.1 GHz Xeon:
# a certify pass, a local-sweep round of 184 ops, ten requests.
NOMINAL_ROUND_S = {"certify": 24.0, "local-sweep": 43.0, "requests": 0.32}
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
             "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small inputs for the self-tests")
    return p.parse_args(argv)


def import_frameopt():
    """Import frameopt from this checkout's sources, never from elsewhere."""
    pkg = ROOT / "src" / "frameopt" / "__init__.py"
    if not pkg.is_file():
        raise SystemExit(f"error: no frameopt sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import frameopt
    if Path(frameopt.__file__).resolve() != pkg.resolve():
        raise SystemExit(f"error: imported frameopt from {frameopt.__file__}")


# -- set-up ----------------------------------------------------------------------

class Workload:
    """Inputs and op runner of one workload, built by ``setup``."""

    def __init__(self, name, seed, smoke):
        import workloads as wl
        self.name = name
        self.wl = wl
        if name == "certify":
            from frameopt.cli import SolveSettings
            from frameopt.problems import build_benchmarks
            names = wl.CERTIFY_CASES[:2] if smoke else wl.CERTIFY_CASES
            self.cases = {c.name: c for c in build_benchmarks() if c.name in names}
            self.settings = {
                n: SolveSettings(order_max=min(c.po_order, wl.CERTIFY_ORDER_CAP))
                for n, c in self.cases.items()}
            self.rounds = wl.certify_stream(names)
        elif name == "local-sweep":
            # The first round is drawn here; a 35-s run needs no second.
            # Each op's document is parsed just before the op, untimed.
            stream = wl.local_stream(seed, max_size=6 if smoke else None)
            self.rounds = itertools.chain([next(stream)], stream)
        else:
            pool = wl.request_pool(seed)
            self.rounds = wl.request_stream(seed, pool, wl.request_texts(pool))

    def warm_up(self):
        """One small op per code path, on inputs outside the measured stream."""
        import random
        wl = self.wl
        from frameopt.cli import run_method
        from frameopt.problems import cantilever, problem_from_dict
        if self.name == "certify":
            run_method(cantilever(1), "po", self.settings["cantilever-1"])
            return
        doc = wl.cantilever_doc(random.Random("warm-up"), 2, "warm-up")
        gs = problem_from_dict(doc)
        if self.name == "local-sweep":
            for method in wl.LOCAL_METHODS:
                run_method(gs, method, wl.local_settings("cantilever"))
            return
        text = json.dumps(doc, sort_keys=True)
        for kind in ("analyze", "optimize", "render"):
            areas = [doc["volume_bound"] / 2.0] * 2 if kind != "optimize" else None
            wl.run_request(wl.Op(kind, "warm-up", text=text, areas=areas),
                           OpClock())

    def run(self, op, clock):
        wl = self.wl
        if op.kind == "certify":
            return wl.run_certify(op, self.cases, self.settings, clock)
        if op.kind == "local":
            return wl.run_local(op, clock)
        return wl.run_request(op, clock)


def setup(args) -> tuple[Workload, float]:
    """Import frameopt, then build the inputs and warm up SETUPS times.

    Returns the last workload and the set-up time: the import plus the
    median of the builds.  Every build draws the same inputs."""
    import_frameopt()
    import_s = time.perf_counter() - T_START
    builds = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        work = Workload(args.workload, args.seed, args.smoke)
        work.warm_up()
        builds.append(time.perf_counter() - t0)
    return work, import_s + statistics.median(builds)


# -- the timed loop ----------------------------------------------------------------

class OpClock:
    """Times the program's part of one op and tells the tracer which op runs."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.op_id = 0
        self.elapsed = 0.0
        self._t0 = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.op = self.op_id
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.op = None
        return False


class Tally:
    def __init__(self):
        self.latencies = []
        self.reasons = Counter()
        self.examples = {}
        self.failed = 0
        self.wrong = 0
        self.seen = set()
        self.repeats = 0


def run_op(work: Workload, op, clock: OpClock, tally: Tally) -> None:
    clock.elapsed = 0.0
    try:
        outcome = work.run(op, clock)
    except Exception as exc:  # an op that raises counts as failed, the loop goes on
        outcome = work.wl.Outcome(failed=f"raised {type(exc).__name__}",
                                  detail=str(exc))
    tally.latencies.append(clock.elapsed)
    if outcome.failed:
        tally.failed += 1
        tally.wrong += outcome.wrong
        key = f"{op.method or op.kind}:{op.family} {outcome.failed}"
        tally.reasons[key] += 1
        tally.examples.setdefault(key, f"{op.label}: {outcome.detail}")
    if op.structure >= 0:
        tally.repeats += op.structure in tally.seen
        tally.seen.add(op.structure)
    clock.op_id += 1


def planned_rounds(workload: str, seconds: float) -> int:
    """Whole rounds that fit in ``seconds`` at the nominal round time; at
    least one."""
    return max(1, int(seconds / NOMINAL_ROUND_S[workload]))


def timed_loop(work: Workload, seconds: float, tracer=None):
    """The planned rounds, one op after the other."""
    clock = OpClock(tracer)
    tally = Tally()
    done = []
    for ops in itertools.islice(work.rounds,
                                planned_rounds(work.name, seconds)):
        for op in ops:
            run_op(work, op, clock, tally)
            done.append(op)
    return tally, done


def tail_latency(latencies):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(latencies)
    best = None
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    if best is None:
        return None
    return best, statistics.quantiles(latencies, n=1000,
                                      method="inclusive")[int(best * 10) - 1]


# -- environment -------------------------------------------------------------------

def blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports, by library file name."""
    import ctypes
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()
                            and line.split()[-1].startswith("/")})
    except OSError:
        return out
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = int(fn())
                break
    return out


def environment() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": vendor,
            "blas_threads": blas_threads(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0))}


def note(text: str) -> None:
    print(f"# {text}", flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    work, setup_s = setup(args)
    note("env " + json.dumps(environment(), sort_keys=True))
    note(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
         f"trace {args.trace}; closed loop, one client")
    if args.trace:
        from tracing import LAYER_METRICS, Tracer, layer_metrics
        with Tracer() as tracer:
            tally, done = timed_loop(work, args.seconds, tracer)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        note(f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
        metrics = layer_metrics(tracer, len(done))
        # Ops from the start of the run again, without tracing, until they
        # add up to half of --seconds of traced time: the tracing overhead
        # on identical work.
        replay = Tally()
        clock = OpClock()
        traced = 0.0
        for op, latency in zip(done, tally.latencies):
            run_op(work, op, clock, replay)
            traced += latency
            if traced >= args.seconds / 2.0:
                break
        plain = sum(replay.latencies)
        metrics["trace.ops_per_s"] = len(done) / sum(tally.latencies)
        metrics["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
        note(f"tracing overhead {metrics['trace.overhead_pct']:.2f}% on the "
             f"first {len(replay.latencies)} ops ({traced:.3f} s traced, "
             f"{plain:.3f} s untraced); traced run "
             f"{metrics['trace.ops_per_s']:.4g} ops/s")
        units = LAYER_METRICS
    else:
        loop_start = time.perf_counter()
        tally, done = timed_loop(work, args.seconds)
        loop_s = time.perf_counter() - loop_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        lat = tally.latencies
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "peak_rss_mb": peak_rss_mb,
        }
        units = E2E_UNITS
        note(f"loop {loop_s:.2f} s wall, {sum(lat):.2f} s in ops")
        tail = tail_latency(lat)
        if tail is None:
            note(f"latency_tail_ms undefined: {len(lat)} ops, fewer than "
                 f"10 beyond any percentile")
        else:
            note(f"latency_tail_ms {1e3 * tail[1]:.6g} ms at p{tail[0]:g} "
                 f"of {len(lat)} ops")
    n = len(tally.latencies)
    note(f"fail_ratio {tally.failed / n:.6g} ratio ({tally.failed} failed of "
         f"{n} attempted, {tally.wrong} with a wrong success claim)")
    for key, count in sorted(tally.reasons.items()):
        note(f"failed x{count}: {key}; e.g. {tally.examples[key]}")
    if args.workload == "requests":
        note(f"repeat_share {tally.repeats / n:.4f} ratio (requests naming a "
             f"structure already seen in this run)")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": n,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
