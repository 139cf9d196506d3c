"""affseg benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory. Workloads: train-readme, eval-dense, query-heatmap-224,
or ``all`` to run each in its own process in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Its
timings are drift-corrected (``drift.py``). The line before it is the full
report: environment, every metric the workload defines, the raw wall-clock
timings, sample counts, correctness gates and, when traced, the per-layer
table and the tracing overhead. Both are also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

# cap on set-ups per run when Scale.min_setup_seconds asks for more
MAX_SETUPS = 100


def import_program():
    """Import affseg from this checkout's src/ and nowhere else.

    BLAS runs on one thread on both sides of any comparison, and the eval
    thread pool stays at the program's default; both settings must be made
    before numpy is first imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("OOAL_THREADS", None)
    if not (SRC / "affseg" / "__init__.py").is_file():
        raise SystemExit(f"bench: no affseg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import affseg

    if Path(affseg.__file__).resolve().parent != (SRC / "affseg").resolve():
        raise SystemExit(f"bench: imported affseg from {affseg.__file__}, not {SRC}")
    return affseg


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def summarize(win) -> dict:
    """Throughput and per-operation latency of the successful units of a
    timed window, drift-scaled, with the wall-clock values under "wall".
    Failures are counted in the result's ``failed``."""
    good = [(s, n, k) for s, n, ok, k in win.units if ok]
    if not good:
        raise RuntimeError("no timed operation succeeded")
    done = sum(n for _, n, _ in good)

    def stats(per_op_ms, seconds):
        return {
            "ops_per_s": done / seconds,
            "op_ms_p50": percentile(per_op_ms, 50),
            "op_ms_p90": percentile(per_op_ms, 90),
        }

    return {
        **stats([s * k / n * 1e3 for s, n, k in good], sum(s * k for s, _, _, k in win.units)),
        "wall": stats([s / n * 1e3 for s, n, _ in good], sum(s for s, *_ in win.units)),
        "units": len(win.units),
        "ops": win.attempted,
        "seconds": sum(s for s, *_ in win.units),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_info(np) -> dict:
    info = {"vendor": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    info["threads_env"] = os.environ["OPENBLAS_NUM_THREADS"]
    return info


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "affseg").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(np, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "eval_pool_workers": os.cpu_count(),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def timed_setups(wl, scale, seed, clock, tag: str, repeats: int = 1, min_seconds: float = 0.0):
    """Set up from scratch at least *repeats* times and until *min_seconds*
    have been spent setting up; keep the last state. Returns the state, the
    (wall, drift-scaled) seconds of each set-up and a digest of its files."""
    from worlds import tree_digest

    times, digests, state = [], [], None
    while len(times) < repeats or (
        sum(t for t, _ in times) < min_seconds and len(times) < MAX_SETUPS
    ):
        work = WORK / f"{wl.name}-{os.getpid()}-{tag}{len(times)}"
        if times:
            shutil.rmtree(WORK / f"{wl.name}-{os.getpid()}-{tag}{len(times) - 1}")
        k = clock.scale()
        t0 = perf_counter()
        state = wl.setup(scale, seed, work)
        wall = perf_counter() - t0
        times.append((wall, wall * k))
        digests.append(tree_digest(work))
    return state, times, digests


def run_window(wl, sides, seconds: float) -> None:
    """Repeat the workload's timed unit for *seconds*, and until each side
    has ``wl.min_units`` units. Sides are (state, window, tracer, context)
    and take turns unit by unit, so that the machine's drift hits them
    alike. A step that returns False ends the window."""
    start = perf_counter()
    while True:
        for state, win, tracer, context in sides:
            with context():
                if not wl.step(state, win, tracer):
                    return
        if perf_counter() - start >= seconds and all(
            len(win.units) >= wl.min_units for _, win, _, _ in sides
        ):
            return


def metric_dict(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_workload(args) -> tuple[dict, dict]:
    import numpy as np

    from drift import ReferenceClock
    from tracing import NullTracer, Tracer, instrument
    from worlds import SCALES
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    scale = SCALES[args.scale]
    report = {
        "workload": wl.name,
        "scale": args.scale,
        "trace": args.trace,
        "environment": environment(np, args.seed),
    }
    clock = ReferenceClock()
    if args.trace:
        # the untraced and the traced side share one window, unit by unit
        state, setup_times, digests = timed_setups(wl, scale, args.seed, clock, "u")
        tracer = Tracer()
        with instrument(tracer):
            state_t, _, digests_t = timed_setups(wl, scale, args.seed, clock, "t")
        win, win_t = wl.new_window(state, clock), wl.new_window(state_t, clock)
        run_window(wl, [(state, win, NullTracer(), nullcontext),
                        (state_t, win_t, tracer, lambda: instrument(tracer))], args.seconds)
    else:
        state, setup_times, digests = timed_setups(
            wl, scale, args.seed, clock, "u", scale.setup_repeats, scale.min_setup_seconds
        )
        win = wl.new_window(state, clock)
        run_window(wl, [(state, win, NullTracer(), nullcontext)], args.seconds)

    gates = {"setup.deterministic": (len(set(digests)) == 1, f"{len(digests)} set-ups")}
    check = wl.check(state, win)
    gates.update(check.gates)
    summary = summarize(win)
    named = {
        "setup_s": (statistics.median(k for _, k in setup_times), "s"),
        **wl.named_metrics(summary, check),
        "error_rate": (win.failed / win.attempted, "failed/attempted"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report["metrics"] = metric_dict(named)
    report["wall_clock"] = metric_dict({
        "setup_s": (statistics.median(t for t, _ in setup_times), "s"),
        "ops_per_s": (summary["wall"]["ops_per_s"], "1/s"),
        "op_ms_p50": (summary["wall"]["op_ms_p50"], "ms"),
        "op_ms_p90": (summary["wall"]["op_ms_p90"], "ms"),
    })
    report["samples"] = {
        "setup_s": [t for t, _ in setup_times],
        "reference_s": clock.samples,
        "timed_units": summary["units"],
        "operations": summary["ops"],
        "operation": wl.op_name,
        "timed_seconds": summary["seconds"],
    }
    report["quality"] = metric_dict(check.quality)
    report["known_defects"] = check.defects
    report["fingerprint"] = wl.fingerprint(win)
    attempted, failed, failures = win.attempted, win.failed, list(win.failures)

    if args.trace:
        with instrument(tracer):
            check_t = wl.check(state_t, win_t)
        per_layer = traced_results(wl, args.seed, tracer, state_t, win_t, check_t,
                                   digests_t == digests, report, summary, gates)
        attempted += win_t.attempted
        failed += win_t.failed
        failures += [dict(f, traced=True) for f in win_t.failures]
        final = {m["name"]: per_layer[m["name"]] for m in declared_metrics("per_layer")}
    else:
        generic = {
            "setup_s": named["setup_s"],
            "ops_per_s": (summary["ops_per_s"], "1/s"),
            "op_ms_p50": (summary["op_ms_p50"], "ms"),
            "peak_rss_mb": named["peak_rss_mb"],
        }
        final = {m["name"]: generic[m["name"]] for m in declared_metrics("end_to_end")}

    report["gates"] = {name: {"ok": bool(ok), "detail": d} for name, (ok, d) in gates.items()}
    report["failures"] = failures
    result = {
        "correct": all(ok for ok, _ in gates.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metric_dict(final),
    }
    return report, result


def traced_results(wl, seed, tracer, state, win, check, same_setup, report, untraced, gates):
    """Check the traced side against the untraced one and the program; fill
    in the per-layer part of *report*; return the per-layer metrics."""
    from tracing import check_composition, layer_summary, pool_efficiency

    gates.update({f"traced.{k}": v for k, v in check.gates.items()})
    gates["trace.setup_matches_untraced"] = (same_setup, "set-up files and checkpoint")
    gates["trace.outputs_match_untraced"] = (
        wl.fingerprint(win) == report["fingerprint"], "timed-window outputs"
    )
    problems = []
    for mp, enc, table, items in wl.probe(state, win):
        problems += check_composition(mp, enc, table, items)
    gates["trace.composition_bitwise"] = (
        not problems, "; ".join(problems) or "forward, loss and gradients equal"
    )

    layers = layer_summary(tracer, win.attempted)
    write_spans(tracer, f"{wl.name}-seed{seed}")
    overhead = summarize(win)["op_ms_p50"] / untraced["op_ms_p50"] - 1.0
    efficiency = pool_efficiency(tracer)
    if efficiency is None:
        raise RuntimeError("traced run never went through metrics.evaluate")
    failure_types: dict[str, int] = {}
    for f in win.failures:
        failure_types[f["type"]] = failure_types.get(f["type"], 0) + 1
    report["per_layer"] = layers
    report["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    report["pool_efficiency"] = efficiency
    report["failures_by_type"] = failure_types

    per_layer = {"metrics.evaluate.parallel_efficiency": (efficiency, "ratio"),
                 "trace.overhead": (overhead, "ratio")}
    for name, row in layers.items():
        per_layer[f"{name}_us"] = (row["self_us_p50"], "us")
        per_layer[f"{name}.calls_per_op"] = (row["calls_per_op"], "calls/op")
    missing = [m["name"] for m in declared_metrics("per_layer") if m["name"] not in per_layer]
    if missing:
        raise RuntimeError(f"traced run never called: {missing}")
    return per_layer


def write_spans(tracer, stem: str) -> None:
    """Every span of the traced run, one JSON array per line."""
    OUT.mkdir(exist_ok=True)
    with gzip.open(OUT / f"{stem}.spans.jsonl.gz", "wt") as fh:
        fh.write('["id", "parent", "op", "name", "start_s", "end_s", "self_s"]\n')
        for span in tracer.spans():
            fh.write(json.dumps(span) + "\n")


def declared_metrics(kind: str) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec[kind]


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    summary = []
    for name in ("train-readme", "eval-dense", "query-heatmap-224"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"bench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        summary.append({"workload": name, "report": report, "result": result})
    for entry in summary:
        print(json.dumps({"report": entry["report"]}))
    for entry in summary:
        print(f"== {entry['workload']}: correct={entry['result']['correct']} "
              f"attempted={entry['result']['attempted']} failed={entry['result']['failed']}")
        for name, m in entry["report"]["metrics"].items():
            print(f"   {name:<22} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({
        "correct": all(e["result"]["correct"] for e in summary),
        "attempted": sum(e["result"]["attempted"] for e in summary),
        "failed": sum(e["result"]["failed"] for e in summary),
        "metrics": {f"{e['workload']}/{k}": v for e in summary
                    for k, v in e["result"]["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("train-readme", "eval-dense", "query-heatmap-224", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the harness test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "BENCHMARK.json").is_file():
        raise SystemExit(f"bench: {ROOT / 'BENCHMARK.json'} missing")
    import_program()
    if args.workload == "all":
        return run_all(args)

    try:
        report, result = run_workload(args)
    finally:
        _cleanup()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps({"report": report, "result": result}, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def _cleanup() -> None:
    for path in WORK.glob(f"*-{os.getpid()}-*"):
        shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
