"""Benchmark for bordertree: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload polytree-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all              # every workload, named metrics
    python3 perfbench/run.py --write-benchmark-json      # regenerate BENCHMARK.json

Run from a checkout: the program is imported from ``src/`` beside this
directory, never from an installed copy, and the run fails (exit 2) if it is
missing.  Load is one closed loop: one process, one thread, one client
waiting for each answer before it asks again; numpy's thread pools are
pinned to one thread.

``--trace 0`` times the workload untraced and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes over the same fixed work
(set-up plus every case once), reports the per-layer metrics of the traced
passes and ``trace.overhead_frac``, and checks that every count repeats
exactly from one traced pass to the next.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPS = 9
RUN_SECONDS = 26

# Reported by every workload.  "main" and "alt" are the two timed paths of
# the workload (see workloads.py); NAMED maps them to their per-workload names.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("cases_per_s", "1/s", "higher", 0.25),
    ("case_s.p50", "s", "lower", 0.25),
    ("alt_cases_per_s", "1/s", "higher", 0.25),
    ("alt_case_s.p50", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
NAMED = {
    "polytree-large": ("bp", "polytree"),
    "grid-wide": ("bp", "chain"),
    "dag-small-cli": ("cli.query", "cli.cold"),
    "repl-incremental": ("repl.step", "repl.fresh_query"),
}


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _percentile(xs, q):
    xs = sorted(xs)
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1] if len(xs) > 1 else xs[0]


def _meta():
    import numpy
    import bordertree

    sha = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        out = []
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:  # not an enclosing repository's
        sha = out[1]
    digest = hashlib.sha256()
    for path in sorted((SRC / "bordertree").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "kernel_backend": bordertree.KERNEL_BACKEND,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pinning": {v: os.environ[v] for v in THREAD_VARS},
        "load": "closed loop, 1 process, 1 thread, 1 client",
    }


def run_untraced(wl, seconds):
    """SETUP_REPS rounds of (set up, then run cases for a share of the time).

    Spreading the set-ups over the run makes their median sample the
    machine's speed over the whole run, not over its first seconds.  Every
    time is then scaled by the run's host factor (see hostspeed.py).
    """
    import hostspeed
    from workloads import Recorder

    probe = hostspeed.HostProbe()
    rec, setup_times, i, busy = Recorder(probe=probe), [], 0, 0.0
    for k in range(SETUP_REPS):
        state = None
        gc.collect()
        probe.maybe()
        t0 = time.perf_counter()
        state = wl.setup()
        setup_times.append(time.perf_counter() - t0)
        gc.collect()
        t0 = time.perf_counter()
        i = wl.run_timed(rec, state, (seconds - busy) / (SETUP_REPS - k), i)
        busy += time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = wl.verify(rec, state)
    host = probe.factor()

    raw = {"setup_s": statistics.median(setup_times)}
    named = {"setup_s": ("s", f"median of {SETUP_REPS}")}
    for path, prefix, label in zip(("main", "alt"), ("", "alt_"), NAMED[wl.name]):
        if path in wl.POOLED:
            ts = rec.all_times(path)
            basis = f"n={len(ts)} calls of {len(rec.repeats(path))} case(s)"
        else:
            ts, reps = rec.mean_times(path), rec.repeats(path)
            basis = f"n={len(ts)} cases, mean of {min(reps)}-{max(reps)} repeats"
        n, p90 = len(ts), _percentile(ts, 90)
        beyond = sum(t > p90 for t in ts)
        raw[f"{prefix}cases_per_s"] = n / sum(ts)
        raw[f"{prefix}case_s.p50"] = statistics.median(ts)
        raw[f"{prefix}case_s.p90"] = p90
        named[f"{prefix}cases_per_s"] = ("1/s", basis, f"{label}.cases_per_s")
        named[f"{prefix}case_s.p50"] = ("s", basis, f"{label}_s.p50")
        note = f"{basis}; {beyond} beyond" + ("" if beyond >= 10 else ", too few to trust")
        named[f"{prefix}case_s.p90"] = ("s", note, f"{label}_s.p90")
    # Times are multiplied by the host factor, rates divided by it.
    adjusted = {n: v / host if n.endswith("per_s") else v * host for n, v in raw.items()}
    metrics = {n: adjusted[n] for n, *_ in END_TO_END if n in adjusted}
    metrics["peak_rss_mb"] = peak_mb
    lines = {}
    for n, (unit, note, *alias) in named.items():
        lines[alias[0] if alias else n] = (adjusted[n], unit, f"{note}; raw {raw[n]:.6g}")
    attempted = len(rec.times)
    lines["failed_frac"] = (len(failures) / attempted, "ratio", f"{len(failures)}/{attempted}")
    lines["peak_rss_mb"] = (peak_mb, "MB", "ru_maxrss of this process")
    lines["host_factor"] = (host, "ratio", f"{hostspeed.REF_PROBE_S:g} s / mean of {len(probe.samples)} probes")
    extra = {
        "timed_wall_s": busy,
        "host_factor": host,
        "raw_metrics": raw,
        "setup_times_s": setup_times,
        "probe_times_s": probe.samples,
        "calls": [(path, str(case), seconds) for path, case, seconds in rec.times],
    }
    return metrics, lines, attempted, failures, extra


def run_traced(wl, seconds, spans_path):
    """Alternate untraced and traced passes of (set-up + every case once +
    the layer census)."""
    import spans
    from workloads import Recorder, run_census, verify_census

    rec, census = Recorder(), Recorder()
    untraced, traced, fastest = [], [], None
    end = time.perf_counter() + seconds
    state = None
    while len(traced) < 2 or len(untraced) < 1 or time.perf_counter() < end:
        tracer = spans.Tracer() if len(untraced) > len(traced) else None
        state = None
        gc.collect()
        try:
            if tracer is not None:
                spans.install(tracer)
            t0 = time.perf_counter()
            state = wl.setup()
            wl.run_round(rec, state)
            run_census(census)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is None:
            untraced.append(wall)
            continue
        traced.append((wall, spans.layer_metrics(tracer)))
        if wall <= min(w for w, _m in traced):
            fastest = tracer  # its spans are the ones written out
    failures = wl.verify(rec, state) + verify_census(census)

    first = traced[0][1]
    unsteady = [
        f"count {name} differs between traced passes: {first[name]} vs {m[name]}"
        for _wall, m in traced[1:]
        for name in first
        if spans.is_count(name) and m[name] != first[name]
    ]
    # The fastest pass of each kind, the one the host's slow state (see
    # hostspeed.py) touched least; every layer's numbers come from the same
    # traced pass.
    u = min(untraced)
    wall, metrics = min(traced, key=lambda wm: wm[0])
    metrics["trace.overhead_frac"] = wall / u - 1
    fastest.write(spans_path)
    notes = {
        "bp_infer.store_hit_ratio": f"base: {metrics['bp_infer.messages_scheduled']:g} messages scheduled",
        "kernels.bytes_moved": "computed from array sizes, not measured",
        "trace.overhead_frac": f"fastest of {len(traced)} traced vs of {len(untraced)} untraced passes ({u:.3g} s)",
    }
    extra = {"untraced_pass_s": untraced, "traced_pass_s": [w for w, _m in traced], "spans_file": str(spans_path)}
    return metrics, notes, len(rec.times) + len(census.times), failures, unsteady, extra


def per_layer_spec():
    import spans

    out = [{"name": n, "unit": u, "better": b} for n, u, b, _k in spans.LAYER_METRICS]
    out.append({"name": "trace.overhead_frac", "unit": "ratio", "better": "lower"})
    return out


def write_benchmark_json():
    from workloads import WORKLOADS

    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": per_layer_spec(),
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")



def run_all(args) -> int:
    """Every workload, each in its own process so peak memory is its own."""
    from workloads import WORKLOADS

    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        code = subprocess.run(cmd, cwd=ROOT).returncode or code
    return code


def main(argv=None) -> int:
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "bordertree" / "__init__.py").is_file():
        return _fail(f"no program source at {SRC}; run from a bordertree checkout")
    sys.path.insert(0, str(SRC))
    import bordertree

    if Path(bordertree.__file__).resolve().parent != (SRC / "bordertree").resolve():
        return _fail(f"imported bordertree from {bordertree.__file__}, not from {SRC}")
    from workloads import OUT, WORKLOADS

    if args.write_benchmark_json:
        write_benchmark_json()
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    import numpy as np

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = WORKLOADS[args.workload](np.random.default_rng(args.seed))
    try:
        if args.trace:
            metrics, notes, attempted, failures, unsteady, extra = run_traced(
                wl, args.seconds, OUT / f"spans-{tag}.tsv.gz"
            )
            units = {d["name"]: d["unit"] for d in per_layer_spec()}
            named = {n: (v, units[n], notes.get(n, "")) for n, v in metrics.items()}
        else:
            metrics, named, attempted, failures, extra = run_untraced(wl, args.seconds)
            unsteady = []
            units = {n: u for n, u, _b, _bound in END_TO_END}
    finally:
        close = getattr(wl, "close", None)
        if close is not None:
            close()

    meta = _meta()
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "meta": meta, "metrics": metrics, "named": named, "extra": extra,
        "attempted": attempted, "failed": len(failures), "failures": failures[:20],
        "unsteady_counts": unsteady,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    print(f"# meta {json.dumps(meta)}")
    for name, (value, unit, note) in named.items():
        print(f"{args.workload:<17} {name:<32} {value:>14.6g} {unit:<10} {note}")
    for f in failures[:20] + unsteady:
        print(f"# FAILED {f}")
    print(json.dumps({
        "correct": not failures and not unsteady,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
