"""voxmi benchmark: align and sweep throughput plus pose quality.

Usage, from the repository root:

    python3 perfbench/run.py --workload align-urban50k --seed 1 \
        --seconds 30 --trace 0 [--held-out]

Runs one workload in this process as a closed loop with one client and
prints every metric by name with its unit.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: end-to-end metrics with ``--trace 0``, per-layer metrics from a
separate traced run with ``--trace 1``.  The command exits 1 when an output
check fails and 2 when the library or the arguments are unusable.  Per-run
records, provenance and (traced) spans go to ``.perfbench/`` in the root.
See README.md beside this file for why each workload exists.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported: OpenBLAS otherwise starts a second
# thread, which changes per-stage times.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _import_library():
    """Import voxmi from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import voxmi
    except ImportError as exc:
        print(f"perfbench: cannot import voxmi from {src}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if src not in Path(voxmi.__file__).resolve().parents:
        print(f"perfbench: voxmi resolved to {voxmi.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return voxmi


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _provenance(voxmi, np, args, pairs) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed,
        "held_out": args.held_out, "seconds": args.seconds,
        "trace": args.trace, "pairs": [p.info for p in pairs],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {n: os.environ[n] for n in THREAD_ENV},
        "voxmi": voxmi.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="draw inputs from a stream disjoint from the "
                             "one used while the benchmark was tuned")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    voxmi = _import_library()
    import numpy as np

    import layers
    import workloads as wls
    from tracing import Tracer

    if args.workload not in wls.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wls.WORKLOADS)}")
    wl = wls.WORKLOADS[args.workload]
    cfg = wls.config(wl)
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            layers.install(tracer)
        pairs = wls.setup_pairs(wl, args.seed, args.held_out, cfg, workdir)
        calls = wls.run_loop(wl, args.seed, args.held_out, args.seconds,
                             pairs, cfg, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    for call in calls:
        call.outcome = wls.score(wl, call, pairs[call.pair], cfg)
    quality, digest = wls.panel_summary(wl, calls)
    problems = [f"call {c.index}: reported MI differs from mi_at or leaves "
                "[0, min(H)]" for c in calls if not c.outcome["checked"]]

    # printed and recorded in every run; in the JSON only when traced
    extra = {"align.call_s.p50": (statistics.median(c.wall_s for c in calls),
                                  "s"), **quality}
    if tracer is None:
        timed = sum(c.wall_s for c in calls)
        metrics = {
            "setup_s": (statistics.median(t for p in pairs for t in p.setup_s),
                        "s"),
            "evals_per_s": (sum(c.evals for c in calls) / timed, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    else:
        metrics = {**layers.metrics(tracer, wl.panel), **extra}
        if "mi.mi_objective" not in tracer.missing:
            metrics["trace.overhead"] = (
                wls.trace_overhead(pairs[0], cfg, layers.install), "ratio")
        absent = sorted(set(tracer.missing))
        if absent:
            print(f"absent (not in the library): {', '.join(absent)}")

    provenance = _provenance(voxmi, np, args, pairs)
    payload = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "provenance": provenance, "digest": digest,
        "extra": {k: v[0] for k, v in extra.items()},
        "calls": [{"index": c.index, "pair": c.pair, "wall_s": c.wall_s,
                   "evals": c.evals, "axis": c.axis, "error": c.error,
                   **{k: v for k, v in c.outcome.items() if k != "digest"}}
                  for c in calls],
        "metrics": payload, "problems": problems,
    }
    if tracer is not None:
        record["spans"] = tracer.to_json()
    out_dir.mkdir(exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}{'-heldout' if args.held_out else ''}"
            f"-trace{args.trace}.json")
    (out_dir / name).write_text(json.dumps(record, default=float) + "\n")

    print("provenance " + json.dumps(provenance))
    for key, (value, unit) in {**extra, **metrics}.items():
        print(f"{key} {value!r} {unit}")
    print(f"panel_digest {digest} (first {wl.panel} calls)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    failed = sum(c.error is not None or not c.outcome["checked"] for c in calls)
    print(json.dumps({
        "correct": not problems, "attempted": len(calls), "failed": failed,
        "metrics": payload,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
