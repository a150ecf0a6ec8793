"""Paired parent/change runs of perfbench, summarized into a BENCH_*.json.

Usage, from anywhere:

    python3 tools/ab.py PARENT_DIR CHANGE_DIR --workload W --pairs N \\
        --seconds S [--seed 101] [--held-out] [--out-dir D]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  Pair i runs
``perfbench/run.py --trace 0`` once in each, parent first when i is even and
change first when i is odd, so drift on a shared host falls on both sides.
From each run the script reads these lines of standard output: the
``provenance`` line (the machine block), the ``panel_digest`` line, the
``pose.*`` and ``align.call_s.p50`` lines (pose quality over the panel calls
and the median call's wall time, which ``--trace 0`` prints but leaves out of
the JSON) and the last line, perfbench's JSON summary; a run that exits 1
(an output check failed) is kept, with ``correct: false``.  It writes
``D/BENCH_<workload>-seed<seed>[-heldout].json``: per end-to-end metric of
CHANGE_DIR's BENCHMARK.json, each side's values with their median and
quartiles, the pairs the change won (ties count for neither side) and
whether a gain holds: the change won at least nine tenths of the pairs, its
median beat the parent's by more than the parent's q75 - q25, every change
run was correct, and the change runs failed no more calls in all than the
parent runs.  Under ``printed`` it keeps each side's values and median of
every pose and latency line; no gain rule reads them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, linearly interpolated between order statistics
    (numpy's default percentile)."""
    if len(values) == 1:
        q25 = median = q75 = values[0]
    else:
        q25, median, q75 = statistics.quantiles(values, n=4,
                                                method="inclusive")
    return {"median": median, "q25": q25, "q75": q75}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over paired runs: ``parent[i]`` and ``change[i]`` are pair
    i.  ``better`` is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ps, cs = quartiles(parent), quartiles(change)
    gain = sign * (ps["median"] - cs["median"])
    spread = ps["q75"] - ps["q25"]
    return {
        "better": better, "parent": {**ps, "values": parent},
        "change": {**cs, "values": change},
        "pairs": len(parent), "change_won": won,
        "median_gain": gain, "parent_iqr": spread,
        "gain_holds": 10 * won >= 9 * len(parent) and gain > spread,
    }


def parse_run(stdout: str) -> dict:
    """The machine block, panel digest and summary of one perfbench run."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    summary = json.loads(lines[-1])
    provenance = digest = None
    for line in lines[:-1]:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
        elif line.startswith("panel_digest "):
            digest = line.split()[1]
    if provenance is None or digest is None:
        raise ValueError("perfbench output lacks its provenance or "
                         "panel_digest line")
    return {"provenance": provenance, "panel_digest": digest,
            "correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {k: v["value"] for k, v in summary["metrics"].items()}}


def parse_printed(stdout: str) -> dict[str, float]:
    """The ``pose.*`` and ``align.call_s.p50`` lines of one perfbench run,
    ``name value unit``, as {name: value}."""
    printed = {}
    for line in stdout.splitlines():
        name, _, rest = line.partition(" ")
        if name.startswith("pose.") or name == "align.call_s.p50":
            printed[name] = float(rest.split()[0])
    return printed


def printed_summary(runs: dict[str, list[dict]]) -> dict:
    """Each side's values and median of every printed line of its runs,
    ``runs[side][i]["printed"]``, by name."""
    names = dict.fromkeys(name for side in SIDES for r in runs[side]
                          for name in r["printed"])
    out = {}
    for name in names:
        out[name] = {}
        for side in SIDES:
            values = [r["printed"][name] for r in runs[side]
                      if name in r["printed"]]
            out[name][side] = {
                "median": statistics.median(values) if values else None,
                "values": values}
    return out


def summarize(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """Every end-to-end metric compared over the pairs, plus each side's
    machine block (from its first run), digests and outcomes.
    ``runs[side][i]`` is the parsed run of pair i.  A gain holds only if
    every change run was correct and the change runs failed no more calls
    than the parent runs."""
    sound = (all(r["correct"] for r in runs["change"])
             and sum(r["failed"] for r in runs["change"])
             <= sum(r["failed"] for r in runs["parent"]))
    out = {"metrics": {}}
    for m in end_to_end:
        got = compare([r["metrics"][m["name"]] for r in runs["parent"]],
                      [r["metrics"][m["name"]] for r in runs["change"]],
                      m["better"])
        got["gain_holds"] = got["gain_holds"] and sound
        out["metrics"][m["name"]] = got
    for side in SIDES:
        out[side] = {
            "machine": runs[side][0]["provenance"],
            "panel_digest": [r["panel_digest"] for r in runs[side]],
            "correct": all(r["correct"] for r in runs[side]),
            "attempted": [r["attempted"] for r in runs[side]],
            "failed": [r["failed"] for r in runs[side]],
        }
    out["digests_equal"] = len({r["panel_digest"] for side in SIDES
                                for r in runs[side]}) == 1
    return out


def run_perfbench(checkout: Path, args) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"] + (["--held-out"] if args.held_out else [])
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    # exit 1 is a failed output check, and the summary still ends the output
    if done.returncode in (0, 1):
        try:
            return {**parse_run(done.stdout),
                    "printed": parse_printed(done.stdout)}
        except (ValueError, KeyError):
            pass
    raise RuntimeError(f"{checkout}: {' '.join(cmd[1:])} exited "
                       f"{done.returncode}: {done.stderr.strip()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} {path}: no perfbench/run.py")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())

    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run_perfbench(checkouts[side], args))
            print(f"pair {i + 1}/{args.pairs} {side}: "
                  + " ".join(f"{k}={v:.6g}"
                             for k, v in runs[side][-1]["metrics"].items()),
                  file=sys.stderr)

    label = (f"{args.workload}-seed{args.seed}"
             + ("-heldout" if args.held_out else ""))
    result = {
        "workload": args.workload, "seed": args.seed,
        "held_out": args.held_out, "seconds": args.seconds,
        "pairs": args.pairs, "order": "parent first in even pairs",
        **summarize(runs, spec["end_to_end"]),
        "printed": printed_summary(runs),
    }
    out = args.out_dir / f"BENCH_{label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    for name, m in result["metrics"].items():
        p, c = m["parent"], m["change"]
        print(f"{name}: {p['median']:.6g} [{p['q25']:.6g}, {p['q75']:.6g}] -> "
              f"{c['median']:.6g} [{c['q25']:.6g}, {c['q75']:.6g}], change "
              f"better in {m['change_won']}/{m['pairs']}, gain holds: "
              f"{m['gain_holds']}")
    for name, m in result["printed"].items():
        print(f"{name}: {m['parent']['median']!r} -> {m['change']['median']!r}"
              " (medians)")
    print(f"digests equal: {result['digests_equal']}; wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
