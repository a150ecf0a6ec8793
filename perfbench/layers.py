"""Which library names the traced run wraps, and the per-layer metrics.

Stage spans are the calls ``voxmi.mi.mi_objective`` makes for one
evaluation.  Scan A's preparation goes through ``voxmi.align``'s own
imports of ``voxelize`` and ``compute_feature_map``, so it is traced under
separate names and never mixed into the per-evaluation stages.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from voxmi.mi import NO_OVERLAP_SENTINEL
from voxmi.voxel import overlap_voxel_count

from tracing import Tracer

# (module, attribute, span name) of each stage of one objective evaluation
STAGES = (
    ("voxmi.mi", "apply_transform", "geometry.apply_transform"),
    ("voxmi.mi", "voxelize", "voxel.voxelize"),
    ("voxmi.mi", "compute_feature_map", "voxel.compute_feature_map"),
    ("voxmi.mi", "compute_overlap", "voxel.compute_overlap"),
    ("voxmi.mi", "build_joint_histogram", "mi.build_joint_histogram"),
    ("voxmi.mi", "mutual_information", "mi.mutual_information"),
)
EVAL = "mi.mi_objective"
OPTIM = "optim.nelder_mead_maximize"
PREP = ("align.voxelize", "align.compute_feature_map")
LOAD = "scan_io.load_kitti_bin"
SYNTH = "bench.synth_scene_pair"


def install(tracer: Tracer) -> None:
    probes = {
        "voxel.voxelize": lambda args, res: (len(args[0]), len(res)),
        "voxel.compute_overlap": lambda args, res: overlap_voxel_count(res),
    }
    for module, attr, name in STAGES:
        tracer.wrap(module, attr, name, probes.get(name))
    tracer.wrap("voxmi.align", "mi_objective", EVAL, lambda a, res: res)
    tracer.wrap("voxmi.align", "nelder_mead_maximize", OPTIM,
                lambda a, res: res.iterations)
    tracer.wrap("voxmi.align", "voxelize", PREP[0])
    tracer.wrap("voxmi.align", "compute_feature_map", PREP[1])
    tracer.wrap("voxmi.scan_io", "load_kitti_bin", LOAD,
                lambda a, res: 16 * len(res))
    tracer.wrap("voxmi.bench", "synth_scene_pair", SYNTH)


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def metrics(tracer: Tracer, panel: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the span tree, as {name: (value, unit)}.

    The optimizer counts cover the first ``panel`` calls, so they repeat
    exactly for a seed however many calls the time budget allowed.  Stage
    times are milliseconds per evaluation (total stage time over the
    evaluation count), so they add up to the evaluation time less its self
    time.  A layer a workload never reaches reads 0; a metric built on a
    span the library no longer has is left out.
    """
    spans = tracer.spans
    dur = [(s[2] - s[1]) * 1e3 for s in spans]
    children = defaultdict(list)
    for i, s in enumerate(spans):
        children[s[3]].append(i)

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def child_ms(i, names=None):
        return sum(dur[c] for c in children[i]
                   if names is None or spans[c][0] in names)

    evals = named(EVAL)
    n_eval = max(len(evals), 1)
    eval_ms = np.array([dur[i] for i in evals]) if evals else np.zeros(1)
    stage_names = {name for _, _, name in STAGES}
    stage_total = defaultdict(float)
    points, occupied, cells = [], [], []
    for e in evals:
        for c in children[e]:
            name = spans[c][0]
            stage_total[name] += dur[c]
            if name == "voxel.voxelize" and spans[c][4] is not None:
                points.append(spans[c][4][0])
                occupied.append(spans[c][4][1])
            elif name == "voxel.compute_overlap" and spans[c][4] is not None:
                cells.append(spans[c][4])

    calls = named("call")
    evals_in_call = defaultdict(int)
    for e in evals:
        p = spans[e][3]
        while p >= 0 and spans[p][0] != "call":
            p = spans[p][3]
        if p >= 0:
            evals_in_call[p] += 1
    optims = named(OPTIM)
    panel_optims = [i for i in optims if spans[i][3] in calls[:panel]]
    loads = named(LOAD)
    load_s = sum(dur[i] for i in loads) / 1e3
    sentinel = sum(1 for e in evals if spans[e][4] == NO_OVERLAP_SENTINEL)

    # name: (value, unit, spans it is built from)
    out = {
        f"{name}.ms": (stage_total[name] / n_eval, "ms", (EVAL, name))
        for _, _, name in STAGES
    }
    out.update({
        "voxel.points": (_mean(points), "count", (EVAL, "voxel.voxelize")),
        "voxel.occupied": (_mean(occupied), "count", (EVAL, "voxel.voxelize")),
        "voxel.overlap_cells": (_mean(cells), "count",
                                (EVAL, "voxel.compute_overlap")),
        "mi.mi_objective.ms.p50": (float(np.percentile(eval_ms, 50)), "ms",
                                   (EVAL,)),
        "mi.mi_objective.ms.p99": (float(np.percentile(eval_ms, 99)), "ms",
                                   (EVAL,)),
        "mi.mi_objective.self_ms": (
            _mean([dur[e] - child_ms(e) for e in evals]), "ms",
            (EVAL,) + tuple(stage_names)),
        "mi.sentinel_frac": (sentinel / n_eval, "ratio", (EVAL,)),
        "optim.evals_per_align": (
            _mean([evals_in_call[spans[i][3]] for i in panel_optims]), "count",
            (EVAL, OPTIM)),
        "optim.iterations": (_mean([spans[i][4] for i in panel_optims]),
                             "count", (OPTIM,)),
        "optim.self_ms": (
            _mean([dur[i] - child_ms(i, {EVAL}) for i in optims]), "ms",
            (EVAL, OPTIM)),
        "align.prep_ms": (_mean([child_ms(c, set(PREP)) for c in calls]), "ms",
                          PREP),
        "scan_io.load_kitti_bin.ms": (_mean([dur[i] for i in loads]), "ms",
                                      (LOAD,)),
        "scan_io.load_mb_per_s": (
            sum(spans[i][4] for i in loads) / 1e6 / load_s if loads else 0.0,
            "MB/s", (LOAD,)),
        "bench.synth_scene_pair.ms": (_mean([dur[i] for i in named(SYNTH)]),
                                      "ms", (SYNTH,)),
        "trace.coverage": (
            float(sum(stage_total[n] for n in stage_names)
                  / max(eval_ms.sum(), 1e-12)),
            "ratio", (EVAL,) + tuple(stage_names)),
    })
    missing = set(tracer.missing)
    return {name: (value, unit) for name, (value, unit, needs) in out.items()
            if missing.isdisjoint(needs)}
