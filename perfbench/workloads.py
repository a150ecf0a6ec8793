"""The three workloads: inputs from the seed, the timed loop, output checks.

Every run makes at least ``panel`` calls in a fixed order, then keeps
calling while the time budget lasts.  Pose quality and the digest cover the
panel only, so they repeat exactly for a given seed whatever the machine
speed; timings cover every call made.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import voxmi
from voxmi import bench as vbench
from voxmi import scan_io as vscan_io
from voxmi.voxel import (compute_feature_map, compute_overlap,
                         overlap_voxel_count, voxelize)

from tracing import Tracer, counting

# Criterion-3 thresholds: an align ending at or beyond either one failed.
MAX_TERR_M = 0.5
MAX_RERR_DEG = 2.0
START_DT_M = 3.0
START_DTHETA_DEG = 5.0
# Criterion-5 grids; the truth sits at index 40 of each.
SWEEP_GRIDS = {
    "rz": np.radians(np.linspace(-20.0, 20.0, 81)),
    "tx": np.linspace(-10.0, 10.0, 81),
}
SWEEP_CENTER = 40


@dataclass(frozen=True)
class Workload:
    kind: str          # "align" or "sweep"
    feature: str
    scene: dict        # SceneSpec fields besides the seed
    pairs: int         # scene pairs set up per run; call i uses pair i % pairs
    panel: int         # calls every run makes; quality and digest cover them
    setup_rounds: int  # times each pair is set up; setup_s is the median
    via_kitti: bool = False


WORKLOADS = {
    "align-urban50k": Workload("align", "varz", {}, pairs=8, panel=4,
                               setup_rounds=4),
    "align-wide120k": Workload(
        "align", "varz",
        {"extent": 160.0, "n_points": 120_000, "n_structures": 640},
        pairs=3, panel=3, setup_rounds=10, via_kitti=True),
    "sweep-urban50k-count": Workload("sweep", "count", {}, pairs=4, panel=8,
                                     setup_rounds=8),
}


@dataclass
class Pair:
    scan_a: voxmi.PointCloud
    scan_b: voxmi.PointCloud
    truth: voxmi.EulerPose
    setup_s: list[float]   # one per setup round
    info: dict


@dataclass
class Call:
    index: int
    pair: int
    wall_s: float
    evals: int
    start: voxmi.EulerPose | None = None     # align: perturbed start
    axis: str | None = None                  # sweep: swept axis
    values: np.ndarray | None = None         # sweep: axis grid
    report: voxmi.AlignmentReport | None = None
    curve: list | None = None
    error: str | None = None
    outcome: dict = field(default_factory=dict)


def _seq(seed: int, held_out: bool, *key: int) -> np.random.SeedSequence:
    """Independent stream per (pair or call); held-out seeds use stream 1."""
    return np.random.SeedSequence(seed, spawn_key=(int(held_out), *key))


def _random_truth(rng: np.random.Generator) -> voxmi.EulerPose:
    """Same ranges as the library's synthetic benchmark truth offsets."""
    return voxmi.EulerPose(
        rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(-0.2, 0.2),
        rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02),
        rng.uniform(-0.5, 0.5),
    )


def config(wl: Workload) -> voxmi.AlignmentConfig:
    return voxmi.AlignmentConfig(feature=voxmi.FeatureKind.from_name(wl.feature))


def _build(wl: Workload, scene_seed: int, truth: voxmi.EulerPose,
           cfg: voxmi.AlignmentConfig, paths: tuple[Path, Path] | None):
    """Make (urban) or load (wide) one pair's scans, then warm up with one
    evaluation at the truth.  This is what ``setup_s`` times."""
    if paths is None:
        scan_a, world_b = vbench.synth_scene_pair(
            voxmi.SceneSpec(seed=scene_seed, **wl.scene))
        scan_b = voxmi.apply_transform(
            world_b, voxmi.inverse(voxmi.euler_to_transform(truth)))
    else:
        scan_a = vscan_io.load_kitti_bin(paths[0])
        scan_b = vscan_io.load_kitti_bin(paths[1])
    voxmi.mi_at(scan_a, scan_b, truth, cfg)
    return scan_a, scan_b


def setup_pairs(wl: Workload, seed: int, held_out: bool,
                cfg: voxmi.AlignmentConfig, workdir: Path) -> list[Pair]:
    """Set up every pair ``wl.setup_rounds`` times, round-robin over pairs.

    Each round times ``_build`` once per pair, so the samples of one pair
    are spread over the whole set-up rather than taken back to back.  The
    wide scans are written to KITTI ``.bin`` once, untimed, beforehand.
    """
    plans = []
    for k in range(wl.pairs):
        scene_seed, truth_seed = (int(s) for s in
                                  _seq(seed, held_out, 0, k).generate_state(2))
        truth = _random_truth(np.random.default_rng(truth_seed))
        paths = None
        if wl.via_kitti:
            scan_a, scan_b = _build(wl, scene_seed, truth, cfg, None)
            paths = (workdir / f"pair{k}-a.bin", workdir / f"pair{k}-b.bin")
            vscan_io.save_kitti_bin(scan_a, paths[0])
            vscan_io.save_kitti_bin(scan_b, paths[1])
        plans.append((scene_seed, truth, paths))
    times = [[] for _ in plans]
    scans = [None] * len(plans)
    for _ in range(wl.setup_rounds):
        for k, (scene_seed, truth, paths) in enumerate(plans):
            start = time.perf_counter()
            scans[k] = _build(wl, scene_seed, truth, cfg, paths)
            times[k].append(time.perf_counter() - start)

    pairs = []
    for (scene_seed, truth, _), (scan_a, scan_b), setup_s in zip(plans, scans,
                                                                 times):
        vox_a = voxelize(scan_a, cfg.grid)
        vox_b = voxelize(
            voxmi.apply_transform(scan_b, voxmi.euler_to_transform(truth)),
            cfg.grid)
        info = {
            "scene_seed": scene_seed, "points_a": len(scan_a),
            "points_b": len(scan_b), "occupied_a": len(vox_a),
            "occupied_b": len(vox_b),
            "box_cells": overlap_voxel_count(compute_overlap(vox_a.bounds,
                                                             vox_b.bounds)),
        }
        pairs.append(Pair(scan_a, scan_b, truth, setup_s, info))
    return pairs


def _plan(wl: Workload, i: int, pair: Pair, seed: int, held_out: bool) -> Call:
    call = Call(index=i, pair=i % wl.pairs, wall_s=0.0, evals=0)
    if wl.kind == "align":
        perturb_seed = int(_seq(seed, held_out, 1, i).generate_state(1)[0])
        call.start = voxmi.perturb_pose(pair.truth, START_DT_M,
                                        START_DTHETA_DEG, perturb_seed)
    else:
        call.axis = ("rz", "tx")[(i // wl.pairs) % 2]
        call.values = getattr(pair.truth, call.axis) + SWEEP_GRIDS[call.axis]
    return call


def _invoke(wl: Workload, call: Call, pair: Pair,
            cfg: voxmi.AlignmentConfig) -> None:
    start = time.perf_counter()
    try:
        if wl.kind == "align":
            call.report = voxmi.align(pair.scan_a, pair.scan_b,
                                      voxmi.euler_to_transform(call.start), cfg)
        else:
            call.curve = voxmi.sweep_axis(pair.scan_a, pair.scan_b, pair.truth,
                                          call.axis, call.values, cfg)
    except voxmi.VoxmiError as exc:
        call.error = f"{type(exc).__name__}: {exc}"
    call.wall_s = time.perf_counter() - start


def _timed(wl, call, pair, cfg, tracer: Tracer | None) -> None:
    """One call; evaluations come from the span tree or a plain counter."""
    if tracer is None:
        with counting("voxmi.align", "mi_objective") as box:
            _invoke(wl, call, pair, cfg)
        call.evals = box[0]
        return
    with tracer.span("call"):
        _invoke(wl, call, pair, cfg)


def run_loop(wl: Workload, seed: int, held_out: bool, seconds: float,
             pairs: list[Pair], cfg, tracer: Tracer | None) -> list[Call]:
    """Closed loop, one client: the next call starts when the last returns.

    After the panel, a call starts only if the median call so far still
    fits in the budget, so a run overshoots ``seconds`` by little.
    """
    calls: list[Call] = []
    t0 = time.perf_counter()
    while True:
        if len(calls) >= wl.panel:
            p50 = statistics.median(c.wall_s for c in calls)
            if time.perf_counter() - t0 + p50 > seconds:
                break
        i = len(calls)
        call = _plan(wl, i, pairs[i % wl.pairs], seed, held_out)
        _timed(wl, call, pairs[call.pair], cfg, tracer)
        calls.append(call)
    return calls


def trace_overhead(pair: Pair, cfg, install) -> float:
    """Traced over untraced evaluation rate on identical evaluations.

    Blocks of evaluations along the yaw grid alternate between plain and
    traced, so a drift in machine speed falls on both sides alike.
    """
    align_mod = importlib.import_module("voxmi.align")
    feat_a = compute_feature_map(voxelize(pair.scan_a, cfg.grid), pair.scan_a,
                                 cfg.feature)
    poses = []
    for offset in SWEEP_GRIDS["rz"][::8]:
        x = pair.truth.as_vector()
        x[5] += offset
        poses.append(voxmi.EulerPose.from_vector(x))
    seconds = {False: 0.0, True: 0.0}
    for _ in range(5):
        for traced in (False, True):
            tracer = Tracer()
            if traced:
                install(tracer)
            start = time.perf_counter()
            try:
                for pose in poses:
                    align_mod.mi_objective(feat_a, pair.scan_b, pose, cfg.grid,
                                           cfg.binning, cfg.phi_enabled)
            finally:
                tracer.restore()
            seconds[traced] += time.perf_counter() - start
    return seconds[False] / seconds[True]


def _mi_ok(res: voxmi.MIResult) -> bool:
    return 0.0 <= res.mi <= min(res.h_x, res.h_y) + 1e-12


def score(wl: Workload, call: Call, pair: Pair, cfg) -> dict:
    """Pose quality of one call and the check of its output.

    The reported MI must equal a fresh ``mi_at`` at the returned pose bit
    for bit, and lie in [0, min(H(A), H(B))].
    """
    truth_t = voxmi.euler_to_transform(pair.truth)
    if call.error is not None:
        start_t = voxmi.euler_to_transform(call.start) if call.start else truth_t
        return {"failed": True, "checked": True, "digest": call.error.encode(),
                "terr_m": voxmi.translation_error(start_t, truth_t),
                "rerr_deg": voxmi.rotation_error(start_t, truth_t).euler_deg}
    if wl.kind == "align":
        rep = call.report
        terr = voxmi.translation_error(rep.estimated, truth_t)
        rerr = voxmi.rotation_error(rep.estimated, truth_t).euler_deg
        res = voxmi.mi_at(pair.scan_a, pair.scan_b, rep.estimated_pose, cfg)
        checked = res.mi.hex() == float(rep.final_mi).hex() and _mi_ok(res)
        digest = (rep.estimated_pose.as_vector().tobytes()
                  + np.float64(rep.final_mi).tobytes())
        return {"failed": terr >= MAX_TERR_M or rerr >= MAX_RERR_DEG,
                "checked": checked, "digest": digest, "terr_m": terr,
                "rerr_deg": rerr, "mi": rep.final_mi,
                "iterations": rep.iterations}
    mis = np.array([mi for _, mi in call.curve], dtype=np.float64)
    k = int(np.argmax(mis))
    x = pair.truth.as_vector()
    x[voxmi.SWEEP_AXES.index(call.axis)] = call.values[k]
    res = voxmi.mi_at(pair.scan_a, pair.scan_b, voxmi.EulerPose.from_vector(x),
                      cfg)
    err = abs(float(call.values[k]) - getattr(pair.truth, call.axis))
    out = {"failed": abs(k - SWEEP_CENTER) > 1,
           "checked": res.mi.hex() == float(mis[k]).hex() and _mi_ok(res),
           "digest": mis.tobytes(), "mi": float(mis[k]), "argmax": k}
    if call.axis == "tx":
        out["terr_m"] = err
    else:
        out["rerr_deg"] = math.degrees(err)
    return out


def panel_summary(wl: Workload, calls: list[Call]) -> tuple[dict, str]:
    """Deterministic quality metrics and the digest over the panel calls."""
    panel = [c.outcome for c in calls[:wl.panel]]
    h = hashlib.sha256()
    for o in panel:
        h.update(o["digest"])
    terr = [o["terr_m"] for o in panel if "terr_m" in o]
    rerr = [o["rerr_deg"] for o in panel if "rerr_deg" in o]
    quality = {
        "pose.final_terr_m": (float(np.mean(terr)), "m"),
        "pose.final_rerr_deg": (float(np.mean(rerr)), "deg"),
        "pose.failed_frac": (sum(o["failed"] for o in panel) / len(panel),
                             "ratio"),
    }
    return quality, h.hexdigest()
