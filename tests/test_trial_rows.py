"""Trial rows: every ``trials.csv`` column, and the span of a trial's time."""

from __future__ import annotations

import csv
import math
import time

import numpy as np

import voxmi.bench

from voxmi import (
    TRIAL_CSV_HEADER,
    PerturbationSpec,
    SceneSpec,
    TrialRecord,
    apply_transform,
    run_benchmark,
    runtime_invariance_check,
    synth_scene,
    write_trials_csv,
)

RECORDS = [
    TrialRecord(magnitude=1.5, trial=2, init_terr=1.25, final_terr=0.125,
                init_rerr=3.5, final_rerr=0.0625, geodesic_rerr=0.03125,
                iters=17, wall_s=0.75, converged=True),
    TrialRecord(magnitude=4.0, trial=5, init_terr=3.75, final_terr=2.5,
                init_rerr=7.25, final_rerr=6.5, geodesic_rerr=6.125,
                iters=300, wall_s=1.875, converged=False),
]


def test_each_trials_csv_column_is_its_field(tmp_path):
    path = tmp_path / "trials.csv"
    write_trials_csv(RECORDS, path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == TRIAL_CSV_HEADER.split(",")
    for record, row in zip(RECORDS, rows, strict=True):
        assert row == {
            "magnitude": repr(record.magnitude),
            "trial": str(record.trial),
            "init_terr_m": repr(record.init_terr),
            "final_terr_m": repr(record.final_terr),
            "init_rerr_deg": repr(record.init_rerr),
            "final_rerr_deg": repr(record.final_rerr),
            "geodesic_rerr_deg": repr(record.geodesic_rerr),
            "iters": str(record.iters),
            "wall_s": repr(record.wall_s),
            "converged": "1" if record.converged else "0",
        }


def test_a_failed_trial_keeps_its_time():
    scan = synth_scene(SceneSpec(seed=3, n_points=2000, n_structures=5))
    far = np.eye(4)
    far[0, 3] = 5000.0
    pert = PerturbationSpec((1.0, 2.0, 3.0), trials_per_magnitude=1)
    records = run_benchmark(
        pert, pairs=[(scan, apply_transform(scan, far), np.eye(4))])
    assert len(records) == 3
    for r in records:
        assert not r.converged and r.iters == 0
        assert r.final_terr == r.init_terr
        assert r.wall_s > 0.0
    assert math.isfinite(runtime_invariance_check(records).ratio)


def test_a_converged_trial_times_the_whole_align_call(monkeypatch):
    """Its ``wall_s`` covers all of ``align``, like a failed trial's, not
    only the search the report times."""
    pause, reports = 0.2, []
    real_align = voxmi.bench.align

    def slow_align(*args):
        time.sleep(pause)
        reports.append(real_align(*args))
        return reports[-1]

    monkeypatch.setattr(voxmi.bench, "align", slow_align)
    scan = synth_scene(SceneSpec(seed=6, n_points=4000, n_structures=10))
    pert = PerturbationSpec((1.0,), trials_per_magnitude=1, seed=1)
    (r,) = run_benchmark(pert, pairs=[(scan, scan, np.eye(4))])
    assert r.converged
    assert r.wall_s >= pause + reports[0].wall_time
