"""``tools/ab.py``: the summary math on fixed inputs, without perfbench."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab_tool", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_quartiles_match_numpy_percentiles():
    for values in ([3.0], [2.0, 1.0], [5.0, 1.0, 4.0, 2.0, 3.0],
                   [0.021, 0.019, 0.025, 0.018, 0.030, 0.022, 0.020, 0.019,
                    0.024, 0.023]):
        got = ab.quartiles(values)
        q25, q50, q75 = np.percentile(values, [25, 50, 75])
        assert got == pytest.approx({"median": q50, "q25": q25, "q75": q75})


def test_a_lower_is_better_gain_that_holds():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]
    change = [p - 3.0 for p in parent]
    got = ab.compare(parent, change, "lower")
    assert got["change_won"] == 10
    assert got["parent_iqr"] == pytest.approx(13.375 - 11.125)
    assert got["median_gain"] == pytest.approx(3.0)
    assert got["gain_holds"]


def test_nine_of_ten_is_enough_and_eight_is_not():
    parent = [10.0] * 10
    nine = [9.0] * 9 + [11.0]
    assert ab.compare(parent, nine, "lower")["change_won"] == 9
    assert ab.compare(parent, nine, "lower")["gain_holds"]
    eight = [9.0] * 8 + [11.0, 11.0]
    assert not ab.compare(parent, eight, "lower")["gain_holds"]


def test_ties_count_for_neither_side():
    got = ab.compare([1.0, 2.0, 3.0], [1.0, 2.0, 2.0], "lower")
    assert got["change_won"] == 1
    assert not got["gain_holds"]


def test_a_gain_inside_the_parents_spread_does_not_hold():
    parent = [10.0, 14.0, 10.0, 14.0, 10.0, 14.0, 10.0, 14.0, 10.0, 14.0]
    change = [p - 1.0 for p in parent]
    got = ab.compare(parent, change, "lower")
    assert got["change_won"] == 10
    assert got["median_gain"] == pytest.approx(1.0)
    assert got["parent_iqr"] == pytest.approx(4.0)
    assert not got["gain_holds"]


def test_higher_is_better_counts_the_other_way():
    parent = [100.0, 101.0, 102.0, 103.0]
    got = ab.compare(parent, [p + 10.0 for p in parent], "higher")
    assert got["change_won"] == 4 and got["median_gain"] == 10.0
    assert got["gain_holds"]
    worse = ab.compare(parent, [p - 10.0 for p in parent], "higher")
    assert worse["change_won"] == 0 and worse["median_gain"] == -10.0
    assert not worse["gain_holds"]


def test_bad_inputs_are_refused():
    with pytest.raises(ValueError):
        ab.compare([1.0], [1.0, 2.0], "lower")
    with pytest.raises(ValueError):
        ab.compare([], [], "lower")
    with pytest.raises(ValueError):
        ab.compare([1.0], [1.0], "faster")


def fake_stdout(setup_s: float, digest: str = "ab12", correct: bool = True,
                failed: int = 0) -> str:
    summary = {"correct": correct, "attempted": 7, "failed": failed,
               "metrics": {"setup_s": {"value": setup_s, "unit": "s"},
                           "evals_per_s": {"value": 900.0, "unit": "1/s"}}}
    return "\n".join([
        'provenance {"nproc": 2, "cpu": "x"}',
        "pose.final_terr_m 0.1 m",
        f"setup_s {setup_s!r} s",
        f"panel_digest {digest} (first 8 calls)",
        json.dumps(summary),
    ]) + "\n"


def test_parse_run_reads_the_machine_block_digest_and_summary():
    got = ab.parse_run(fake_stdout(0.02))
    assert got == {"provenance": {"nproc": 2, "cpu": "x"},
                   "panel_digest": "ab12", "correct": True, "attempted": 7,
                   "failed": 0,
                   "metrics": {"setup_s": 0.02, "evals_per_s": 900.0}}
    with pytest.raises(ValueError):
        ab.parse_run("")
    with pytest.raises(ValueError):
        ab.parse_run(fake_stdout(0.02).replace("panel_digest", "digest"))


def test_summarize_pairs_runs_per_metric_and_compares_digests():
    runs = {"parent": [ab.parse_run(fake_stdout(s)) for s in (0.03, 0.02)],
            "change": [ab.parse_run(fake_stdout(s)) for s in (0.02, 0.025)]}
    spec = [{"name": "setup_s", "better": "lower"},
            {"name": "evals_per_s", "better": "higher"}]
    got = ab.summarize(runs, spec)
    assert got["metrics"]["setup_s"]["change_won"] == 1
    assert got["metrics"]["setup_s"]["parent"]["values"] == [0.03, 0.02]
    assert got["metrics"]["evals_per_s"]["change_won"] == 0
    assert got["digests_equal"]
    assert got["parent"]["correct"] and got["change"]["failed"] == [0, 0]
    runs["change"][1]["panel_digest"] = "ff00"
    assert not ab.summarize(runs, spec)["digests_equal"]


def test_a_gain_holds_only_if_the_change_fails_nothing_more():
    spec = [{"name": "setup_s", "better": "lower"}]

    def runs(change_failed, change_correct=True, parent_failed=(0, 0)):
        return {"parent": [ab.parse_run(fake_stdout(0.03, failed=f))
                           for f in parent_failed],
                "change": [ab.parse_run(fake_stdout(0.01, failed=f,
                                                    correct=change_correct))
                           for f in change_failed]}

    assert ab.summarize(runs((0, 0)), spec)["metrics"]["setup_s"][
        "gain_holds"]
    assert not ab.summarize(runs((0, 1)), spec)["metrics"]["setup_s"][
        "gain_holds"]
    assert not ab.summarize(runs((0, 0), change_correct=False), spec)[
        "metrics"]["setup_s"]["gain_holds"]
    # as many failed calls as the parent's, in other pairs, still hold
    assert ab.summarize(runs((1, 0), parent_failed=(0, 1)), spec)[
        "metrics"]["setup_s"]["gain_holds"]


def fake_checkout(root: Path, stdout: str, code: int) -> Path:
    """A directory whose ``perfbench/run.py`` prints ``stdout`` and exits
    with ``code``."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        f"import sys\nsys.stdout.write({stdout!r})\n"
        f"print('CHECK FAILED: x', file=sys.stderr)\nsys.exit({code})\n")
    return root


def test_a_run_whose_check_failed_is_kept(tmp_path):
    args = ab.argparse.Namespace(workload="w", seed=1, seconds=1.0,
                                 held_out=False)
    failed = fake_checkout(tmp_path / "a",
                           fake_stdout(0.02, correct=False, failed=2), 1)
    got = ab.run_perfbench(failed, args)
    assert got["correct"] is False and got["failed"] == 2
    unusable = fake_checkout(tmp_path / "b", fake_stdout(0.02), 2)
    with pytest.raises(RuntimeError, match="exited 2"):
        ab.run_perfbench(unusable, args)
    silent = fake_checkout(tmp_path / "c", "", 1)
    with pytest.raises(RuntimeError, match="exited 1: CHECK FAILED"):
        ab.run_perfbench(silent, args)


PRINTED = "\n".join([
    'provenance {"nproc": 2}',
    "align.call_s.p50 0.41250000000000003 s",
    "pose.final_terr_m 0.5213 m",
    "pose.final_rerr_deg 0.61 deg",
    "pose.failed_frac 0.09375 ratio",
    "setup_s 0.0185 s",
    "evals_per_s 798.6 1/s",
    "panel_digest ab12 (first 32 calls)",
    "{}",
])


def test_parse_printed_reads_the_pose_and_latency_lines_only():
    assert ab.parse_printed(PRINTED) == {
        "align.call_s.p50": 0.41250000000000003, "pose.final_terr_m": 0.5213,
        "pose.final_rerr_deg": 0.61, "pose.failed_frac": 0.09375}
    assert ab.parse_printed(fake_stdout(0.02)) == {"pose.final_terr_m": 0.1}
    assert ab.parse_printed("setup_s 0.02 s\n{}") == {}


def test_printed_lines_are_kept_per_side_outside_every_gain_rule(tmp_path):
    args = ab.argparse.Namespace(workload="w", seed=1, seconds=1.0,
                                 held_out=False)
    run = ab.run_perfbench(fake_checkout(tmp_path, fake_stdout(0.02), 0),
                           args)
    assert run["printed"] == {"pose.final_terr_m": 0.1}
    runs = {"parent": [{"printed": {"pose.failed_frac": v,
                                    "align.call_s.p50": 0.4}}
                       for v in (0.25, 0.0, 0.125)],
            "change": [{"printed": {"pose.failed_frac": v}}
                       for v in (0.0, 0.0, 0.5)]}
    got = ab.printed_summary(runs)
    assert got["pose.failed_frac"] == {
        "parent": {"median": 0.125, "values": [0.25, 0.0, 0.125]},
        "change": {"median": 0.0, "values": [0.0, 0.0, 0.5]}}
    assert got["align.call_s.p50"]["change"] == {"median": None, "values": []}
