"""Count options refuse values below 1 at parse time, naming the option."""

from __future__ import annotations

import pytest

from voxmi.cli import build_parser, main

ALIGN = ["align", "a.bin", "b.bin"]
SWEEP = ["sweep", "a.bin", "b.bin", "--axis", "tx", "--range", "-1", "1"]
BENCHMARK = ["benchmark", "--kitti-dir", "scans"]
SYNTH = ["synth", "--out", "scan.xyz"]

COUNT_OPTIONS = [
    (SWEEP, "--steps"),
    (BENCHMARK, "--stride"),
    (BENCHMARK, "--max-pairs"),
    (BENCHMARK, "--jobs"),
    (BENCHMARK, "--trials"),
    (ALIGN, "--max-iterations"),
    (SYNTH, "--points"),
]


@pytest.mark.parametrize("value", ["0", "-3", "two"])
@pytest.mark.parametrize("argv, option", COUNT_OPTIONS,
                         ids=[o for _, o in COUNT_OPTIONS])
def test_count_below_one_exits_one_naming_the_option(capsys, argv, option,
                                                     value):
    assert main(argv + [option, value]) == 1
    err = capsys.readouterr().err
    assert (f"argument {option}: expected an integer >= 1, got '{value}'"
            in err)


@pytest.mark.parametrize("argv, option", COUNT_OPTIONS,
                         ids=[o for _, o in COUNT_OPTIONS])
def test_count_of_one_is_accepted(argv, option):
    args = build_parser().parse_args(argv + [option, "1"])
    assert getattr(args, option[2:].replace("-", "_")) == 1
