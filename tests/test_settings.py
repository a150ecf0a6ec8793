"""Settings: non-finite values are refused by name, and the CLI's defaults
are the config dataclasses' own."""

from __future__ import annotations

import math

import numpy as np
import pytest

from voxmi import (
    AlignmentConfig,
    BinningSpec,
    FeatureKind,
    PerturbationSpec,
    PointCloud,
    SceneSpec,
    SimplexConfig,
    synth_scene,
)
from voxmi import cli

SETTINGS = {
    "extent": lambda v: SceneSpec(extent=v),
    "noise_sigma": lambda v: SceneSpec(noise_sigma=v),
    "translation_magnitudes":
        lambda v: PerturbationSpec(translation_magnitudes=(1.0, v)),
    "rotation_magnitudes":
        lambda v: PerturbationSpec(rotation_magnitudes=(v,)),
    "initial_steps":
        lambda v: SimplexConfig(initial_steps=(8.0, v, 1.0, 0.1, 0.1, 0.8)),
    "f_tol": lambda v: SimplexConfig(f_tol=v),
    "x_tol": lambda v: SimplexConfig(x_tol=v),
    "upper_clamp": lambda v: BinningSpec(kind=FeatureKind.COUNT,
                                         upper_clamp=v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", sorted(SETTINGS))
def test_a_non_finite_setting_is_refused_by_name(field, value):
    with pytest.raises(ValueError, match=field):
        SETTINGS[field](value)


@pytest.mark.parametrize("field,value", [
    ("seed", 1.0), ("seed", True), ("seed", -1), ("seed", "3"),
    ("n_points", 1e4), ("n_points", 5000.0), ("n_points", True),
    ("n_points", np.float64(100)), ("n_points", 0),
    ("n_structures", 2.0), ("n_structures", False), ("n_structures", -1),
])
def test_a_bad_scene_integer_is_refused_by_name(field, value):
    with pytest.raises(ValueError, match=field):
        SceneSpec(**{field: value})


def test_numpy_integers_make_the_same_scene_as_python_integers():
    spec = SceneSpec(seed=np.uint32(7), n_points=np.int64(500),
                     n_structures=np.int16(3))
    want = SceneSpec(seed=7, n_points=500, n_structures=3)
    np.testing.assert_array_equal(synth_scene(spec).points,
                                  synth_scene(want).points)


def test_synth_with_a_non_finite_extent_exits_one(tmp_path, capsys):
    out = tmp_path / "c.xyz"
    code = cli.main(["synth", "--out", str(out), "--points", "100",
                     "--extent", "nan"])
    assert code == 1
    assert "extent" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["align", "a.bin", "b.bin"],
    ["sweep", "a.bin", "b.bin", "--axis", "tx", "--range", "-1", "1"],
    ["histogram", "a.bin", "b.bin"],
    ["benchmark"],
])
def test_alignment_options_default_to_the_config(argv):
    args = cli.build_parser().parse_args(argv)
    assert cli._build_config(args) == AlignmentConfig()


def test_benchmark_options_default_to_the_specs(monkeypatch, capsys):
    seen = {}

    def fake_run(pert, cfg, scene=None, pairs=None, **kwargs):
        seen.update(pert=pert, cfg=cfg, scene=scene, pairs=pairs)
        return []

    monkeypatch.setattr(cli, "run_benchmark", fake_run)
    assert cli.main(["benchmark"]) == 0
    assert seen == {"pert": PerturbationSpec(), "cfg": AlignmentConfig(),
                    "scene": SceneSpec(), "pairs": None}


def test_synth_options_default_to_the_scene_spec(monkeypatch, tmp_path):
    seen = []

    def fake_synth(spec):
        seen.append(spec)
        return PointCloud(np.zeros((1, 3)))

    monkeypatch.setattr(cli, "synth_scene", fake_synth)
    assert cli.main(["synth", "--out", str(tmp_path / "s.xyz")]) == 0
    assert seen == [SceneSpec()]
