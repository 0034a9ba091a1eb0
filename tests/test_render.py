import os
from pathlib import Path

from evasion_kit.analysis import Witness
from evasion_kit.rasterize import grid_for_scenario, rasterize_fiber
from evasion_kit.render import render_scenario, slice_svg
from evasion_kit.scenario import builtin_scenario, random_interval_scenario


def test_slice_svg_structure():
    s = builtin_scenario("split")
    f = rasterize_fiber(s, 0.0, grid_for_scenario(s, cells=64))
    text = slice_svg(f)
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert 'width="320"' in text
    for color in ("#bfbfbf", "#8f8f8f", "#ffffff", "#d23b3b"):
        assert color in text


def test_slice_svg_witness_overlay():
    s = builtin_scenario("split")
    grid = grid_for_scenario(s, cells=64)
    f = rasterize_fiber(s, 0.5, grid)
    w = Witness(element=(1, 1), samples=(
        (0.0, (0.0, 0.0)), (0.5, (0.05, 0.0)), (1.0, (0.05, 0.1))))
    text = slice_svg(f, witnesses=(w,))
    assert "polyline" in text
    assert "circle" in text


def test_slice_svg_dimension_1():
    s = random_interval_scenario(0)
    f = rasterize_fiber(s, 0.5, grid_for_scenario(s, cells=64))
    text = slice_svg(f)
    assert text.startswith("<svg")
    assert 'height="5"' in text


def test_render_scenario_writes_files(tmp_path):
    s = builtin_scenario("close")
    grid = grid_for_scenario(s, cells=48)
    written = render_scenario(s, [0.0, 0.5, 1.0], grid,
                              out_dir=str(tmp_path), prefix="frame")
    assert [os.path.basename(p) for p in written] == [
        "frame_000.svg", "frame_001.svg", "frame_002.svg"]
    for path in written:
        assert Path(path).read_text().startswith("<svg")
