"""SVG rendering: proportional strokes, omission threshold, determinism."""

import re

import numpy as np
import pytest

from conftest import make_cantilever, make_ten_beam
from frameopt.render import (
    MARGIN_FRACTION,
    STROKE_FRACTION,
    render_svg,
    render_topology,
)

TENBEAM_GLOBAL = np.array(
    [0.069501, 0.0, 0.185909, 0.0, 0.042544, 0.0, 0.097948, 0.0, 0.063522, 0.0])


def stroke_widths(svg: str) -> list[float]:
    return [float(w) for w in re.findall(r'stroke-width="([^"]+)"', svg)]


def line_endpoints(svg: str) -> list[tuple[float, float, float, float]]:
    pat = r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"'
    return [tuple(float(v) for v in m) for m in re.findall(pat, svg)]


def test_single_element_stroke_width():
    gs = make_cantilever(1)
    svg = render_svg(gs, [0.1])
    widths = stroke_widths(svg)
    # The widest member is drawn at STROKE_FRACTION of the drawing span.
    assert widths == [pytest.approx(STROKE_FRACTION * 1.0)]


def test_stroke_width_proportional_to_area():
    gs = make_cantilever(3)
    svg = render_svg(gs, [0.2, 0.1, 0.05])
    widths = stroke_widths(svg)
    assert len(widths) == 3
    assert np.allclose(widths, [0.04, 0.02, 0.01], rtol=1e-4)


def test_members_at_threshold_omitted():
    gs = make_cantilever(2)
    eps = 1e-6
    svg = render_svg(gs, [eps, eps + 1e-9], eps=eps)
    assert svg.count("<line ") == 1


def test_tenbeam_zero_set_absent():
    gs = make_ten_beam()
    svg = render_svg(gs, TENBEAM_GLOBAL)
    assert svg.count("<line ") == 5
    # Element 2 joins nodes 1 and 5, i.e. (0,0)-(1,1); no line may use
    # that diagonal since its area is zero.
    assert ((0.0, 0.0, 1.0, -1.0)) not in line_endpoints(svg)
    widths = stroke_widths(svg)
    assert max(widths) == pytest.approx(STROKE_FRACTION * 2.0, rel=1e-4)


def test_all_small_areas_gives_nodes_only():
    gs = make_ten_beam()
    svg = render_svg(gs, np.full(10, 1e-6))
    assert svg.count("<line ") == 0
    assert svg.count("<circle ") == 6


def test_viewbox_has_margin():
    gs = make_ten_beam()
    svg = render_svg(gs, TENBEAM_GLOBAL)
    vb = re.search(r'viewBox="([^"]+)"', svg).group(1)
    values = [float(v) for v in vb.split()]
    margin = MARGIN_FRACTION * 2.0  # span of the 2 x 1 grid
    assert values == pytest.approx([-margin, -1.0 - margin,
                                    2.0 + 2 * margin, 1.0 + 2 * margin])


def test_output_is_deterministic(tmp_path):
    gs = make_ten_beam()
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    render_topology(gs, TENBEAM_GLOBAL, first)
    render_topology(gs, TENBEAM_GLOBAL, second)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text(encoding="utf-8") == render_svg(gs, TENBEAM_GLOBAL)


def test_wrong_area_count_rejected():
    with pytest.raises(ValueError, match="expected 3 areas"):
        render_svg(make_cantilever(3), [0.1, 0.1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_areas_raise(bad):
    with pytest.raises(ValueError, match="areas must be finite"):
        render_svg(make_cantilever(3), [0.1, bad, 0.05])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-9])
def test_bad_eps_raises(bad):
    # A NaN threshold neither shows nor omits a member: every line would be
    # drawn at width 0.
    with pytest.raises(ValueError, match="eps must be non-negative and finite"):
        render_svg(make_cantilever(3), [0.1, 0.1, 0.05], eps=bad)
