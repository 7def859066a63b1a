"""Deterministic SVG rendering of frame topologies.

Members are drawn with stroke width proportional to their cross-sectional
area; members at or below the zero threshold are omitted entirely, so the
picture shows the topology the design actually uses.  Output is plain text
SVG, byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import numpy as np

from frameopt.local import OcConfig
from frameopt.model import GroundStructure

STROKE_FRACTION = 0.04  # widest member as a fraction of the drawing span
NODE_FRACTION = 0.012   # node marker radius as a fraction of the span
MARGIN_FRACTION = 0.05

MEMBER_COLOR = "#1f3a5f"
NODE_COLOR = "#b03a2e"


def _fmt(value: float) -> str:
    text = format(float(value), ".6g")
    return "0" if text == "-0" else text


def render_svg(gs: GroundStructure, areas, eps: float = OcConfig.eps) -> str:
    """SVG document for a design; members with a_i <= eps + 1e-12 are omitted."""
    areas = np.asarray(areas, dtype=float)
    if areas.shape != (gs.n_elements,):
        raise ValueError(f"expected {gs.n_elements} areas, got {areas.shape}")
    if not np.all(np.isfinite(areas)):
        raise ValueError("areas must be finite")
    if not (np.isfinite(eps) and eps >= 0.0):
        raise ValueError("eps must be non-negative and finite")
    xs = np.array([n.x for n in gs.nodes])
    ys = np.array([n.y for n in gs.nodes])
    span = max(float(xs.max() - xs.min()), float(ys.max() - ys.min()), 1e-9)
    margin = MARGIN_FRACTION * span

    threshold = eps + 1e-12
    shown = areas > threshold
    scale = STROKE_FRACTION * span / float(areas[shown].max()) if shown.any() else 0.0

    width = float(xs.max() - xs.min()) + 2 * margin
    height = float(ys.max() - ys.min()) + 2 * margin
    vb = (float(xs.min()) - margin, -float(ys.max()) - margin, width, height)

    pos = {n.id: (n.x, -n.y) for n in gs.nodes}  # SVG y points down
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(vb[0])} {_fmt(vb[1])} {_fmt(vb[2])} {_fmt(vb[3])}">',
        f'<g stroke="{MEMBER_COLOR}" stroke-linecap="round" fill="none">',
    ]
    for el, a in zip(gs.elements, areas):
        if a <= threshold:
            continue
        (xa, ya), (xb, yb) = pos[el.node_a], pos[el.node_b]
        lines.append(
            f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" x2="{_fmt(xb)}" '
            f'y2="{_fmt(yb)}" stroke-width="{_fmt(scale * a)}"/>')
    lines.append("</g>")
    lines.append(f'<g fill="{NODE_COLOR}">')
    radius = NODE_FRACTION * span
    for node in gs.nodes:
        x, y = pos[node.id]
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_topology(gs: GroundStructure, areas, path, eps: float = OcConfig.eps) -> None:
    """Write the SVG for a design to a file."""
    text = render_svg(gs, areas, eps=eps)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
