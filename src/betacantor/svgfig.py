"""Minimal deterministic SVG emission: generation strokes and log-scale
coefficient curves.  Hand-rolled (no plotting dependency) so identical
inputs produce byte-identical files; the optional timestamp comment is the
only non-reproducible element and can be suppressed.
"""

from __future__ import annotations

import datetime
import math
from typing import List, Optional, Sequence, Tuple

from .measures import SegmentMeasure

# a small qualitative palette, cycled per generation
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#7f7f7f"]

_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'


def _svg_open(width: int, height: int, timestamp: bool) -> List[str]:
    out = [_HEADER]
    if timestamp:
        out.append(f"<!-- generated {datetime.datetime.now().isoformat()} -->\n")
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
               f'height="{height}" viewBox="0 0 {width} {height}">\n')
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>\n')
    return out


def render_generations(generations: Sequence[SegmentMeasure],
                       timestamp: bool = False) -> str:
    """Horizontal strokes of one or more generations, one color each.

    Generations are stacked top to bottom (earliest on top), each drawn in
    its own band with its own vertical scale so the tiny vertical steps
    stay visible.
    """
    width, height = 900, 450
    if not generations:
        raise ValueError("nothing to draw")
    bands = len(generations)
    band_h = height / bands
    margin = 30.0
    out = _svg_open(width, height, timestamp)
    for gi, mu in enumerate(generations):
        xs = [float(v) for s in mu.segments for v in (s.left.x, s.right.x)]
        ys = [float(s.y) for s in mu.segments]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0
        top = gi * band_h
        color = PALETTE[gi % len(PALETTE)]
        label = mu.generation if mu.generation is not None else "?"
        out.append(f'<text x="8" y="{top + 16:.1f}" font-size="13" '
                   f'fill="{color}">generation {label} '
                   f'({len(mu.segments)} segments)</text>\n')
        for s in mu.segments:
            px0 = margin + (float(s.left.x) - x_lo) / x_span * (width - 2 * margin)
            px1 = margin + (float(s.right.x) - x_lo) / x_span * (width - 2 * margin)
            # flip y so "up" families render above their parents
            py = top + band_h - margin - (float(s.y) - y_lo) / y_span * (band_h - 2 * margin)
            out.append(f'<line x1="{px0:.3f}" y1="{py:.3f}" x2="{px1:.3f}" '
                       f'y2="{py:.3f}" stroke="{color}" '
                       'stroke-width="3.0"/>\n')
    out.append("</svg>\n")
    return "".join(out)


def render_curves(curves: Sequence[Tuple[str, Sequence[float], Sequence[float]]],
                  timestamp: bool = False,
                  title: Optional[str] = None) -> str:
    """Polyline plot of named ``(xs, ys)`` curves on a 700 x 420 canvas, x
    on a log axis (coefficient-versus-radius plots)."""
    width, height = 700, 420
    margin = 50.0
    pts_all_x: List[float] = []
    pts_all_y: List[float] = []
    for _, xs, ys in curves:
        pts_all_x.extend(math.log10(x) for x in xs)
        pts_all_y.extend(ys)
    if not pts_all_x:
        raise ValueError("nothing to draw")
    x_lo, x_hi = min(pts_all_x), max(pts_all_x)
    y_lo, y_hi = min(pts_all_y), max(pts_all_y)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(x: float) -> float:
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def py(y: float) -> float:
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    out = _svg_open(width, height, timestamp)
    out.append(f'<rect x="{margin}" y="{margin}" '
               f'width="{width - 2 * margin}" height="{height - 2 * margin}" '
               f'fill="none" stroke="#cccccc"/>\n')
    if title:
        out.append(f'<text x="{margin}" y="24" font-size="14">{title}</text>\n')
    for ci, (name, xs, ys) in enumerate(curves):
        color = PALETTE[ci % len(PALETTE)]
        coords = " ".join(
            f"{px(math.log10(x)):.2f},{py(y):.2f}"
            for x, y in zip(xs, ys))
        out.append(f'<polyline points="{coords}" fill="none" '
                   f'stroke="{color}" stroke-width="1.5"/>\n')
        out.append(f'<text x="{width - margin - 150:.1f}" '
                   f'y="{margin + 16 + 16 * ci:.1f}" font-size="12" '
                   f'fill="{color}">{name}</text>\n')
    out.append(f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="12" '
               f'text-anchor="middle">log10 r</text>\n')
    out.append("</svg>\n")
    return "".join(out)
