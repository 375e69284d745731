"""Deterministic SVG and DOT renderings of fans and triangulations.

Fans are drawn in ambient Q^2 coordinates with Delta' shaded so that
domination by the maximal resolution is visible at a glance; triangulations
are drawn in junior-plane coordinates.  Points arrive as N-scaled integer
pairs (`Resolution.grid`, `Triangulation.grid`), so pixel positions and
labels are computed on integers.
"""

from __future__ import annotations

from .junior import Triangulation
from .lattice import _ratio_str, triangle_grid
from .surface import Resolution

_SIZE = 420
_PAD = 30


def _px(X, Y, N, span=(6, 5)):
    """The canvas point of (X, Y) / N, with [0, p/q]^2 mapped to the canvas
    for span (p, q), y axis up."""
    p, q = span
    d = p * N
    return (_PAD + _round((_SIZE - 2 * _PAD) * q * X, d),
            _SIZE - _PAD - _round((_SIZE - 2 * _PAD) * q * Y, d))


def _round(a, d):
    """round(Fraction(a, d)) for d > 0: halves go to the even neighbour."""
    k, r = divmod(a, d)
    return k + (2 * r > d or (2 * r == d and k % 2 == 1))


def svg_resolution(res: Resolution) -> str:
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">'
    ]
    o = _px(0, 0, 1)
    d1 = _px(1, 0, 1)
    d2 = _px(0, 1, 1)
    out.append(
        f'<polygon points="{o[0]},{o[1]} {d1[0]},{d1[1]} {d2[0]},{d2[1]}" '
        'fill="#dce9f5" stroke="none"/>'
    )
    ax1 = _px(6, 0, 5)
    ax2 = _px(0, 6, 5)
    out.append(f'<line x1="{o[0]}" y1="{o[1]}" x2="{ax1[0]}" y2="{ax1[1]}" '
               'stroke="#999" stroke-width="1"/>')
    out.append(f'<line x1="{o[0]}" y1="{o[1]}" x2="{ax2[0]}" y2="{ax2[1]}" '
               'stroke="#999" stroke-width="1"/>')
    N = res.lattice.N
    for X, Y in triangle_grid(res.lattice)[1:]:  # [0] is the origin
        c = _px(X, Y, N)
        out.append(f'<circle cx="{c[0]}" cy="{c[1]}" r="2" fill="#888"/>')
    for i, (X, Y) in enumerate(res.grid):
        tip = _px(X, Y, N)
        color = "#c0392b" if 0 < i < len(res.grid) - 1 else "#2c3e50"
        out.append(f'<line x1="{o[0]}" y1="{o[1]}" x2="{tip[0]}" y2="{tip[1]}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<circle cx="{tip[0]}" cy="{tip[1]}" r="4" fill="{color}"/>')
        out.append(f'<text x="{tip[0] + 6}" y="{tip[1] - 4}" font-size="11">'
                   f'({_ratio_str(X, N)},{_ratio_str(Y, N)})</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def dot_resolution(res: Resolution) -> str:
    lines = ["graph fan {", '  node [shape=point];']
    N = res.lattice.N
    lines.append('  o [label="0", shape=circle];')
    for i, (X, Y) in enumerate(res.grid):
        x, y = _px(X, Y, N)
        lines.append(f'  r{i} [pos="{x},{-y}", '
                     f'xlabel="({_ratio_str(X, N)},{_ratio_str(Y, N)})"];')
        lines.append(f"  o -- r{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def svg_triangulation(T: Triangulation) -> str:
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">'
    ]
    N = T.lattice.N
    px = [_px(X, Y, N, (11, 10)) for X, Y in T.grid]
    for t in T.triangles:
        pts = " ".join(f"{px[i][0]},{px[i][1]}" for i in t)
        out.append(f'<polygon points="{pts}" fill="#eef6ee" stroke="#2c3e50" '
                   'stroke-width="1"/>')
    for s, (x, y) in zip(T.point_strs, px):
        out.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#c0392b"/>')
        out.append(f'<text x="{x + 5}" y="{y - 4}" font-size="10">'
                   f'({",".join(s)})</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def dot_triangulation(T: Triangulation) -> str:
    lines = ["graph triangulation {", "  node [shape=point];"]
    N = T.lattice.N
    for i, ((X, Y), s) in enumerate(zip(T.grid, T.point_strs)):
        x, y = _px(X, Y, N)
        lines.append(f'  p{i} [pos="{x},{-y}", xlabel="({",".join(s)})"];')
    for i, j in T.edges():
        lines.append(f"  p{i} -- p{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
