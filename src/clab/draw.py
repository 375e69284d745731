"""Deterministic SVG and DOT renderings of fans and triangulations.

Fans are drawn in ambient Q^2 coordinates with Delta' shaded so that
domination by the maximal resolution is visible at a glance; triangulations
are drawn in junior-plane coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from .junior import Triangulation
from .lattice import triangle_grid
from .surface import Resolution

_SIZE = 420
_PAD = 30


def _px(x, y, span=Fraction(6, 5)):
    # map [0, span]^2 to the canvas, y axis up
    sx = _PAD + round((_SIZE - 2 * _PAD) * Fraction(x) / span)
    sy = _SIZE - _PAD - round((_SIZE - 2 * _PAD) * Fraction(y) / span)
    return int(sx), int(sy)


def svg_resolution(res: Resolution) -> str:
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">'
    ]
    o = _px(0, 0)
    d1 = _px(1, 0)
    d2 = _px(0, 1)
    out.append(
        f'<polygon points="{o[0]},{o[1]} {d1[0]},{d1[1]} {d2[0]},{d2[1]}" '
        'fill="#dce9f5" stroke="none"/>'
    )
    ax1 = _px(Fraction(6, 5), 0)
    ax2 = _px(0, Fraction(6, 5))
    out.append(f'<line x1="{o[0]}" y1="{o[1]}" x2="{ax1[0]}" y2="{ax1[1]}" '
               'stroke="#999" stroke-width="1"/>')
    out.append(f'<line x1="{o[0]}" y1="{o[1]}" x2="{ax2[0]}" y2="{ax2[1]}" '
               'stroke="#999" stroke-width="1"/>')
    N = res.lattice.N
    for X, Y in triangle_grid(res.lattice)[1:]:  # [0] is the origin
        c = _px(Fraction(X, N), Fraction(Y, N))
        out.append(f'<circle cx="{c[0]}" cy="{c[1]}" r="2" fill="#888"/>')
    for r in res.rays:
        tip = _px(*r)
        color = "#c0392b" if r in res.rays[1:-1] else "#2c3e50"
        out.append(f'<line x1="{o[0]}" y1="{o[1]}" x2="{tip[0]}" y2="{tip[1]}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<circle cx="{tip[0]}" cy="{tip[1]}" r="4" fill="{color}"/>')
        out.append(f'<text x="{tip[0] + 6}" y="{tip[1] - 4}" font-size="11">'
                   f'({r[0]},{r[1]})</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def dot_resolution(res: Resolution) -> str:
    lines = ["graph fan {", '  node [shape=point];']
    names = {r: f"r{i}" for i, r in enumerate(res.rays)}
    lines.append('  o [label="0", shape=circle];')
    for r in res.rays:
        x, y = _px(*r)
        lines.append(f'  {names[r]} [pos="{x},{-y}", xlabel="({r[0]},{r[1]})"];')
        lines.append(f"  o -- {names[r]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def svg_triangulation(T: Triangulation) -> str:
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">'
    ]
    span = Fraction(11, 10)
    px = [_px(p[0], p[1], span) for p in T.points]
    for t in T.triangles:
        pts = " ".join(f"{px[i][0]},{px[i][1]}" for i in t)
        out.append(f'<polygon points="{pts}" fill="#eef6ee" stroke="#2c3e50" '
                   'stroke-width="1"/>')
    for p, (x, y) in zip(T.points, px):
        out.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#c0392b"/>')
        out.append(f'<text x="{x + 5}" y="{y - 4}" font-size="10">'
                   f'({p[0]},{p[1]},{p[2]})</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def dot_triangulation(T: Triangulation) -> str:
    lines = ["graph triangulation {", "  node [shape=point];"]
    for i, p in enumerate(T.points):
        x, y = _px(p[0], p[1])
        lines.append(f'  p{i} [pos="{x},{-y}", xlabel="({p[0]},{p[1]},{p[2]})"];')
    for i, j in T.edges():
        lines.append(f"  p{i} -- p{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
