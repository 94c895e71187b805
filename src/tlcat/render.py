"""ASCII and SVG pictures of diagrams and linear combinations of them.

The ASCII form labels each paired boundary node with a wire letter (equal
letters are connected); vacant nodes in dilute diagrams show a dot.  The
SVG form draws the usual planar picture: boundary nodes on two vertical
walls, arcs as cubic curves, vacancies as hollow circles.
"""

from __future__ import annotations

import html
import string

from .diagram import Diagram
from .morphism import Morphism, parse_morphism

__all__ = ["render_ascii", "render_svg", "parse_renderable"]


def parse_renderable(text: str):
    """Accept either a plain diagram ('{m}x{n}[d]:[(a,b),...]') or a full
    linear combination ('{m}<-{n}[d] : [coeff] * diag + ...'); a diagram's
    text holds no '<-'.  Malformed text raises ValueError."""
    return parse_morphism(text) if "<-" in text else Diagram.from_text(text)


def _wire_labels(d: Diagram) -> dict:
    letters = string.ascii_lowercase + string.ascii_uppercase
    labels = {}
    for idx, (a, b) in enumerate(d.pairs()):
        ch = letters[idx % len(letters)]
        labels[a] = ch
        labels[b] = ch
    return labels


def _node_rows(d: Diagram):
    """(node, row) placements: left wall top-to-bottom is 1..m, right wall
    bottom-to-top is m+1..m+n."""
    left = [(i, i - 1) for i in range(1, d.dst + 1)]
    right = [(d.dst + j, d.src - j) for j in range(1, d.src + 1)]
    return left, right


def render_ascii(obj) -> str:
    if isinstance(obj, Morphism):
        return _morphism_ascii(obj)
    d = obj
    labels = _wire_labels(d)
    left, right = _node_rows(d)
    height = max([d.dst, d.src, 1])
    rows = [["   ", " ", "     ", " ", "   "] for _ in range(height)]
    for node, row in left:
        rows[row][0] = f"{node:>3}"
        rows[row][1] = labels.get(node, ".")
    for node, row in right:
        rows[row][3] = labels.get(node, ".")
        rows[row][4] = f"{node:<3}"
    head = d.to_text()
    body = "\n".join(" ".join(cells).rstrip() for cells in rows)
    return f"{head}\n{body}"


def _morphism_ascii(f: Morphism) -> str:
    if f.is_zero:
        return f"{f.dst}<-{f.src}{'d' if f.dilute else ''}: 0"
    parts = []
    for d in sorted(f.terms, key=lambda g: g.key()):
        parts.append(f"[{f.terms[d]}] *")
        parts.append(render_ascii(d))
    return "\n".join(parts)


_STEP = 28
_MARGIN = 24
_WIDTH = 220


def _svg_paths(d: Diagram, x0: float) -> tuple:
    left, right = _node_rows(d)
    pos = {}
    for node, row in left:
        pos[node] = (x0 + _MARGIN, _MARGIN + _STEP * row)
    for node, row in right:
        pos[node] = (x0 + _WIDTH - _MARGIN, _MARGIN + _STEP * row)
    elems = []
    paired = set()
    for a, b in d.pairs():
        paired |= {a, b}
        (xa, ya), (xb, yb) = pos[a], pos[b]
        if xa == xb:
            bulge = 3 * _STEP if xa < x0 + _WIDTH / 2 else -3 * _STEP
            path = (f"M {xa},{ya} C {xa + bulge},{ya} "
                    f"{xb + bulge},{yb} {xb},{yb}")
        else:
            mid = (xa + xb) / 2
            path = f"M {xa},{ya} C {mid},{ya} {mid},{yb} {xb},{yb}"
        elems.append(f'<path d="{path}" fill="none" stroke="black" '
                     'stroke-width="1.5"/>')
    for node, (x, y) in pos.items():
        fill = "black" if node in paired else "white"
        elems.append(f'<circle cx="{x}" cy="{y}" r="3.5" fill="{fill}" '
                     'stroke="black"/>')
        anchor = "end" if x < x0 + _WIDTH / 2 else "start"
        xt = x - 8 if anchor == "end" else x + 8
        elems.append(f'<text x="{xt}" y="{y + 4}" font-size="11" '
                     f'font-family="monospace" text-anchor="{anchor}">'
                     f"{node}</text>")
    height = _MARGIN + _STEP * max(d.dst, d.src, 1)
    return elems, height


def render_svg(obj) -> str:
    terms = ([(None, obj)] if isinstance(obj, Diagram)
             else [(str(obj.terms[d]), d)
                   for d in sorted(obj.terms, key=lambda g: g.key())])
    elems = []
    height = 2 * _MARGIN
    x0 = 0.0
    for i, (coeff, d) in enumerate(terms):
        if coeff is not None:
            label = ("+ " if i else "") + f"[{coeff}]"
            elems.append(f'<text x="{x0 + _MARGIN}" y="14" font-size="11" '
                         'font-family="monospace">'
                         f"{html.escape(label)}</text>")
        paths, h = _svg_paths(d, x0)
        elems.extend(paths)
        height = max(height, h + _MARGIN)
        x0 += _WIDTH
    width = max(x0, _WIDTH)
    body = "\n  ".join(elems) if elems else "<text x='10' y='20'>0</text>"
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
            f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">\n'
            f"  {body}\n</svg>\n")
