"""Static SVG charts: one dot per basis element, arrows for differentials.

The x-axis is the integer degree m, the y-axis the spoke weight n.  Output is
a deterministic byte stream for a fixed input: element order, coordinate
arithmetic and formatting are all integer-based.  A May chart evaluates
nothing: its dots are the page's classes and its arrows the ones between
drawn classes that mayss.turn_page recorded when it turned the page.
"""

from __future__ import annotations

from .grading import DegreeWindow, SpokeDegree, TriDegree

CELL = 28  # pixels per lattice step
MARGIN = 46
DOT = 3


class ChartDoc:
    __slots__ = ("title", "window", "dots", "arrows")

    def __init__(self, title: str, window: DegreeWindow):
        self.title = title
        self.window = window
        self.dots: list[tuple[TriDegree, str]] = []
        self.arrows: list[tuple[TriDegree, TriDegree, int]] = []


def chart_from_dimension_table(
    title: str, window: DegreeWindow, table: dict[SpokeDegree, list[str]]
) -> ChartDoc:
    doc = ChartDoc(title, window)
    for d in sorted(table):
        for label in table[d]:
            doc.dots.append((TriDegree(d, 0, 0), label))
    return doc


def chart_from_page(page, s_max: int) -> ChartDoc:
    """Dots for every surviving class of a spectral-sequence page with
    s <= s_max."""
    doc = ChartDoc(f"page {page.r}", page.window)
    for tri, cell in page.cells.items():
        if tri.s <= s_max:
            for label in cell.labels:
                doc.dots.append((tri, label))
    return doc


def add_differential_arrows(doc: ChartDoc, turned) -> None:
    """Arrows for the differential of the charted page, read from the page
    it turned into: one out of each drawn cell the differential is nonzero
    on, when its target cell is drawn too."""
    r = turned.r - 1
    targets = dict(turned.arrows)
    drawn = dict.fromkeys(tri for tri, _ in doc.dots)
    for tri in drawn:
        target = targets.get(tri)
        if target in drawn:
            doc.arrows.append((tri, target, r))


def _xy(doc: ChartDoc, total: SpokeDegree) -> tuple[int, int]:
    x = MARGIN + (total.m - doc.window.m_min) * CELL
    y = MARGIN + (doc.window.n_max - total.n) * CELL
    return x, y


def render_svg(doc: ChartDoc) -> str:
    w = doc.window
    width = 2 * MARGIN + (w.m_max - w.m_min) * CELL
    height = 2 * MARGIN + (w.n_max - w.n_min) * CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<title>{doc.title}</title>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # axes through (0, 0) when visible, else along the window edge
    x0, y0 = _xy(doc, SpokeDegree(max(w.m_min, min(0, w.m_max)), max(w.n_min, min(0, w.n_max))))
    parts.append(
        f'<line x1="{MARGIN - CELL // 2}" y1="{y0}" x2="{width - MARGIN + CELL // 2}" y2="{y0}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{MARGIN - CELL // 2}" x2="{x0}" y2="{height - MARGIN + CELL // 2}" '
        'stroke="black" stroke-width="1"/>'
    )
    for m in range(w.m_min, w.m_max + 1):
        x, _ = _xy(doc, SpokeDegree(m, w.n_min))
        parts.append(
            f'<text x="{x}" y="{height - MARGIN + 26}" font-size="9" text-anchor="middle">{m}</text>'
        )
    for n in range(w.n_min, w.n_max + 1):
        _, y = _xy(doc, SpokeDegree(w.m_min, n))
        parts.append(
            f'<text x="{MARGIN - 26}" y="{y + 3}" font-size="9" text-anchor="middle">{n}@</text>'
        )
    # group dots per lattice point for offsets
    per_point: dict[SpokeDegree, int] = {}
    for tri, label in doc.dots:
        i = per_point.get(tri.total, 0)
        per_point[tri.total] = i + 1
        x, y = _xy(doc, tri.total)
        dx = (i % 3) * (2 * DOT + 1) - (2 * DOT + 1)
        dy = (i // 3) * (2 * DOT + 1)
        parts.append(
            f'<circle cx="{x + dx}" cy="{y + dy}" r="{DOT}" fill="black">'
            f'<title>{label} @ {tri.format()}</title></circle>'
        )
    for src, dst, r in doc.arrows:
        x1, y1 = _xy(doc, src.total)
        x2, y2 = _xy(doc, dst.total)
        parts.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="#888" stroke-width="1" marker-end="url(#tip)"><title>d{r}</title></line>'
        )
    if doc.arrows:
        parts.insert(
            3,
            '<defs><marker id="tip" markerWidth="6" markerHeight="6" refX="5" refY="3" '
            'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="#888"/></marker></defs>',
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
