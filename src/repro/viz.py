"""Dependency-free SVG renderers for the paper's figures.

Generates stand-alone SVG files for Figure 5 (meta-cluster bipartite
graphs) and Figure 6 (WPN ads per ad network), plus the pilot latency CDF.
No plotting library required — the writers emit SVG markup directly, so the
benchmarks and examples can drop real figure files next to the tables.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

_FONT = "font-family='Helvetica,Arial,sans-serif'"


def _svg_document(width: int, height: int, body: List[str]) -> str:
    return (
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
        f"height='{height}' viewBox='0 0 {width} {height}'>\n"
        + "\n".join(body)
        + "\n</svg>\n"
    )


def _text(x: float, y: float, content: str, size: int = 11,
          anchor: str = "start", color: str = "#222") -> str:
    return (
        f"<text x='{x:.1f}' y='{y:.1f}' font-size='{size}' {_FONT} "
        f"text-anchor='{anchor}' fill='{color}'>{html.escape(content)}</text>"
    )


# ----------------------------------------------------------------------
# Figure 6: grouped horizontal bars (ads vs malicious ads per network)
# ----------------------------------------------------------------------
def figure6_svg(rows: Sequence[Tuple[str, int, int]], title: str = "") -> str:
    """Render (network, ads, malicious) rows as a horizontal bar chart."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to render")
    width, row_height, left = 640, 26, 170
    height = 70 + row_height * len(rows)
    max_ads = max(r[1] for r in rows) or 1
    scale = (width - left - 90) / max_ads

    body: List[str] = []
    body.append(_text(10, 22, title or "WPN ads per ad network", 14))
    body.append(_text(left, 42, "all WPN ads", 10, color="#4878a8"))
    body.append(_text(left + 100, 42, "malicious", 10, color="#b3412f"))
    body.append(
        f"<rect x='{left - 14}' y='34' width='10' height='10' fill='#4878a8'/>"
    )
    body.append(
        f"<rect x='{left + 86}' y='34' width='10' height='10' fill='#b3412f'/>"
    )

    y = 60
    for name, ads, malicious in rows:
        body.append(_text(left - 8, y + 13, name, 11, anchor="end"))
        body.append(
            f"<rect x='{left}' y='{y}' width='{ads * scale:.1f}' "
            f"height='9' fill='#4878a8'/>"
        )
        body.append(
            f"<rect x='{left}' y='{y + 10}' width='{malicious * scale:.1f}' "
            f"height='9' fill='#b3412f'/>"
        )
        body.append(_text(left + ads * scale + 4, y + 9, str(ads), 9))
        body.append(
            _text(left + malicious * scale + 4, y + 18, str(malicious), 9,
                  color="#b3412f")
        )
        y += row_height
    return _svg_document(width, height, body)


# ----------------------------------------------------------------------
# Figure 5: bipartite meta-cluster graph (clusters left, domains right)
# ----------------------------------------------------------------------
def figure5_svg(graph, title: str = "") -> str:
    """Render a networkx bipartite meta-cluster graph as two columns."""
    clusters = sorted(
        n for n, d in graph.nodes(data=True) if d.get("bipartite") == "cluster"
    )
    domains = sorted(
        n for n, d in graph.nodes(data=True) if d.get("bipartite") == "domain"
    )
    if not clusters or not domains:
        raise ValueError("graph must contain cluster and domain nodes")

    row = 22
    height = 70 + row * max(len(clusters), len(domains))
    width = 640
    left_x, right_x = 150, width - 190

    def y_of(index: int, total: int) -> float:
        span = height - 90
        if total == 1:
            return 60 + span / 2
        return 60 + span * index / (total - 1)

    positions: Dict[str, Tuple[float, float]] = {}
    for i, node in enumerate(clusters):
        positions[node] = (left_x, y_of(i, len(clusters)))
    for i, node in enumerate(domains):
        positions[node] = (right_x, y_of(i, len(domains)))

    body: List[str] = []
    body.append(_text(10, 22, title or "meta-cluster bipartite graph", 14))
    body.append(_text(left_x, 42, "WPN clusters", 10, anchor="middle"))
    body.append(_text(right_x, 42, "landing domains", 10, anchor="middle"))

    for a, b in sorted(graph.edges()):
        xa, ya = positions[a]
        xb, yb = positions[b]
        body.append(
            f"<line x1='{xa:.1f}' y1='{ya:.1f}' x2='{xb:.1f}' y2='{yb:.1f}' "
            "stroke='#bbb' stroke-width='1'/>"
        )

    for node in clusters:
        x, y = positions[node]
        is_campaign = graph.nodes[node].get("campaign", False)
        color = "#b3412f" if is_campaign else "#4878a8"
        size = 4 + min(graph.nodes[node].get("size", 1), 20) * 0.4
        body.append(
            f"<circle cx='{x:.1f}' cy='{y:.1f}' r='{size:.1f}' fill='{color}'/>"
        )
        body.append(_text(x - size - 4, y + 4, str(node), 9, anchor="end"))

    for node in domains:
        x, y = positions[node]
        body.append(
            f"<rect x='{x - 4:.1f}' y='{y - 4:.1f}' width='8' height='8' "
            "fill='#6a9a58'/>"
        )
        body.append(_text(x + 8, y + 4, str(node), 9))
    return _svg_document(width, height, body)


# ----------------------------------------------------------------------
# Latency CDF (pilot experiment)
# ----------------------------------------------------------------------
def latency_cdf_svg(
    cdf_minutes: Dict[float, float], title: str = ""
) -> str:
    """Render a latency CDF as a step-ish polyline (log-free x axis)."""
    if not cdf_minutes:
        raise ValueError("empty CDF")
    points = sorted(cdf_minutes.items())
    width, height, pad = 520, 280, 48
    max_x = points[-1][0]

    def px(minute: float) -> float:
        return pad + (width - 2 * pad) * (minute / max_x)

    def py(fraction: float) -> float:
        return height - pad - (height - 2 * pad) * fraction

    body: List[str] = []
    body.append(_text(10, 22, title or "first-notification latency CDF", 13))
    body.append(
        f"<line x1='{pad}' y1='{height - pad}' x2='{width - pad}' "
        f"y2='{height - pad}' stroke='#222'/>"
    )
    body.append(
        f"<line x1='{pad}' y1='{pad}' x2='{pad}' y2='{height - pad}' "
        "stroke='#222'/>"
    )
    path = " ".join(
        f"{'M' if i == 0 else 'L'}{px(m):.1f},{py(f):.1f}"
        for i, (m, f) in enumerate(points)
    )
    body.append(f"<path d='{path}' fill='none' stroke='#4878a8' stroke-width='2'/>")
    for minute, fraction in points:
        body.append(
            f"<circle cx='{px(minute):.1f}' cy='{py(fraction):.1f}' r='3' "
            "fill='#4878a8'/>"
        )
        body.append(_text(px(minute), height - pad + 14, f"{minute:g}m", 9,
                          anchor="middle"))
        body.append(_text(px(minute), py(fraction) - 8, f"{fraction:.2f}", 9,
                          anchor="middle"))
    return _svg_document(width, height, body)


# ----------------------------------------------------------------------
# One-call export
# ----------------------------------------------------------------------
def save_figures(
    result,
    first_latencies_min: Sequence[float],
    out_dir: Union[str, Path],
) -> List[Path]:
    """Write figure5/figure6/latency SVGs for a pipeline result."""
    from repro.core.report import (
        fig5_meta_graphs,
        fig6_network_distribution,
        latency_report,
    )

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    rows = fig6_network_distribution(result)
    path = out_dir / "figure6_network_distribution.svg"
    path.write_text(figure6_svg(rows), encoding="utf-8")
    written.append(path)

    for i, graph in enumerate(fig5_meta_graphs(result, top=2)):
        path = out_dir / f"figure5_meta_cluster_{i}.svg"
        path.write_text(
            figure5_svg(graph, title=f"meta cluster example {i}"),
            encoding="utf-8",
        )
        written.append(path)

    if first_latencies_min:
        cdf = latency_report(list(first_latencies_min)).get("cdf_minutes", {})
        if cdf:
            path = out_dir / "pilot_latency_cdf.svg"
            path.write_text(latency_cdf_svg(cdf), encoding="utf-8")
            written.append(path)
    return written
