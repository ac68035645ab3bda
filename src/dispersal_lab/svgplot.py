"""Minimal deterministic SVG line plots (no plotting dependency).

Polyline renderings only: trajectories, eigenfunction profiles, and
eigenvalue-versus-parameter curves.  Output is plain text with fixed
formatting so identical inputs produce identical bytes.  Coordinates map to the
canvas as whole arrays, by the operations and order of the scalar map, so each
keeps its bits, and "%.6g" writes each as format(x, ".6g") would.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

PALETTE = ("#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#b7950b", "#34495e")

WIDTH, HEIGHT = 720, 460
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 28, 44


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def line_plot(
    path: str | Path,
    x: Sequence[float],
    series: Sequence[Sequence[float]],
    labels: Sequence[str],
    title: str,
    xlabel: str,
    ylabel: str,
) -> Path:
    """Write a polyline plot of several y-series against a shared x-axis."""
    path = Path(path)
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(s, dtype=float) for s in series]
    if not ys or any(len(s) != len(x) for s in ys):
        raise ValueError("every series must match the x axis length")
    if len(labels) != len(ys):
        raise ValueError("one label per series required")

    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_all = np.concatenate(ys)
    y_lo, y_hi = float(np.min(y_all)), float(np.max(y_all))
    if x_hi - x_lo <= 0:
        x_hi = x_lo + 1.0
    if y_hi - y_lo <= 0:
        pad = max(abs(y_hi), 1.0) * 0.1
    else:
        pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v: float | np.ndarray) -> float | np.ndarray:
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(v: float | np.ndarray) -> float | np.ndarray:
        return HEIGHT - MARGIN_B - (v - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="18" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="#777"/>',
    ]
    if y_lo < 0 < y_hi:
        zero = sy(0.0)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{_fmt(zero)}" x2="{WIDTH - MARGIN_R}" '
            f'y2="{_fmt(zero)}" stroke="#bbb" stroke-dasharray="4 3"/>'
        )
    for color, label, y_series in zip(PALETTE, labels, ys):
        coords = np.column_stack([sx(x), sy(y_series)]).ravel().tolist()
        points = ("%.6g,%.6g " * len(x) % tuple(coords))[:-1]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
    for i, (color, label) in enumerate(zip(PALETTE, labels)):
        ly = MARGIN_T + 16 + 16 * i
        parts.append(
            f'<line x1="{WIDTH - 150}" y1="{ly - 4}" x2="{WIDTH - 126}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{WIDTH - 120}" y="{ly}" font-size="12" font-family="sans-serif">'
            f"{label}</text>"
        )
    parts.append(
        f'<text x="{MARGIN_L}" y="{HEIGHT - MARGIN_B + 16}" font-size="11" '
        f'font-family="sans-serif">{_fmt(x_lo)}</text>'
    )
    parts.append(
        f'<text x="{WIDTH - MARGIN_R}" y="{HEIGHT - MARGIN_B + 16}" text-anchor="end" '
        f'font-size="11" font-family="sans-serif">{_fmt(x_hi)}</text>'
    )
    parts.append(
        f'<text x="{MARGIN_L - 6}" y="{HEIGHT - MARGIN_B}" text-anchor="end" font-size="11" '
        f'font-family="sans-serif">{_fmt(y_lo)}</text>'
    )
    parts.append(
        f'<text x="{MARGIN_L - 6}" y="{MARGIN_T + 10}" text-anchor="end" font-size="11" '
        f'font-family="sans-serif">{_fmt(y_hi)}</text>'
    )
    parts.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{HEIGHT // 2}" font-size="12" font-family="sans-serif" '
        f'transform="rotate(-90 14 {HEIGHT // 2})" text-anchor="middle">{ylabel}</text>'
    )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path
