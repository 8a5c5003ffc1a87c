"""Self-contained SVG rendering of ECDF step curves (no plotting dependency)."""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

from .voting import VotingMatrix, ecdf_auc_vote, ecdf_steps

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#17becf", "#e377c2", "#7f7f7f", "#bcbd22",
]

_WIDTH, _HEIGHT = 640, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 180, 20, 45


def _sx(x: float) -> float:
    return _MARGIN_L + x * (_WIDTH - _MARGIN_L - _MARGIN_R)


def _sy(y: float) -> float:
    return _HEIGHT - _MARGIN_B - y * (_HEIGHT - _MARGIN_T - _MARGIN_B)


def _step_path(xs: np.ndarray, cdf: np.ndarray) -> str:
    # horizontal-then-vertical segments from (0, 0) to (1, 1)
    parts = [f"M {_sx(0):.2f} {_sy(0):.2f}"]
    level = 0.0
    for x, f in zip(xs, cdf):
        parts.append(f"L {_sx(float(x)):.2f} {_sy(level):.2f}")
        parts.append(f"L {_sx(float(x)):.2f} {_sy(float(f)):.2f}")
        level = float(f)
    parts.append(f"L {_sx(1):.2f} {_sy(level):.2f}")
    return " ".join(parts)


def render_ecdf_svg(w3: VotingMatrix) -> str:
    """One SVG with a unit-square ECDF step curve per column of w3, legend with each column's ECDF-AUC criterion."""
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_sx(0):.2f}" y="{_sy(1):.2f}" width="{_sx(1) - _sx(0):.2f}" '
        f'height="{_sy(0) - _sy(1):.2f}" fill="none" stroke="#333"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        lines.append(
            f'<text x="{_sx(tick):.2f}" y="{_HEIGHT - _MARGIN_B + 18}" text-anchor="middle">{tick:g}</text>'
        )
        lines.append(
            f'<text x="{_MARGIN_L - 8}" y="{_sy(tick) + 4:.2f}" text-anchor="end">{tick:g}</text>'
        )
        if 0.0 < tick < 1.0:
            lines.append(
                f'<line x1="{_sx(tick):.2f}" y1="{_sy(0):.2f}" x2="{_sx(tick):.2f}" '
                f'y2="{_sy(1):.2f}" stroke="#ddd"/>'
            )
            lines.append(
                f'<line x1="{_sx(0):.2f}" y1="{_sy(tick):.2f}" x2="{_sx(1):.2f}" '
                f'y2="{_sy(tick):.2f}" stroke="#ddd"/>'
            )
    lines.append(
        f'<text x="{(_sx(0) + _sx(1)) / 2:.2f}" y="{_HEIGHT - 8}" text-anchor="middle">scaled accuracy score</text>'
    )

    aucs = ecdf_auc_vote(w3).criterion_values
    for i, name in enumerate(w3.col_labels):
        xs, cdf = ecdf_steps(w3.entries[:, i])
        color = _PALETTE[i % len(_PALETTE)]
        lines.append(
            f'<path d="{_step_path(xs, cdf)}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        ly = _MARGIN_T + 16 + i * 18
        lx = _WIDTH - _MARGIN_R + 12
        lines.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="3"/>'
        )
        lines.append(
            f'<text x="{lx + 28}" y="{ly}">{escape(name)} (AUC={aucs[i]:.3f})</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines)
