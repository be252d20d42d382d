"""Deterministic SVG 1.1 line charts for scenario outputs.

Hand-rolled rather than delegated to a plotting library so that identical
input yields byte-identical SVG: every coordinate is formatted with a fixed
precision and no timestamps or environment-dependent metadata are emitted.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .errors import SchemaError

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_DASHES = ("", "7,3", "2,2", "8,3,2,3", "5,2", "1,3")

UNDRIVEN_COLUMNS = [
    "t", "E_S", "S", "S_diag", "Coh", "Q",
    "dE_R", "gap_P", "D_direct", "Q_u", "lp_lower", "flags",
]
DRIVEN_COLUMNS = [
    "t", "E_S", "S", "S_diag", "Coh", "Q", "W", "beta_R_t", "C_t",
    "dE_R_tilde", "gap", "D_inst", "Qu_tilde", "upper", "lp_lower", "flags",
]


@dataclass
class Series:
    label: str
    x: list[float]
    y: list[float]


@dataclass
class Panel:
    title: str
    xlabel: str
    ylabel: str
    series: list[Series] = field(default_factory=list)


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0]
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks or [lo]


def _panel_svg(panel: Panel, x0: int, y0: int, width: int, height: int) -> list[str]:
    ml, mr, mt, mb = 72, 16, 26, 42
    px, py = x0 + ml, y0 + mt
    pw, ph = width - ml - mr, height - mt - mb

    xs = [v for s in panel.series for v in s.x if math.isfinite(v)]
    ys = [v for s in panel.series for v in s.y if math.isfinite(v)]
    xlo, xhi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    ylo, yhi = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if xhi <= xlo:
        xhi = xlo + 1.0
    if yhi <= ylo:
        yhi = ylo + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    # sx/sy scale a tick (float) or the points of a polyline (array) alike
    def sx(v: Any) -> Any:
        return px + (v - xlo) / (xhi - xlo) * pw

    def sy(v: Any) -> Any:
        return py + ph - (v - ylo) / (yhi - ylo) * ph

    out = [
        f'<rect x="{px}" y="{py}" width="{pw}" height="{ph}" fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{px + pw / 2:.1f}" y="{y0 + 16}" text-anchor="middle" font-size="13" fill="#111">{panel.title}</text>',
        f'<text x="{px + pw / 2:.1f}" y="{y0 + height - 8}" text-anchor="middle" font-size="12" fill="#111">{panel.xlabel}</text>',
        f'<text x="{x0 + 14}" y="{py + ph / 2:.1f}" text-anchor="middle" font-size="12" fill="#111" '
        f'transform="rotate(-90 {x0 + 14} {py + ph / 2:.1f})">{panel.ylabel}</text>',
    ]
    for v in _nice_ticks(xlo, xhi):
        x = sx(v)
        out.append(f'<line x1="{x:.2f}" y1="{py + ph}" x2="{x:.2f}" y2="{py + ph + 4}" stroke="#333"/>')
        out.append(f'<text x="{x:.2f}" y="{py + ph + 16}" text-anchor="middle" font-size="10" fill="#333">{_fmt(v)}</text>')
    for v in _nice_ticks(ylo, yhi):
        y = sy(v)
        out.append(f'<line x1="{px - 4}" y1="{y:.2f}" x2="{px}" y2="{y:.2f}" stroke="#333"/>')
        out.append(f'<text x="{px - 7}" y="{y + 3:.2f}" text-anchor="end" font-size="10" fill="#333">{_fmt(v)}</text>')
        out.append(f'<line x1="{px}" y1="{y:.2f}" x2="{px + pw}" y2="{y:.2f}" stroke="#ddd" stroke-width="0.5"/>')

    for i, s in enumerate(panel.series):
        color = _PALETTE[i % len(_PALETTE)]
        dash = _DASHES[i % len(_DASHES)]
        x, y = np.asarray(s.x, dtype=float), np.asarray(s.y, dtype=float)
        finite = np.isfinite(x) & np.isfinite(y)
        xy = np.column_stack([sx(x[finite]), sy(y[finite])])
        pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"{dash_attr}/>')
        ly = py + 14 + 14 * i
        lx = px + pw - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"{dash_attr}/>')
        out.append(f'<text x="{lx + 27}" y="{ly}" font-size="10" fill="#111">{s.label}</text>')
    return out


def render(panels: list[Panel], width: int = 760, panel_height: int = 300) -> str:
    """Render stacked panels as an SVG document (deterministic bytes)."""
    height = panel_height * len(panels)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for i, panel in enumerate(panels):
        parts.extend(_panel_svg(panel, 0, i * panel_height, width, panel_height))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def read_bounds_csv(path: Path) -> tuple[str, list[dict[str, float | str | None]]]:
    """Parse a bounds.csv written by the CLI; returns (kind, rows)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration as exc:
            raise SchemaError(f"{path}: empty file") from exc
        if header == UNDRIVEN_COLUMNS:
            kind = "undriven"
        elif header == DRIVEN_COLUMNS:
            kind = "driven"
        else:
            raise SchemaError(f"{path}: unrecognized bounds.csv header {header}")
        rows: list[dict[str, float | str | None]] = []
        for rec in reader:
            if len(rec) != len(header):
                raise SchemaError(f"{path}: row width {len(rec)} != {len(header)}")
            row: dict[str, float | str | None] = {}
            for key, val in zip(header, rec):
                if key == "flags":
                    row[key] = val
                else:
                    row[key] = float(val) if val else None
            rows.append(row)
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    return kind, rows


def _column(rows: list[dict], key: str) -> list[float]:
    return [r[key] if r[key] is not None else math.nan for r in rows]


def _delta(values: list[float]) -> list[float]:
    base = values[0]
    return [v - base for v in values]


def fig1_style_panels(rows: list[dict], beta_r: float) -> list[Panel]:
    t = _column(rows, "t")
    t_r = 1.0 / beta_r if beta_r else math.inf
    panel = Panel(
        title="heat and its entropy-energy upper bound",
        xlabel="t",
        ylabel="energy",
        series=[
            Series("Q", t, _column(rows, "Q")),
            Series("Q_u", t, _column(rows, "Q_u")),
            Series("T_R dCoh", t, [t_r * v for v in _delta(_column(rows, "Coh"))]),
            Series("-T_R dS'", t, [-t_r * v for v in _delta(_column(rows, "S_diag"))]),
        ],
    )
    return [panel]


def fig2_style_panels(rows: list[dict], beta_r0: float) -> list[Panel]:
    t = _column(rows, "t")
    t_r0 = 1.0 / beta_r0 if beta_r0 else math.inf
    upper_panel = Panel(
        title="heat between the two bounds",
        xlabel="t",
        ylabel="energy",
        series=[
            Series("Q", t, _column(rows, "Q")),
            Series("Qu~ + W", t, _column(rows, "upper")),
            Series("-T dS", t, _column(rows, "lp_lower")),
            Series("T_R(0) dCoh", t, [t_r0 * v for v in _delta(_column(rows, "Coh"))]),
        ],
    )
    lower_panel = Panel(
        title="reference parameter, work, bound",
        xlabel="t",
        ylabel="value",
        series=[
            Series("beta_R(t)", t, _column(rows, "beta_R_t")),
            Series("W", t, _column(rows, "W")),
            Series("-Qu~", t, [-v if v is not None else math.nan for v in _column(rows, "Qu_tilde")]),
        ],
    )
    return [upper_panel, lower_panel]


def sweep_panels(entries: list[tuple[str, list[dict], float]]) -> list[Panel]:
    """One panel per sweep entry: Q(t) and the coherence contribution."""
    panels = []
    for label, rows, beta_r0 in entries:
        t = _column(rows, "t")
        t_r0 = 1.0 / beta_r0 if beta_r0 else math.inf
        panels.append(
            Panel(
                title=label,
                xlabel="t",
                ylabel="energy",
                series=[
                    Series("Q", t, _column(rows, "Q")),
                    Series("T_R(0) dCoh", t, [t_r0 * v for v in _delta(_column(rows, "Coh"))]),
                ],
            )
        )
    return panels


def emit_plots(kind: str, rows: list[dict], beta_r0: float, out_dir: str | Path) -> list[Path]:
    """Render bounds.svg for one run's bound rows into ``out_dir``.

    ``kind`` is "undriven" or "driven" and ``rows`` map bounds.csv column
    names to values, as ``read_bounds_csv`` returns them. A beta_R(0) that is
    zero or not finite is drawn with T_R = 1. Returns the written SVG paths.
    """
    beta_r = beta_r0 if math.isfinite(beta_r0) and beta_r0 != 0.0 else 1.0
    if kind == "undriven":
        panels = fig1_style_panels(rows, beta_r)
    else:
        panels = fig2_style_panels(rows, beta_r)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "bounds.svg"
    target.write_text(render(panels))
    return [target]
