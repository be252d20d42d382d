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
    x: np.ndarray | list[float]
    y: np.ndarray | list[float]


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


def read_bounds_csv(path: Path) -> tuple[str, dict[str, Any]]:
    """Parse a bounds.csv written by the CLI; returns (kind, columns).

    ``columns`` maps each column name to a float array, NaN for an empty cell,
    and ``flags`` to the list of its cells.
    """
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    if not records:
        raise SchemaError(f"{path}: empty file")
    header = records.pop(0)
    if header not in (UNDRIVEN_COLUMNS, DRIVEN_COLUMNS):
        raise SchemaError(f"{path}: unrecognized bounds.csv header {header}")
    if not records:
        raise SchemaError(f"{path}: no data rows")
    for rec in records:
        if len(rec) != len(header):
            raise SchemaError(f"{path}: row width {len(rec)} != {len(header)}")
    columns: dict[str, Any] = {key: np.array([float(v) if v else math.nan for v in col])
                               for key, col in zip(header[:-1], zip(*records))}
    columns["flags"] = [rec[-1] for rec in records]
    return ("undriven" if header == UNDRIVEN_COLUMNS else "driven"), columns


def fig1_style_panels(cols: Any, t_r: float) -> list[Panel]:
    t = cols["t"]
    return [Panel("heat and its entropy-energy upper bound", "t", "energy", [
        Series("Q", t, cols["Q"]),
        Series("Q_u", t, cols["Q_u"]),
        Series("T_R dCoh", t, t_r * (cols["Coh"] - cols["Coh"][0])),
        Series("-T_R dS'", t, -t_r * (cols["S_diag"] - cols["S_diag"][0])),
    ])]


def fig2_style_panels(cols: Any, t_r0: float) -> list[Panel]:
    t = cols["t"]
    return [
        Panel("heat between the two bounds", "t", "energy", [
            Series("Q", t, cols["Q"]),
            Series("Qu~ + W", t, cols["upper"]),
            Series("-T dS", t, cols["lp_lower"]),
            Series("T_R(0) dCoh", t, t_r0 * (cols["Coh"] - cols["Coh"][0])),
        ]),
        Panel("reference parameter, work, bound", "t", "value", [
            Series("beta_R(t)", t, cols["beta_R_t"]),
            Series("W", t, cols["W"]),
            Series("-Qu~", t, -cols["Qu_tilde"]),
        ]),
    ]


def _drawn_temperature(beta_r0: float) -> float:
    """T_R(0) = 1/beta_R(0) as drawn: 1 when beta_R(0) is zero or not finite."""
    return 1.0 / beta_r0 if math.isfinite(beta_r0) and beta_r0 != 0.0 else 1.0


def sweep_panels(entries: list[tuple[str, Any, float]]) -> list[Panel]:
    """One panel per sweep entry: Q(t) and the coherence contribution."""
    panels = []
    for label, cols, beta_r0 in entries:
        coherence = _drawn_temperature(beta_r0) * (cols["Coh"] - cols["Coh"][0])
        panels.append(Panel(label, "t", "energy", [Series("Q", cols["t"], cols["Q"]),
                                                   Series("T_R(0) dCoh", cols["t"], coherence)]))
    return panels


def emit_plots(kind: str, cols: Any, beta_r0: float, out_dir: str | Path) -> list[Path]:
    """Render bounds.svg for one run's bound columns into ``out_dir``.

    ``kind`` is "undriven" or "driven"; ``cols[name]`` is the bounds.csv
    column ``name`` as an array, NaN where undefined: a ``thermo`` table or
    what ``read_bounds_csv`` returns. A beta_R(0) that is zero or not finite
    is drawn with T_R = 1. Returns the written SVG paths.
    """
    panels = (fig1_style_panels if kind == "undriven" else fig2_style_panels)(
        cols, _drawn_temperature(beta_r0))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "bounds.svg"
    target.write_text(render(panels))
    return [target]
