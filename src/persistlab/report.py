"""Self-describing CSV/JSON tables and a dependency-free static SVG plotter.

Data payloads are byte-reproducible for a fixed configuration: floats are
written with shortest round-trip repr, column order is explicit, and the
only timestamp lives in a CSV comment line.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from typing import Mapping, Sequence

__all__ = ["format_cell", "csv_text", "json_text", "svg_text", "write_text"]


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def _quote(field: str) -> str:
    if any(c in field for c in ',"\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def csv_text(
    fieldnames: Sequence[str],
    rows: Sequence[Mapping],
    config: Mapping,
    timestamp: bool = True,
) -> str:
    """CSV with '#' comment header (config and optional timestamp), one header
    row, RFC-style quoting, and \\n line endings."""
    lines = []
    for key in sorted(config):
        lines.append(f"# {key}: {format_cell(config[key])}")
    if timestamp:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        lines.append(f"# generated: {stamp}")
    lines.append(",".join(_quote(str(f)) for f in fieldnames))
    for row in rows:
        lines.append(",".join(_quote(format_cell(row.get(f))) for f in fieldnames))
    return "\n".join(lines) + "\n"


def json_text(
    fieldnames: Sequence[str], rows: Sequence[Mapping], config: Mapping
) -> str:
    """JSON mirror of the CSV: config object plus an array of records."""
    records = [{f: row.get(f) for f in fieldnames} for row in rows]
    payload = {"config": dict(config), "columns": list(fieldnames), "records": records}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float, want: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / want
    mag = 10.0 ** int(f"{raw:e}".split("e")[1])
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = step * (int(lo / step) + (0 if lo % step == 0 or lo < 0 else 1))
    ticks = []
    v = first
    while v <= hi + 1e-12 * abs(hi):
        if v >= lo - 1e-12 * abs(lo):
            ticks.append(round(v, 12))
        v += step
    return ticks or [lo, hi]


def svg_text(
    x_values: Sequence[float],
    series: Mapping[str, Sequence[float | None]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Static single-file 760 x 480 SVG line/scatter chart with axes and a
    legend."""
    width, height = 760, 480
    ml, mr, mt, mb = 72, 24, 40, 56
    xs = [float(v) for v in x_values]
    ys = [
        float(v)
        for values in series.values()
        for v in values
        if v is not None and v == v
    ]
    if not xs or not ys:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(v: float) -> float:
        return ml + (v - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(v: float) -> float:
        return height - mb - (v - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes and ticks
    out.append(
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black"/>'
    )
    out.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>')
    for tx in _ticks(x_lo, x_hi):
        out.append(
            f'<line x1="{px(tx):.2f}" y1="{height - mb}" x2="{px(tx):.2f}" '
            f'y2="{height - mb + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px(tx):.2f}" y="{height - mb + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        out.append(
            f'<line x1="{ml - 5}" y1="{py(ty):.2f}" x2="{ml}" y2="{py(ty):.2f}" '
            'stroke="black"/>'
        )
        out.append(
            f'<text x="{ml - 8}" y="{py(ty) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{ty:g}</text>'
        )
    out.append(
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{(mt + height - mb) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(mt + height - mb) / 2:.1f})">{ylabel}</text>'
    )
    # series
    for idx, (label, values) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = [
            (px(x), py(float(v)))
            for x, v in zip(xs, values)
            if v is not None and v == v
        ]
        if len(pts) > 1:
            path = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
            out.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
        for x, y in pts:
            out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')
        ly = mt + 16 * idx
        out.append(
            f'<rect x="{width - mr - 150}" y="{ly}" width="10" height="10" '
            f'fill="{color}"/>'
        )
        out.append(
            f'<text x="{width - mr - 136}" y="{ly + 9}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
