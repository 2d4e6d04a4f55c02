"""Decision procedure and parameter sweep over the (n, lambda) plane.

For each cone the decision is made either by certificate (a barrier line on
the minimizing side, an explicit competitor on the non-minimizing side) or by
the closed-form threshold lambda*(n) = 2 sqrt(n-1)/n.  Sweeps emit CSV, JSON,
and an SVG phase diagram with the analytic threshold curve overlaid.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .competitors import competitor_search, search_competitors  # noqa: F401
from .errors import NumericError
from .geometry import ConeSpace
from .shooting import barrier_certificate, barrier_margins  # noqa: F401

# competitor_search and barrier_certificate, the single-point forms of the
# certificates, are not called here; they stay phase attributes for callers
# that import or patch them through this module.


class Verdict(Enum):
    MINIMIZING = "Minimizing"
    NOT_MINIMIZING = "NotMinimizing"
    UNDETERMINED = "Undetermined"


class Certificate(Enum):
    BARRIER_LINE = "BarrierLine"
    COMPETITOR_FOUND = "CompetitorFound"
    THRESHOLD_FORMULA = "ThresholdFormula"


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    certificate: Optional[Certificate]
    margin: float
    diagnostics: str = ""


@dataclass(frozen=True)
class ScanRecord:
    n: int
    lam: float
    decision: Decision
    lambda_star: float
    wall_time_ms: int


def threshold(n: int) -> float:
    """The sharp cross-section radius 2 sqrt(n-1)/n separating the regimes."""
    if n < 2:
        raise ValueError(f"cross-section dimension must be >= 2, got {n}")
    return 2.0 * math.sqrt(n - 1.0) / n


def decide(space: ConeSpace, mode: str = "certified") -> Decision:
    """Classify the equatorial hypercone of the given cone.

    Certified mode produces a checkable witness: a barrier line whose margin
    is positive, or a competitor whose area bound drops below 1/n.  Both
    certificates degenerate exactly on the threshold curve, where
    Undetermined is possible.  Formula-only mode compares lambda against
    the closed-form threshold.
    """
    return _decide_block(space.n, np.array([space.lam]), mode)[0]


# (verdict, certificate, diagnostics) of each path of a certified decision
_OUTCOMES = (
    (Verdict.MINIMIZING, Certificate.BARRIER_LINE, ""),
    (Verdict.NOT_MINIMIZING, Certificate.COMPETITOR_FOUND, ""),
    (Verdict.UNDETERMINED, None, "both certificates failed"),
)
_BARRIER, _COMPETITOR, _NEITHER = range(3)


def _decide_block(n: int, lams: np.ndarray, mode: str) -> list[Decision]:
    """``decide`` for every lambda of one n at once, in the order given.

    A barrier line wherever the exact D >= 0, that is wherever its slope c
    exists, with the normalized margin; the closed-form competitor junction
    on what it leaves, with its margin; Undetermined where that junction
    fails its check.  If either certificate raises NumericError, ValueError
    or ArithmeticError, the block is decided again one lambda at a time, so
    only a lambda whose own decision raises becomes Undetermined, with the
    exception's message as diagnostics; other exceptions propagate.
    """
    if mode not in ("certified", "formula-only"):
        raise ValueError(f"mode must be 'certified' or 'formula-only', got {mode!r}")
    offsets = lams - threshold(n)
    if mode == "formula-only":
        return [Decision(verdict=Verdict.MINIMIZING if m >= 0.0 else Verdict.NOT_MINIMIZING,
                         certificate=Certificate.THRESHOLD_FORMULA, margin=m)
                for m in offsets.tolist()]
    try:
        barrier = barrier_margins(n, lams)
        path = np.where(np.isnan(barrier), _NEITHER, _BARRIER)
        margins = np.where(path == _BARRIER, barrier, offsets)
        rest = np.flatnonzero(path == _NEITHER)
        if rest.size:
            search = search_competitors(n, lams[rest])
            found = rest[search.found]
            path[found] = _COMPETITOR
            margins[found] = search.margin[search.found]
    except (NumericError, ValueError, ArithmeticError) as exc:  # the scan continues
        if lams.size > 1:  # decide again point by point: only the failing lambda downgrades
            return [d for i in range(lams.size) for d in _decide_block(n, lams[i:i + 1], mode)]
        return [Decision(verdict=Verdict.UNDETERMINED, certificate=None,
                         margin=float(offsets[0]), diagnostics=str(exc))]
    outcomes = [_OUTCOMES[k] for k in path.tolist()]
    return [Decision(verdict, cert, m, diagnostics)
            for (verdict, cert, diagnostics), m in zip(outcomes, margins.tolist())]


def _scan_block(args) -> list[ScanRecord]:
    """Records for one n over every lambda, decided in one array pass."""
    n, lams, mode, measure_time = args
    start = time.perf_counter()
    for lam in lams:
        ConeSpace(n=n, lam=lam)   # rejects a lambda outside (0, 1]
    if not lams:
        return []
    decisions = _decide_block(n, np.array(lams), mode)
    # the block's time spread evenly over its points
    ms = int(round((time.perf_counter() - start) * 1000.0 / len(lams))) if measure_time else 0
    lam_star = threshold(n)
    return [ScanRecord(n=n, lam=lam, decision=d, lambda_star=lam_star, wall_time_ms=ms)
            for lam, d in zip(lams, decisions)]


def scan(n_range: Iterable[int], lambda_grid: Sequence[float],
         mode: str = "certified", parallelism: int = 1,
         measure_time: bool = True) -> list[ScanRecord]:
    """Decide every point of the grid; output sorted by (n, lambda).

    Each n's lambdas are decided together, in one array pass.  With
    parallelism > 1 the n-blocks fan out over a process pool; the output is
    sorted afterwards, so its order never depends on the worker count.
    wall_time_ms is each n-block's time spread evenly over its points; set
    measure_time=False for byte-reproducible output.
    """
    lams = [float(lam) for lam in lambda_grid]
    blocks = [(int(n), lams, mode, measure_time) for n in n_range]
    if parallelism > 1 and len(blocks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=parallelism) as pool:
            parts = list(pool.map(_scan_block, blocks))
    else:
        parts = [_scan_block(block) for block in blocks]
    records = [rec for part in parts for rec in part]
    records.sort(key=lambda r: (r.n, r.lam))
    return records


def empirical_threshold(records: Sequence[ScanRecord], n: int) -> float:
    """Midpoint between the last NotMinimizing and first Minimizing lambda."""
    lams_not = [r.lam for r in records
                if r.n == n and r.decision.verdict is Verdict.NOT_MINIMIZING]
    lams_min = [r.lam for r in records
                if r.n == n and r.decision.verdict is Verdict.MINIMIZING]
    if not lams_not or not lams_min:
        raise ValueError(f"need verdicts on both sides of the threshold for n={n}")
    return 0.5 * (max(lams_not) + min(lams_min))


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

_CSV_HEADER = "# cone-min-lab v1"
_COLUMNS = ("n", "lambda", "verdict", "certificate", "margin",
            "lambda_star", "wall_time_ms")


def _row(rec: ScanRecord) -> dict:
    cert = rec.decision.certificate
    return {
        "n": rec.n,
        "lambda": rec.lam,
        "verdict": rec.decision.verdict.value,
        "certificate": cert.value if cert is not None else "",
        "margin": rec.decision.margin,
        "lambda_star": rec.lambda_star,
        "wall_time_ms": rec.wall_time_ms,
    }


def emit(records: Sequence[ScanRecord], format: str, path) -> None:
    """Write records as csv, json, or an svg phase diagram."""
    if format == "csv":
        lines = [_CSV_HEADER, ",".join(_COLUMNS)]
        for rec in records:
            d = rec.decision
            # _value_ is the member's value without the ``value`` property's call
            cert = "" if d.certificate is None else d.certificate._value_
            lines.append(f"{rec.n},{rec.lam!r},{d.verdict._value_},{cert},"
                         f"{d.margin!r},{rec.lambda_star!r},{rec.wall_time_ms}")
        text = "\n".join(lines) + "\n"
    elif format == "json":
        text = json.dumps([_row(rec) for rec in records], indent=2) + "\n"
    elif format == "svg":
        text = _render_svg(records)
    else:
        raise ValueError(f"format must be csv, json, or svg, got {format!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def parse_csv(path) -> list[dict]:
    """Read back a CSV written by emit (values as python scalars)."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    for line in lines[1:]:
        vals = line.split(",")
        rows.append({
            "n": int(vals[0]), "lambda": float(vals[1]), "verdict": vals[2],
            "certificate": vals[3], "margin": float(vals[4]),
            "lambda_star": float(vals[5]), "wall_time_ms": int(vals[6]),
        })
    return rows


_VERDICT_COLOR = {
    Verdict.MINIMIZING.value: "#2e8b57",
    Verdict.NOT_MINIMIZING.value: "#cc3333",
    Verdict.UNDETERMINED.value: "#999999",
}


def _render_svg(records: Sequence[ScanRecord], width: int = 640, height: int = 480) -> str:
    """Standalone phase diagram: verdict dots over the threshold curve."""
    ns = sorted({r.n for r in records}) or [2, 6]
    lams = [r.lam for r in records] or [0.0, 1.0]
    n_lo, n_hi = min(ns) - 0.3, max(ns) + 0.3
    l_lo = max(0.0, min(lams) - 0.02)
    l_hi = min(1.02, max(lams) + 0.02)
    ml, mr, mt, mb = 60, 20, 40, 50  # margins

    def X(n):
        return ml + (n - n_lo) / (n_hi - n_lo) * (width - ml - mr)

    def Y(lam):
        return height - mb - (lam - l_lo) / (l_hi - l_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        'font-family="sans-serif" font-size="16">'
        'Minimizing hypercone phase diagram</text>',
    ]
    # axes
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
                 'stroke="black"/>')
    parts.append(f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
                 f'y2="{height - mb}" stroke="black"/>')
    for n in ns:
        parts.append(f'<text x="{X(n):.1f}" y="{height - mb + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{n}</text>')
    for k in range(5):
        lam = l_lo + k * (l_hi - l_lo) / 4.0
        parts.append(f'<text x="{ml - 8}" y="{Y(lam) + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="12">{lam:.3f}</text>')
    parts.append(f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
                 'font-family="sans-serif" font-size="13">'
                 'cross-section dimension n</text>')
    parts.append(f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" '
                 'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {height / 2:.1f})">'
                 'cross-section radius</text>')
    # analytic threshold curve lambda*(n) = 2 sqrt(n-1)/n, n treated as real
    curve = []
    for k in range(201):
        x = n_lo + 0.3 + (n_hi - n_lo - 0.6) * k / 200.0
        lam = 2.0 * math.sqrt(x - 1.0) / x
        if l_lo <= lam <= l_hi:
            curve.append(f"{X(x):.2f},{Y(lam):.2f}")
    if curve:
        parts.append(f'<polyline points="{" ".join(curve)}" fill="none" '
                     'stroke="#3355cc" stroke-width="2"/>')
    for rec in records:
        color = _VERDICT_COLOR[rec.decision.verdict.value]
        parts.append(f'<circle cx="{X(rec.n):.2f}" cy="{Y(rec.lam):.2f}" r="3" '
                     f'fill="{color}" fill-opacity="0.8"/>')
    # legend
    for i, (label, color) in enumerate([("Minimizing", "#2e8b57"),
                                        ("NotMinimizing", "#cc3333"),
                                        ("Undetermined", "#999999"),
                                        ("threshold curve", "#3355cc")]):
        y0 = mt + 14 + 18 * i
        if label == "threshold curve":
            parts.append(f'<line x1="{width - mr - 150}" y1="{y0 - 4}" '
                         f'x2="{width - mr - 134}" y2="{y0 - 4}" '
                         f'stroke="{color}" stroke-width="2"/>')
        else:
            parts.append(f'<circle cx="{width - mr - 142}" cy="{y0 - 4}" r="4" '
                         f'fill="{color}"/>')
        parts.append(f'<text x="{width - mr - 126}" y="{y0}" '
                     f'font-family="sans-serif" font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
