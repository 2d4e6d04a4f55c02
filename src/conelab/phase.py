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
from collections import Counter
from enum import Enum
from itertools import chain, repeat
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .competitors import competitor_search, search_competitors  # noqa: F401
from .errors import NumericError
from .geometry import ConeSpace, threshold_discriminant
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


class Decision(NamedTuple):
    verdict: Verdict
    certificate: Optional[Certificate]
    margin: float
    diagnostics: str = ""


class ScanRecord(NamedTuple):
    n: int
    lam: float
    decision: Decision
    lambda_star: float
    wall_time_ms: int


# builds a record from a tuple of its fields, without the keyword-argument __new__
_new = tuple.__new__


def threshold(n: int) -> float:
    """The sharp cross-section radius 2 sqrt(n-1)/n separating the regimes."""
    if n < 2:
        raise ValueError(f"cross-section dimension must be >= 2, got {n}")
    return 2.0 * math.sqrt(n - 1.0) / n


def decide(space: ConeSpace, mode: str = "certified") -> Decision:
    """Classify the equatorial hypercone of the given cone.

    Certified mode produces a checkable witness: a barrier line whose margin
    is positive, or a competitor whose area bound drops below 1/n.  Both
    signs are exact on the double lambda, so Undetermined comes only from a
    certificate that raises a numeric failure.  Formula-only mode compares
    lambda against the closed-form threshold.
    """
    return _decide_block(space.n, np.float64(space.lam), mode)[0]


# (verdict, certificate, diagnostics) of each path of a decision
_OUTCOMES = (
    (Verdict.MINIMIZING, Certificate.BARRIER_LINE, ""),
    (Verdict.NOT_MINIMIZING, Certificate.COMPETITOR_FOUND, ""),
    (Verdict.UNDETERMINED, None, "both certificates failed"),
    (Verdict.MINIMIZING, Certificate.THRESHOLD_FORMULA, ""),
    (Verdict.NOT_MINIMIZING, Certificate.THRESHOLD_FORMULA, ""),
)
_BARRIER, _COMPETITOR, _NEITHER, _ABOVE, _BELOW = range(5)
_VERDICTS, _CERTIFICATES, _DIAGNOSTICS = np.array(_OUTCOMES, dtype=object).T


def _decisions(path, margins) -> list[Decision]:
    """One Decision per point, from its path code and its margin (1-d, or 0-d for one)."""
    path, margins = path.reshape(-1), margins.reshape(-1)
    return list(map(_new, repeat(Decision),
                    zip(_VERDICTS[path].tolist(), _CERTIFICATES[path].tolist(),
                        margins.tolist(), _DIAGNOSTICS[path].tolist())))


def _decide_block(n: int, lams, mode: str) -> list[Decision]:
    """``decide`` for every lambda of one n at once, in the order given.

    lams is a 1-d array or one ``np.float64``, through one code path.  Every
    row gets D, the barrier line's normalized margin (NaN where the exact
    D < 0) and the closed-form competitor junction, then takes the barrier
    where it exists, else the junction where its check passes, else
    Undetermined.  If a certificate raises NumericError, ValueError or
    ArithmeticError, a block is decided again one lambda at a time, so only
    a lambda whose own decision raises becomes Undetermined, with the
    exception's message as diagnostics; other exceptions propagate.
    """
    if mode not in ("certified", "formula-only"):
        raise ValueError(f"mode must be 'certified' or 'formula-only', got {mode!r}")
    offsets = lams - threshold(n)
    if mode == "formula-only":
        return _decisions(np.where(offsets >= 0.0, _ABOVE, _BELOW), offsets)
    try:
        disc = threshold_discriminant(n, lams)
        barrier = barrier_margins(n, lams, disc)
        search = search_competitors(n, lams, disc)
    except (NumericError, ValueError, ArithmeticError) as exc:  # the scan continues
        if lams.size > 1:  # decide again point by point: only the failing lambda downgrades
            return [d for i in range(lams.size) for d in _decide_block(n, lams[i:i + 1], mode)]
        return [Decision(verdict=Verdict.UNDETERMINED, certificate=None,
                         margin=offsets.item(), diagnostics=str(exc))]
    open_, found = np.isnan(barrier), search.found
    path = np.where(open_, np.where(found, _COMPETITOR, _NEITHER), _BARRIER)
    return _decisions(path, np.where(open_, np.where(found, search.margin, offsets), barrier))


def _scan_block(args) -> list[ScanRecord]:
    """Records for one n over its sorted lambdas, decided in one array pass."""
    n, lams, mode, measure_time = args
    start = time.perf_counter()
    decisions = _decide_block(n, lams, mode)
    # the block's time spread evenly over its points
    ms = int(round((time.perf_counter() - start) * 1000.0 / lams.size)) if measure_time else 0
    return list(map(_new, repeat(ScanRecord),
                    zip(repeat(n), lams.tolist(), decisions, repeat(threshold(n)), repeat(ms))))


def scan(n_range: Iterable[int], lambda_grid: Sequence[float],
         mode: str = "certified", parallelism: int = 1,
         measure_time: bool = True) -> list[ScanRecord]:
    """Decide every point of the grid; output sorted by (n, lambda).

    The grid is checked and sorted once per call, and each n's lambdas are
    decided together, in one array pass, in ascending n.  An n given k times
    gives each of its rows k times in a row.  With parallelism > 1 the
    n-blocks fan out over a process pool; the output order never depends on
    the worker count.  wall_time_ms is each n-block's time spread evenly
    over its points; set measure_time=False for byte-reproducible output.
    """
    counts = Counter(n_range)   # n -> times given, in first-seen order
    lams = np.fromiter(lambda_grid, dtype=float)
    if not counts or not lams.size:
        return []
    bad = np.flatnonzero(~((lams > 0.0) & (lams <= 1.0)))   # NaN too
    for n in counts:
        # one ConeSpace per n: raises on a bad n, else on the first lambda outside (0, 1]
        ConeSpace(n=n, lam=float(lams[bad[0] if bad.size else 0]))
    order = np.sort(lams)
    blocks = [(int(n), np.repeat(order, k), mode, measure_time) for n, k in sorted(counts.items())]
    if parallelism > 1 and len(blocks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=parallelism) as pool:
            parts = list(pool.map(_scan_block, blocks))
    else:
        parts = [_scan_block(block) for block in blocks]
    return list(chain.from_iterable(parts))


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


def _csv_lines(records: Iterable[ScanRecord]) -> list[str]:
    """One CSV line per record.

    Only lambda and margin are formatted per row, and lambda's repr once per
    value: a scan repeats its grid for every n, and the grid's lambdas are
    positive floats, whose equal values have equal reprs.  The n,
    verdict/certificate and lambda_star/wall_time_ms parts are formatted
    once per run of records that hold the very same objects, as a scan
    block's records do: identity implies equal text, and an identity test
    costs less than hashing an Enum.
    """
    lines, lam_text = [], {}
    n0 = star0 = ms0 = verdict0 = cert0 = object()   # matches no field
    for n, lam, (verdict, cert, margin, _), star, ms in records:
        if n is not n0 or star is not star0 or ms is not ms0:
            n0, star0, ms0 = n, star, ms
            head, tail = f"{n},", f",{star!r},{ms}"
        if verdict is not verdict0 or cert is not cert0:
            verdict0, cert0 = verdict, cert
            # _value_ is the member's value without the ``value`` property's call
            middle = f",{verdict._value_},{'' if cert is None else cert._value_},"
        text = lam_text.get(lam)
        if text is None:
            text = lam_text[lam] = repr(lam)
        lines.append(f"{head}{text}{middle}{margin!r}{tail}")
    return lines


def emit(records: Sequence[ScanRecord], format: str, path) -> None:
    """Write records as csv, json, or an svg phase diagram."""
    if format == "csv":
        text = "\n".join([_CSV_HEADER, ",".join(_COLUMNS), *_csv_lines(records)]) + "\n"
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
