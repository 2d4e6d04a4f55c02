import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conelab import phase
from conelab.competitors import competitor_search
from conelab.geometry import ConeSpace
from conelab.phase import (Certificate, ScanRecord, Verdict, decide, emit,
                           empirical_threshold, parse_csv, scan, threshold)
from conelab.shooting import barrier_slope


class TestThreshold:
    def test_values(self):
        assert threshold(2) == 1.0
        assert threshold(3) == pytest.approx(0.9428090, abs=1e-7)
        assert threshold(5) == pytest.approx(0.8)

    def test_domain(self):
        with pytest.raises(ValueError):
            threshold(1)

    def test_in_unit_interval(self):
        for n in range(2, 30):
            assert 0.0 < threshold(n) <= 1.0


class TestDecide:
    def test_minimizing_via_barrier(self):
        d = decide(ConeSpace(3, 0.95))
        assert d.verdict is Verdict.MINIMIZING
        assert d.certificate is Certificate.BARRIER_LINE
        assert d.margin > 0.0

    def test_not_minimizing_via_competitor(self):
        d = decide(ConeSpace(3, 0.90))
        assert d.verdict is Verdict.NOT_MINIMIZING
        assert d.certificate is Certificate.COMPETITOR_FOUND

    def test_n2_below_one(self):
        assert decide(ConeSpace(2, 0.99)).verdict is Verdict.NOT_MINIMIZING

    def test_trivial_euclidean_case(self):
        assert decide(ConeSpace(2, 1.0)).verdict is Verdict.MINIMIZING

    def test_exact_threshold_is_minimizing(self):
        # tie goes to the minimizing side (degenerate double-root barrier)
        assert decide(ConeSpace(5, 0.8)).verdict is Verdict.MINIMIZING

    def test_formula_only_mode(self):
        d = decide(ConeSpace(3, 0.90), mode="formula-only")
        assert d.verdict is Verdict.NOT_MINIMIZING
        assert d.certificate is Certificate.THRESHOLD_FORMULA
        assert d.margin == pytest.approx(0.90 - threshold(3))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            decide(ConeSpace(3, 0.9), mode="oracle")

    def test_numeric_failure_downgrades_one_lambda(self, monkeypatch):
        def failing(n, lams, *disc):
            raise ArithmeticError("no search")

        monkeypatch.setattr(phase, "search_competitors", failing)
        d = decide(ConeSpace(3, 0.9))
        assert d.verdict is Verdict.UNDETERMINED
        assert d.certificate is None
        assert d.diagnostics == "no search"
        assert d.margin == 0.9 - threshold(3)
        assert type(d.margin) is float

    def test_programming_error_propagates_from_one_lambda(self, monkeypatch):
        def broken(n, lams, *disc):
            raise TypeError("not a numeric failure")

        monkeypatch.setattr(phase, "search_competitors", broken)
        with pytest.raises(TypeError, match="not a numeric failure"):
            decide(ConeSpace(3, 0.9))

    def test_modes_agree_away_from_curve(self):
        for n in (2, 3, 4, 5):
            for lam in np.linspace(0.55, 1.0, 10):
                if abs(lam - threshold(n)) <= 2e-3:
                    continue
                certified = decide(ConeSpace(n, float(lam)))
                formula = decide(ConeSpace(n, float(lam)), mode="formula-only")
                assert certified.verdict is formula.verdict, (n, lam)

    def test_modes_agree_at_the_threshold_double(self):
        # fl(threshold(n)) lies below lambda* for about half of these n, where
        # only the exact sign of D says NotMinimizing; the margin stays lam - threshold(n)
        for n in range(2, 1001):
            star = threshold(n)
            for lam in (math.nextafter(star, 0.0), star, math.nextafter(star, 2.0)):
                if lam > 1.0:
                    continue
                certified = decide(ConeSpace(n, lam))
                formula = decide(ConeSpace(n, lam), mode="formula-only")
                assert certified.verdict is formula.verdict, (n, lam)
                assert formula.margin == lam - star
        formula = decide(ConeSpace(4, 0.8660254037844386), mode="formula-only")
        assert formula.verdict is Verdict.NOT_MINIMIZING and formula.margin == 0.0


class TestScan:
    def test_empty_grid(self):
        assert scan([3], []) == []

    def test_sorted_output(self):
        recs = scan([3, 2], [0.9, 0.7], measure_time=False)
        keys = [(r.n, r.lam) for r in recs]
        assert keys == sorted(keys)

    def test_verdict_monotone_in_lambda(self):
        recs = scan([4], np.linspace(0.82, 0.92, 41))
        verdicts = [r.decision.verdict for r in recs]
        crossings = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a is not b)
        assert crossings == 1
        assert verdicts[0] is Verdict.NOT_MINIMIZING
        assert verdicts[-1] is Verdict.MINIMIZING

    def test_empirical_threshold(self):
        recs = scan([3], np.linspace(0.93, 0.955, 51))
        assert empirical_threshold(recs, 3) == pytest.approx(threshold(3), abs=1e-3)

    def test_empirical_threshold_needs_both_sides(self):
        recs = scan([3], [0.99])
        with pytest.raises(ValueError):
            empirical_threshold(recs, 3)

    def test_out_of_range_lambda_rejected(self):
        with pytest.raises(ValueError):
            scan([3], [0.9, 1.5])

    def test_order_and_content_match_pointwise_reference(self, tmp_path):
        # an n given twice, lambdas shuffled, one lambda given twice
        lams = [float(x) for x in np.linspace(0.6, 1.0, 41)] + [threshold(3), 0.75]
        random.Random(3).shuffle(lams)
        ns = [3, 2, 3]
        recs = scan(ns, lams, measure_time=False)
        expected = sorted((ScanRecord(n, lam, decide(ConeSpace(n, lam)), threshold(n), 0)
                           for n in ns for lam in lams), key=lambda r: (r.n, r.lam))
        assert recs == expected
        assert {r.decision.certificate for r in recs} == {Certificate.BARRIER_LINE,
                                                          Certificate.COMPETITOR_FOUND}
        rows = [phase._row(r) for r in expected]
        emit(recs, "csv", tmp_path / "out.csv")
        lines = ["# cone-min-lab v1", ",".join(rows[0])]
        lines += [",".join(str(value) for value in row.values()) for row in rows]
        assert (tmp_path / "out.csv").read_text() == "\n".join(lines) + "\n"
        emit(recs, "json", tmp_path / "out.json")
        assert (tmp_path / "out.json").read_text() == json.dumps(rows, indent=2) + "\n"

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -0.5, 1.5])
    def test_bad_lambda_rejected_at_any_position(self, bad):
        with pytest.raises(ValueError, match=r"cross-section radius must be in \(0, 1\]"):
            scan([3], [0.9, bad, 0.8])

    def test_first_bad_lambda_named(self):
        with pytest.raises(ValueError, match="got 1.5"):
            scan([3, 4], [0.9, 1.5, -0.5])

    @pytest.mark.parametrize("n", [2.5, np.float64(3.5), math.nan])
    def test_non_integral_dimension_rejected(self, n):
        # not truncated to a row labelled int(n)
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {n}")):
            scan([n], [0.9])
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {n}")):
            scan([3, n], [0.9])

    def test_numpy_integer_dimensions(self):
        recs = scan(np.arange(2, 5), [0.9], measure_time=False)
        assert recs == scan([2, 3, 4], [0.9], measure_time=False)
        assert [type(r.n) for r in recs] == [int] * 3

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError, match="cross-section dimension must be >= 2"):
            scan([1], [0.8])
        with pytest.raises(ValueError, match="cross-section dimension must be >= 2"):
            scan([3, 1], [0.8])
        assert scan([1], []) == []

    def test_records_immutable(self):
        rec = scan([3], [0.9])[0]
        with pytest.raises(AttributeError):
            rec.n = 4
        with pytest.raises(AttributeError):
            rec.decision.margin = 0.0

    def test_one_validation_and_one_certificate_pass_per_n(self, monkeypatch):
        # a deterministic work guard: no per-point ConeSpace, one barrier pass per n
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(phase, "ConeSpace", counted("ConeSpace", phase.ConeSpace))
        monkeypatch.setattr(phase, "barrier_margins",
                            counted("barrier_margins", phase.barrier_margins))
        recs = scan(range(2, 7), np.linspace(0.5, 1.0, 2001), measure_time=False)
        assert len(recs) == 10005
        assert calls["ConeSpace"] <= 5
        assert calls["barrier_margins"] == 5

    def test_block_matches_pointwise_decide(self):
        # one n-block mixing the barrier with competitor junctions both at
        # delta >= 1e-8 and below it
        star = threshold(4)
        lams = [float(x) for x in np.linspace(0.6, 1.0, 150)]
        lams += [star, star - 1e-9, star - 1e-6, star + 1e-9]
        paths = Counter()
        for rec in scan([4], lams, measure_time=False):
            d = decide(ConeSpace(4, rec.lam))
            assert rec.decision == d, rec.lam
            if d.certificate is Certificate.COMPETITOR_FOUND:
                tiny = competitor_search(ConeSpace(4, rec.lam)).log_delta < math.log(1e-8)
                paths["tiny delta" if tiny else "wide delta"] += 1
            else:
                paths[d.certificate] += 1
        assert set(paths) == {Certificate.BARRIER_LINE, "wide delta", "tiny delta"}

    def test_failure_downgrades_only_its_lambda(self, monkeypatch):
        # a search that raises at one lambda leaves the rest of the slice decided
        lams = [0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0]
        bad = 0.7
        expected = [decide(ConeSpace(3, lam)) for lam in lams]
        search = phase.search_competitors

        def failing(n, block, *disc):
            if bad in block:
                raise ArithmeticError(f"no search at {bad}")
            return search(n, block, *disc)

        monkeypatch.setattr(phase, "search_competitors", failing)
        for rec, d in zip(scan([3], lams, measure_time=False), expected):
            if rec.lam == bad:
                assert rec.decision.verdict is Verdict.UNDETERMINED
                assert rec.decision.certificate is None
                assert rec.decision.diagnostics == f"no search at {bad}"
                assert rec.decision.margin == bad - threshold(3)
            else:
                assert rec.decision == d, rec.lam
        # the lambdas decided alongside the failing one take both certificates
        certs = {d.certificate for lam, d in zip(lams, expected) if lam != bad}
        assert {Certificate.BARRIER_LINE, Certificate.COMPETITOR_FOUND} <= certs

    def test_programming_error_propagates(self, monkeypatch):
        # only numeric failures downgrade to Undetermined
        def broken(n, block, *disc):
            raise TypeError("not a numeric failure")

        monkeypatch.setattr(phase, "search_competitors", broken)
        with pytest.raises(TypeError):
            scan([3], [0.8, 0.9, 0.95])

    def test_verdicts_exact_within_ulps_of_threshold(self):
        # lambda* and lambda*(1 +- k 2^-52): every verdict certified, and
        # Minimizing iff (n lam)^2 >= 4(n-1) exactly on the double lambda
        certified = {Certificate.BARRIER_LINE, Certificate.COMPETITOR_FOUND}
        for n in range(2, 1001):
            star = threshold(n)
            lams = {star} | {star * (1 + sign * k * 2.0 ** -52)
                             for k in (1, 10, 10 ** 6) for sign in (-1, 1)}
            for rec in scan([n], sorted(lam for lam in lams if lam <= 1.0),
                            measure_time=False):
                assert rec.decision.certificate in certified, (n, rec.lam)
                minimizing = (n * Fraction(rec.lam)) ** 2 >= 4 * (n - 1)
                assert (rec.decision.verdict is Verdict.MINIMIZING) == minimizing, (n, rec.lam)

    def test_wide_scan_verdicts_are_exact(self):
        recs = scan(range(2, 7), np.linspace(0.5, 1.0, 2001), measure_time=False)
        assert Counter(r.decision.verdict for r in recs) == {
            Verdict.NOT_MINIMIZING: 7419, Verdict.MINIMIZING: 2586}
        for r in recs:
            # Minimizing iff (n lam)^2 >= 4(n-1), exactly on the double lambda
            minimizing = (r.n * Fraction(r.lam)) ** 2 >= 4 * (r.n - 1)
            assert (r.decision.verdict is Verdict.MINIMIZING) == minimizing, (r.n, r.lam)

    def test_parallel_matches_serial(self):
        grid = np.linspace(0.7, 1.0, 7)
        serial = scan([2, 3], grid, measure_time=False)
        parallel = scan([2, 3], grid, parallelism=2, measure_time=False)
        assert [(r.n, r.lam, r.decision.verdict) for r in serial] == \
               [(r.n, r.lam, r.decision.verdict) for r in parallel]

    def test_formula_only_coarse_thresholds(self):
        grid = np.linspace(0.5, 1.0, 2001)
        recs = scan(range(2, 7), grid, mode="formula-only", measure_time=False)
        expected = {2: 1.0, 3: 0.94281, 4: 0.86603, 5: 0.8, 6: 0.74536}
        for n, target in expected.items():
            if n == 2:
                continue  # no minimizing lambda strictly below 1 on this grid edge
            assert empirical_threshold(recs, n) == pytest.approx(target, abs=1e-3)


def _edge_lambdas(n):
    """lambda*, lambda* +- 10^-k for k = 2..14 and lambda*(1 +- k 2^-52) for k = 1, 10, 1e6."""
    star = threshold(n)
    lams = {star}
    for k in range(2, 15):
        lams.update((star - 10.0 ** -k, star + 10.0 ** -k))
    for k in (1, 10, 10 ** 6):
        lams.update((star * (1 - k * 2.0 ** -52), star * (1 + k * 2.0 ** -52)))
    return sorted(lam for lam in lams if 0.0 < lam <= 1.0)


_EDGE_NS = list(range(2, 31)) + [50, 100, 200, 1000]


class TestNearThreshold:
    def test_decide_is_its_scan_row(self):
        # the one-lambda kernel and the block kernel agree bit for bit
        def bits(d):
            return d.verdict, d.certificate, d.margin.hex(), d.diagnostics

        for n in _EDGE_NS:
            for rec in scan([n], _edge_lambdas(n), measure_time=False):
                d = decide(ConeSpace(n, rec.lam))
                assert type(d.margin) is type(rec.decision.margin) is float
                assert bits(d) == bits(rec.decision), (n, rec.lam)

    def test_barrier_rows_carry_the_margin_bound(self):
        # a BarrierLine row's margin is D/(2 n lam) on the exact D, to within
        # D's rounding error, about 3 2^-53 (n lam)^2 (1.3e-15 (n-1) near
        # lambda*), over 2 n lam, and the quotient's roundings
        for n in _EDGE_NS:
            for rec in scan([n], _edge_lambdas(n), measure_time=False):
                if rec.decision.certificate is not Certificate.BARRIER_LINE:
                    continue
                margin, nl = rec.decision.margin, n * Fraction(rec.lam)
                exact = (nl * nl - 4 * (n - 1)) / (2 * nl)
                assert margin >= 0.0, (n, rec.lam)
                assert abs(Fraction(margin) - exact) <= Fraction(2.0 ** -53) * (
                    2 * nl + 3 * Fraction(margin)), (n, rec.lam)

    def test_barrier_slope_exists_iff_exact_discriminant_nonnegative(self):
        for n in _EDGE_NS:
            for lam in _edge_lambdas(n):
                negative = (n * Fraction(lam)) ** 2 < 4 * (n - 1)
                assert (barrier_slope(ConeSpace(n, lam)) is None) == negative, (n, lam)


class TestEmit:
    @pytest.fixture()
    def records(self):
        return scan([2, 3], np.linspace(0.8, 1.0, 5), measure_time=False)

    def test_csv_layout(self, records, tmp_path):
        path = tmp_path / "out.csv"
        emit(records, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# cone-min-lab v1"
        assert lines[1] == "n,lambda,verdict,certificate,margin,lambda_star,wall_time_ms"
        assert len(lines) == 2 + len(records)

    def test_csv_single_record(self, tmp_path):
        recs = scan([3], [0.9], measure_time=False)
        path = tmp_path / "one.csv"
        emit(recs, "csv", path)
        assert len(path.read_text().splitlines()) == 3

    def test_csv_roundtrip(self, records, tmp_path):
        path = tmp_path / "out.csv"
        emit(records, "csv", path)
        rows = parse_csv(path)
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            assert row["n"] == rec.n
            assert row["lambda"] == rec.lam
            assert row["verdict"] == rec.decision.verdict.value
            assert row["margin"] == rec.decision.margin

    def test_deterministic_csv(self, tmp_path):
        grid = np.linspace(0.7, 1.0, 7)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(scan([2, 3], grid, measure_time=False), "csv", p1)
        emit(scan([2, 3], grid, measure_time=False), "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_roundtrip(self, records, tmp_path):
        path = tmp_path / "out.json"
        emit(records, "json", path)
        rows = json.loads(path.read_text())
        assert len(rows) == len(records)
        assert set(rows[0]) == {"n", "lambda", "verdict", "certificate",
                                "margin", "lambda_star", "wall_time_ms"}
        assert rows[0]["lambda"] == records[0].lam

    def test_svg_contents(self, records, tmp_path):
        path = tmp_path / "out.svg"
        emit(records, "svg", path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text  # the threshold curve
        assert text.count("<circle") >= len(records)
        assert "http://www.w3.org/2000/svg" in text

    def test_unknown_format(self, records, tmp_path):
        with pytest.raises(ValueError):
            emit(records, "yaml", tmp_path / "x")

    def test_unwritable_path(self, records, tmp_path):
        with pytest.raises(OSError):
            emit(records, "csv", tmp_path / "missing" / "out.csv")
