"""The benchmark harness in bench/ runs against the package as it stands.

``bench/tracing.py`` patches the module attributes in its ``SITES`` and
``bench/workloads.py`` calls the program through them, so a deletion or
rename of any of those names must fail here, not first in a benchmark run.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_one_traced_round_of_each_workload(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    originals = [(module, attr, getattr(module, attr)) for module, attr in tracing.SITES]
    tracer = tracing.Tracer()
    with tracer.installed():
        for name, make in workloads.WORKLOADS.items():
            result = make(1, str(tmp_path)).round()
            assert result.errors == [], name
            metrics = tracing.layer_metrics(tracer.take())
            assert set(metrics) == {metric for metric, _ in tracing.LAYER_METRICS}, name
    assert all(getattr(module, attr) is fn for module, attr, fn in originals)
