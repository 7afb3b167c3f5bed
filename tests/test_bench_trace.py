"""The benchmark's traced call-count audit on a small certificate, sweep and solve.

`bench/tracing.py` wraps bvsharp's public functions by name and checks the
call counts that the code implies (quotient evaluations per radius search,
cap and arc calls per sweep radius, one direct `total_variation` call per
solver history row).  This test loads it unchanged, so a change to the
package that drops a name, a default or a call the audit reads fails here,
not only in a traced benchmark run.
"""

import csv
import importlib.util
from pathlib import Path

import pytest

from bvsharp import cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_searches_imply_28_evaluations(tracing):
    # 16 coarse radii, the 2 golden-section interior points, 10 Brent steps.
    assert tracing.expected_evals_per_search() == 28


def test_traced_certificate_and_sweep_pass_the_audit(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["domain-certificate", "--out", str(tmp_path / "certificate"),
                         "--h", "0.015625"]) == 0
        first = len(tracer.spans)
        assert cli.main(["domain-sweep", "--out", str(tmp_path / "sweep"),
                         "--h", "0.015625", "--eps_list", "0.05,0.1,0.2,0.4"]) == 0
        last = len(tracer.spans)
    finally:
        tracer.uninstall()
    index = tracing.SpanIndex(tracer.spans)
    # The audit passes vacuously on names it does not find, so the spans
    # it reads must be there.
    assert len(index.named("profiles.optimal_epsilon")) == 1
    assert len(index.named("cli._parallel_map")) == 1
    assert tracing.call_count_audit(index, [((0, first), {}),
                                            ((first, last), {"sweep_radii": 4})]) == []


def test_traced_solve_passes_the_audit(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["solve", "--out", str(tmp_path), "--h", "0.015625",
                         "--budget", "8"]) == 0
    finally:
        tracer.uninstall()
    with open(tmp_path / "detail.csv", newline="") as handle:
        rows = len(list(csv.DictReader(handle)))
    assert rows > 0
    index = tracing.SpanIndex(tracer.spans)
    assert index.named("solver.total_variation")
    assert tracing.call_count_audit(
        index, [((0, len(tracer.spans)), {"history_rows": rows})]) == []
