"""Tests of the benchmark's own helpers: python3 -m pytest perfbench/tests -q"""

import json
import math
from collections import Counter
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import run  # noqa: E402
from harness import Cell, CellResult, Invocation  # noqa: E402

COMPLEMENT = "complement-sigma0"


def _row(cell, mesh=512, M=None, closed=None, status="ok", **extra):
    closed = harness.closed_form(cell) if closed is None else closed
    gap = None if closed is None or M is None else M - closed
    row = {"command": "sweep", "d": cell.d, "k": cell.k, "p": cell.p, "a": cell.a, "b": cell.b,
           "cone": cell.cone, "mesh": mesh, "closed_form": closed, "numeric_M": M, "gap": gap,
           "extrapolated": None, "status": status}
    row.update(extra)
    return row


def _report(rows):
    return json.dumps({"schema": 1, "rows": rows}).encode()


# digits and references

def test_closed_forms():
    assert harness.closed_form(Cell(3, 1, 2.0, 0.0, 0.0, COMPLEMENT)) == pytest.approx(2.25)
    assert harness.closed_form(Cell(4, 1, 2.0, 0.3, 0.5, "half-space")) == pytest.approx(2.91)
    assert harness.closed_form(Cell(3, 1, 2.0, 1.0, 0.0, COMPLEMENT)) == pytest.approx(1.0)
    assert harness.closed_form(Cell(3, 1, 3.0, 0.0, 0.0, COMPLEMENT)) is None


def test_digits_and_cap():
    assert harness.digits(1.000001, 1.0) == pytest.approx(6.0, abs=1e-6)
    assert harness.digits(2.0, 2.0) == harness.DIGITS_CAP
    assert harness.digits(1.0 + 1e-16, 1.0) == harness.DIGITS_CAP
    assert harness.digits(11.0, 1.0) == 0.0
    assert harness.digits(None, 1.0) == 0.0
    assert harness.digits(math.nan, 1.0) == 0.0
    assert harness.digits(1.0, None) == 0.0


def test_mesh_pair_digits_and_failure():
    cell = Cell(3, 1, 1.5, 0.3, 0.0, COMPLEMENT)
    near = Cell(3, 1, 3.0, 0.0, 0.0, COMPLEMENT)
    closed = Cell(3, 1, 2.0, 0.0, 0.0, COMPLEMENT)
    results = [
        CellResult(cell, 1024, value=2.0), CellResult(cell, 512, value=2.0 + 2e-6),
        CellResult(near, 512, value=1.0), CellResult(near, 1024, value=1.002),
        CellResult(closed, 512, value=2.25, digits=7.0), CellResult(closed, 1024, value=9.0, digits=7.0),
    ]
    harness.apply_mesh_pairs(results)
    assert [r.digits for r in results[:2]] == [pytest.approx(6.0, abs=1e-6)] * 2
    assert results[0].ok and results[1].ok
    assert not results[2].ok and not results[3].ok
    assert "mesh-pair" in results[2].failures[0]
    assert results[4].digits == results[5].digits == 7.0 and results[5].ok


# failure classification

@pytest.mark.parametrize("code,kind", [(0, "ok"), (1, "gap_miss"), (2, "crash"), (-11, "crash")])
def test_exit_kind(code, kind):
    assert harness.exit_kind(code) == kind


def _sweep(*cells):
    return Invocation(("sweep",), 512, tuple(cells))


GOOD = Cell(3, 1, 2.0, 0.0, 0.0, COMPLEMENT)
NEAR = Cell(3, 1, 2.0, 0.9, 0.0, COMPLEMENT)


def test_exit_0_all_cells_pass():
    check = harness.check_report(_sweep(GOOD), 0, _report([_row(GOOD, M=2.25 + 2.25e-8)]))
    assert not check.failed
    assert check.cells[0].ok and check.cells[0].digits == pytest.approx(8.0, abs=1e-6)


def test_exit_1_gap_miss_fails_the_cell_not_the_invocation():
    rows = [_row(GOOD, M=2.25), _row(NEAR, M=1.1118)]
    check = harness.check_report(_sweep(GOOD, NEAR), 1, _report(rows))
    assert not check.failed
    assert check.cells[0].ok
    assert not check.cells[1].ok and check.cells[1].failures[0].startswith("gap")


def test_exit_2_is_a_crash():
    check = harness.check_report(_sweep(GOOD, NEAR), 2, None)
    assert check.failed
    assert all(not c.ok and c.digits == 0.0 for c in check.cells)


def test_exit_code_must_agree_with_rows():
    rows = [_row(GOOD, M=2.25), _row(NEAR, M=1.1118)]
    assert harness.check_report(_sweep(GOOD, NEAR), 0, _report(rows)).failed
    assert harness.check_report(_sweep(GOOD), 1, _report([_row(GOOD, M=2.25)])).failed


def test_missing_extra_and_wrong_closed_form_rows():
    assert harness.check_report(_sweep(GOOD, NEAR), 0, _report([_row(GOOD, M=2.25)])).failed
    assert harness.check_report(_sweep(), 0, _report([_row(GOOD, M=2.25)])).failed
    wrong = _row(GOOD, M=2.25, closed=2.5)
    wrong["gap"] = 0.0
    assert harness.check_report(_sweep(GOOD), 0, _report([wrong])).failed


def test_verify_rows():
    cell = Cell(3, 1, 3.0, 0.0, 0.0, COMPLEMENT)
    inv = Invocation(("verify",), 2048, (cell,), has_h_row=True)
    value = _row(cell, mesh=2048, M=2.0, extrapolated=2.0 + 2e-7)
    h_row = {**_row(cell, mesh=None), "status": "solver_fail"}
    check = harness.check_report(inv, 1, _report([value, h_row]))
    assert not check.failed
    assert check.cells[0].digits == pytest.approx(7.0, abs=1e-6)
    assert check.cells[0].failures == ["cutoff status solver_fail"]
    assert harness.check_report(inv, 0, _report([value])).failed  # cutoff row missing


# spans, percentiles

def _span(name, start, end, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}


def test_self_times():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("spherical.solve", 1.0, 5.0, 0),
        _span("spherical.assemble", 1.5, 2.5, 1),
        _span("spherical.eigensolve", 2.0, 4.0, 1),   # overlaps its sibling: counted once
        _span("probe.rule", 5.0, 6.0, 0),
    ]
    assert harness.self_times(spans) == pytest.approx([5.0, 1.5, 1.0, 2.0, 1.0])


def test_layer_totals():
    key = [3, 1, 2.0, 0.0, 0.0, 0.0, 1.57, "natural", "dirichlet", 513]
    spans = [
        _span("cli.import", 0.0, 0.5),
        _span("cli.main", 1.0, 3.0),
        _span("spherical.solve", 1.0, 1.5, 1, key=key),
        _span("spherical.descent", 1.1, 1.4, 2, iters=30),
        _span("probe.rule", 1.5, 1.6, 1, nodes=4096),
        _span("spherical.solve", 2.0, 2.5, 1, key=key),
    ]
    p = run.Pass(traced=True, spans=[spans], inv_walls=[4.0])
    totals = run.layer_totals(p)
    assert totals["cli.process_s"] == pytest.approx(2.0)
    assert totals["cli.import_s"] == pytest.approx(0.5)
    assert totals["spherical.descent_iters"] == 30
    assert totals["spherical.descent_ms_per_iter"] == pytest.approx(10.0)
    assert totals["spherical.solve_self_ms"] == pytest.approx(700.0)
    assert totals["spherical.repeat_frac"] == 0.5
    assert totals["quadrature.rule_calls"] == 1 and totals["quadrature.nodes"] == 4096
    assert totals["probe_s"] == pytest.approx(0.1)


def test_percentile():
    assert harness.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert harness.percentile([1.0, 2.0], 50) == 1.5
    assert harness.percentile(list(range(11)), 90) == pytest.approx(9.0)
    assert harness.percentile([5.0], 90) == 5.0


def test_median_pass_sums_per_invocation_medians():
    assert harness.median_pass([[1.0, 10.0]]) == 11.0
    assert harness.median_pass([[1.0, 10.0], [1.2, 30.0], [5.0, 11.0]]) == pytest.approx(12.2)


@pytest.mark.parametrize("n,q", [(10, None), (40, 75.0), (99, 75.0), (100, 90.0),
                                 (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert harness.tail_percentile(n) == q


# workloads and the metric list

def test_seed_shuffles_order_not_content():
    for name in harness.WORKLOADS:
        a, b = harness.build_workload(name, 1), harness.build_workload(name, 2)
        assert a == harness.build_workload(name, 1)
        assert Counter(c for inv in a.invocations for c in inv.cells) == \
            Counter(c for inv in b.invocations for c in inv.cells)
    orders = {harness.build_workload("sweep-p2", s).invocations[0].argv for s in range(8)}
    assert len(orders) > 1


def test_workload_sizes():
    counts = {name: [len(inv.cells) for inv in harness.build_workload(name, 0).invocations]
              for name in harness.WORKLOADS}
    assert counts == {"sweep-p2": [36, 36], "descent": [4, 4], "certify": [1] * 7}


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)
