"""CLI surface: parsing, report schema, round trips, exit codes, determinism."""

import concurrent.futures
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import hardycone
import hardycone.cli as cli
import hardycone.spherical as spherical
from hardycone.cli import (
    CSV_COLUMNS,
    ReportRow,
    RunConfig,
    cmd_constant,
    cmd_spectrum,
    cmd_sweep,
    cmd_table,
    cmd_verify,
    main,
    parse_cone,
    rows_to_csv,
    rows_to_json,
)
from hardycone.params import ConeKind, closed_form_constant
from hardycone.spherical import ConvergenceError


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(argv, **env):
    """stdout of a fresh interpreter running argv, with this hardycone first on the path."""
    src = str(Path(hardycone.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *argv], env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def config_for(command="constant", **overrides):
    base = dict(
        command=command,
        d=(3,), k=(1,), p=(2.0,), a=(0.0,), b=(0.0,),
        cones=("complement-sigma0",),
        mesh_size=128,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestParseCone:
    def test_named_cones(self):
        assert parse_cone("full").kind is ConeKind.FULL_SPACE
        assert parse_cone("punctured").kind is ConeKind.PUNCTURED_SPACE
        assert parse_cone("complement-sigma0").kind is ConeKind.COMPLEMENT_SIGMA0
        assert parse_cone("half-space").kind is ConeKind.HALF_SPACE

    def test_band(self):
        cone = parse_cone("band:0.3:1.2")
        assert cone.kind is ConeKind.BAND
        assert (cone.theta1, cone.theta2) == (0.3, 1.2)

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_cone("wedge")
        with pytest.raises(ValueError):
            parse_cone("band:0.3")


class TestCommands:
    def test_constant_row_values(self):
        rows = cmd_constant(config_for())
        row = rows[0]
        assert row.status == "ok"
        assert row.closed_form == pytest.approx(2.25)
        assert row.numeric_M == pytest.approx(2.25, rel=1e-4)
        assert abs(row.gap) < 1e-3

    def test_constant_punctured_quarter(self):
        rows = cmd_constant(config_for(cones=("punctured",)))
        assert rows[0].closed_form == pytest.approx(0.25)
        assert rows[0].numeric_M == pytest.approx(0.25, abs=1e-10)

    def test_no_closed_form_status(self):
        rows = cmd_constant(config_for(p=(3.0,), a=(0.5,)))
        assert rows[0].status == "no_closed_form"
        assert rows[0].closed_form is None
        assert rows[0].numeric_M is not None

    def test_structurally_invalid_cell_is_a_failed_row(self):
        rows = cmd_constant(config_for(d=(4,), k=(2,), cones=("half-space",)))  # needs k = 1
        assert [row.status for row in rows] == ["solver_fail"]
        assert rows[0].numeric_M is None

    def test_spectrum_reports_numeric_only(self):
        rows = cmd_spectrum(config_for("spectrum"))
        row = rows[0]
        assert row.status == "ok"
        assert row.closed_form is None and row.gap is None
        assert row.lam == pytest.approx(2.0, rel=1e-4)
        assert row.residual is not None

    def test_verify_empty_delta_list(self):
        rows = cmd_verify(config_for("verify", delta_list=(), h_list=()))
        assert rows[0].status == "ok"
        assert rows[0].quotient_trace == ()
        assert rows[0].extrapolated is None

    def test_verify_traces(self):
        config = config_for("verify", delta_list=(0.2, 0.1, 0.05), h_list=())
        rows = cmd_verify(config)
        assert len(rows) == 1
        row = rows[0]
        assert len(row.quotient_trace) == 3
        assert row.extrapolated == pytest.approx(2.25, abs=1e-3)
        assert row.fit_order == pytest.approx(2.0, abs=0.1)

    def test_verify_delta_row_carries_solve_data(self):
        row = cmd_verify(config_for("verify", delta_list=(0.2, 0.1), h_list=()))[0]
        assert row.iterations is not None and row.residual is not None
        assert row.numeric_M == cmd_constant(config_for())[0].numeric_M

    def test_verify_h_trace_rate(self):
        config = config_for("verify", a=(1.0,), delta_list=(), h_list=(4, 8, 16))
        rows = cmd_verify(config)
        hrow = rows[-1]
        assert hrow.fit_rate == pytest.approx(1.0 - 2.0, abs=0.05)  # h^(1-p)

    def test_verify_non_finite_h_energy_fails_row(self, monkeypatch):
        monkeypatch.setattr(cli, "cutoff_decay", lambda params, support, h: math.nan)
        config = config_for("verify", a=(1.0,), delta_list=(), h_list=(4, 8))
        hrow = cmd_verify(config)[-1]
        assert hrow.status == "solver_fail"

    def test_verify_h_trace_below_threshold_rejected(self):
        config = config_for("verify", a=(0.0,), delta_list=(0.1,), h_list=(4, 8))
        with pytest.raises(ValueError, match="k\\+a >= p"):
            cmd_verify(config)  # k + a < p: no strip regime to check

    def test_table_reproduces_fractional_families(self):
        config = config_for("table", d=(), cs_n=(2, 3), cs_s=(0.25, 0.5, 0.75), mesh_size=256)
        rows = cmd_table(config)
        assert len(rows) == 12  # 6 full-space + 6 half-space cells
        for row in rows:
            n, s = row.d - 1, (1.0 - row.a) / 2.0
            if row.cone == "full":
                assert row.closed_form == pytest.approx(((n - 2 * s) / 2) ** 2, rel=1e-12)
            else:
                assert row.closed_form == pytest.approx(((n + 2 * s) / 2) ** 2, rel=1e-12)
            assert abs(row.gap) < 1e-3

    def test_table_mixed_threshold_rows(self):
        config = config_for("table", cs_n=(), cs_s=(), d=(3, 4), k=(1,), p=(2.0,), mesh_size=128)
        rows = cmd_table(config)
        by_d = {row.d: row for row in rows if row.cone == "full"}
        assert by_d[3].closed_form == pytest.approx(1.0)  # ((3-1)/2)^2
        assert by_d[4].closed_form == pytest.approx(2.25)  # ((4-1)/2)^2

    def test_empty_grid_empty_table(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--cs-n", "", "--cs-s", "", "--d", "", "--mesh", "64"
        )
        assert code == 0
        assert json.loads(out)["rows"] == []


def count_solves(monkeypatch, fail=lambda params: False):
    """Wrap cli.solve_M: the (params, cone) of every call; raise ConvergenceError where fail(params)."""
    calls = []
    solve = cli.solve_M

    def counting(params, cone, **kwargs):
        calls.append((params, cone))
        if fail(params):
            raise ConvergenceError("forced", residual=1.0)
        return solve(params, cone, **kwargs)

    monkeypatch.setattr(cli, "solve_M", counting)
    return calls


def inline_pool(monkeypatch):
    """Replace ProcessPoolExecutor by an executor that runs calls inline; its max_workers values."""
    workers = []

    class InlinePool(concurrent.futures.Executor):
        def __init__(self, max_workers):
            workers.append(max_workers)

        def submit(self, fn, *args, **kwargs):
            future = concurrent.futures.Future()
            future.set_result(fn(*args, **kwargs))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return workers


# 12 cells, 7 distinct problems: every k = 1 half-space cell repeats its
# complement twin, and (3,1,2,0.5,0) repeats (4,2,2,-0.5,0)
TWIN_GRID = dict(d=(3, 4), k=(1, 2), a=(-0.5, 0.5), cones=("complement-sigma0", "half-space"))


class TestSweepDedupe:
    def test_one_solve_per_distinct_problem(self, monkeypatch):
        config = config_for("sweep", **TWIN_GRID)
        per_cell = [cli._cell_row("sweep", params, cone, config.mesh_size,
                                  cli._solve(params, cone, config.mesh_size))
                    for params, cone in config.cells()]
        calls = count_solves(monkeypatch)
        rows = cmd_sweep(config)
        assert len(rows) == 12 and len(calls) == 7
        assert rows == per_cell

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_cells_differing_in_b_not_merged(self, monkeypatch, p):
        calls = count_solves(monkeypatch)
        rows = cmd_sweep(config_for("sweep", p=(p,), a=(0.3,), b=(0.0, 0.5)))
        assert len(calls) == 2  # H^2 differs
        assert rows[0].numeric_M != rows[1].numeric_M

    def test_convergence_error_fails_only_its_group(self, monkeypatch):
        # the group of (3,1,2,0.5,0): k+a = 1.5, d-k = 2
        count_solves(monkeypatch,
                     fail=lambda params: (params.k + params.a, params.d - params.k) == (1.5, 2))
        rows = cmd_sweep(config_for("sweep", **TWIN_GRID))
        failed = {(row.d, row.k, row.a, row.cone) for row in rows if row.status == "solver_fail"}
        assert failed == {(3, 1, 0.5, "complement-sigma0"), (3, 1, 0.5, "half-space"),
                          (4, 2, -0.5, "complement-sigma0")}
        assert all(row.status == "ok" for row in rows if row.status != "solver_fail")

    def test_pool_capped_at_distinct_problems(self, monkeypatch):
        workers = inline_pool(monkeypatch)
        grid = dict(a=(0.0, 0.5), cones=("complement-sigma0", "half-space"))
        rows = cmd_sweep(config_for("sweep", jobs=4, **grid))
        assert workers == [2]  # 4 cells, 2 distinct problems
        assert rows == cmd_sweep(config_for("sweep", **grid))


class TestClosedFormGrid:
    def test_p2_cells_meet_their_closed_forms(self):
        # the factored p = 2 basis holds the exact minimizer cos^s theta, so
        # with correctly rounded Gauss-Jacobi rules only rounding is left
        grid = dict(d=(3, 4, 5), k=(1, 2), a=(-0.5, 0.0, 0.5, 0.9),
                    cones=("complement-sigma0", "half-space"), mesh_size=2048)
        rows = cmd_sweep(config_for("sweep", **grid))
        assert len(rows) == 36
        for row in rows:
            assert row.status == "ok" and abs(row.gap) <= 1e-15 * row.closed_form, row


# 48 cells: p = 2 cells solved spectrally and p = 1.5 cells by the P1 descent,
# on a band that reaches pi/2 and one that does not
MESH_GRID = dict(d=(3, 4), k=(1, 2), p=(2.0, 1.5), a=(-0.5, 0.5, 1.5),
                 cones=(f"band:0.3:{math.pi / 2!r}", "band:0.3:1.2"))


class TestMeshGeometryCache:
    """A sweep's rows do not depend on the order in which its problems are solved."""

    def test_rows_equal_cold_solves_in_reverse(self):
        forward = config_for("sweep", **MESH_GRID)
        backward = config_for("sweep", **{key: values[::-1] for key, values in MESH_GRID.items()})
        cold = {}
        for params, cone in reversed(forward.cells()):
            result = cli._solve(params, cone, forward.mesh_size)
            cold[params, cone] = cli._cell_row("sweep", params, cone, forward.mesh_size, result)
        for config in (forward, backward):
            rows = cmd_sweep(config)
            assert rows_to_json(config, rows) == rows_to_json(config, [cold[cell] for cell in config.cells()])
            assert {row.status for row in rows} <= {"ok", "no_closed_form"}


# 17 cells, 13 distinct problems: 12 (n, s) family cells, the mixed-threshold cell
# (3,1,2,1,0) and four grid cells, of which (3,1,2,0,0) and (3,1,2,0.5,0) on
# complement-sigma0 and half-space repeat the family's half-space cells
TABLE_GRID = dict(cs_n=(2, 3), cs_s=(0.25, 0.5, 0.75), a=(0.0, 0.5),
                  cones=("complement-sigma0", "half-space"))


class TestTableDedupe:
    def test_one_solve_per_distinct_problem(self, monkeypatch):
        calls = count_solves(monkeypatch)
        rows = cmd_table(config_for("table", **TABLE_GRID))
        assert len(rows) == 17 and len(calls) == 13

    def test_jobs_give_the_same_rows(self, monkeypatch):
        serial = cmd_table(config_for("table", **TABLE_GRID))
        workers = inline_pool(monkeypatch)
        assert cmd_table(config_for("table", jobs=2, **TABLE_GRID)) == serial
        assert workers == [2]


class TestSerialization:
    def test_report_row_round_trip(self):
        rows = cmd_verify(config_for("verify", delta_list=(0.2, 0.1), h_list=()))
        for row in rows:
            assert ReportRow.from_dict(row.to_dict()) == row

    def test_json_document_round_trip(self):
        config = config_for()
        rows = cmd_constant(config)
        doc = json.loads(rows_to_json(config, rows))
        assert doc["schema"] == 1
        assert [ReportRow.from_dict(r) for r in doc["rows"]] == rows

    def test_csv_layout_and_float_round_trip(self):
        config = config_for()
        rows = cmd_constant(config)
        text = rows_to_csv(rows)
        reader = csv.DictReader(io.StringIO(text))
        assert reader.fieldnames == CSV_COLUMNS
        parsed = next(reader)
        assert float(parsed["numeric_M"]) == rows[0].numeric_M  # repr round trip
        assert float(parsed["closed_form"]) == rows[0].closed_form

    def test_csv_numpy_floats_round_trip(self):
        # numpy 2 spells a np.float64's repr np.float64(...); the CSV must hold plain decimals
        rows = (cmd_constant(config_for(p=(1.5,), a=(0.3,)))
                + cmd_verify(config_for("verify", delta_list=(0.2, 0.1, 0.05))))
        parsed = list(csv.DictReader(io.StringIO(rows_to_csv(rows))))
        assert float(parsed[0]["numeric_M"]) == rows[0].numeric_M
        assert float(parsed[0]["residual"]) == rows[0].residual
        assert float(parsed[1]["extrapolated"]) == rows[1].extrapolated
        assert float(parsed[1]["residual"]) == rows[1].residual

    def test_determinism(self):
        config = config_for("verify", delta_list=(0.2, 0.1, 0.05))
        first = rows_to_json(config, cmd_verify(config))
        second = rows_to_json(config, cmd_verify(config))
        assert first == second


class TestMainEntry:
    def test_constant_json_stdout(self, capsys):
        code, out, err = run_cli(
            capsys, "constant", "--d", "3", "--k", "1", "--p", "2", "--a", "0",
            "--b", "0", "--cone", "complement-sigma0", "--mesh", "128",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["closed_form"] == 2.25

    def test_inadmissible_input_machine_readable_error(self, capsys):
        code, out, err = run_cli(
            capsys, "constant", "--d", "3", "--k", "2", "--p", "2", "--a", "-3",
            "--b", "0", "--cone", "full",
        )
        assert code == 2
        doc = json.loads(err)
        assert doc["error"]["type"] == "AdmissibilityError"

    def test_output_file_written_atomically(self, tmp_path, capsys):
        out_path = tmp_path / "nested" / "report.json"
        code, _, _ = run_cli(
            capsys, "constant", "--d", "3", "--k", "1", "--p", "2", "--a", "0",
            "--b", "0", "--cone", "punctured", "--mesh", "64", "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["rows"][0]["closed_form"] == 0.25
        assert not any(name.endswith(".tmp") for name in os.listdir(out_path.parent))

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "constant", "--d", "3", "--k", "1", "--p", "2", "--a", "0",
            "--b", "0", "--cone", "punctured", "--mesh", "64", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_sweep_parallel_matches_serial(self, capsys):
        args = [
            "sweep", "--d", "3,4", "--k", "1", "--p", "2", "--a", "0,0.5",
            "--b", "0", "--cone", "punctured,complement-sigma0", "--mesh", "64",
            "--tol", "1e-2",
        ]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args, "--jobs", "2")
        assert code1 == code2 == 0
        assert json.loads(out1)["rows"] == json.loads(out2)["rows"]

    def test_sweep_skips_inadmissible_cells(self, capsys):
        # negative values use the --flag=value form (argparse dash handling)
        code, out, _ = run_cli(
            capsys, "sweep", "--d", "3", "--k", "1", "--p", "2", "--a=-2,0",
            "--b", "0", "--cone", "punctured", "--mesh", "64",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["a"] for row in rows] == [0.0]

    def test_config_file_defaults_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"d": [4], "a": [0.0], "mesh_size": 64}))
        code, out, _ = run_cli(
            capsys, "constant", "--k", "1", "--p", "2", "--b", "0",
            "--cone", "punctured", "--config", str(cfg),
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["d"] == 4 and row["mesh"] == 64
        # explicit flag beats the config file
        code, out, _ = run_cli(
            capsys, "constant", "--k", "1", "--p", "2", "--b", "0",
            "--cone", "punctured", "--config", str(cfg), "--d", "5",
        )
        assert json.loads(out)["rows"][0]["d"] == 5

    def test_config_file_format_outside_choices_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        code, out, err = run_cli(capsys, "constant", "--mesh", "64", "--config", str(cfg))
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        # the flag parser's own check, blamed on the file; the choices' layout is argparse's
        assert error["message"].startswith(f"config file {cfg}: argument --format: invalid choice")

    @pytest.mark.parametrize("flags", [
        ("--deltas", "0.1,0.1"),
        ("--a", "1", "--hs", "4,4"),
    ])
    def test_verify_repeated_points_rejected(self, capsys, flags):
        code, out, err = run_cli(capsys, "verify", "--d", "3", "--k", "1", "--mesh", "64", *flags)
        assert code == 2 and out == ""
        assert "distinct" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("flags, message", [
        (("--deltas", "0.1,-0.05"), "finite and positive"),
        (("--deltas", "0.1,nan"), "finite and positive"),
        (("--a", "1", "--hs", "0,4"), "at least 3"),
        (("--a", "1", "--hs", "2,4"), "at least 3"),
        (("--a", "1", "--hs", "4,1" + "0" * 320), "must be below"),
        (("--a", "1", "--hs", "4", "--deltas", "0.1,0.05"), "at least two"),
        (("--a", "1", "--hs", "4,8", "--deltas", "0.1"), "at least two"),
    ], ids=["negative-delta", "nan-delta", "h-zero", "h-two", "h-past-float-range", "one-h", "one-delta"])
    def test_verify_malformed_points_rejected(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "verify", "--d", "3", "--k", "1", "--mesh", "64", *flags)
        assert code == 2 and out == ""
        assert message in json.loads(err)["error"]["message"]

    def test_verify_large_h_rate_finite(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--a", "1", "--hs", "200,400", "--mesh", "64")
        assert code == 0
        hrow = json.loads(out)["rows"][-1]
        assert hrow["status"] == "ok"
        assert all(math.isfinite(energy) for _, energy in hrow["trace"])
        assert math.isfinite(hrow["fit_rate"]) and hrow["fit_rate"] <= -0.9

    def test_verify_rate_above_threshold_where_energies_underflow(self, capsys):
        # k+a - p = 1.5: I_h ~ e^(-1.5 h) underflows to 0, so the rate is fitted
        # from log-energies; it lies far below the threshold rate 1 - p = -1
        code, out, err = run_cli(capsys, "verify", "--a", "2.5", "--hs", "500,1000,2000", "--mesh", "64")
        assert code == 0
        hrow = json.loads(out)["rows"][-1]
        assert hrow["status"] == "ok" and len(hrow["trace"]) == 3
        assert math.isfinite(hrow["fit_rate"]) and hrow["fit_rate"] < -100.0

    def test_verify_near_threshold_cell_is_ok(self, capsys):
        # (3,1,2,0.9,0): P1 at mesh 2048 was 8e-3 off, so the extrapolation missed the closed form
        code, out, err = run_cli(capsys, "verify", "--d", "3", "--k", "1", "--a", "0.9", "--mesh", "2048")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["status"] == "ok"
        assert abs(row["extrapolated"] - row["closed_form"]) <= 1e-12 * row["closed_form"]

    def test_verify_extrapolates_over_every_delta(self, capsys):
        # (3,1,3,0,0) has no closed form: the four-point Hermite table in delta^2 meets
        # the hp M to 1e-11; values alone reached 4e-10, a line through the last two 4e-7
        code, out, err = run_cli(capsys, "verify", "--p", "3", "--mesh", "2048",
                                 "--deltas", "0.2,0.1,0.05,0.025")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["status"] == "ok" and row["closed_form"] is None and len(row["trace"]) == 4
        assert abs(row["extrapolated"] - row["numeric_M"]) <= 1e-11 * row["numeric_M"]

    def test_verify_small_M_limit_is_relatively_exact(self, capsys):
        # (3,2,8,5,0): H = 0 and p = 8, so the quotient is a quartic in delta^2, which
        # four values and slopes fix; the row's own check (5e-3 relative, 1e-9 absolute)
        # passed the values-only limit 3.6e-4 off this M ~ 1.75e-6
        code, out, err = run_cli(capsys, "verify", "--d", "3", "--k", "2", "--p", "8", "--a=5",
                                 "--mesh", "256", "--deltas", "0.2,0.1,0.05,0.025")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["status"] == "ok" and row["numeric_M"] < 1e-5
        assert abs(row["extrapolated"] - row["numeric_M"]) <= 1e-12 * row["numeric_M"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_verify_delta_at_H_gives_a_finite_limit(self, capsys):
        # full space, p = 1.5: H = 1 and the minimizer is constant, so at delta = 1 every
        # density of the H - delta branch is 0; the limit is finite, and the row fails
        # only because the trace starts at the expansion's radius |H|, far from M = 1
        code, out, err = run_cli(capsys, "verify", "--cone", "full", "--p", "1.5",
                                 "--deltas", "1,0.5", "--mesh", "64")
        assert code == 1 and err == ""
        row = json.loads(out)["rows"][0]
        assert row["status"] == "solver_fail" and math.isfinite(row["extrapolated"])
        assert abs(row["extrapolated"] - row["numeric_M"]) > 5e-3 * row["numeric_M"]

    def test_verify_delta_order_does_not_matter(self, capsys):
        rows = {}
        for deltas in ("0.2,0.1,0.05,0.025", "0.025,0.2,0.05,0.1", "0.05,0.2,0.025,0.1"):
            code, out, err = run_cli(capsys, "verify", "--p", "3", "--mesh", "2048", "--deltas", deltas)
            assert code == 0
            rows[deltas] = json.loads(out)["rows"][0]
        first = rows["0.2,0.1,0.05,0.025"]
        assert first["fit_order"] is not None
        for row in rows.values():
            assert (row["extrapolated"], row["fit_order"]) == (first["extrapolated"], first["fit_order"])
        # the trace keeps the order given
        assert [delta for delta, _ in rows["0.025,0.2,0.05,0.1"]["trace"]] == [0.025, 0.2, 0.05, 0.1]

    def test_constant_k3_cell_exact(self, capsys):
        code, out, err = run_cli(capsys, "constant", "--d", "6", "--k", "3", "--a=-1.2", "--mesh", "2048")
        assert code == 0
        assert abs(json.loads(out)["rows"][0]["gap"]) <= 1e-12

    def test_spectral_size_cap_falls_back_to_descent(self, capsys, monkeypatch):
        spectral = json.loads(run_cli(capsys, "constant", "--a", "0.5", "--mesh", "64")[1])["rows"][0]
        monkeypatch.setattr(spherical, "FACTORED_MAX_SIZE", 4)
        code, out, err = run_cli(capsys, "constant", "--a", "0.5", "--mesh", "64")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["status"] == "ok" and row["iterations"] >= 1
        assert row["numeric_M"] == pytest.approx(spectral["numeric_M"], rel=1e-2)  # P1 at mesh 64

    def test_spectral_size_cap_is_a_failed_row(self, capsys, monkeypatch):
        # the capped spectral solve falls back to the descent, which fails too
        monkeypatch.setattr(spherical, "FACTORED_MAX_SIZE", 4)
        monkeypatch.setattr(spherical, "MAX_DESCENT_ITER", 1)
        code, out, err = run_cli(capsys, "constant", "--a", "0.5", "--mesh", "64")
        assert code == 1
        row = json.loads(out)["rows"][0]
        assert row["status"] == "solver_fail" and row["numeric_M"] is None

    def test_stuck_descent_is_a_failed_row(self, capsys, monkeypatch):
        # the descent's line search fails far from convergence: no number is printed
        monkeypatch.setattr(spherical._Discretization, "value", lambda self, v: math.inf)
        code, out, err = run_cli(capsys, "constant", "--p", "3", "--cone", "band:0.3:1.2", "--mesh", "256")
        assert code == 1
        row = json.loads(out)["rows"][0]
        assert row["status"] == "solver_fail" and row["numeric_M"] is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the failed row is reported, not warned about
    @pytest.mark.parametrize("deltas",["1e-200,1e-310", "1e300,1e299"], ids=["nan", "overflow"])
    def test_verify_extreme_deltas_fail_the_row(self, capsys, deltas):
        code, out, err = run_cli(capsys, "verify", "--mesh", "64", "--deltas", deltas)
        assert code == 1
        row = json.loads(out)["rows"][0]
        assert row["status"] == "solver_fail"

    def test_verify_h_trace_below_threshold_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--mesh", "64", "--hs", "4,8")
        assert code == 2 and out == ""
        assert "k+a >= p" in json.loads(err)["error"]["message"]

    def test_verify_inadmissible_cell_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--cone", "full", "--p", "3",
                                 "--deltas", "0.3,0.1")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "AdmissibilityError"

    def test_gap_tolerance_drives_exit_code(self, capsys, monkeypatch):
        # a known gap of 1e-4: the spectral solve of this cell is exact to rounding
        solve = cli.solve_M
        monkeypatch.setattr(cli, "solve_M", lambda params, cone, **kwargs: replace(
            solve(params, cone, **kwargs), M=closed_form_constant(params, cone).value + 1e-4))
        args = [
            "constant", "--d", "3", "--k", "1", "--p", "2", "--a", "0.5",
            "--b", "0", "--cone", "complement-sigma0", "--mesh", "64",
        ]
        code_loose, _, _ = run_cli(capsys, *args, "--tol", "1e-2")
        code_tight, _, _ = run_cli(capsys, *args, "--tol", "1e-12")
        assert code_loose == 0
        assert code_tight == 1


class TestConfigSchema:
    """Report keys, CSV columns and config keys all come from the dataclass fields."""

    def test_csv_columns_follow_row_keys(self):
        config = config_for()
        rows = cmd_constant(config)
        assert list(rows[0].to_dict()) == CSV_COLUMNS
        assert list(json.loads(rows_to_json(config, rows))["rows"][0]) == CSV_COLUMNS

    @pytest.mark.parametrize("args", [
        ("verify", "--mesh", "64", "--a", "1", "--deltas", "0.2,0.1", "--hs", "4,8"),
        ("sweep", "--d", "3,4", "--a=0,0.5", "--cone", "punctured,half-space", "--mesh", "64"),
    ])
    def test_report_config_block_reproduces_report(self, tmp_path, capsys, args):
        code, first, _ = run_cli(capsys, *args)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(json.loads(first)["config"]))
        code_again, again, _ = run_cli(capsys, args[0], "--config", str(cfg))
        assert code_again == code
        assert again == first

    @pytest.mark.parametrize("flag", [("--mes", "64"), ("--mesh=64",), ("--mesh", "64")])
    def test_every_flag_spelling_beats_config_file(self, tmp_path, capsys, flag):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mesh_size": 32}))
        code, out, _ = run_cli(
            capsys, "constant", "--cone", "punctured", "--config", str(cfg), *flag
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["mesh"] == 64

    def test_null_output_path_writes_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_text(json.dumps({"output_path": None, "mesh_size": 64}))
        code, out, _ = run_cli(capsys, "constant", "--cone", "punctured", "--config", "run.json")
        assert code == 0
        assert json.loads(out)["config"]["output_path"] is None
        assert os.listdir(tmp_path) == ["run.json"]

    def test_null_rejected_where_default_is_not_none(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mesh_size": None}))
        code, out, err = run_cli(capsys, "constant", "--config", str(cfg))
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"

    def test_config_text_value_means_flag_text(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"cones": "full", "d": "3", "mesh_size": 64}))
        code, from_file, _ = run_cli(capsys, "constant", "--config", str(cfg))
        code_flags, from_flags, _ = run_cli(capsys, "constant", "--cone", "full", "--mesh", "64")
        assert code == code_flags == 0
        assert json.loads(from_file)["rows"] == json.loads(from_flags)["rows"]

    def test_config_negative_and_empty_lists_mean_flag_text(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"a": [-0.5, 0.5], "h_list": []}))
        args = ("sweep", "--cone", "punctured", "--mesh", "64")
        code, from_file, _ = run_cli(capsys, *args, "--config", str(cfg))
        code_flags, from_flags, _ = run_cli(capsys, *args, "--a=-0.5,0.5", "--hs=")
        assert code == code_flags == 0
        assert from_file == from_flags

    def test_dataclass_holds_the_defaults(self):
        assert cli.parse_config(["constant"]) == RunConfig("constant")

    def test_config_command_key_must_match(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "constant", "mesh_size": 64}))
        code, _, _ = run_cli(capsys, "constant", "--cone", "punctured", "--config", str(cfg))
        assert code == 0
        code, out, err = run_cli(capsys, "spectrum", "--cone", "punctured", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "constant" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("flags", [
        ("--mesh", "8"), ("--jobs", "0"), ("--jobs=-1",), ("--tol=-1",),
    ])
    def test_malformed_numbers_exit_2(self, capsys, flags):
        # rejected while building the config, before any solve or worker process
        code, out, err = run_cli(capsys, "sweep", "--cone", "punctured", "--mesh", "64", *flags)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"


class TestUsageErrors:
    """argparse's usage errors give the JSON error object on stderr and exit 2, like other bad input."""

    @pytest.mark.parametrize("argv, message", [
        (("constant", "--mesh", "abc"), "argument --mesh: invalid int value: 'abc'"),
        (("constant", "--mesh", "64", "--no-such-flag", "1"), "unrecognized arguments: --no-such-flag 1"),
        (("no-such-command",), "argument command: invalid choice: 'no-such-command'"),
    ], ids=["malformed-value", "unknown-flag", "unknown-command"])
    def test_json_error_and_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        doc = json.loads(err)
        assert doc["schema"] == 1 and doc["error"]["type"] == "ValueError"
        assert doc["error"]["message"].startswith(message)

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["constant", "--help"])
        assert exit_info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: ") and "--mesh" in captured.out and captured.err == ""


class TestProcesses:
    def test_import_loads_no_scipy(self):
        out = run_process([
            "-c", "import sys, hardycone.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ])
        assert out.strip() == "[]"

    def test_import_loads_no_process_pool(self):
        out = run_process([
            "-c", "import sys, hardycone.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))",
        ])
        assert out.strip() == "[]"

    def test_constant_report_independent_of_blas_threads(self):
        args = ["-m", "hardycone.cli", "constant", "--mesh", "32768"]
        one = run_process(args, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        two = run_process(args, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        assert json.loads(one)["rows"][0]["status"] == "ok"
        assert one == two

    def test_spectral_sweep_independent_of_blas_threads_and_jobs(self):
        # every cell is p = 2 on [0, pi/2]: dense Cholesky and eigh at N = 4 and 8
        args = [
            "-m", "hardycone.cli", "sweep", "--d", "3,4,6", "--k", "1,3", "--p", "2",
            "--a=-0.5,0.9,2.5", "--b", "0,0.5", "--cone", "full,punctured,complement-sigma0,half-space",
            "--mesh", "512",
        ]
        one = run_process([*args, "--jobs", "1"], OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        two = run_process([*args, "--jobs", "1"], OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        pool = run_process([*args, "--jobs", "2"], OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        rows = json.loads(one)["rows"]
        assert len(rows) >= 40 and all(row["iterations"] == 2 for row in rows)
        assert one == two
        assert pool.replace('"jobs": 2', '"jobs": 1') == one

    def test_cutoff_energies_independent_of_blas_threads(self):
        # the strip energy closes with a BLAS matrix-vector product over the full integrand
        args = ["-m", "hardycone.cli", "verify", "--d", "4", "--k", "2", "--a=0.5", "--mesh", "2048",
                "--hs", "4,8,16,32"]
        one = run_process(args, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        two = run_process(args, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        rows = json.loads(one)["rows"]
        assert [row["status"] for row in rows] == ["ok", "ok"] and len(rows[1]["trace"]) == 4
        assert two == one

    def test_sweep_report_independent_of_jobs(self):
        args = [
            "-m", "hardycone.cli", "sweep", "--d", "3,4", "--k", "1", "--p", "2,1.5",
            "--a", "0,0.3", "--b", "0", "--cone", "complement-sigma0,half-space", "--mesh", "512",
        ]
        serial = run_process([*args, "--jobs", "1"], OPENBLAS_NUM_THREADS="1")
        parallel = run_process([*args, "--jobs", "2"], OPENBLAS_NUM_THREADS="2")
        assert len(json.loads(serial)["rows"]) == 16
        assert parallel.replace('"jobs": 2', '"jobs": 1') == serial
