"""CLI surface: parsing, report schema, round trips, exit codes, determinism."""

import argparse
import builtins
import concurrent.futures
import csv
import io
import itertools
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
import hardycone.hp as hp
import hardycone.spherical as spherical
from hardycone.cli import (
    CSV_COLUMNS,
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
from hardycone.params import (
    ConeKind,
    ConvergenceError,
    HardyParams,
    closed_form_constant,
    cone_admissible,
)


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


def json_row(row):
    """row.to_dict() as a JSON report reads back: tuples, also nested ones, as lists."""
    def listed(value):
        return [listed(v) for v in value] if isinstance(value, tuple) else value

    return {key: listed(value) for key, value in row.to_dict().items()}


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
        assert row.numeric_M == row.closed_form

    def test_constant_punctured_quarter(self):
        rows = cmd_constant(config_for(cones=("punctured",)))
        assert rows[0].closed_form == pytest.approx(0.25)
        assert rows[0].numeric_M == pytest.approx(0.25, abs=1e-10)

    def test_no_closed_form_status(self):
        rows = cmd_constant(config_for(p=(3.0,), a=(0.5,)))
        assert rows[0].status == "no_closed_form"
        assert rows[0].closed_form is None
        assert rows[0].numeric_M is not None

    @pytest.mark.parametrize("command", ["constant", "spectrum", "verify"])
    def test_structurally_invalid_cell_is_an_input_error(self, command):
        config = config_for(command, d=(4,), k=(2,), cones=("half-space",))  # needs k = 1
        with pytest.raises(ValueError, match="half-space cone requires k = 1"):
            cli.COMMANDS[command](config)
        assert cmd_sweep(replace(config, command="sweep")) == []  # a grid skips the cell

    def test_spectrum_reports_numeric_only(self):
        rows = cmd_spectrum(config_for("spectrum"))
        row = rows[0]
        assert row.status == "ok"
        assert row.closed_form is None
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
        # verify's solve_M and constant's exact quotient agree bit for bit, as do their hp solves at p = 3
        for p in (2.0, 3.0):
            row = cmd_verify(config_for("verify", p=(p,), delta_list=(0.2, 0.1), h_list=()))[0]
            assert row.iterations is not None and row.residual is not None
            assert row.numeric_M == cmd_constant(config_for(p=(p,)))[0].numeric_M
            assert (row.iterations == 0) == (p == 2.0)

    def test_verify_h_trace_rate(self):
        config = config_for("verify", a=(1.0,), delta_list=(), h_list=(4, 8, 16))
        rows = cmd_verify(config)
        hrow = rows[-1]
        assert hrow.fit_rate == pytest.approx(1.0 - 2.0, abs=0.05)  # h^(1-p)

    def test_verify_non_finite_h_energy_fails_row(self, monkeypatch):
        monkeypatch.setattr(cli, "cutoff_decay", lambda params, support, h, cone: math.nan)
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
            assert row.numeric_M == row.closed_form

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

    def test_sweep_skips_cells_with_k_at_least_d(self, capsys):
        # (d, k) = (2, 2) has no cross-section angle: the grid holds no such cell
        code, out, err = run_cli(capsys, "sweep", "--d", "2,3", "--k", "1,2", "--mesh", "64")
        assert code == 0 and err == ""
        assert [(row["d"], row["k"]) for row in json.loads(out)["rows"]] == [(2, 1), (3, 1), (3, 2)]


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


# 12 cells at p = 3, each solved in hp, 7 distinct problems: every k = 1 half-space
# cell repeats its complement twin, and (3,1,3,0.5,0) repeats (4,2,3,-0.5,0)
TWIN_GRID = dict(d=(3, 4), k=(1, 2), p=(3.0,), a=(-0.5, 0.5), cones=("complement-sigma0", "half-space"))


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
        calls = count_solves(monkeypatch)  # on a band, hp at p = 2 and P1 at p = 1.5
        rows = cmd_sweep(config_for("sweep", p=(p,), a=(0.3,), b=(0.0, 0.5), cones=("band:0.3:1.2",)))
        assert len(calls) == 2  # H^2 differs
        assert rows[0].numeric_M != rows[1].numeric_M

    def test_convergence_error_fails_only_its_group(self, monkeypatch):
        # the group of (3,1,3,0.5,0): k+a = 1.5, d-k = 2
        count_solves(monkeypatch,
                     fail=lambda params: (params.k + params.a, params.d - params.k) == (1.5, 2))
        rows = cmd_sweep(config_for("sweep", **TWIN_GRID))
        failed = {(row.d, row.k, row.a, row.cone) for row in rows if row.status == "solver_fail"}
        assert failed == {(3, 1, 0.5, "complement-sigma0"), (3, 1, 0.5, "half-space"),
                          (4, 2, -0.5, "complement-sigma0")}
        assert all(row.status == "no_closed_form" for row in rows if row.status != "solver_fail")

    def test_pool_capped_at_distinct_problems(self, monkeypatch):
        workers = inline_pool(monkeypatch)
        grid = dict(p=(3.0,), a=(0.0, 0.5), cones=("complement-sigma0", "half-space"))
        rows = cmd_sweep(config_for("sweep", jobs=4, **grid))
        assert workers == [2]  # 4 cells, 2 distinct problems
        assert rows == cmd_sweep(config_for("sweep", **grid))

    def test_pool_only_for_problems_that_need_a_solve(self, monkeypatch):
        # p = 2 on [0, pi/2] and natural p = 3 cells take their exact profile in this
        # process: no pool starts for them, and the others' pool is sized to their solves
        workers = inline_pool(monkeypatch)
        calls = count_solves(monkeypatch)
        exact = dict(d=(3, 4), p=(2.0,), a=(0.0, 0.5), cones=("complement-sigma0", "half-space", "full"))
        assert cmd_sweep(config_for("sweep", jobs=4, **exact)) == cmd_sweep(config_for("sweep", **exact))
        assert workers == [] and calls == []
        mixed = dict(d=(3, 4), p=(2.0, 3.0), a=(0.0, 0.5), cones=("complement-sigma0", "full"))
        rows = cmd_sweep(config_for("sweep", jobs=4, **mixed))
        assert workers == [4] and len(calls) == 4  # the Dirichlet p = 3 cells
        assert rows == cmd_sweep(config_for("sweep", **mixed)) and len(calls) == 8


class TestClosedFormGrid:
    def test_half_space_rows_equal_their_complement_twins(self):
        # at k = 1 the half space and the complement of {y = 0} have one cross-section,
        # also on the a = p - 1 cells, where k + a >= p holds only after rounding
        grid = dict(d=(3, 4, 5), p=(1.1, 1.3, 2.0, 2.2, 2.7), a=(0.1, 0.3, 0.9, 1.2, 1.7, 0.0),
                    b=(0.0, 0.5), cones=("complement-sigma0", "half-space"), mesh_size=64)
        rows = cmd_sweep(config_for("sweep", **grid))
        assert len(rows) == 360
        twins = {}
        for row in rows:
            twins.setdefault((row.d, row.p, row.a, row.b), []).append(
                (row.closed_form, row.numeric_M, row.status))
        for cell, (complement, half_space) in twins.items():
            assert complement == half_space, cell
        for d in (3, 4, 5):
            for p, a in ((1.1, 0.1), (1.3, 0.3), (2.2, 1.2), (2.7, 1.7)):  # a = p - 1, as typed
                for b in (0.0, 0.5):
                    closed, _, status = twins[d, p, a, b][0]
                    assert closed is not None and status == "ok", (d, p, a, b)

    def test_p2_cells_meet_their_closed_forms(self):
        # the exact minimizer cos^s theta gives its closed form, bit for bit
        grid = dict(d=(3, 4, 5), k=(1, 2), a=(-0.5, 0.0, 0.5, 0.9),
                    cones=("complement-sigma0", "half-space"), mesh_size=2048)
        rows = cmd_sweep(config_for("sweep", **grid))
        assert len(rows) == 36
        for row in rows:
            assert row.status == "ok" and row.numeric_M == row.closed_form, row


    def test_every_closed_form_cell_takes_its_exact_profile(self, monkeypatch):
        # every closed-form cell of d 2-6, large a (to 100) and |H|^p near 0 included, is
        # answered from its exact profile: no cell is solved
        cones = [parse_cone(cone) for cone in ("full", "punctured", "complement-sigma0", "half-space")]
        cells = []
        for d in range(2, 7):
            for k in range(1, d):
                a_values = (-k + 1e-3, -0.5, 0.0, 2 - k - 1e-9, 2 - k + 1e-9, 0.99, 3.0, 30.0, 60.0, 100.0)
                for a, b, p, cone in itertools.product(a_values, (-2.0, 0.0, 7.0), (1.1, 1.5, 2.0, 3.0, 6.0), cones):
                    cells.append((HardyParams(d, k, p, a, b), cone))
        cells += [(HardyParams(40, k, 2.0, ka - k, 0.0), parse_cone("full"))
                  for k in (1, 2, 5, 20) for ka in (1e-9, 1e-7, 1e-6, 1e-5)]
        closed = []
        for params, cone in cells:
            try:
                if cone_admissible(params, cone).cone_admissible and closed_form_constant(params, cone):
                    closed.append((params, cone))
            except ValueError:  # a half-space cell with k != 1
                pass
        assert len(closed) == 5880
        calls = count_solves(monkeypatch)
        rows = cli._grid_rows("sweep", closed, config_for("sweep", mesh_size=64))
        assert calls == [] and len(rows) == len(closed)
        zeros = 0
        for row in rows:
            assert row.status == "ok" and row.iterations == 0 and row.residual == 0.0, row
            assert row.numeric_M == row.closed_form, row
            zeros += row.closed_form == 0.0
        assert zeros >= 1


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


# 17 cells: 12 (n, s) family cells and the mixed-threshold cell (3,1,3,2,0), which take
# their exact profile, and four p = 3 grid cells, of which (3,1,3,0,0) and (3,1,3,0.5,0)
# on the half space repeat their complement twins: 2 distinct problems to solve
TABLE_GRID = dict(cs_n=(2, 3), cs_s=(0.25, 0.5, 0.75), p=(3.0,), a=(0.0, 0.5),
                  cones=("complement-sigma0", "half-space"))


class TestTableDedupe:
    def test_one_solve_per_distinct_problem(self, monkeypatch):
        calls = count_solves(monkeypatch)
        rows = cmd_table(config_for("table", **TABLE_GRID))
        assert len(rows) == 17 and len(calls) == 2

    def test_jobs_give_the_same_rows(self, monkeypatch):
        serial = cmd_table(config_for("table", **TABLE_GRID))
        workers = inline_pool(monkeypatch)
        assert cmd_table(config_for("table", jobs=2, **TABLE_GRID)) == serial
        assert workers == [2]


class TestSerialization:
    def test_report_row_round_trip(self):
        config = config_for("verify", delta_list=(0.2, 0.1), h_list=())
        rows = cmd_verify(config)
        assert rows[0].quotient_trace and json.loads(rows_to_json(config, rows))["rows"] == list(map(json_row, rows))

    def test_json_document_round_trip(self):
        config = config_for()
        rows = cmd_constant(config)
        doc = json.loads(rows_to_json(config, rows))
        assert doc["schema"] == 2 and "tol" not in doc["config"] and "gap" not in doc["rows"][0]
        assert doc["rows"] == list(map(json_row, rows))

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

    @pytest.mark.parametrize("target", ["directory", "under-a-file"])
    def test_unwritable_output_is_an_input_error(self, tmp_path, capsys, target):
        # the report's OSError is reported as the JSON error with exit 2, and nothing is left behind
        (tmp_path / "report").mkdir()
        (tmp_path / "file").write_text("")
        out_path = tmp_path / "report" if target == "directory" else tmp_path / "file" / "report.json"
        code, out, err = run_cli(capsys, "constant", "--mesh", "64", "--out", str(out_path))
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["schema"] == 2 and issubclass(getattr(builtins, doc["error"]["type"]), OSError)
        assert sorted(path.name for path in tmp_path.rglob("*")) == ["file", "report"]

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
        # (3,1,3,0,0) has no closed form: the four-point Hermite table in delta^2 with the
        # delta^7 term modelled meets the hp M to 1e-13; the table alone reached 8.7e-13,
        # values alone 4e-10, a line through the last two 4e-7
        code, out, err = run_cli(capsys, "verify", "--p", "3", "--mesh", "2048",
                                 "--deltas", "0.2,0.1,0.05,0.025")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["status"] == "ok" and row["closed_form"] is None and len(row["trace"]) == 4
        assert abs(row["extrapolated"] - row["numeric_M"]) <= 1e-13 * row["numeric_M"]

    def test_verify_full_space_limit_with_a_trace_through_g_zero(self, capsys):
        # H = 1/15 lies below the largest delta and the minimizer is constant, so the
        # quotient is |H-delta|^3 + |H+delta|^3 over 2; the table alone read 2.8948e-4
        # against the closed form 2.9630e-4 and failed the row
        code, out, err = run_cli(capsys, "verify", "--d", "4", "--k", "1", "--p", "3", "--a=-0.5",
                                 "--b=0.3", "--cone", "full", "--mesh", "256")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["status"] == "ok"
        assert abs(row["extrapolated"] - row["closed_form"]) <= 1e-12 * row["closed_form"]

    def test_verify_small_M_limit_is_relatively_exact(self, capsys):
        # (3,2,8,5,0): H = 0 and p = 8, so the quotient is a quartic in delta^2, which
        # four values and slopes fix; a check of 5e-3 relative passed the values-only
        # limit 3.6e-4 off this M ~ 1.75e-6
        code, out, err = run_cli(capsys, "verify", "--d", "3", "--k", "2", "--p", "8", "--a=5",
                                 "--mesh", "256", "--deltas", "0.2,0.1,0.05,0.025")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["status"] == "ok" and row["numeric_M"] < 1e-5
        assert abs(row["extrapolated"] - row["numeric_M"]) <= 1e-12 * row["numeric_M"]

    @pytest.mark.parametrize("off, status", [(3.6e-4, "solver_fail"), (5e-5, "ok")])
    def test_verify_limit_checked_to_1e4(self, capsys, monkeypatch, off, status):
        # the row's check is 1e-4 relative: a limit 3.6e-4 off its closed form fails it
        limit = cli._delta_limit

        def shifted_limit(trace, term):
            extrap, order = limit(trace, term)
            return extrap * (1.0 + off), order

        monkeypatch.setattr(cli, "_delta_limit", shifted_limit)
        code, out, err = run_cli(capsys, "verify", "--mesh", "64")
        assert code == (1 if status == "solver_fail" else 0)
        assert json.loads(out)["rows"][0]["status"] == status

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
        row = json.loads(out)["rows"][0]
        assert row["numeric_M"] == row["closed_form"]

    def test_failed_spectral_check_falls_back_to_descent(self, capsys, monkeypatch):
        args = ("constant", "--p", "3", "--a", "0.5", "--mesh", "64")  # hp's cell
        spectral = json.loads(run_cli(capsys, *args)[1])["rows"][0]
        monkeypatch.setattr(hp, "HP_TOL", -1.0)  # no two hp levels agree
        code, out, err = run_cli(capsys, *args)
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["status"] == "no_closed_form" and row["iterations"] >= 1
        assert row["numeric_M"] == pytest.approx(spectral["numeric_M"], rel=1e-2)  # P1 at mesh 64

    def test_failed_spectral_check_is_a_failed_row(self, capsys, monkeypatch):
        # the failed hp check falls back to the descent, which fails too
        monkeypatch.setattr(hp, "HP_TOL", -1.0)
        monkeypatch.setattr(spherical, "MAX_DESCENT_ITER", 1)
        code, out, err = run_cli(capsys, "constant", "--p", "3", "--a", "0.5", "--mesh", "64")
        assert code == 1
        row = json.loads(out)["rows"][0]
        assert row["status"] == "solver_fail" and row["numeric_M"] is None

    def test_failed_row_keeps_its_closed_form(self, capsys, monkeypatch):
        # an exact cell calls no solver, so a solver that would fail is never reached: the
        # profile is constant, |H|^p = 50.5^2 exact, and its trace comes from params' sums
        calls = count_solves(monkeypatch, fail=lambda params: True)
        code, out, err = run_cli(capsys, "verify", "--d", "3", "--k", "1", "--a=100", "--mesh", "64")
        assert code == 0 and calls == []
        [row] = json.loads(out)["rows"]
        assert row["status"] == "ok" and row["closed_form"] == row["numeric_M"] == 2550.25
        assert len(row["trace"]) == 3 and "gap" not in row

    def test_stuck_descent_is_a_failed_row(self, capsys, monkeypatch):
        # the descent's line search fails far from convergence: no number is printed
        monkeypatch.setattr(spherical._Discretization, "value", lambda self, v: math.inf)
        code, out, err = run_cli(capsys, "constant", "--p", "3", "--cone", "band:0.3:1.2", "--mesh", "256")
        assert code == 1
        row = json.loads(out)["rows"][0]
        assert row["status"] == "solver_fail" and row["numeric_M"] is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the failed row is reported, not warned about
    @pytest.mark.parametrize("deltas", ["1e-200,1e-310", "1e-170,1e-171", "1e300,1e299"],
                             ids=["nan", "nan-limit", "overflow"])
    def test_verify_extreme_deltas_fail_the_row(self, capsys, deltas):
        # a NaN limit is written as null (strict JSON) and as an empty CSV field
        code, out, err = run_cli(capsys, "verify", "--mesh", "64", "--deltas", deltas)
        assert code == 1 and err == ""
        [row] = self.finite_report(out)
        assert row["status"] == "solver_fail" and row["extrapolated"] is None
        code, out, err = run_cli(capsys, "verify", "--mesh", "64", "--deltas", deltas, "--format", "csv")
        assert code == 1 and err == "" and "nan" not in out and "inf" not in out

    def test_failed_delta_trace_keeps_the_solve(self, capsys):
        # the overflowing trace raises; the row keeps its solve's values, as the NaN trace's row does
        code, out, err = run_cli(capsys, "verify", "--mesh", "64", "--deltas", "1e300,1e299")
        assert code == 1
        [row] = json.loads(out)["rows"]
        assert row["status"] == "solver_fail" and row["trace"] == [] and row["extrapolated"] is None
        assert row["closed_form"] == 2.25 and row["numeric_M"] == 2.25
        assert row["lambda"] == 2.0 and "gap" not in row
        assert row["iterations"] is not None and row["residual"] is not None

    # natural [0, pi/2] cells at H = 0 (or H = 1/15 below the largest delta) with p < 2:
    # the trace's leading term e b(delta) ~ delta^p, so no correct trace reaches order 1.85
    LEADING_TERM_CELLS = [(3, 2, 1.5, 0.0, 1.5), (3, 1, 1.5, 1.0, 2.5), (4, 2, 1.8, 0.0, 2.2),
                          (3, 1, 1.2, 0.5, 2.3), (3, 1, 1.5, 1.0, 2.4)]

    @staticmethod
    def verify_row(capsys, cell):
        d, k, p, a, b = cell
        code, out, err = run_cli(capsys, "verify", "--d", str(d), "--k", str(k), "--p", str(p),
                                 f"--a={a}", f"--b={b}", "--mesh", "64")
        [row] = json.loads(out)["rows"]
        return code, row

    @pytest.mark.parametrize("cell", LEADING_TERM_CELLS)
    def test_verify_order_target_follows_the_leading_term(self, capsys, cell):
        code, row = self.verify_row(capsys, cell)
        assert code == 0 and row["status"] == "ok"
        assert row["fit_order"] >= 0.925 * cell[2]
        assert abs(row["extrapolated"] - row["closed_form"]) <= 1.5e-16

    @pytest.mark.parametrize("cell, order, status", [
        ((3, 2, 1.5, 0.0, 1.5), 0.925 * 1.5 * (1 - 1e-9), "solver_fail"),
        ((3, 2, 1.5, 0.0, 1.5), 0.925 * 1.5, "ok"),
        ((3, 1, 2.0, 0.0, 0.0), 1.85 * (1 - 1e-9), "solver_fail"),  # p = 2: no term, 1.85 as before
        ((3, 1, 3.0, 0.0, 0.0), 1.85 * (1 - 1e-9), "solver_fail"),  # q = 3: 1.85 as before
        ((3, 1, 3.0, 0.0, 0.0), 1.85, "ok"),
    ], ids=["below-0.925q", "at-0.925q", "p2-below-1.85", "p3-below-1.85", "p3-at-1.85"])
    def test_verify_order_target_bounds(self, capsys, monkeypatch, cell, order, status):
        limit = cli._delta_limit
        monkeypatch.setattr(cli, "_delta_limit", lambda trace, term: (limit(trace, term)[0], order))
        code, row = self.verify_row(capsys, cell)
        assert row["fit_order"] == order and row["status"] == status
        assert code == (1 if status == "solver_fail" else 0)

    @staticmethod
    def finite_report(out):
        """The rows of a JSON report that holds no Infinity or NaN token."""
        def reject(token):
            raise ValueError(f"non-finite token {token}")

        return json.loads(out, parse_constant=reject)["rows"]

    @pytest.mark.parametrize("argv", [
        ("constant", "--a=1e300"), ("constant", "--b=1e300"), ("verify", "--a=1e300"),
        ("sweep", "--a=0,1e300"), ("sweep", "--b=0,1e300"),
    ])
    def test_hardy_exponent_overflow_is_a_failed_row(self, capsys, argv):
        # |H|^p overflows in params.hardy_exponent: that cell fails, the others stay
        code, out, err = run_cli(capsys, *argv, "--mesh", "64")
        assert code == 1 and err == ""
        rows = self.finite_report(out)
        assert [row["status"] for row in rows] == ["ok"] * (len(rows) - 1) + ["solver_fail"]
        assert rows[-1]["numeric_M"] is None

    @pytest.mark.parametrize("argv", [("constant", "--p", "1e6"), ("verify", "--p", "1e6"), ("sweep", "--p", "2,1e6")])
    def test_gauss_jacobi_overflow_is_a_failed_row(self, capsys, argv):
        # at p = 1e6 the hp rules' Jacobi exponents are ~1e6, and their mass overflows
        code, out, err = run_cli(capsys, *argv, "--mesh", "64")
        assert code == 1 and err == ""
        rows = self.finite_report(out)
        assert [row["status"] for row in rows] == ["ok"] * (len(rows) - 1) + ["solver_fail"]
        assert rows[-1]["p"] == 1e6 and rows[-1]["numeric_M"] is None

    @pytest.mark.filterwarnings("error")
    def test_p1_fallback_overflow_is_a_clean_failed_row(self, capsys):
        # at p = 1.01 and k + a near 0, s ~ 100: hp fails, and P1's energy powers overflow to inf
        code, out, err = run_cli(capsys, "constant", "--d", "4", "--k", "1", "--p", "1.01", "--a=-0.99", "--b=5",
                                 "--cone", "half-space", "--mesh", "256")
        assert code == 1 and err == ""
        assert [row["status"] for row in self.finite_report(out)] == ["solver_fail"]

    def test_verify_h_trace_below_threshold_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--mesh", "64", "--hs", "4,8")
        assert code == 2 and out == ""
        assert "k+a >= p" in json.loads(err)["error"]["message"]

    def test_verify_h_trace_on_band_avoiding_sigma0_exits_2(self, capsys):
        # k + a >= p, but a band that stops short of pi/2 has no strip at {y = 0}
        code, out, err = run_cli(capsys, "verify", "--d", "3", "--k", "1", "--p", "2", "--a=1",
                                 "--cone", "band:0.3:1.2", "--mesh", "64", "--hs", "4,8")
        assert code == 2 and out == ""
        assert "{y = 0}" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("cell", [(3, 1, 2, 2100), (3, 1, 3, 2100), (3, 1, 2, 1e4), (3, 1, 1.5, 1e4)])
    def test_verify_large_k_plus_a_is_exact(self, capsys, cell):
        # the exact profile's one-node rule weight stays finite where 2^(k+a) overflows
        d, k, p, a = cell
        code, out, err = run_cli(capsys, "verify", "--d", str(d), "--k", str(k), "--p", str(p), f"--a={a}",
                                 "--mesh", "64")
        assert code == 0 and err == ""
        row = json.loads(out)["rows"][0]
        assert row["status"] == "ok" and row["numeric_M"] == row["closed_form"]
        assert abs(row["extrapolated"] - row["closed_form"]) <= 1e-12 * row["closed_form"]

    @pytest.mark.parametrize("d", [345, 400, 500])
    def test_verify_large_d_minus_k_is_exact(self, capsys, d):
        # |S^(d-k-1)| is formed in logs: Gamma((d-k)/2) overflows from d-k = 344; the delta row
        # reads no prefactor, which underflows to 0 past d-k ~ 455
        code, out, err = run_cli(capsys, "verify", "--d", str(d), "--k", "1", "--mesh", "64")
        assert code == 0 and err == ""
        row = json.loads(out)["rows"][0]
        assert row["status"] == "ok" and len(row["trace"]) == 3
        assert abs(row["extrapolated"] - row["closed_form"]) <= 1e-12 * row["closed_form"]

    @pytest.mark.parametrize("argv, code, status", [
        (("--d", "400", "--k", "1", "--a=1"), 0, "ok"),  # the prefactor's log: Gamma(199.5) overflows
        (("--d", "3", "--k", "1", "--a=2", "--b=-300"), 1, "solver_fail"),  # I_h itself overflows
    ])
    def test_verify_h_row_outside_gamma_range_is_a_row(self, capsys, argv, code, status):
        got, out, err = run_cli(capsys, "verify", *argv, "--hs", "4,8", "--deltas", "", "--mesh", "64")
        assert got == code and err == ""
        rows = self.finite_report(out)
        assert [row["status"] for row in rows] == ["ok", status]
        assert len(rows[1]["trace"]) == (2 if status == "ok" else 0)

    def test_verify_half_space_strip_is_one_side(self, capsys):
        # the half space is one side of {y = 0}: half the strip energy of the complement of
        # {y = 0}, as its delta row's prefactor is half, and the same rate
        rows = {}
        for cone in ("half-space", "complement-sigma0"):
            code, out, err = run_cli(capsys, "verify", "--cone", cone, "--a=1", "--hs", "4,8",
                                     "--deltas", "", "--mesh", "64")
            assert code == 0
            rows[cone] = json.loads(out)["rows"][1]
        half, whole = rows["half-space"], rows["complement-sigma0"]
        for (h, energy), (h_whole, energy_whole) in zip(half["trace"], whole["trace"]):
            assert h == h_whole and energy == pytest.approx(energy_whole / 2, rel=1e-14)
        assert half["fit_rate"] == pytest.approx(whole["fit_rate"], rel=1e-13)

    def test_verify_slow_h_decay_fails_the_row(self, capsys, monkeypatch):
        # energies decaying like h^(-1/2), slower than the h^(1-p) = h^(-1) guarantee
        monkeypatch.setattr(cli, "cutoff_decay", lambda params, support, h, cone: h**-0.5)
        code, out, err = run_cli(capsys, "verify", "--a=1", "--hs", "4,8,16", "--deltas", "", "--mesh", "64")
        assert code == 1 and err == ""
        rows = json.loads(out)["rows"]
        assert [row["status"] for row in rows] == ["ok", "solver_fail"]
        assert rows[1]["fit_rate"] == pytest.approx(-0.5, rel=1e-12)

    @pytest.mark.parametrize("argv, message", [
        (("--cs-s", "1.5"), "--cs-s values must lie in (0, 1), got (1.5,)"),
        (("--cs-s", "0.5,0"), "--cs-s values must lie in (0, 1), got (0.5, 0.0)"),
        (("--cs-n", "0"), "--cs-n values must be at least 1, got (0,)"),
    ])
    def test_table_family_flags_out_of_range_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "table", *argv, "--mesh", "64")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {"type": "ValueError", "message": message}

    @pytest.mark.parametrize("command", ["constant", "spectrum", "verify"])
    def test_one_cell_commands_take_one_value_per_flag(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--d", "3,4", "--mesh", "64")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError", "message": f"command {command!r} takes exactly one value for --d"}

    @pytest.mark.parametrize("doc, message", [
        ([{"mesh_size": 64}], "a config file holds one JSON object"),
        ({"mesh": 64}, "unknown config key 'mesh'"),
        ({"mesh_size": 64, "tol": 0.001}, "unknown config key 'tol'"),  # a schema-1 report's config block
    ])
    def test_config_file_shape_and_keys_checked(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "constant", "--config", str(cfg))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {"type": "ValueError", "message": message}

    def test_verify_inadmissible_cell_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--cone", "full", "--p", "3",
                                 "--deltas", "0.3,0.1")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "AdmissibilityError"

    def test_tol_flag_is_a_usage_error(self, capsys):
        # an exact row's numeric_M is its closed form, so there is no gap to bound
        code, out, err = run_cli(capsys, "constant", "--tol", "1e-3", "--mesh", "64")
        assert code == 2 and out == ""
        assert json.loads(err) == {"schema": 2, "error": {
            "type": "ValueError", "message": "unrecognized arguments: --tol 1e-3"}}

    @pytest.mark.parametrize("args, value", [
        (("--p", "6", "--b=-1000", "--cone", "full"), 21050550008863.65),  # |H|^6: two formulas differed by 0.0039
        (("--a=-0.999",), 3.99800025),  # (d-k) s + H^2 = 2 * 1.999 + 0.0005^2
    ], ids=["constant-profile", "p2-dirichlet"])
    def test_exact_row_prints_one_value(self, capsys, args, value):
        # numeric_M and closed_form come from one formula, so no rounding gap can fail the row
        code, out, err = run_cli(capsys, "constant", *args, "--mesh", "64")
        assert code == 0
        [row] = json.loads(out)["rows"]
        assert row["status"] == "ok" and row["numeric_M"] == row["closed_form"] == value


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
        ("--mesh", "8"), ("--jobs", "0"), ("--jobs=-1",), ("--jobs", "1.5"),
    ])
    def test_malformed_numbers_exit_2(self, capsys, flags):
        # rejected while building the config, before any solve or worker process
        code, out, err = run_cli(capsys, "sweep", "--cone", "punctured", "--mesh", "64", *flags)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"


# each flag but --config: its text, the RunConfig field and value it gives,
# and an abbreviation argparse accepts (None where no shorter prefix is unique)
FLAGS = [
    ("--d", "3,4", "d", (3, 4), None),
    ("--k", "2", "k", (2,), None),
    ("--p", "1.5,3", "p", (1.5, 3.0), None),
    ("--a", "-0.5,0.5", "a", (-0.5, 0.5), None),
    ("--b", "0.25", "b", (0.25,), None),
    ("--cone", "full,band:0.3:1.2", "cones", ("full", "band:0.3:1.2"), None),
    ("--mesh", "64", "mesh_size", 64, "--mes"),
    ("--deltas", "0.2,0.1", "delta_list", (0.2, 0.1), "--del"),
    ("--hs", "4,8", "h_list", (4, 8), None),
    ("--cs-n", "2", "cs_n", (2,), None),
    ("--cs-s", "0.5", "cs_s", (0.5,), None),
    ("--format", "csv", "format", "csv", "--form"),
    ("--out", "r.json", "output_path", "r.json", "--ou"),
    ("--jobs", "2", "jobs", 2, "--jo"),
]


class TestParser:
    """One parser for every command: the command is a positional, and each flag is registered once."""

    def test_one_parser_and_no_subparsers(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        parser, options = cli.build_parser()
        assert built == [parser]
        assert not any(isinstance(action, argparse._SubParsersAction) for action in parser._actions)
        assert sorted(options) == sorted([field for _, _, field, _, _ in FLAGS] + ["config_path"])

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize("flag, text, field, value, abbreviation", FLAGS, ids=[flag for flag, *_ in FLAGS])
    def test_every_spelling_of_every_flag(self, command, flag, text, field, value, abbreviation):
        spellings = [[f"{flag}={text}"]]
        if not text.startswith("-"):  # a value that starts with "-" needs the = form
            spellings.append([flag, text])
        if abbreviation is not None:
            spellings.append([abbreviation, text])
        for spelling in spellings:
            assert cli.parse_config([command, *spelling]) == RunConfig(command, **{field: value})

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_flags_may_precede_the_command(self, command):
        flags = [f"{flag}={text}" for flag, text, *_ in FLAGS]
        expected = RunConfig(command, **{field: value for _, _, field, value, _ in FLAGS})
        assert cli.parse_config([*flags, command]) == cli.parse_config([command, *flags]) == expected
        assert cli.parse_config([*flags[:7], command, *flags[7:]]) == expected

    def test_config_file_with_the_command_last(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "sweep", "d": [4], "mesh_size": 32, "jobs": 2}))
        config = cli.parse_config(["--mesh", "64", "--conf", str(cfg), "--d=5", "sweep"])
        assert config == RunConfig("sweep", d=(5,), mesh_size=64, jobs=2)


def test_every_option_has_help():
    parser, _ = cli.build_parser()
    undocumented = [action.dest for action in parser._actions if not action.help]
    assert not undocumented


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
        assert doc["schema"] == 2 and doc["error"]["type"] == "ValueError"
        assert doc["error"]["message"].startswith(message)

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["constant", "--help"])
        assert exit_info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: ") and "--mesh" in captured.out and captured.err == ""


    @pytest.mark.parametrize("argv", [("--help",), ("verify", "--help"), ("--mesh", "64", "-h")])
    def test_help_lists_every_command(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: ") and all(command in out for command in cli.COMMANDS)

class TestProcesses:
    def test_import_loads_no_scipy(self):
        out = run_process([
            "-c", "import sys, hardycone.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ])
        assert out.strip() == "[]"

    def test_import_loads_no_numpy(self):
        out = run_process([
            "-c", "import sys, hardycone.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' or m.startswith('hardycone.')))",
        ])
        assert out.strip() == "['hardycone.cli', 'hardycone.params']"

    def test_import_loads_no_process_pool(self):
        out = run_process([
            "-c", "import sys, hardycone.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))",
        ])
        assert out.strip() == "[]"

    SOLVER_MODULES = ("hardycone.hp", "hardycone.quadrature", "hardycone.spherical", "hardycone.verifier", "numpy")

    @pytest.mark.parametrize("argv, loaded", [
        (["sweep", "--d", "3,4,5", "--k", "1,2", "--p", "2", "--a=-0.5,0,0.5,0.9", "--b", "0",
          "--cone", "complement-sigma0,half-space", "--mesh", "2048"], []),
        (["table"], []),
        (["constant", "--p", "3"], ["hardycone.hp", "hardycone.quadrature", "hardycone.spherical", "numpy"]),
        (["verify", "--a", "0.9", "--mesh", "2048"], []),
        (["verify", "--a", "1", "--hs", "4,8"], ["hardycone.quadrature", "hardycone.verifier", "numpy"]),
        (["verify", "--p", "3"], list(SOLVER_MODULES)),
    ], ids=["p2-sweep", "table", "p3-constant", "exact-verify", "exact-verify-hs", "p3-verify"])
    def test_exact_cells_load_no_solver(self, argv, loaded):
        # every cell of the p = 2 sweep and the default table has a closed form, answered from
        # params, and an exact cell's delta trace comes from params' sums; its strip energies
        # need numpy and the verifier, not spherical; the Dirichlet p = 3 cell needs hp
        out = run_process(["-c", "import json, sys; from hardycone.cli import main; "
                           f"code = main({argv!r}); "
                           "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' or "
                           f"m in {self.SOLVER_MODULES!r}))); "
                           "sys.exit(code)"])
        *report, modules = out.splitlines()
        assert json.loads("\n".join(report))["rows"]
        modules = json.loads(modules)
        assert [name for name in self.SOLVER_MODULES if name in modules] == loaded

    def test_constant_report_independent_of_blas_threads(self):
        args = ["-m", "hardycone.cli", "constant", "--mesh", "32768"]
        one = run_process(args, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        two = run_process(args, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        assert json.loads(one)["rows"][0]["status"] == "ok"
        assert one == two

    def test_spectral_sweep_independent_of_blas_threads_and_jobs(self):
        # every cell is p = 2 on a band: hp, whose bubble blocks go to LAPACK's eigvalsh
        args = [
            "-m", "hardycone.cli", "sweep", "--d", "3,4,6", "--k", "1,3", "--p", "2",
            "--a=-0.5,0.9,2.5", "--b", "0,0.5", "--cone", f"band:0.3:1.2,band:0.1:{math.pi / 2!r}",
            "--mesh", "512",
        ]
        one = run_process([*args, "--jobs", "1"], OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        two = run_process([*args, "--jobs", "1"], OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        pool = run_process([*args, "--jobs", "2"], OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        rows = json.loads(one)["rows"]
        assert len(rows) >= 40 and all(row["status"] == "no_closed_form" and row["iterations"] >= 1 for row in rows)
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
