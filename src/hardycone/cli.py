"""Command-line surface: constants, spectra, certifications, sweeps, tables.

Reports are deterministic (no RNG, fixed quadrature) and machine readable:
JSON documents {"schema": 1, "config": ..., "rows": [...]} or CSV with a
fixed column set; floats are written in round-trip decimal form.  Exit code
0 means every row is ok and every closed-vs-numeric gap is within --tol.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import MISSING, dataclass, fields, replace
from itertools import product

from .params import (
    AdmissibilityError,
    ConeSpec,
    HardyParams,
    closed_form_constant,
    cone_admissible,
)
from .spherical import (
    MIN_MESH_SIZE,
    ConvergenceError,
    SpectralResult,
    _SphericalProblem,
    bc_for_cone,
    solve_M,
)
from .verifier import _cutoff_log_decay, _delta_limit, cutoff_decay, evaluate_quotient_udelta

SCHEMA_VERSION = 1

CONE_CHOICES = "full, punctured, complement-sigma0, half-space, band:<theta1>:<theta2>"
FORMAT_CHOICES = ("json", "csv")


def parse_cone(text: str) -> ConeSpec:
    text = text.strip()
    if text.startswith("band:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"band cone syntax is band:<theta1>:<theta2>, got {text!r}")
        return ConeSpec.band(float(parts[1]), float(parts[2]))
    try:
        return {
            "full": ConeSpec.full_space(),
            "punctured": ConeSpec.punctured_space(),
            "complement-sigma0": ConeSpec.complement_sigma0(),
            "half-space": ConeSpec.half_space(),
        }[text]
    except KeyError:
        raise ValueError(f"unknown cone {text!r}; choices: {CONE_CHOICES}") from None


def _tuples(value):  # JSON value -> field value: lists, also nested ones, become tuples
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation; the field names are the config keys, the defaults the CLI's."""

    command: str
    d: tuple[int, ...] = (3,)
    k: tuple[int, ...] = (1,)
    p: tuple[float, ...] = (2.0,)
    a: tuple[float, ...] = (0.0,)
    b: tuple[float, ...] = (0.0,)
    cones: tuple[str, ...] = ("complement-sigma0",)
    mesh_size: int = 512
    delta_list: tuple[float, ...] = (0.2, 0.1, 0.05)
    h_list: tuple[int, ...] = ()
    cs_n: tuple[int, ...] = (2, 3)
    cs_s: tuple[float, ...] = (0.25, 0.5, 0.75)
    output_path: str | None = None
    format: str = "json"
    jobs: int = 1
    tol: float = 1e-3

    def __post_init__(self):
        if self.mesh_size < MIN_MESH_SIZE:
            raise ValueError(f"mesh_size must be at least {MIN_MESH_SIZE}, got {self.mesh_size}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if not self.tol >= 0.0:
            raise ValueError(f"tol must be non-negative, got {self.tol}")

    def single(self) -> tuple[HardyParams, ConeSpec]:
        for name in ("d", "k", "p", "a", "b", "cones"):
            if len(getattr(self, name)) != 1:
                flag = "--cone" if name == "cones" else f"--{name}"
                raise ValueError(f"command {self.command!r} takes exactly one value for {flag}")
        params = HardyParams(self.d[0], self.k[0], self.p[0], self.a[0], self.b[0])
        return params, parse_cone(self.cones[0])

    def cells(self) -> list[tuple[HardyParams, ConeSpec]]:
        """The grid's cells with 1 <= k < d on an admissible cone, in grid order."""
        out = []
        for d, k, p, a, b, cone in product(self.d, self.k, self.p, self.a, self.b, self.cones):
            if not 1 <= k < d:
                continue
            params, spec = HardyParams(d, k, p, a, b), parse_cone(cone)
            try:
                if cone_admissible(params, spec).cone_admissible:
                    out.append((params, spec))
            except ValueError:  # structurally invalid combination, e.g. half-space with k != 1
                pass
        return out

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


RUN_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.default is not MISSING}


@dataclass(frozen=True)
class ReportRow:
    command: str
    d: int
    k: int
    p: float
    a: float
    b: float
    cone: str
    mesh: int | None = None
    closed_form: float | None = None
    numeric_M: float | None = None
    lam: float | None = None
    gap: float | None = None
    extrapolated: float | None = None
    fit_order: float | None = None
    fit_rate: float | None = None
    iterations: int | None = None
    residual: float | None = None
    status: str = "ok"
    quotient_trace: tuple[tuple[float, float], ...] = ()

    def to_dict(self) -> dict:
        return {_ROW_KEYS.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "ReportRow":
        return cls(**{f.name: _tuples(doc[_ROW_KEYS.get(f.name, f.name)]) for f in fields(cls)})


_ROW_KEYS = {"lam": "lambda", "quotient_trace": "trace"}  # report keys that differ from field names
CSV_COLUMNS = [_ROW_KEYS.get(f.name, f.name) for f in fields(ReportRow)]


def _base_row(command: str, params: HardyParams, cone: ConeSpec, mesh: int | None) -> ReportRow:
    return ReportRow(
        command=command, d=params.d, k=params.k, p=params.p, a=params.a, b=params.b,
        cone=cone.describe(), mesh=mesh,
    )


def _solve(params: HardyParams, cone: ConeSpec, mesh: int) -> SpectralResult | None:
    """solve_M's result for one cell, or None where the solver fails."""
    try:
        return solve_M(params, cone, mesh_size=mesh)
    except AdmissibilityError:
        raise
    except (ConvergenceError, ValueError):
        return None


def _cell_row(
    command: str, params: HardyParams, cone: ConeSpec, mesh: int,
    result: SpectralResult | None, with_closed: bool = True,
) -> ReportRow:
    """Closed form (optional) plus the numeric spherical minimum result for one grid cell."""
    row = _base_row(command, params, cone, mesh)
    try:
        closed = closed_form_constant(params, cone) if with_closed else None
    except AdmissibilityError:
        raise
    except ValueError:
        return replace(row, status="solver_fail")
    if result is None:
        return replace(row, status="solver_fail")
    closed_value = closed.value if closed is not None else None
    gap = result.M - closed_value if closed_value is not None else None
    return replace(
        row,
        closed_form=closed_value,
        numeric_M=result.M,
        lam=result.lam,
        gap=gap,
        iterations=result.iterations,
        residual=result.residual,
        status="ok" if (closed_value is not None or not with_closed) else "no_closed_form",
    )


def _grid_rows(
    command: str, cells: list[tuple[HardyParams, ConeSpec]], config: RunConfig,
    with_closed: bool = True,
) -> list[ReportRow]:
    """One row per cell, in order, with one solve per distinct spherical problem.

    Cells with equal _SphericalProblem (p, k+a, d-k, H^2 and the endpoint
    conditions) share the _solve call of the first of them, whose result is
    bit for bit the one each would get alone; the closed form, gap and
    status are still per cell.  The distinct problems are solved in order
    of first appearance, and rows are placed by cell index.  With --jobs > 1
    the distinct problems are spread over at most that many worker
    processes.
    """
    groups: dict[object, list[int]] = {}
    for index, (params, cone) in enumerate(cells):
        try:
            key = _SphericalProblem.of(params, bc_for_cone(params, cone))
        except AdmissibilityError:
            raise
        except ValueError:  # structurally invalid cell: its own group, which _solve fails
            key = index
        groups.setdefault(key, []).append(index)

    def rows_from(results) -> list[ReportRow]:  # one result per group, none kept past its rows
        rows = [None] * len(cells)
        for indices, result in zip(groups.values(), results):
            for index in indices:
                rows[index] = _cell_row(command, *cells[index], config.mesh_size, result, with_closed)
        return rows

    problems = [cells[indices[0]] for indices in groups.values()]
    solve_args = ([params for params, _ in problems], [cone for _, cone in problems],
                  [config.mesh_size] * len(problems))
    if config.jobs > 1 and len(problems) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays for the import

        with ProcessPoolExecutor(max_workers=min(config.jobs, len(problems))) as pool:
            return rows_from(pool.map(_solve, *solve_args))
    return rows_from(map(_solve, *solve_args))


def cmd_constant(config: RunConfig) -> list[ReportRow]:
    return _grid_rows("constant", [config.single()], config)


def cmd_spectrum(config: RunConfig) -> list[ReportRow]:
    """Numeric spectral data only: M, eigenvalue, residual, iteration count."""
    return _grid_rows("spectrum", [config.single()], config, with_closed=False)


def cmd_verify(config: RunConfig) -> list[ReportRow]:
    """Trace the minimizing family in delta and the cutoff energy in h.

    Each delta's quotient and its slope in delta^2 come from one
    evaluate_quotient_udelta call, and the delta row's limit and order from
    verifier._delta_limit over every (delta, quotient, slope) in any order;
    the row's trace holds the (delta, quotient) pairs.  The row fails
    (status solver_fail) if a trace value or the extrapolated limit is not
    finite, the trace does not approach the reference quadratically or the
    limit misses it; the h row fails if an energy or the fitted rate is not
    finite or the strip energy decays slower than h^(1-p).  A single or repeated --deltas or --hs value
    (an empty list skips that trace), a delta that is not finite and
    positive, an h past the float range, an h with e^(-h) not below the
    inner radius of the cutoff's support (h below 3), and --hs on a cell
    with k+a < p (no strip regime to check) are malformed input
    (ValueError); an inadmissible cell raises AdmissibilityError.
    """
    params, cone = config.single()
    support = (0.05, 20.0)
    if not all(math.isfinite(delta) and delta > 0 for delta in config.delta_list):
        raise ValueError(f"--deltas values must be finite and positive, got {config.delta_list}")
    if not all(h < sys.float_info.max for h in config.h_list):  # an exact int comparison: float(h) is finite
        raise ValueError(f"--hs values must be below {sys.float_info.max:g}")
    if not all(h > -math.log(support[0]) for h in config.h_list):  # e^(-h) < support[0]
        raise ValueError(f"--hs values must be at least 3, got {config.h_list}")
    if config.h_list and params.k + params.a < params.p:
        raise ValueError(f"--hs: the cutoff check needs k+a >= p, "
                         f"got k+a={params.k + params.a:g}, p={params.p:g}")
    for flag, values in (("--deltas", config.delta_list), ("--hs", config.h_list)):
        if len(values) == 1:  # a limit or a rate needs two points; an empty list skips the trace
            raise ValueError(f"{flag} needs at least two values (or none), got {values[0]}")
        if len(set(values)) != len(values):
            raise ValueError(f"{flag} values must be distinct, got {','.join(map(str, values))}")
    result = _solve(params, cone, config.mesh_size)
    row = _cell_row("verify", params, cone, config.mesh_size, result)
    if row.status != "solver_fail":
        reference = row.closed_form if row.closed_form is not None else row.numeric_M
        try:
            evaluations = [(delta, evaluate_quotient_udelta(params, result.minimizer, delta))
                           for delta in config.delta_list]
            trace = tuple((delta, ev.quotient) for delta, ev in evaluations)
            extrap, order = _delta_limit((delta, ev.quotient, ev.slope) for delta, ev in evaluations)
        except (ConvergenceError, ValueError, OverflowError):
            row = replace(_base_row("verify", params, cone, config.mesh_size), status="solver_fail")
        else:
            broken = not _finite(*(q for _, q in trace), extrap)
            slow = order is not None and order < 1.85
            off = extrap is not None and abs(extrap - reference) > max(5e-3 * abs(reference), 1e-9)
            row = replace(row, quotient_trace=trace, extrapolated=extrap, fit_order=order,
                          status="solver_fail" if broken or slow or off else "ok")
    rows = [row]

    if config.h_list:
        hrow = _base_row("verify", params, cone, None)
        try:
            # above the threshold k+a = p the energy underflows to 0 at large h, and its
            # logarithm comes from the log-form quadrature; where the decay e^(-h(k+a-p))
            # underflows already, every term of the strip rule does, and the energy is 0
            htrace = [(float(h), 0.0 if math.exp(-h * (params.k + params.a - params.p)) == 0.0
                       else cutoff_decay(params, support, h)) for h in config.h_list]
            rate = _fit_log_slope([
                (x, math.log(energy) if energy >= sys.float_info.min
                 else _cutoff_log_decay(params, support, h))
                for h, (x, energy) in zip(config.h_list, htrace)
            ])
            status = "ok"
            if not _finite(*(energy for _, energy in htrace), rate):
                status = "solver_fail"
            elif rate is not None and rate > (1.0 - params.p) * 0.9:
                status = "solver_fail"  # slower than the h^(1-p) guarantee
            hrow = replace(hrow, quotient_trace=tuple(htrace), fit_rate=rate, status=status)
        except ValueError:
            hrow = replace(hrow, status="solver_fail")
        rows.append(hrow)
    return rows


def _finite(*values: float | None) -> bool:
    """True when every value that is not None is finite."""
    return all(math.isfinite(value) for value in values if value is not None)


def _fit_log_slope(trace: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of log-energy against log h over (h, log-energy) points."""
    if len(trace) < 2:
        return None
    xs = [math.log(h) for h, _ in trace]
    ys = [log_value for _, log_value in trace]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def cmd_sweep(config: RunConfig) -> list[ReportRow]:
    """Numeric constants over the grid's admissible cells."""
    return _grid_rows("sweep", config.cells(), config)


def cmd_table(config: RunConfig) -> list[ReportRow]:
    """Reproduce every closed form over a parameter grid.

    Rows: the d = n+1, a = 1-2s, b = 0 family on the full and half space for
    the configured (n, s) grid; the mixed-threshold family a = p-k, b = 0 on
    the full space; and any explicitly configured (params, cone) cells.
    """
    cells = []
    for n in config.cs_n:
        for s_val in config.cs_s:
            if not 0 < s_val < 1:
                continue
            params = HardyParams(n + 1, 1, 2.0, 1.0 - 2.0 * s_val, 0.0)
            if n > 2 * s_val:
                cells.append((params, ConeSpec.full_space()))
            cells.append((params, ConeSpec.half_space()))
    cells += [(HardyParams(d, k, p, p - k, 0.0), ConeSpec.full_space())
              for d in config.d for k in config.k if 1 <= k < d for p in config.p]
    return _grid_rows("table", cells + config.cells(), config)


COMMANDS = {
    "constant": cmd_constant,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "table": cmd_table,
}


# ---------------------------------------------------------------------------
# serialization

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # a numpy float's repr is np.float64(...)
    return str(value)


def rows_to_csv(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        doc = row.to_dict()
        doc["trace"] = json.dumps(doc["trace"]) if doc["trace"] else ""
        writer.writerow([_fmt(doc[col]) for col in CSV_COLUMNS])
    return buf.getvalue()


def rows_to_json(config: RunConfig, rows: list[ReportRow]) -> str:
    doc = {"schema": SCHEMA_VERSION, "config": config.to_dict(), "rows": [r.to_dict() for r in rows]}
    return json.dumps(doc, indent=2) + "\n"


def write_report(config: RunConfig, rows: list[ReportRow]) -> None:
    text = rows_to_csv(rows) if config.format == "csv" else rows_to_json(config, rows)
    if config.output_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(config.output_path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, config.output_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# argument parsing

def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t.strip()) if text.strip() else ()


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(",") if t.strip()) if text.strip() else ()


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, which main reports as a JSON error.

    argparse would print the usage and exit 2 itself; its subcommand parsers
    are of this class too.
    """

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommands' (shared) options by dest; RunConfig holds the defaults."""
    parser = _ArgumentParser(
        prog="hardycone",
        description="Sharp Hardy constants with mixed weights on cones: closed forms, "
        "spherical spectra, and numerical certification.",
        epilog="CSV columns: " + ", ".join(CSV_COLUMNS) + ". Cones: " + CONE_CHOICES + ".",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("constant", "closed form and numeric spherical minimum for one cone"),
        ("spectrum", "eigenvalue/minimizer details for one cone"),
        ("verify", "quotient traces in delta and cutoff energies in h"),
        ("sweep", "numeric constants over a parameter grid"),
        ("table", "reproduce the closed-form families over a grid"),
    ]:
        cmd = sub.add_parser(name, help=helptext, argument_default=argparse.SUPPRESS)
        options = [
            cmd.add_argument("--d", type=_int_list, help="dimension(s), comma separated"),
            cmd.add_argument("--k", type=_int_list, help="codimension parameter(s)"),
            cmd.add_argument("--p", type=_float_list, help="integrability exponent(s)"),
            cmd.add_argument("--a", type=_float_list, help="cylindrical weight exponent(s)"),
            cmd.add_argument("--b", type=_float_list, help="spherical weight exponent(s)"),
            cmd.add_argument("--cone", dest="cones", type=lambda t: tuple(t.split(",")),
                             help=f"cone(s): {CONE_CHOICES}"),
            cmd.add_argument("--mesh", dest="mesh_size", type=int),
            cmd.add_argument("--deltas", dest="delta_list", type=_float_list),
            cmd.add_argument("--hs", dest="h_list", type=_int_list),
            cmd.add_argument("--cs-n", dest="cs_n", type=_int_list,
                             help="table: anchor dimensions n (d = n+1)"),
            cmd.add_argument("--cs-s", dest="cs_s", type=_float_list,
                             help="table: fractional orders s (a = 1-2s)"),
            cmd.add_argument("--format", choices=FORMAT_CHOICES),
            cmd.add_argument("--out", dest="output_path"),
            cmd.add_argument("--config", dest="config_path",
                             help="JSON file of defaults; explicit flags override it"),
            cmd.add_argument("--jobs", type=int),
            cmd.add_argument("--tol", type=float,
                             help="largest acceptable |numeric - closed| gap"),
        ]
    return parser, {action.dest: action for action in options}


def parse_config(argv: list[str]) -> RunConfig:
    """The RunConfig of a command line; a --config file supplies defaults, flags win.

    The file's keys are RunConfig fields, as in a JSON report's "config"
    block.  Each value becomes its flag's text (a list its comma-joined
    text), parsed ahead of the command line's own flags, so the flag parser
    converts and checks it and a later explicit flag wins; null is allowed
    where the default is None.
    """
    parser, options = build_parser()
    given = vars(parser.parse_args(argv))
    path = given.pop("config_path", None)
    if path is not None:
        command = given["command"]
        with open(path) as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            raise ValueError("a config file holds one JSON object")
        tokens = []
        for key, value in doc.items():
            if key == "command":
                if value != command:
                    raise ValueError(f"config file is for command {value!r}, not {command!r}")
            elif key not in RUN_DEFAULTS:
                raise ValueError(f"unknown config key {key!r}")
            elif value is None:
                if RUN_DEFAULTS[key] is not None:
                    raise ValueError(f"config key {key!r} cannot be null")
            else:
                text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
                tokens.append(f"{options[key].option_strings[0]}={text}")
        try:  # argv's own flags parsed once already: an error here is the file's
            given = vars(parser.parse_args([command, *tokens, *argv[1:]]))
        except ValueError as exc:
            raise ValueError(f"config file {path}: {exc}") from None
        del given["config_path"]
    return RunConfig(**given)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = parse_config(argv)
        rows = COMMANDS[config.command](config)
    except (AdmissibilityError, ValueError, OSError) as exc:
        error_doc = {"schema": SCHEMA_VERSION, "error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(error_doc) + "\n")
        return 2
    write_report(config, rows)
    ok = all(row.status == "ok" or row.status == "no_closed_form" for row in rows)
    gaps_ok = all(abs(row.gap) <= config.tol for row in rows if row.gap is not None)
    return 0 if ok and gaps_ok else 1


if __name__ == "__main__":
    sys.exit(main())
