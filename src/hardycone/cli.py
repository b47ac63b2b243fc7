"""Command-line surface: constants, spectra, certifications, sweeps, tables.

Reports are deterministic (no RNG, fixed quadrature) and machine readable:
JSON documents {"schema": 2, "config": ..., "rows": [...]} or CSV with a
fixed column set; floats are written in round-trip decimal form.  Exit code
0 means every row is ok or has no closed form, 1 that a row failed, and 2
an input error.  A row whose extremal profile is known takes its numeric_M
from the same formula as its closed_form, so the two are equal.

Only the pure-Python params module is imported with this one.  A row
whose extremal profile is known takes its quotient, and a verify row its
delta trace, from params, so such cells never import numpy.  solve_M and
the verifier functions that verify calls otherwise (_LAZY) are attributes
of this module that import their own module (spherical, verifier) on first
use (PEP 562), and every call site reads them through the module, so a
wrapper set on it is the one called.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import MISSING, dataclass, fields, replace
from itertools import product

from .params import (
    MIN_MESH_SIZE,
    AdmissibilityError,
    ConeSpec,
    ConvergenceError,
    HardyParams,
    SpectralResult,
    _delta_limit,
    _nonanalytic_term,
    _SphericalProblem,
    _udelta_quotient,
    bc_for_cone,
    closed_form_constant,
    cone_admissible,
    hardy_exponent,
)

# name -> its module, imported on first use: a run of cells with exact profiles loads neither
_LAZY = {"solve_M": "spherical",
         **dict.fromkeys(["evaluate_quotient_udelta", "cutoff_decay", "_cutoff_log_decay"], "verifier")}
_cli = sys.modules[__name__]  # the lazy names are read as _cli.<name>, so a wrapper set on the module is called


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


SCHEMA_VERSION = 2

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

    def __post_init__(self):
        if self.mesh_size < MIN_MESH_SIZE:
            raise ValueError(f"mesh_size must be at least {MIN_MESH_SIZE}, got {self.mesh_size}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")

    def single(self) -> tuple[HardyParams, ConeSpec]:
        for name in ("d", "k", "p", "a", "b", "cones"):
            if len(getattr(self, name)) != 1:
                flag = "--cone" if name == "cones" else f"--{name}"
                raise ValueError(f"command {self.command!r} takes exactly one value for {flag}")
        params = HardyParams(self.d[0], self.k[0], self.p[0], self.a[0], self.b[0])
        cone = parse_cone(self.cones[0])
        cone_admissible(params, cone)  # raises on a structurally invalid cell, as cells() skips one
        return params, cone

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


def _solve(params: HardyParams, cone: ConeSpec, mesh: int, keep_minimizer: bool = True) -> SpectralResult | None:
    """solve_M's result for one cell, or None where the solver fails or overflows.

    keep_minimizer=False drops the minimizer and its discretization, which no grid row reads.
    """
    try:
        result = _cli.solve_M(params, cone, mesh_size=mesh)
    except AdmissibilityError:
        raise
    except (ConvergenceError, ValueError, OverflowError):
        return None
    return result if keep_minimizer else replace(result, minimizer=None)


def _cell_row(
    command: str, params: HardyParams, cone: ConeSpec, mesh: int,
    result: SpectralResult | None, with_closed: bool = True,
) -> ReportRow:
    """Closed form (optional) and numeric spherical minimum of one grid cell; a failed solve keeps the closed form."""
    row = _base_row(command, params, cone, mesh)
    try:
        closed = closed_form_constant(params, cone) if with_closed else None
    except OverflowError:
        return replace(row, status="solver_fail")
    closed_value = closed.value if closed is not None else None
    if result is None:
        return replace(row, closed_form=closed_value, status="solver_fail")
    return replace(
        row,
        closed_form=closed_value,
        numeric_M=result.M,
        lam=result.lam,
        iterations=result.iterations,
        residual=result.residual,
        status="ok" if (closed_value is not None or not with_closed) else "no_closed_form",
    )


def _grid_rows(
    command: str, cells: list[tuple[HardyParams, ConeSpec]], config: RunConfig,
    with_closed: bool = True,
) -> list[ReportRow]:
    """One row per cell, in order, with one solve per distinct spherical problem that needs one.

    Cells with equal _SphericalProblem (p, k+a, d-k, H^2 and the endpoint
    conditions) share one result, bit for bit the one each would get alone;
    the closed form and status are still per cell.  A problem whose
    extremal profile is known is answered here from its exact quotient
    (SpectralResult.exact), and one whose H^2 or |H|^p overflows fails; the
    rest are solved in order of first appearance, and rows are placed by
    cell index.  With --jobs > 1 those solves are spread over at most that
    many worker processes, and no pool starts for fewer than two.  Either
    way each result comes without its minimizer, so a worker sends back no
    discretization.
    """
    groups: dict[object, list[int]] = {}
    results: dict[object, SpectralResult | None] = {}  # None: a solve's to come, or an int key's failure
    for index, (params, cone) in enumerate(cells):
        try:
            key = _SphericalProblem.of(params, bc_for_cone(params, cone))
            if key not in results:
                results[key] = SpectralResult.exact(key)
        except OverflowError:  # H^2, |H|^p or the exact quotient overflows: its own group, which fails
            key = index
            results[key] = None
        groups.setdefault(key, []).append(index)

    unsolved = [key for key, result in results.items() if result is None and not isinstance(key, int)]
    problems = [cells[groups[key][0]] for key in unsolved]
    solve_args = ([params for params, _ in problems], [cone for _, cone in problems],
                  [config.mesh_size] * len(problems), [False] * len(problems))
    if config.jobs > 1 and len(problems) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays for the import

        with ProcessPoolExecutor(max_workers=min(config.jobs, len(problems))) as pool:
            results.update(zip(unsolved, pool.map(_solve, *solve_args)))
    else:
        results.update(zip(unsolved, map(_solve, *solve_args)))
    rows = [None] * len(cells)
    for key, indices in groups.items():
        for index in indices:
            rows[index] = _cell_row(command, *cells[index], config.mesh_size, results[key], with_closed)
    return rows


def cmd_constant(config: RunConfig) -> list[ReportRow]:
    return _grid_rows("constant", [config.single()], config)


def cmd_spectrum(config: RunConfig) -> list[ReportRow]:
    """Numeric spectral data only: M, eigenvalue, residual, iteration count."""
    return _grid_rows("spectrum", [config.single()], config, with_closed=False)


def cmd_verify(config: RunConfig) -> list[ReportRow]:
    """Trace the minimizing family in delta and the cutoff energy in h.

    A cell whose extremal profile is known solves nothing
    (SpectralResult.exact): each delta's quotient and its slope in delta^2
    come from the profile's one-node sums (_SphericalProblem.udelta_sums,
    _udelta_quotient), in Python floats.  Any other cell is solved, and they
    come from one evaluate_quotient_udelta call on its minimizer.  The
    delta row's limit and order are _delta_limit's over every (delta,
    quotient, slope) in any order, given the cell's _nonanalytic_term where
    the trace reaches it (|H| below the largest delta), else None; the
    row's trace holds the (delta, quotient) pairs.  The row fails
    (status solver_fail) if a trace value or the extrapolated limit is not
    finite, the order is below 1.85 (0.925 q where a non-analytic term with
    q < 2 leads the trace: |H| below the largest delta) or the limit misses
    the reference by more than 1e-4 relative (1e-9 absolute near 0); if the
    trace raises, the row keeps its solve's values.  The h row fails if an
    energy or the fitted rate is not finite or the strip energy decays
    slower than h^(1-p); on the half space the energy is that of its one
    side of {y = 0}.  --deltas and --hs lists that fail the checks below
    (an empty list skips that trace) are malformed input (ValueError); an
    inadmissible cell raises AdmissibilityError.
    """
    params, cone = config.single()
    support = (0.05, 20.0)
    if not all(math.isfinite(delta) and delta > 0 for delta in config.delta_list):
        raise ValueError(f"--deltas values must be finite and positive, got {config.delta_list}")
    if not all(h < sys.float_info.max for h in config.h_list):  # an exact int comparison: float(h) is finite
        raise ValueError(f"--hs values must be below {sys.float_info.max:g}")
    if not all(h > -math.log(support[0]) for h in config.h_list):  # e^(-h) < support[0]
        raise ValueError(f"--hs values must be at least 3, got {config.h_list}")
    if config.h_list and (params.k + params.a < params.p or not cone.cross_section_touches_sigma0):
        raise ValueError(f"--hs: the cutoff check needs k+a >= p and a cone that reaches {{y = 0}}, "
                         f"got k+a={params.k + params.a:g}, p={params.p:g}, {cone.describe()}")
    for flag, values in (("--deltas", config.delta_list), ("--hs", config.h_list)):
        if len(values) == 1:  # a limit or a rate needs two points; an empty list skips the trace
            raise ValueError(f"{flag} needs at least two values (or none), got {values[0]}")
        if len(set(values)) != len(values):
            raise ValueError(f"{flag} values must be distinct, got {','.join(map(str, values))}")
    try:
        problem = _SphericalProblem.of(params, bc_for_cone(params, cone))
        result = SpectralResult.exact(problem) or _solve(params, cone, config.mesh_size)
    except OverflowError:  # H^2, |H|^p or the exact quotient overflows: the row fails
        result = None
    row = _cell_row("verify", params, cone, config.mesh_size, result)
    if row.status != "solver_fail":
        reference = row.closed_form if row.closed_form is not None else row.numeric_M
        try:
            H = hardy_exponent(params).H
            if result.minimizer is None:  # an exact profile: its one-node sums, no solver
                points = [(delta, *_udelta_quotient(*problem.udelta_sums((H - delta, H + delta)), delta))
                          for delta in config.delta_list]
            else:
                points = [(delta, ev.quotient, ev.slope) for delta in config.delta_list
                          for ev in [_cli.evaluate_quotient_udelta(params, result.minimizer, delta)]]
            trace = tuple((delta, quotient) for delta, quotient, _ in points)
            term = _cli._nonanalytic_term(params, problem.domain)
            if term is not None and not abs(term[0]) < max(config.delta_list, default=0.0):
                term = None  # the trace does not reach G = 0, so the term does not show in it
            extrap, order = _cli._delta_limit(points, term)
        except (ConvergenceError, ValueError, OverflowError):
            row = replace(row, status="solver_fail")
        else:
            broken = not _finite(*(q for _, q in trace), extrap)
            # a term the trace reaches leads it as delta^q where q < 2
            slow = order is not None and order < 0.925 * (2.0 if term is None else min(term[1], 2.0))
            off = extrap is not None and abs(extrap - reference) > max(1e-4 * abs(reference), 1e-9)
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
                       else _cli.cutoff_decay(params, support, h, cone)) for h in config.h_list]
            rate = _fit_log_slope([
                (x, math.log(energy) if energy >= sys.float_info.min
                 else _cli._cutoff_log_decay(params, support, h, cone))
                for h, (x, energy) in zip(config.h_list, htrace)
            ])
            status = "ok"
            if not _finite(*(energy for _, energy in htrace), rate):
                status = "solver_fail"
            elif rate is not None and rate > (1.0 - params.p) * 0.9:
                status = "solver_fail"  # slower than the h^(1-p) guarantee
            hrow = replace(hrow, quotient_trace=tuple(htrace), fit_rate=rate, status=status)
        except (ValueError, OverflowError):  # OverflowError: an energy above the float range
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
    the configured (n, s) grid (ValueError unless n >= 1 and 0 < s < 1); the
    mixed-threshold family a = p-k, b = 0 on the full space; and any
    explicitly configured (params, cone) cells.
    """
    if not all(n >= 1 for n in config.cs_n):
        raise ValueError(f"--cs-n values must be at least 1, got {config.cs_n}")
    if not all(0 < s_val < 1 for s_val in config.cs_s):
        raise ValueError(f"--cs-s values must lie in (0, 1), got {config.cs_s}")
    cells = []
    for n in config.cs_n:
        for s_val in config.cs_s:
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
    """An ArgumentParser whose usage errors raise ValueError (not argparse's exit 2), which main reports as JSON."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its options by dest; RunConfig holds the defaults.

    Every command takes the same flags, so the command is a positional and the flags may stand on either side of it.
    """
    parser = _ArgumentParser(
        prog="hardycone",
        description="Sharp Hardy constants with mixed weights on cones: closed forms, "
        "spherical spectra, and numerical certification.",
        epilog="CSV columns: " + ", ".join(CSV_COLUMNS) + ". Cones: " + CONE_CHOICES + ".",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("command", choices=COMMANDS, help="constant: closed form and numeric spherical minimum "
                        "for one cone; spectrum: eigenvalue/minimizer details for one cone; verify: quotient traces "
                        "in delta and cutoff energies in h; sweep: numeric constants over a parameter grid; "
                        "table: reproduce the closed-form families over a grid")
    options = [
        parser.add_argument("--d", type=_int_list, help="dimension(s), comma separated"),
        parser.add_argument("--k", type=_int_list, help="codimension parameter(s)"),
        parser.add_argument("--p", type=_float_list, help="integrability exponent(s)"),
        parser.add_argument("--a", type=_float_list, help="cylindrical weight exponent(s)"),
        parser.add_argument("--b", type=_float_list, help="spherical weight exponent(s)"),
        parser.add_argument("--cone", dest="cones", type=lambda t: tuple(t.split(",")), help=f"cone(s): {CONE_CHOICES}"),
        parser.add_argument("--mesh", dest="mesh_size", type=int,
                            help=f"element count of the graded mesh (at least {MIN_MESH_SIZE})"),
        parser.add_argument("--deltas", dest="delta_list", type=_float_list,
                            help="verify: two or more distinct delta values, or none to skip that trace"),
        parser.add_argument("--hs", dest="h_list", type=_int_list,
                            help="verify: two or more distinct cutoff scales h, each at least 3, or none"),
        parser.add_argument("--cs-n", dest="cs_n", type=_int_list, help="table: anchor dimensions n >= 1 (d = n+1)"),
        parser.add_argument("--cs-s", dest="cs_s", type=_float_list,
                            help="table: fractional orders s in (0, 1) (a = 1-2s)"),
        parser.add_argument("--format", choices=FORMAT_CHOICES, help="report format"),
        parser.add_argument("--out", dest="output_path", help="report file, written atomically (default: stdout)"),
        parser.add_argument("--config", dest="config_path", help="JSON file of defaults; explicit flags override it"),
        parser.add_argument("--jobs", type=int, help="number of worker processes for sweep and table"),
    ]
    return parser, {action.dest: action for action in options}


def parse_config(argv: list[str]) -> RunConfig:
    """The RunConfig of a command line; a --config file supplies defaults, flags win.

    The file's keys are RunConfig fields, as in a JSON report's "config"
    block.  Each value becomes its flag's text (a list its comma-joined
    text), parsed ahead of the whole command line, so the flag parser
    converts and checks it and an explicit flag wins wherever it stands;
    null is allowed where the default is None.
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
        try:  # argv parsed once already: an error here is the file's
            given = vars(parser.parse_args([*tokens, *argv]))
        except ValueError as exc:
            raise ValueError(f"config file {path}: {exc}") from None
        del given["config_path"]
    return RunConfig(**given)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = parse_config(argv)
        rows = COMMANDS[config.command](config)
        write_report(config, rows)
    except (AdmissibilityError, ValueError, OSError) as exc:
        error_doc = {"schema": SCHEMA_VERSION, "error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(error_doc) + "\n")
        return 2
    return 0 if all(row.status == "ok" or row.status == "no_closed_form" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
