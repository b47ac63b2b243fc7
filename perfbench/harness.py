"""Workloads, reference values and result checks of the hardycone benchmark.

Everything here is pure Python with no import of hardycone, numpy or scipy:
`run.py` only spawns the program, so its own start-up never
mixes with what it measures.

A *cell* is one (d, k, p, a, b, cone) problem at one mesh.  Its correct
digits are -log10 of its relative error, capped at DIGITS_CAP, measured
against the closed form where the paper gives one, otherwise against the
same cell at the workload's other mesh, otherwise (a `verify` cell) against
the certifier's delta -> 0 extrapolation.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass, field

DIGITS_CAP = 15.0
GAP_TOL = 1e-3                       # the CLI's default --tol, never loosened here
OK_STATUSES = ("ok", "no_closed_form")
CLOSED_FORM_RTOL = 1e-12             # report's closed form vs. the benchmark's own


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Cell:
    d: int
    k: int
    p: float
    a: float
    b: float
    cone: str


@dataclass(frozen=True)
class Invocation:
    """One `hardycone` process: its CLI arguments (without --out) and the cells it must report."""

    argv: tuple[str, ...]
    mesh: int
    cells: tuple[Cell, ...]
    has_h_row: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]


def _structurally_valid(d: int, k: int, cone: str) -> bool:
    # the only grid cells `hardycone sweep` skips in these workloads
    return 1 <= k < d and (cone != "half-space" or k == 1)


def sweep_invocation(
    rng: random.Random, mesh: int, d, k, p, a, b, cones
) -> Invocation:
    """A `sweep --jobs 1` over the grid, each list in a seed-shuffled order."""
    d, k, p, a, b, cones = (rng.sample(list(v), len(v)) for v in (d, k, p, a, b, cones))
    argv = (
        "sweep", "--d", ",".join(d), "--k", ",".join(k), "--p", ",".join(p),
        "--a=" + ",".join(a), "--b=" + ",".join(b), "--cone", ",".join(cones),
        "--mesh", str(mesh), "--jobs", "1",
    )
    cells = tuple(
        Cell(int(dd), int(kk), float(pp), float(aa), float(bb), cone)
        for dd in d for kk in k for pp in p for aa in a for bb in b for cone in cones
        if _structurally_valid(int(dd), int(kk), cone)
    )
    return Invocation(argv, mesh, cells)


def verify_invocation(
    d: str, k: str, p: str, a: str, b: str, cone: str, mesh: int,
    deltas: str | None = None, hs: str | None = None,
) -> Invocation:
    argv = ["verify", "--d", d, "--k", k, "--p", p, "--a=" + a, "--b=" + b,
            "--cone", cone, "--mesh", str(mesh)]
    if deltas is not None:
        argv += ["--deltas", deltas]
    if hs is not None:
        argv += ["--hs", hs]
    cell = Cell(int(d), int(k), float(p), float(a), float(b), cone)
    return Invocation(tuple(argv), mesh, (cell,), has_h_row=hs is not None)


def _sweep_p2(rng: random.Random) -> list[Invocation]:
    grid = (("3", "4", "5"), ("1", "2"), ("2",), ("-0.5", "0", "0.5", "0.9"), ("0",),
            ("complement-sigma0", "half-space"))
    return [sweep_invocation(rng, mesh, *grid) for mesh in (2048, 8192)]


def _descent(rng: random.Random) -> list[Invocation]:
    grid = (("3",), ("1",), ("1.5", "3"), ("0", "0.3"), ("0",), ("complement-sigma0",))
    return [sweep_invocation(rng, mesh, *grid) for mesh in (512, 1024)]


def _certify(rng: random.Random) -> list[Invocation]:
    deltas = "0.2,0.1,0.05,0.025"
    hs = "4,8,16,32"
    return [
        verify_invocation("3", "1", "2", "0", "0", "half-space", 2048, deltas=deltas),
        verify_invocation("4", "1", "2", "0.3", "0.5", "half-space", 2048, deltas=deltas),
        verify_invocation("6", "3", "2", "-1.2", "0", "complement-sigma0", 2048, deltas=deltas),
        verify_invocation("3", "1", "3", "0", "0", "complement-sigma0", 2048, deltas=deltas),
        verify_invocation("3", "1", "2", "1", "0", "complement-sigma0", 2048, hs=hs),
        verify_invocation("4", "2", "2", "0.5", "0", "complement-sigma0", 2048, hs=hs),
        verify_invocation("3", "1", "2", "0.9", "0", "complement-sigma0", 2048),
    ]


WORKLOADS = {"sweep-p2": _sweep_p2, "descent": _descent, "certify": _certify}


def build_workload(name: str, seed: int) -> Workload:
    """The workload's invocations; the seed shuffles grid lists and invocation order only."""
    rng = random.Random(seed)
    invocations = WORKLOADS[name](rng)
    rng.shuffle(invocations)
    return Workload(name, tuple(invocations))


# ---------------------------------------------------------------------------
# references and digits

def closed_form(cell: Cell) -> float | None:
    """The paper's sharp constant for the cones these workloads use, or None if none is known."""
    d, k, p, a, b = cell.d, cell.k, cell.p, cell.a, cell.b
    H = (d + a - p - b) / p
    if cell.cone == "complement-sigma0":
        if k + a >= p:
            return abs(H) ** p
        return (d - k) * max(2.0 - (k + a), 0.0) + H * H if p == 2 else None
    if cell.cone == "half-space":
        if a >= p - 1:
            return abs(H) ** p
        return (d - 1) * max(1.0 - a, 0.0) + H * H if p == 2 else None
    raise ValueError(f"no reference for cone {cell.cone!r}")


def digits(value: float | None, reference: float | None) -> float:
    """Correct digits of value: -log10(relative error), in [0, DIGITS_CAP]."""
    if value is None or reference is None or not math.isfinite(value) or reference == 0:
        return 0.0
    rel = abs(value - reference) / abs(reference)
    if rel == 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, max(0.0, -math.log10(rel)))


def exit_kind(returncode: int) -> str:
    """0: every row passed; 1: a gap or status miss the CLI reported; anything else: a crash."""
    return {0: "ok", 1: "gap_miss"}.get(returncode, "crash")


# ---------------------------------------------------------------------------
# checking one invocation's report

@dataclass
class CellResult:
    cell: Cell
    mesh: int
    value: float | None = None
    digits: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class Check:
    """Cells of one invocation, plus the problems that make the invocation itself fail."""

    cells: list[CellResult]
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _key(row: dict) -> Cell:
    return Cell(row["d"], row["k"], float(row["p"]), float(row["a"]), float(row["b"]), row["cone"])


def _row_misses_cli_gate(row: dict) -> bool:
    gap = row.get("gap")
    return row.get("status") not in OK_STATUSES or (gap is not None and abs(gap) > GAP_TOL)


def _check_value_row(result: CellResult, row: dict, problems: list[str]) -> None:
    ref = closed_form(result.cell)
    reported = row.get("closed_form")
    if (ref is None) != (reported is None) or (
        ref is not None and abs(reported - ref) > CLOSED_FORM_RTOL * max(1.0, abs(ref))
    ):
        problems.append(f"{result.cell}: closed form {reported!r}, expected {ref!r}")
    result.value = row.get("numeric_M")
    if row.get("status") not in OK_STATUSES:
        result.failures.append(f"status {row.get('status')}")
    if result.value is None or not math.isfinite(result.value):
        result.failures.append("no numeric value")
        return
    if ref is not None:
        result.digits = digits(result.value, ref)
        if abs(result.value - ref) > GAP_TOL:
            result.failures.append(f"gap {result.value - ref:.3e}")


def check_report(inv: Invocation, returncode: int, report: bytes | None) -> Check:
    """Check one invocation's JSON report against the cells it had to produce.

    Accuracy misses fail single cells; a crash, an exit code that disagrees
    with the rows, a missing or extra row or a wrong closed form fails the
    invocation (and every cell it lost).
    """
    check = Check([CellResult(cell, inv.mesh) for cell in inv.cells])
    rows = None
    if exit_kind(returncode) != "crash" and report is not None:
        try:
            rows = json.loads(report)["rows"]
        except (ValueError, KeyError, TypeError):
            pass
    if rows is None:
        check.problems.append(f"exit code {returncode}, no readable report")
        for result in check.cells:
            result.failures.append("crash")
        return check

    if inv.argv[0] == "verify":
        value_rows = [r for r in rows if r.get("mesh") is not None]
        h_rows = [r for r in rows if r.get("mesh") is None]
        if len(h_rows) != int(inv.has_h_row):
            check.problems.append(f"{len(h_rows)} cutoff rows, expected {int(inv.has_h_row)}")
    else:
        value_rows, h_rows = rows, []

    by_cell: dict[Cell, list[dict]] = {}
    for row in value_rows:
        by_cell.setdefault(_key(row), []).append(row)
    expected = {result.cell for result in check.cells}
    for extra in set(by_cell) - expected:
        check.problems.append(f"unexpected row {extra}")
    for result in check.cells:
        found = by_cell.get(result.cell, [])
        if len(found) != 1:
            check.problems.append(f"{result.cell}: {len(found)} rows")
            result.failures.append("missing row")
            continue
        row = found[0]
        _check_value_row(result, row, check.problems)
        if inv.argv[0] == "verify" and closed_form(result.cell) is None:
            result.digits = digits(row.get("extrapolated"), result.value)
        for h_row in h_rows:
            if h_row.get("status") != "ok":
                result.failures.append(f"cutoff status {h_row.get('status')}")

    expected_rc = 1 if any(_row_misses_cli_gate(r) for r in rows) else 0
    if returncode != expected_rc:
        check.problems.append(f"exit code {returncode}, rows imply {expected_rc}")
    return check


def apply_mesh_pairs(results: list[CellResult]) -> None:
    """Digits and failures of cells without a closed form, from the same cell at another mesh.

    Both members of a pair get -log10 of their relative difference and fail
    together when the difference exceeds GAP_TOL.
    """
    by_cell: dict[Cell, list[CellResult]] = {}
    for result in results:
        if closed_form(result.cell) is None:
            by_cell.setdefault(result.cell, []).append(result)
    for group in by_cell.values():
        if len(group) != 2:
            continue
        coarse, fine = sorted(group, key=lambda r: r.mesh)
        if coarse.value is None or fine.value is None:
            continue
        pair_digits = digits(coarse.value, fine.value)
        diff = abs(coarse.value - fine.value)
        for result in group:
            result.digits = pair_digits
            if diff > GAP_TOL:
                result.failures.append(f"mesh-pair difference {diff:.3e}")


# ---------------------------------------------------------------------------
# statistics and spans

def percentile(samples: list[float], q: float) -> float:
    """q-th percentile with linear interpolation between order statistics."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median_pass(per_pass: list[list[float]]) -> float:
    """A pass's total built from each invocation's median over the passes.

    per_pass[i][j] is invocation j's sample in pass i.  Summing per-invocation
    medians keeps one disturbed invocation from moving the whole pass.
    """
    return sum(statistics.median(samples) for samples in zip(*per_pass))


def tail_percentile(n: int, candidates=(99.9, 99.0, 95.0, 90.0, 75.0)) -> float | None:
    """Highest candidate percentile with at least ten of n samples beyond it, or None."""
    for q in candidates:
        if n * (100.0 - q) >= 1000.0 - 1e-6:   # n * (1 - q/100) >= 10, without rounding loss
            return q
    return None


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(kids):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        out.append(span["end"] - span["start"] - covered)
    return out
