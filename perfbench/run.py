"""hardycone benchmark: whole CLI processes in a closed loop, accuracy checked per cell.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-p2 --seed 1 --seconds 20 --trace 0

One parent process runs one `hardycone` child at a time, with BLAS/OpenMP
threads pinned to 1 and `sweep --jobs 1`, so nothing queues.  A *pass* runs
every invocation of the workload in sequence; passes repeat until --seconds
have elapsed (at least one).  Every report is checked (see harness.py) and
must be byte-identical to the run's first pass.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with passes run through traced_cli.py, and prints per-layer totals
per pass together with the tracing overhead.  Lines before the last one
start with '#' and record the environment and the per-cell outcome; the
last line is one JSON object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150.0
CLI_SCRIPT = "import sys; from hardycone.cli import main; sys.exit(main())"
ENV_SCRIPT = """
import json, platform, numpy, scipy, hardycone
def blas(mod):
    return mod.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}).get("version")
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "numpy_blas": blas(numpy), "scipy": scipy.__version__,
                  "scipy_blas": blas(scipy), "hardycone": hardycone.__version__}))
"""

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "digits_min": "digits",
    "digits_per_s": "digits/s", "ok_frac": "ratio", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "quadrature.rule_ms": "ms", "quadrature.rule_calls": "count", "quadrature.nodes": "count",
    "spherical.assemble_ms": "ms", "spherical.assemble_calls": "count",
    "spherical.solve_self_ms": "ms", "spherical.eigensolve_ms": "ms",
    "spherical.eigensolve_calls": "count", "spherical.solve_calls": "count",
    "spherical.solve_p50_ms": "ms", "spherical.solve_p90_ms": "ms",
    "spherical.repeat_frac": "ratio",
    "spherical.descent_ms": "ms", "spherical.descent_iters": "count",
    "spherical.descent_ms_per_iter": "ms",
    "verifier.udelta_ms": "ms", "verifier.udelta_calls": "count",
    "verifier.cutoff_ms": "ms", "verifier.cutoff_calls": "count",
    "params.dispatch_ms": "ms", "params.dispatch_calls": "count",
    "cli.import_s": "s", "cli.process_s": "s", "cli.report_ms": "ms",
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
}


@dataclass
class Child:
    returncode: int
    wall: float
    cpu: float


@dataclass
class Pass:
    traced: bool
    checks: list[harness.Check] = field(default_factory=list)
    spans: list[list[dict]] = field(default_factory=list)
    inv_walls: list[float] = field(default_factory=list)
    inv_cpus: list[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.inv_walls)

    @property
    def cells(self) -> list[harness.CellResult]:
        return [cell for check in self.checks for cell in check.cells]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(cmd: list[str], env: dict, cwd: Path, log: Path) -> Child:
    """Run one child to completion; wall from spawn to reap, CPU from RUSAGE_CHILDREN."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT)
        # a blocking wait: Popen.wait(timeout=...) polls in 50 ms sleeps,
        # which would quantize the wall time
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            returncode = proc.wait()
        finally:
            watchdog.cancel()
            if proc.returncode is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Child(returncode, wall, cpu)


def git_commit() -> str:
    """HEAD of the checkout from .git files, or 'unknown' outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(workload: harness.Workload, traced: bool, env: dict, work: Path,
             first_reports: dict[int, bytes]) -> Pass:
    result = Pass(traced)
    for index, inv in enumerate(workload.invocations):
        out = work / f"report-{index}.json"
        spans_path = work / f"spans-{index}.json"
        for stale in (out, spans_path):
            stale.unlink(missing_ok=True)
        args = [*inv.argv, "--out", str(out)]
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *args]
        else:
            cmd = [sys.executable, "-c", CLI_SCRIPT, *args]
        child = run_child(cmd, env, work, work / f"log-{index}.txt")
        report = out.read_bytes() if out.is_file() else None
        check = harness.check_report(inv, child.returncode, report)
        if report is not None:
            first = first_reports.setdefault(index, report)
            if report != first:
                check.problems.append("report differs from the run's first pass")
                for cell in check.cells:
                    cell.failures.append("unreproducible report")
        if check.failed:
            print(f"# invocation {' '.join(inv.argv)}: {'; '.join(check.problems)}")
        result.checks.append(check)
        result.inv_walls.append(child.wall)
        result.inv_cpus.append(child.cpu)
        if traced:
            result.spans.append(json.loads(spans_path.read_text()) if spans_path.is_file() else [])
    harness.apply_mesh_pairs(result.cells)
    return result


def layer_totals(run: Pass) -> dict[str, float]:
    """Per-layer busy time and counts of one traced pass, from its spans."""
    ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    solve_ms: list[float] = []
    keys: list[tuple] = []
    nodes = iters = 0
    process_s = probe_s = 0.0
    for spans, wall in zip(run.spans, run.inv_walls):
        for span, own in zip(spans, harness.self_times(spans)):
            name = span["name"]
            ms[name] = ms.get(name, 0.0) + 1e3 * own
            calls[name] = calls.get(name, 0) + 1
            nodes += span["attrs"].get("nodes", 0)
            iters += span["attrs"].get("iters", 0)
            if name == "spherical.solve":
                solve_ms.append(1e3 * (span["end"] - span["start"]))
                keys.append(tuple(span["attrs"]["key"]))
            elif name == "cli.main":
                process_s += wall - (span["end"] - span["start"])
            elif name == "probe.rule":
                probe_s += span["end"] - span["start"]
    repeats = len(keys) - len(set(keys))
    descent_ms = ms.get("spherical.descent", 0.0)
    return {
        "quadrature.rule_ms": ms.get("quadrature.rule", 0.0) + ms.get("probe.rule", 0.0),
        "quadrature.rule_calls": calls.get("quadrature.rule", 0) + calls.get("probe.rule", 0),
        "quadrature.nodes": nodes,
        "spherical.assemble_ms": ms.get("spherical.assemble", 0.0),
        "spherical.assemble_calls": calls.get("spherical.assemble", 0),
        "spherical.solve_self_ms": ms.get("spherical.solve", 0.0),
        "spherical.eigensolve_ms": ms.get("spherical.eigensolve", 0.0),
        "spherical.eigensolve_calls": calls.get("spherical.eigensolve", 0),
        "spherical.solve_calls": len(solve_ms),
        "spherical.solve_p50_ms": harness.percentile(solve_ms, 50) if solve_ms else 0.0,
        "spherical.solve_p90_ms": harness.percentile(solve_ms, 90) if solve_ms else 0.0,
        "spherical.repeat_frac": repeats / len(keys) if keys else 0.0,
        "spherical.descent_ms": descent_ms,
        "spherical.descent_iters": iters,
        "spherical.descent_ms_per_iter": descent_ms / iters if iters else 0.0,
        "verifier.udelta_ms": ms.get("verifier.udelta", 0.0),
        "verifier.udelta_calls": calls.get("verifier.udelta", 0),
        "verifier.cutoff_ms": ms.get("verifier.cutoff", 0.0),
        "verifier.cutoff_calls": calls.get("verifier.cutoff", 0),
        "params.dispatch_ms": ms.get("params.dispatch", 0.0),
        "params.dispatch_calls": calls.get("params.dispatch", 0),
        "cli.import_s": ms.get("cli.import", 0.0) / 1e3,
        "cli.process_s": process_s,
        "cli.report_ms": ms.get("cli.report", 0.0),
        "probe_s": probe_s,
    }


def describe_timings(label: str, samples: list[float], unit: str) -> str:
    q = harness.tail_percentile(len(samples))
    tail = (f", p{q:g} {harness.percentile(samples, q):.4g}" if q is not None
            else " (no percentile above the median has ten samples beyond it)")
    return f"# {label}: n={len(samples)} median {statistics.median(samples):.4g}{tail} {unit}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hardycone" / "__init__.py").is_file():
        print(f"hardycone sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = harness.build_workload(args.workload, args.seed)
    env = child_env()
    work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workload, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload: harness.Workload, env: dict, work: Path) -> int:
    # The first child imports hardycone once (compiling its bytecode) and
    # records the versions; set-up is then timed on warm bytecode.
    info = subprocess.run([sys.executable, "-c", ENV_SCRIPT], env=env, cwd=work,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if info.returncode != 0:
        print(f"cannot import hardycone:\n{info.stderr}", file=sys.stderr)
        return 2
    record = json.loads(info.stdout)
    record.update({var: env[var] for var in THREAD_VARS})
    record.update({"cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                   "git_commit": git_commit(), "workload": workload.name, "seed": args.seed,
                   "trace": args.trace})
    print("# environment " + json.dumps(record, sort_keys=True))
    for inv in workload.invocations:
        print("# invocation hardycone " + " ".join(inv.argv))

    setup = []
    if not args.trace:
        setup = [run_child([sys.executable, "-c", "import hardycone"], env, work,
                           work / "setup.txt").wall for _ in range(SETUP_REPEATS)]

    first_reports: dict[int, bytes] = {}
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(workload, False, env, work, first_reports))
        if args.trace:
            passes.append(run_pass(workload, True, env, work, first_reports))

    plain = [p for p in passes if not p.traced]
    checks = [check for p in passes for check in p.checks]
    cells = [cell for p in passes for cell in p.cells]
    failed = sum(check.failed for check in checks)
    ok_cells = sum(cell.ok for cell in cells)
    wall = harness.median_pass([p.inv_walls for p in plain])
    first = passes[0].cells

    for cell in first:
        status = "ok" if cell.ok else "FAIL " + "; ".join(cell.failures)
        print(f"# cell {cell.cell} mesh {cell.mesh}: M={cell.value!r} "
              f"digits {cell.digits:.3f} {status}")
    print(f"# passes {len(plain)} untraced, {len(passes) - len(plain)} traced; "
          f"invocations {len(checks)}, failed {failed}; cells {len(cells)}, "
          f"fail_frac {(len(cells) - ok_cells) / len(cells):.4f} ratio")
    print(f"# pass walls (n={len(plain)}) " + " ".join(f"{p.wall:.3f}" for p in plain) + " s")
    print(describe_timings("invocation wall", [w for p in plain for w in p.inv_walls], "s"))

    if args.trace:
        traced = [layer_totals(p) for p in passes if p.traced]
        totals = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
        traced_wall = statistics.median(p.wall - t["probe_s"]
                                        for p, t in zip((p for p in passes if p.traced), traced))
        totals["trace.overhead_s"] = traced_wall - wall
        totals["trace.overhead_frac"] = (traced_wall - wall) / wall
        solve_ms = [1e3 * (s["end"] - s["start"]) for p in passes if p.traced
                    for spans in p.spans for s in spans if s["name"] == "spherical.solve"]
        if solve_ms:
            print(describe_timings("solve_M per cell", solve_ms, "ms"))
        values = {name: totals[name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "cpu_s": harness.median_pass([p.inv_cpus for p in plain]),
            "digits_min": min(cell.digits for cell in cells),
            "digits_per_s": min(sum(c.digits for c in p.cells) for p in plain) / wall,
            "ok_frac": ok_cells / len(cells),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(describe_timings("setup", setup, "s"))
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
