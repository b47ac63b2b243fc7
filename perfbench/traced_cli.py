"""Run one `hardycone` CLI invocation with spans around the calls into each layer.

Usage: python traced_cli.py SPANS_JSON CLI_ARG...

Public functions are wrapped where the calling module looks them up (for
example `hardycone.cli.solve_M` and `hardycone.spherical.assemble_p2`), then
`hardycone.cli.main(argv)` runs unchanged.  Spans (name, start, end, parent,
attrs) stay in memory and are written to SPANS_JSON when main returns; the
process exits with main's exit code.

After each solve one extra `composite_rule` call on the solved cell's mesh
is timed as a `probe.rule` span, outside the solve's span, so the solve paths
report a quadrature-rule time too; its duration is left out of the tracing
overhead.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_spans: list[dict] = []
_stack: list[int] = []


def _open(name: str) -> int:
    _spans.append({"name": name, "start": time.perf_counter(), "end": None,
                   "parent": _stack[-1] if _stack else None, "attrs": {}})
    _stack.append(len(_spans) - 1)
    return _stack[-1]


def _close(index: int) -> None:
    _spans[index]["end"] = time.perf_counter()
    _stack.pop()


def _wrap(module, attr: str, name: str, after=None) -> None:
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = _open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            _close(index)
        if after is not None:
            after(_spans[index]["attrs"], args, kwargs, result)
        return result

    setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    index = _open("cli.import")
    import hardycone.cli as cli
    import hardycone.quadrature as quadrature
    import hardycone.spherical as spherical
    import hardycone.verifier as verifier
    _close(index)

    def after_solve(attrs, args, kwargs, result):
        params, cone = args[0], args[1]
        domain = spherical.bc_for_cone(params, cone)
        attrs["key"] = [params.d, params.k, params.p, params.a, params.b, domain.theta1,
                        domain.theta2, domain.bc1.value, domain.bc2.value, result.minimizer.mesh.size]
        probe = _open("probe.rule")
        rule = quadrature.composite_rule(quadrature.AngularWeight.for_params(params),
                                         result.minimizer.mesh)
        _close(probe)
        _spans[probe]["attrs"]["nodes"] = int(rule.nodes.size)

    def after_rule(attrs, args, kwargs, result):
        attrs["nodes"] = int(result.nodes.size)

    def after_descent(attrs, args, kwargs, result):
        attrs["iters"] = int(result.iterations)

    _wrap(cli, "closed_form_constant", "params.dispatch")
    _wrap(cli, "cone_admissible", "params.dispatch")
    _wrap(cli, "solve_M", "spherical.solve", after_solve)
    _wrap(cli, "evaluate_quotient_udelta", "verifier.udelta")
    _wrap(cli, "cutoff_decay", "verifier.cutoff")
    _wrap(cli, "write_report", "cli.report")
    _wrap(spherical, "assemble_p2", "spherical.assemble")
    _wrap(spherical, "smallest_eigenpair", "spherical.eigensolve")
    _wrap(spherical, "minimize_rayleigh_p", "spherical.descent", after_descent)
    _wrap(verifier, "composite_rule", "quadrature.rule", after_rule)

    index = _open("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        _close(index)
        with open(spans_path, "w") as handle:
            json.dump(_spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
