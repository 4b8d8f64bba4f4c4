"""Command-line surface: solve model files, derive robust counterparts,
build and solve site-selection instances, run parameter sweeps, and validate
solutions against uncertainty.

Exit codes: 0 optimal/success, 1 rejected input or unreadable/unwritable
file (reported once, by :func:`main`, as ``error: ...``), 2 infeasible (or
certification failure), 3 unbounded, 4 limit reached.  All floating-point
output is printed with 6 decimals; CSV files carry full precision.  The
``--json`` flag mirrors every report as a machine-readable object.  The
Monte Carlo seed is ``--seed``, 0 unless given.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .model import Model, _read_number, export_text, import_text
from .robustify import interval_robust_counterpart, symmetric_robust_counterpart
from .sitesel import (
    SiteSelectionInstance,
    build_irc,
    build_nominal,
    build_rc,
    load_instance,
)
from .solver import SolverOptions, solve
from .uncertainty import parse_annotations
from .validate import corner_check, monte_carlo_check, sweep, write_sweep_csv

_STATUS_EXIT = {"optimal": 0, "infeasible": 2, "unbounded": 3, "limit_reached": 4}
_MAX_GRID = 10_000  # values on one sweep axis, and cells in one sweep grid
# numeric options, read in `main` as model text reads numbers: a bad one is one error line
_NUMBER_OPTIONS = {"eps": float, "delta": float, "kappa": float, "time_limit": float,
                   "max_nodes": int, "jobs": int, "mc": int, "seed": int}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _number(key: str, text: str, kind=float):
    try:
        return _read_number(text.strip(), kind)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _read_model(path: str) -> Model:
    return import_text(Path(path).read_text())


def _solver_options(args) -> SolverOptions:
    limits = {"max_nodes": args.max_nodes, "time_limit_seconds": args.time_limit}
    return SolverOptions(**{k: v for k, v in limits.items() if v is not None})


def _print_solution(model: Model, sol, as_json: bool):
    if as_json:
        payload = {
            "status": sol.status,
            "objective": None if math.isnan(sol.objective) else sol.objective,
            "values": {model.variables[v].name: val for v, val in sol.values.items()},
            "stats": {
                "iterations": sol.stats.iterations,
                "nodes": sol.stats.nodes,
                "cone_cuts": sol.stats.cone_cuts,
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    print(f"status: {sol.status}")
    if not math.isnan(sol.objective):
        print(f"objective: {sol.objective:.6f}")
    for v, val in sorted(sol.values.items()):
        if abs(val) > 1e-9:
            print(f"  {model.variables[v].name} = {val:.6f}")


def _counterpart(source, mode: str, exact: bool, eps: float, delta: float,
                 kappa: float) -> Model:
    """The ``mode`` model of a site-selection instance (``exact``: each
    unit assigned to exactly one site) or of a (model, uncertain set) pair
    at one (eps, delta, kappa) point: a sitesel or robustify run's model and
    a sweep cell's.  Module level so that parallel sweeps can pickle it."""
    if isinstance(source, SiteSelectionInstance):
        if mode == "nominal":
            return build_nominal(source, exact_assignment=exact)
        if mode == "irc":
            return build_irc(source, eps, delta, exact_assignment=exact)
        return build_rc(source, eps, delta, kappa, exact_assignment=exact)
    model, uset = source
    if mode == "irc":
        return interval_robust_counterpart(model, uset, eps, delta).model
    return symmetric_robust_counterpart(model, uset, eps, delta, kappa).model


# -- solve -------------------------------------------------------------------


def cmd_solve(args) -> int:
    model = _read_model(args.model)
    sol = solve(model, _solver_options(args))
    _print_solution(model, sol, args.json)
    return _STATUS_EXIT[sol.status]


# -- robustify ----------------------------------------------------------------


def cmd_robustify(args) -> int:
    model = _read_model(args.model)
    uset = parse_annotations(Path(args.annotations).read_text(), model)
    robust = _counterpart((model, uset), args.mode, exact=False, eps=args.eps,
                          delta=args.delta, kappa=args.kappa)
    Path(args.output).write_text(export_text(robust))
    if args.json:
        print(json.dumps({
            "output": args.output,
            "mode": args.mode,
            "constraints": len(robust.constraints),
            "aux_variables": len(robust.variables) - len(model.variables),
        }, indent=2, sort_keys=True))
    else:
        print(f"wrote {args.mode} counterpart to {args.output} "
              f"({len(robust.constraints)} constraints)")
    return 0


# -- sitesel -------------------------------------------------------------------


def cmd_sitesel(args) -> int:
    instance = load_instance(args.instance)
    model = _counterpart(instance, args.mode, args.exact_assignment, args.eps,
                         args.delta, args.kappa)
    sol = solve(model, _solver_options(args))
    if sol.status != "optimal":
        _print_solution(model, sol, args.json)
        return _STATUS_EXIT[sol.status]

    def val(name):
        return sol.values[model.variable_by_name(name).id]

    opened = [s.id for s in instance.sites if val(f"y_{s.id}") > 0.5]
    assignments = {
        u.id: [s.id for s in instance.sites if val(f"x_{u.id}_{s.id}") > 0.5]
        for u in instance.units
    }
    budget_row = model.constraint_by_label("budget")
    budget_used = budget_row.lhs.value(sol.values)
    if args.json:
        print(json.dumps({
            "status": sol.status,
            "objective": sol.objective,
            "open_sites": opened,
            "assignments": assignments,
            "budget_used": budget_used,
            "budget": instance.budget,
        }, indent=2, sort_keys=True))
    else:
        print(f"status: {sol.status}")
        print(f"expected utilization: {sol.objective:.6f}")
        print(f"open sites: {', '.join(opened) if opened else '(none)'}")
        for uid, sids in assignments.items():
            print(f"  {uid} -> {', '.join(sids) if sids else '(unassigned)'}")
        print(f"budget used: {budget_used:.6f} of {instance.budget:.6f}")
    return 0


# -- sweep ----------------------------------------------------------------------


def _finite(key: str, numbers: list[float]) -> list[float]:
    if not all(map(math.isfinite, numbers)):
        raise ValueError(f"{key}: values must be finite, got {numbers}")
    return numbers


def _parse_axis(spec: str, key: str) -> list[float]:
    spec = spec.strip()
    if not spec:
        raise ValueError(f"empty value list for {key}")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"{key}: range must be start:step:stop, got {spec!r}")
        start, step, stop = _finite(key, [_number(key, p) for p in parts])
        if step <= 0:
            raise ValueError(f"{key}: range step must be positive")
        span = (stop - start + 1e-12) / step  # the last index, before flooring
        if span >= _MAX_GRID:
            raise ValueError(f"{key}: range {spec!r} has more than {_MAX_GRID} values")
        return [round(start + i * step, 12) for i in range(math.floor(span) + 1)]
    return _finite(key, [_number(key, tok) for tok in spec.split(",") if tok.strip()])


def parse_grid_spec(tokens) -> list[tuple[float, float, float]]:
    """Grid spec like ``eps=0:0.05:0.2 delta=0,0.1 kappa=1,0.14``: eps and
    delta finite and nonnegative, kappa in (0, 1]."""
    axes = {"eps": [0.0], "delta": [0.0], "kappa": [1.0]}
    if not tokens:
        raise ValueError("empty grid specification")
    for token in tokens:
        if "=" not in token:
            raise ValueError(f"grid token {token!r} is not key=values")
        key, spec = token.split("=", 1)
        key = key.strip()
        if key == "epsilon":
            key = "eps"
        if key not in axes:
            raise ValueError(f"unknown grid axis {key!r} (use eps/delta/kappa)")
        axes[key] = _parse_axis(spec, key)
    for key in ("eps", "delta"):
        if any(v < 0 for v in axes[key]):
            raise ValueError(f"{key}: values must be nonnegative, got {axes[key]}")
    if not all(0 < k <= 1 for k in axes["kappa"]):
        raise ValueError(f"kappa: values must lie in (0, 1], got {axes['kappa']}")
    if math.prod(map(len, axes.values())) > _MAX_GRID:
        raise ValueError(f"grid has more than {_MAX_GRID} cells")
    grid = [(e, d, k)
            for e in axes["eps"] for d in axes["delta"] for k in axes["kappa"]]
    if not grid:
        raise ValueError("empty grid specification")
    return grid


def cmd_sweep(args) -> int:
    grid = parse_grid_spec(args.grid)
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    path = Path(args.input)
    if path.is_dir():
        source = load_instance(path)
    else:
        model = import_text(path.read_text())
        if not args.annotations:
            raise ValueError("model-file sweeps need --annotations")
        uset = parse_annotations(Path(args.annotations).read_text(), model)
        source = (model, uset)
    build = functools.partial(_counterpart, source, args.mode,
                              args.exact_assignment)
    options = _solver_options(args)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = sweep(build, grid, options, pool)
    else:
        rows = sweep(build, grid, options)
    nominal_objective = rows[0].nominal_objective
    with open(args.output, "w", newline="") as fh:
        write_sweep_csv(rows, fh)
    if args.json:
        print(json.dumps({
            "output": args.output,
            "rows": len(rows),
            "nominal_objective": None if math.isnan(nominal_objective)
            else nominal_objective,
        }, indent=2, sort_keys=True))
    else:
        print(f"wrote {len(rows)} sweep rows to {args.output}")
    return 0


# -- validate ---------------------------------------------------------------------


def _load_solution_values(path: str, model: Model) -> dict[int, float]:
    """Read a solution file (the --json output of solve) keyed by name.

    Names missing from the model (counterpart auxiliaries) are ignored; every
    model variable must be covered by a JSON number.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError("solution file must hold a JSON object")
    by_name = payload["values"] if "values" in payload else payload
    if not isinstance(by_name, dict):
        raise ValueError("solution values must be a JSON object")
    values = {}
    for v in model.variables:
        if v.name not in by_name:
            raise ValueError(f"solution file lacks a value for {v.name!r}")
        value = by_name[v.name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"solution value of {v.name} must be a number, got {value!r}")
        try:
            values[v.id] = float(value)
        except OverflowError:  # an integer past the float range
            raise ValueError(f"solution value of {v.name} is too large") from None
    return values


def cmd_validate(args) -> int:
    model = _read_model(args.model)
    uset = parse_annotations(Path(args.annotations).read_text(), model)
    if args.solution:
        values = _load_solution_values(args.solution, model)
    else:
        sol = solve(model, _solver_options(args))
        if sol.status != "optimal":
            raise ValueError(f"model solve ended {sol.status}; supply --solution")
        values = sol.values

    if args.mc:
        est = monte_carlo_check(model, uset, values, args.eps, args.delta, args.mc,
                                args.seed)
        if args.json:
            print(json.dumps({
                "method": "monte_carlo",
                "samples": est.samples,
                "violations": est.violations,
                "frequency": est.frequency,
                "ci_half_width": est.ci_half_width,
                "seed": est.seed,
                "per_constraint": {
                    model.constraints[cid].label: f
                    for cid, f in est.per_constraint.items()
                },
            }, indent=2, sort_keys=True))
        else:
            print(f"samples: {est.samples}")
            print(f"violation frequency: {est.frequency:.6f} "
                  f"(+/- {est.ci_half_width:.6f}, seed {est.seed})")
        return 0
    report = corner_check(model, uset, values, args.eps, args.delta)
    if args.json:
        print(json.dumps({
            "method": "corner",
            "corners_checked": report.corners_checked,
            "certified": report.certified,
            "worst_violation": {
                model.constraints[cid].label: v
                for cid, v in report.worst_violation.items()
            },
        }, indent=2, sort_keys=True))
    else:
        print(f"corners checked: {report.corners_checked}")
        worst = max(report.worst_violation.values(), default=0.0)
        print(f"worst violation: {worst:.6f}")
        print(f"certified: {'yes' if report.certified else 'no'}")
    return 0 if report.certified else 2


# -- entry point --------------------------------------------------------------------


def _add_robust_params(p):
    p.add_argument("--eps", default=0.05,
                   help="uncertainty level (default 0.05)")
    p.add_argument("--delta", default=0.0,
                   help="infeasibility tolerance (default 0)")
    p.add_argument("--kappa", default=0.14,
                   help="reliability level (default 0.14)")


def _add_solver_params(p):
    p.add_argument("--max-nodes", default=None,
                   help="branch-and-bound node limit")
    p.add_argument("--time-limit", default=None,
                   help="wall-clock limit in seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustcounter",
        description="Robust counterparts for mixed-integer linear programs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a model file", parents=[common])
    p.add_argument("model")
    _add_solver_params(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("robustify", help="derive a robust counterpart",
                       parents=[common])
    p.add_argument("model")
    p.add_argument("annotations")
    p.add_argument("--mode", choices=("irc", "rc"), default="irc")
    _add_robust_params(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_robustify)

    p = sub.add_parser("sitesel", help="build and solve a site-selection instance",
                       parents=[common])
    p.add_argument("instance", help="instance directory")
    p.add_argument("--mode", choices=("nominal", "irc", "rc"), default="nominal")
    _add_robust_params(p)
    p.add_argument("--exact-assignment", action="store_true",
                   help="assign each unit to exactly one site")
    _add_solver_params(p)
    p.set_defaults(func=cmd_sitesel)

    p = sub.add_parser("sweep", help="solve across an (eps, delta, kappa) grid",
                       parents=[common])
    p.add_argument("input", help="instance directory or model file")
    p.add_argument("grid", nargs="+",
                   help="e.g. eps=0:0.05:0.2 delta=0,0.1 kappa=1,0.14")
    p.add_argument("--annotations", help="required for model-file sweeps")
    p.add_argument("--mode", choices=("irc", "rc"), default="rc")
    p.add_argument("--exact-assignment", action="store_true")
    p.add_argument("--jobs", default=1,
                   help="parallel workers for sweep cells")
    _add_solver_params(p)
    p.add_argument("-o", "--output", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="check a solution against uncertainty",
                       parents=[common])
    p.add_argument("model", help="nominal model file")
    p.add_argument("annotations")
    p.add_argument("--solution", help="solution JSON (from solve --json); "
                   "defaults to solving the model itself")
    p.add_argument("--mc", metavar="N", default=0,
                   help="Monte Carlo estimation with N samples instead of the "
                   "corner check")
    p.add_argument("--eps", default=0.05)
    p.add_argument("--delta", default=0.0)
    p.add_argument("--seed", default=0,
                   help="Monte Carlo seed in [0, 2**64) (default 0)")
    _add_solver_params(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        for name, kind in _NUMBER_OPTIONS.items():
            if isinstance(text := getattr(args, name, None), str):
                setattr(args, name, _number("--" + name.replace("_", "-"), text, kind))
        return args.func(args)
    except (OSError, ValueError) as exc:  # every library input error is a ValueError
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
