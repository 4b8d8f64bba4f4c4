"""Command-line surface: solve model files, derive robust counterparts,
build and solve site-selection instances, run parameter sweeps, and validate
solutions against uncertainty.

Exit codes: 0 optimal/success, 1 rejected input or unreadable/unwritable
file (reported once, by :func:`main`, as ``error: ...``), 2 infeasible (or
certification failure), 3 unbounded, 4 limit reached.  All floating-point
output is printed with 6 decimals; CSV files carry full precision.  The
``--json`` flag mirrors every report's record, field by field.  The Monte
Carlo seed is ``--seed``, 0 unless given.  An option never read is rejected.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
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
from .uncertainty import UncertainSet, parse_annotations
from .validate import corner_check, monte_carlo_check, sweep, write_sweep_csv

_STATUS_EXIT = {"optimal": 0, "infeasible": 2, "unbounded": 3, "limit_reached": 4}
_MAX_GRID = 10_000  # values on one sweep axis, and cells in one sweep grid
# numeric options, read in `main` as model text reads numbers: a bad one is one error line
_NUMBER_OPTIONS = {"eps": float, "delta": float, "kappa": float, "time_limit": float,
                   "max_nodes": int, "jobs": int, "mc": int, "seed": int}
# the levels each mode reads and their defaults (validate's checks read irc's)
_LEVELS = {"nominal": {}, "irc": {"eps": 0.05, "delta": 0.0},
           "rc": {"eps": 0.05, "delta": 0.0, "kappa": 0.14}}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _number(key: str, text: str, kind=float):
    try:
        return _read_number(text.strip(), kind)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _read_model(path) -> Model:
    return import_text(Path(path).read_text(encoding="utf-8"))


def _read_annotations(path, model: Model) -> UncertainSet:
    return parse_annotations(Path(path).read_text(encoding="utf-8"), model)


def _solver_options(args) -> SolverOptions:
    limits = {"max_nodes": args.max_nodes, "time_limit_seconds": args.time_limit}
    return SolverOptions(**{k: v for k, v in limits.items() if v is not None})


def _levels(args, mode: str) -> dict[str, float]:
    """The levels ``mode`` reads (:data:`_LEVELS`), each given or at its
    default; a level option the mode never reads is rejected."""
    for key in ("eps", "delta", "kappa"):
        if key not in _LEVELS[mode] and getattr(args, key, None) is not None:
            raise ValueError(f"--{key}: --mode {mode} never reads {key}")
    return {key: default if getattr(args, key) is None else getattr(args, key)
            for key, default in _LEVELS[mode].items()}


def _print_solution(model: Model, sol, as_json: bool):
    if as_json:  # JSON spells no inf or NaN: such an objective is null
        print(json.dumps({
            **asdict(sol),
            "objective": sol.objective if math.isfinite(sol.objective) else None,
            "values": {model.variables[v].name: val for v, val in sol.values.items()},
        }, indent=2, sort_keys=True))
        return
    print(f"status: {sol.status}")
    if not math.isnan(sol.objective):
        print(f"objective: {sol.objective:.6f}")
    for v, val in sorted(sol.values.items()):
        if abs(val) > 1e-9:
            print(f"  {model.variables[v].name} = {val:.6f}")


def _counterpart(source, mode: str, exact: bool, eps: float | None = None,
                 delta: float | None = None, kappa: float | None = None) -> Model:
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
    levels = _levels(args, args.mode)  # before any file is read
    model = _read_model(args.model)
    uset = _read_annotations(args.annotations, model)
    robust = _counterpart((model, uset), args.mode, False, **levels)
    Path(args.output).write_text(export_text(robust), encoding="utf-8")
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
    levels = _levels(args, args.mode)
    instance = load_instance(args.instance)
    model = _counterpart(instance, args.mode, args.exact_assignment, **levels)
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
            "stats": asdict(sol.stats),
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
    given = set()
    for token in tokens:
        if "=" not in token:
            raise ValueError(f"grid token {token!r} is not key=values")
        key, spec = token.split("=", 1)
        key = key.strip()
        if key == "epsilon":
            key = "eps"
        if key not in axes:
            raise ValueError(f"unknown grid axis {key!r} (use eps/delta/kappa)")
        if key in given:
            raise ValueError(f"grid axis {key!r} is given twice, again in {token!r}")
        given.add(key)
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
    kappas = list(dict.fromkeys(k for _, _, k in grid))
    if "kappa" not in _LEVELS[args.mode] and kappas != [1.0]:
        raise ValueError(f"kappa: --mode {args.mode} never reads kappa, got {kappas}")
    path = Path(args.input)
    if path.is_dir():
        if args.annotations is not None:
            raise ValueError(f"--annotations: {args.input} is an instance directory")
        source = load_instance(path)
    else:
        if args.exact_assignment:
            raise ValueError(f"--exact-assignment: {args.input} is a model file")
        model = _read_model(path)
        if not args.annotations:
            raise ValueError("model-file sweeps need --annotations")
        uset = _read_annotations(args.annotations, model)
        source = (model, uset)
    build = functools.partial(_counterpart, source, args.mode,
                              args.exact_assignment)
    rows = sweep(build, grid, _solver_options(args), args.jobs)
    nominal_objective = rows[0].nominal_objective
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
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
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("solution file must hold a JSON object")
    by_name = payload.get("values")
    if not isinstance(by_name, dict):  # a bare object, unless "values" names no variable
        if "values" in payload and not any(v.name == "values" for v in model.variables):
            raise ValueError("solution values must be a JSON object")
        by_name = payload
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
    eps, delta = _levels(args, "irc").values()
    if args.seed is not None and not args.mc:
        raise ValueError("--seed: only --mc reads the seed")
    if args.solution and (args.max_nodes, args.time_limit) != (None, None):
        option = "--max-nodes" if args.max_nodes is not None else "--time-limit"
        raise ValueError(f"{option}: --solution is checked, not solved")
    model = _read_model(args.model)
    uset = _read_annotations(args.annotations, model)
    if args.solution:
        values = _load_solution_values(args.solution, model)
    else:
        sol = solve(model, _solver_options(args))
        if sol.status != "optimal":
            raise ValueError(f"model solve ended {sol.status}; supply --solution")
        values = sol.values

    if args.mc:
        est = monte_carlo_check(model, uset, values, eps, delta, args.mc,
                                args.seed or 0)
        if args.json:
            print(json.dumps({
                **asdict(est),
                "method": "monte_carlo",
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
    report = corner_check(model, uset, values, eps, delta)
    if args.json:
        print(json.dumps({
            **asdict(report),
            "method": "corner",
            "worst_violation": {
                model.constraints[cid].label: v
                for cid, v in report.worst_violation.items()
            },
        }, indent=2, sort_keys=True))
    else:
        print(f"uncertain entries: {report.entries} (the worst of 2**{report.entries} corners)")
        worst = max(report.worst_violation.values(), default=0.0)
        print(f"worst violation: {worst:.6f}")
        print(f"certified: {'yes' if report.certified else 'no'}")
    return 0 if report.certified else 2


# -- entry point --------------------------------------------------------------------


def _add_robust_params(p, kappa=True):
    p.add_argument("--eps", help="uncertainty level (default 0.05)")
    p.add_argument("--delta", help="infeasibility tolerance (default 0)")
    if kappa:
        p.add_argument("--kappa", help="reliability level, --mode rc only (default 0.14)")


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
    _add_robust_params(p, kappa=False)
    p.add_argument("--seed", help="Monte Carlo seed in [0, 2**64) (default 0)")
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
