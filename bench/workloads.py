"""The benchmark's three workloads: inputs, and the operations a pass runs.

Each ``setup_<workload>(root, seed)`` makes the workload's inputs through
the program and returns its fixed list of :class:`Op`.  An operation calls
the program only through module attributes (``solver.solve``,
``sitesel.build_rc``, ...) looked up at call time, so the traced run can
wrap them.  Operations return their outputs; checking happens after the
timed passes, in ``checks.py``.

The workload seed never changes how much work a pass does on ``hk_sweep``
and ``gen_milp``: it only orders the pass.  Their instances are fixed
because one 8x5 solve costs anywhere from 0.01 s to 2.6 s depending on
the generator seed, so a seed-drawn instance set would make ``pass_s`` measure
the seed.  On ``certify`` the seed draws the coefficients of the
corner-checked models, whose work depends only on their entry counts, and
every Monte Carlo stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from robustcounter import model as model_mod
from robustcounter import robustify, sitesel, solver, uncertainty, validate

HK_EPS = (0.0, 0.025, 0.05, 0.075, 0.1)
HK_DELTA = (0.0, 0.05, 0.1)
HK_KAPPA = (1.0, 0.5, 0.14)

# gen_milp: (units, sites) x generator seeds, each solved nominal and IRC
GEN_SIZES = ((6, 4), (7, 4), (7, 5), (8, 5))
GEN_SEEDS = tuple(range(4))
GEN_EPS, GEN_DELTA = 0.05, 0.02
GEN_MIN_ENROLLMENT = 25.0

MC_SAMPLES = 100_000

# fault named for the certify operations that are expected to fail
PER_ENTRY_FAULT = ("interval_robust_counterpart ignores per-entry "
                   "'bounded eps_j' and 'range' tags and uses the global eps")


@dataclass
class Op:
    key: str
    run: Callable[[], dict]
    spec: object = None
    expect_fault: str | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    data: dict = field(default_factory=dict)


def _order(ops: list[Op], seed: int) -> list[Op]:
    random.Random(seed).shuffle(ops)
    return ops


def _solution_record(mdl, sol) -> dict:
    return {
        "model": mdl,
        "status": sol.status,
        "objective": sol.objective,
        "values": sol.values,
        "nodes": sol.stats.nodes,
        "lp_iters": sol.stats.iterations,
        "cone_cuts": sol.stats.cone_cuts,
    }


# -- hk_sweep ----------------------------------------------------------------


def setup_hk_sweep(root, seed: int) -> Workload:
    inst = sitesel.load_instance(root / "demos" / "data" / "hk_demo")

    def cell(eps, delta, kappa):
        def run():
            mdl = sitesel.build_rc(inst, eps, delta, kappa)
            return _solution_record(mdl, solver.solve(mdl))
        return run

    ops = [Op(f"rc_e{e}_d{d}_k{k}", cell(e, d, k), spec=(e, d, k))
           for e in HK_EPS for d in HK_DELTA for k in HK_KAPPA]
    return Workload("hk_sweep", _order(ops, seed))


# -- gen_milp ----------------------------------------------------------------


def generate_instance(units: int, sites: int, gen_seed: int):
    """Seeded m x n site-selection instance.

    Populations 40-200, fixed costs 40-90, variable costs 0.05-0.2 per
    person, Dirichlet(1) choice probabilities, budget ``0.45 * sum(f) + 20``,
    ``max_sites = n // 2``, every cost and the budget uncertain.
    """
    rng = np.random.default_rng([units, sites, gen_seed])
    unit_list = [sitesel.PopulationUnit(f"u{i}", f"unit {i}",
                                        float(rng.integers(40, 201)))
                 for i in range(units)]
    site_list = [sitesel.SiteCandidate(f"s{j}", f"site {j}",
                                       float(rng.integers(40, 91)),
                                       round(float(rng.uniform(0.05, 0.2)), 3))
                 for j in range(sites)]
    probabilities = rng.dirichlet(np.ones(sites), size=units)
    budget = 0.45 * sum(s.fixed_cost for s in site_list) + 20.0
    return sitesel.SiteSelectionInstance.with_all_uncertain(
        unit_list, site_list, probabilities, budget, GEN_MIN_ENROLLMENT,
        sites // 2)


def setup_gen_milp(root, seed: int) -> Workload:
    ops = []
    instances = {}
    for m, n in GEN_SIZES:
        for g in GEN_SEEDS:
            inst = generate_instance(m, n, g)
            instances[(m, n, g)] = inst

            def nominal(inst=inst):
                mdl = sitesel.build_nominal(inst)
                return _solution_record(mdl, solver.solve(mdl))

            def irc(inst=inst):
                mdl = sitesel.build_irc(inst, GEN_EPS, GEN_DELTA)
                return _solution_record(mdl, solver.solve(mdl))

            ops.append(Op(f"nominal_{m}x{n}_g{g}", nominal, spec=(m, n, g, "nominal")))
            ops.append(Op(f"irc_{m}x{n}_g{g}", irc, spec=(m, n, g, "irc")))
    return Workload("gen_milp", _order(ops, seed), {"instances": instances})


# -- certify -----------------------------------------------------------------


@dataclass
class RowSpec:
    """One row of a certify model, as the oracles read it."""

    label: str
    coeffs: dict[str, float]
    sense: str
    rhs: float
    # variable name or "RHS" -> tag, as (kind, args) with kind in
    # bounded / range / normal / uniform
    tags: dict[str, tuple] = field(default_factory=dict)


@dataclass
class CertifySpec:
    name: str
    mode: str                       # "irc" or "rc"
    variables: dict[str, tuple[str, float, float]]
    objective: dict[str, float]
    rows: list[RowSpec]
    epsilon: float
    delta: float
    kappa: float = 1.0
    corner: bool = False
    mc_seed: int | None = None
    model_text: str = ""
    annotation_text: str = ""


def _tag(kind, args):
    if kind == "bounded":
        return uncertainty.Bounded(*args)
    if kind == "range":
        return uncertainty.BoundedRange(*args)
    if kind == "normal":
        return uncertainty.Normal(*args)
    return uncertainty.Uniform()


def _render(spec: CertifySpec) -> CertifySpec:
    """Write the spec as model text and annotation text through the program."""
    m = model_mod.Model(spec.name)
    ids = {name: m.add_variable(name, kind, lo, hi)
           for name, (kind, lo, hi) in spec.variables.items()}
    m.set_objective("max", [(ids[n], c) for n, c in spec.objective.items()])
    uset = uncertainty.UncertainSet()
    for row in spec.rows:
        cid = m.add_constraint([(ids[n], c) for n, c in row.coeffs.items()],
                               row.sense, row.rhs, label=row.label)
        for target, (kind, args) in row.tags.items():
            uset.add(cid, uncertainty.RHS if target == "RHS" else ids[target],
                     _tag(kind, args))
    m.finalize()
    spec.model_text = model_mod.export_text(m)
    spec.annotation_text = uncertainty.format_annotations(uset, m)
    return spec


def _random_spec(rng, name, mode, n_coef, kind, epsilon, delta, kappa=1.0,
                 corner=False, mc_seed=None) -> CertifySpec:
    """A continuous LP: one ``cap`` row whose first ``n_coef`` coefficients
    and right-hand side carry ``kind`` tags, plus certain pairwise rows.
    Values are drawn at 4 decimals so that both text formats carry them
    exactly."""
    n = n_coef + 2
    names = [f"x{i}" for i in range(n)]
    variables = {v: ("continuous", 0.0, 10.0) for v in names}
    objective = {v: round(float(rng.uniform(0.5, 3.0)), 4) for v in names}
    coeffs = {v: round(float(rng.uniform(0.5, 3.0)), 4) for v in names}
    cap = round(float(rng.uniform(0.25, 0.5)) * 10.0 * sum(coeffs.values()), 4)
    tag = (kind, (0.0, 1.0) if kind == "normal" else ())
    tags = {v: tag for v in names[:n_coef] + ["RHS"]}
    rows = [RowSpec("cap", coeffs, "<=", cap, tags)]
    for i in range(0, n - 1, 2):
        a, b = names[i], names[i + 1]
        rows.append(RowSpec(f"pair{i}", {a: 1.0, b: 1.0}, "<=",
                            round(float(rng.uniform(6.0, 14.0)), 4)))
    return _render(CertifySpec(name, mode, variables, objective, rows,
                               epsilon, delta, kappa, corner, mc_seed))


def _entry_tag_specs() -> list[CertifySpec]:
    """Fixed models whose per-entry tags are wider than the global eps."""
    one = ("continuous", 0.0, float("inf"))
    return [
        # x <= 10, x bounded 0.2, RHS bounded, eps 0.1: the IRC returns
        # 9/1.1 = 8.18 where 7.5 is robust, a corner violation of 0.818
        _render(CertifySpec(
            "entry_bounded", "irc", {"x": one}, {"x": 1.0},
            [RowSpec("cap", {"x": 1.0}, "<=", 10.0,
                     {"x": ("bounded", (0.2,)), "RHS": ("bounded", ())})],
            0.1, 0.0, corner=True)),
        _render(CertifySpec(
            "entry_range", "irc", {"x": one, "y": one}, {"x": 3.0, "y": 2.0},
            [RowSpec("cap", {"x": 2.0, "y": 1.0}, "<=", 12.0,
                     {"x": ("range", (1.5, 2.8)), "y": ("bounded", ())}),
             RowSpec("side", {"y": 1.0}, "<=", 4.0)],
            0.1, 0.0, corner=True)),
        _render(CertifySpec(
            "entry_mixed", "irc", {"x": one, "y": one, "z": one},
            {"x": 2.0, "y": 1.0, "z": 1.5},
            [RowSpec("cap", {"x": 1.0, "y": 1.0, "z": 2.0}, "<=", 20.0,
                     {"x": ("bounded", (0.3,)), "y": ("bounded", ()),
                      "z": ("range", (1.0, 2.5)), "RHS": ("bounded", ())}),
             RowSpec("cx", {"x": 1.0}, "<=", 8.0),
             RowSpec("cy", {"y": 1.0}, "<=", 6.0)],
            0.05, 0.0, corner=True)),
    ]


# entry counts of the corner-checked IRC models (coefficients + RHS); the
# corner enumeration is 2^k per row, capped by the program at 20 entries
CORNER_ENTRIES = (8, 9, 10, 11, 12, 12, 13, 13, 14, 14, 15, 15, 16, 16,
                  17, 18, 19)


# the reliability models are drawn from a fixed stream: their cone rounds
# range from 1 to 28 with the coefficients, so seed-drawn ones would make
# pass_s measure the seed; the workload seed still draws their MC streams
RC_STREAM = 20231018


def setup_certify(root, seed: int) -> Workload:
    rng = np.random.default_rng([seed, 7])
    specs = []
    for i, k in enumerate(CORNER_ENTRIES):
        eps = (0.05, 0.1)[i % 2]
        delta = (0.0, 0.02)[(i // 2) % 2]
        mc = int(rng.integers(1 << 31)) if i % 3 == 0 else None
        specs.append(_random_spec(rng, f"irc{i}_k{k}", "irc", k - 1, "bounded",
                                  eps, delta, corner=True, mc_seed=mc))
    rc_rng = np.random.default_rng(RC_STREAM)
    for i in range(8):
        n_coef = 6 + 2 * (i % 4)
        kind = ("normal", "uniform")[i % 2]
        specs.append(_random_spec(
            rc_rng, f"rc{i}_{kind}{n_coef}", "rc", n_coef, kind,
            0.1, 0.0, kappa=(0.05, 0.14)[(i // 2) % 2],
            mc_seed=int(rng.integers(1 << 31))))
    ops = [Op(s.name, _certify_run(s), spec=s) for s in specs]
    ops += [Op(s.name, _certify_run(s), spec=s, expect_fault=PER_ENTRY_FAULT)
            for s in _entry_tag_specs()]
    return Workload("certify", _order(ops, seed))


def _certify_run(spec: CertifySpec):
    def run():
        nominal = model_mod.import_text(spec.model_text)
        uset = uncertainty.parse_annotations(spec.annotation_text, nominal)
        if spec.mode == "irc":
            art = robustify.interval_robust_counterpart(
                nominal, uset, spec.epsilon, spec.delta)
        else:
            art = robustify.symmetric_robust_counterpart(
                nominal, uset, spec.epsilon, spec.delta, spec.kappa)
        text = model_mod.export_text(art.model)
        sol = solver.solve(art.model)
        rec = _solution_record(art.model, sol)
        rec.update(nominal=nominal, text=text, corner=None, mc=None)
        if sol.status != "optimal":
            return rec
        point = {v.id: sol.values[v.id] for v in nominal.variables}
        if spec.corner:
            rec["corner"] = validate.corner_check(
                nominal, uset, point, spec.epsilon, spec.delta)
        if spec.mc_seed is not None:
            rec["mc"] = validate.monte_carlo_check(
                nominal, uset, point, spec.epsilon, spec.delta, MC_SAMPLES,
                spec.mc_seed)
        return rec
    return run


SETUPS = {
    "hk_sweep": setup_hk_sweep,
    "gen_milp": setup_gen_milp,
    "certify": setup_certify,
}
