"""Robust counterparts for mixed-integer linear programs.

Build a nominal model, tag uncertain coefficients, derive the bounded- or
reliability-level robust counterpart mechanically, solve it with the embedded
simplex / branch-and-bound / cone-cut solver, and verify the robustness claim
by an exact worst-corner check or Monte Carlo estimation::

    from robustcounter import (
        Model, UncertainSet, Bounded, RHS,
        interval_robust_counterpart, solve, corner_check,
    )

    m = Model()
    x = m.add_variable("x")
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1.0)], "<=", 10.0, label="cap")
    m.finalize()

    uset = UncertainSet([(0, x, Bounded()), (0, RHS, Bounded())])
    robust = interval_robust_counterpart(m, uset, epsilon=0.1, delta=0.0)
    best = solve(robust.model)
    report = corner_check(m, uset, best.values, 0.1, 0.0)
    assert report.certified
"""

from .model import (
    CONE_CUT_TOL,
    FEASIBILITY_TOL,
    INF,
    INTEGRALITY_TOL,
    ConeTerm,
    Constraint,
    LinExpr,
    Model,
    ModelError,
    ParseError,
    Solution,
    SolverStats,
    StandardFormLP,
    Variable,
    export_text,
    import_text,
    to_standard_form,
)
from .robustify import (
    CounterpartArtifacts,
    TimingConstraintTemplate,
    interval_robust_counterpart,
    robust_timing_bounded,
    robust_timing_normal,
    symmetric_robust_counterpart,
)
from .sitesel import (
    InstanceError,
    PopulationUnit,
    SiteCandidate,
    SiteSelectionInstance,
    budget_uncertain_set,
    build_irc,
    build_nominal,
    build_rc,
    load_instance,
    write_instance,
)
from .solver import (
    SolverError,
    SolverOptions,
    solve,
    solve_cone,
    solve_milp,
)
from .uncertainty import (
    RHS,
    Binomial,
    Bounded,
    BoundedRange,
    Discrete,
    Normal,
    Poisson,
    UncertainEntry,
    UncertainSet,
    Uniform,
    bounded_interval,
    deviation_radius,
    discrete_deviation,
    format_annotations,
    normal_lambda,
    omega_from_kappa,
    parse_annotations,
)
from .validate import (
    CornerReport,
    SweepRow,
    ViolationEstimate,
    corner_check,
    monte_carlo_check,
    sweep,
    write_sweep_csv,
)

__version__ = "0.1.0"
