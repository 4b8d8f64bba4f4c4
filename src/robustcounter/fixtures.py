"""Bundled demonstration data: models, a site-selection instance, and the
uncertain processing-time records used by the robust timing demos.

Everything here is deterministic and small enough to solve in milliseconds;
the demos, the test-suite, and the command-line examples all build on these.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Model
from .robustify import interval_robust_counterpart, symmetric_robust_counterpart
from .sitesel import (PopulationUnit, SiteCandidate, SiteSelectionInstance, build_irc,
                      build_nominal, build_rc)
from .uncertainty import RHS, Bounded, BoundedRange, Normal, UncertainSet


def demo_lp() -> Model:
    """Two-variable LP with optimum 12 at (4, 0)."""
    m = Model("demo_lp")
    x = m.add_variable("x")
    y = m.add_variable("y")
    m.set_objective("max", [(x, 3.0), (y, 2.0)])
    m.add_constraint([(x, 1.0), (y, 1.0)], "<=", 4.0, label="r1")
    m.add_constraint([(x, 1.0), (y, 3.0)], "<=", 6.0, label="r2")
    return m.finalize()


def demo_milp() -> Model:
    """Two-binary knapsack with optimum 5 at (1, 0)."""
    m = Model("demo_milp")
    a = m.add_variable("a", "binary")
    b = m.add_variable("b", "binary")
    m.set_objective("max", [(a, 5.0), (b, 4.0)])
    m.add_constraint([(a, 3.0), (b, 2.0)], "<=", 4.0, label="cap")
    return m.finalize()


def one_row_uncertain() -> tuple[Model, UncertainSet]:
    """Single-row model with both the coefficient and the budget uncertain."""
    m = Model("one_row")
    x = m.add_variable("x")
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1.0)], "<=", 10.0, label="cap")
    m.finalize()
    uset = UncertainSet([(0, x, Bounded()), (0, RHS, Bounded())])
    return m, uset


def tiny_instance(budget: float = 20.0) -> SiteSelectionInstance:
    """One unit, one site; open-or-infeasible depending on the budget."""
    return SiteSelectionInstance.with_all_uncertain(
        [PopulationUnit("u1", "Unit 1", 100)],
        [SiteCandidate("s1", "Site 1", 10.0, 0.1)],
        [[0.3]], budget, 10.0, 1,
    )


def demo_instance() -> SiteSelectionInstance:
    """Four population units, three candidate sites, binding budget.

    Sized so the robust budget row actually bites: the nominal optimum uses
    most of the budget, shrinking visibly as the uncertainty level grows and
    recovering as the infeasibility tolerance or the reliability level grows.
    """
    units = [
        PopulationUnit("u1", "Harbour", 120),
        PopulationUnit("u2", "Midtown", 90),
        PopulationUnit("u3", "Estates", 150),
        PopulationUnit("u4", "Island", 60),
    ]
    sites = [
        SiteCandidate("s1", "North campus", 55.0, 0.10),
        SiteCandidate("s2", "Central annex", 65.0, 0.12),
        SiteCandidate("s3", "South ward", 60.0, 0.15),
    ]
    probabilities = [
        [0.5, 0.3, 0.1],
        [0.2, 0.6, 0.1],
        [0.3, 0.2, 0.4],
        [0.1, 0.2, 0.6],
    ]
    return SiteSelectionInstance.with_all_uncertain(
        units, sites, probabilities, budget=150.0, min_enrollment=25.0,
        max_sites=3,
    )


@dataclass(frozen=True)
class TimingUncertaintyRecord:
    """One uncertain processing-time (or rate) parameter of the bundled
    scheduling case: which missions/units it belongs to, its nominal value,
    and its distribution (an explicit range or a normal fit)."""

    missions: str
    units: str
    nominal: float
    distribution: object


#: Uncertain processing times/rates of the bundled industrial scheduling case.
TIMING_UNCERTAINTY: tuple[TimingUncertaintyRecord, ...] = (
    TimingUncertaintyRecord("1", "4", 9.5, Normal(9.912, 0.523)),
    TimingUncertaintyRecord("7,10,13", "1-3", 6.09, Normal(6.153, 0.152)),
    TimingUncertaintyRecord("7,10,13", "4", 11.1, BoundedRange(10.1, 11.3)),
    TimingUncertaintyRecord("20", "3", 8.38, BoundedRange(8.00, 10.42)),
    TimingUncertaintyRecord("2", "7", 0.95, Normal(0.9611, 0.112)),
    TimingUncertaintyRecord("8,11,14,16", "5-6", 0.60, BoundedRange(0.344, 0.853)),
    TimingUncertaintyRecord("3,6", "9", 12.8, BoundedRange(10.5, 19.3)),
    TimingUncertaintyRecord("9,12,15,17", "9", 13.8, BoundedRange(12.0, 16.3)),
    TimingUncertaintyRecord("9,12,15,17", "10", 12.9, Normal(12.100, 0.760)),
)


def all_models() -> dict[str, Model]:
    """Registry of every bundled model, nominal and robust, for round-trip
    and pipeline-consistency checks."""
    one_row, uset = one_row_uncertain()
    inst = demo_instance()
    return {
        "demo_lp": demo_lp(),
        "demo_milp": demo_milp(),
        "one_row": one_row,
        "one_row_irc": interval_robust_counterpart(one_row, uset, 0.1, 0.05).model,
        "one_row_rc": symmetric_robust_counterpart(one_row, uset, 0.1, 0.05, 0.14).model,
        "sitesel_nominal": build_nominal(inst),
        "sitesel_irc": build_irc(inst, 0.05, 0.02),
        "sitesel_rc": build_rc(inst, 0.05, 0.02, 0.14),
    }
