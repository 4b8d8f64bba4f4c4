"""Hospital site-selection model family.

Builds the nominal expected-utilization maximization (open at most S sites
under a budget, an enrollment floor per open site, and full assignment of
population units) plus its two robust variants:

* interval robust budget row, the interval counterpart of the nominal model:
  uncertain fixed and variable costs inflated to ``(1 + eps)`` times nominal
  against the worst-case budget ``(1 - eps + delta) * C``;
* reliability-level robust budget row carrying a square-root cone over the
  uncertain fixed/variable cost blocks with the squared budget inside the
  radical and right-hand side ``(1 + delta) * C``.

An instance checks its data once, on construction, and then carries the
expected utilizations ``u[i, j] = population_i * p[i, j]`` as one array,
``SiteSelectionInstance.utilization``, which every builder reads.  All
builders are pure functions over immutable instances.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .model import _NAME_RE, ConeTerm, Model, _num, _read_number
from .robustify import interval_robust_counterpart
from .uncertainty import (RHS, Bounded, UncertainSet, _is_int, check_levels,
                          omega_from_kappa)

_ID_OK = _NAME_RE.fullmatch  # ids become parts of variable names and labels


class InstanceError(ValueError):
    """Raised when instance data violates its invariants; names the culprit."""


def _check_ids(units, sites) -> None:
    """Each unit and each site has its own ASCII identifier."""
    for kind, records in (("unit", units), ("site", sites)):
        seen = set()
        for r in records:
            if not _ID_OK(r.id):
                raise InstanceError(f"{kind} id {r.id!r} is not an ASCII identifier")
            if r.id in seen:
                raise InstanceError(f"{kind} id {r.id!r} is repeated")
            seen.add(r.id)


@dataclass(frozen=True)
class PopulationUnit:
    id: str
    name: str
    population: float

    def __post_init__(self):
        if not 0 <= self.population < math.inf:
            raise InstanceError(f"unit {self.id!r}: population must be finite and "
                                f"nonnegative, got {self.population}")


@dataclass(frozen=True)
class SiteCandidate:
    id: str
    name: str
    fixed_cost: float
    variable_cost: float

    def __post_init__(self):
        for name, cost in (("fixed", self.fixed_cost), ("variable", self.variable_cost)):
            if not 0 <= cost < math.inf:
                raise InstanceError(f"site {self.id!r}: {name} cost must be finite "
                                    f"and nonnegative, got {cost}")


@dataclass(frozen=True)
class SiteSelectionInstance:
    units: tuple[PopulationUnit, ...]
    sites: tuple[SiteCandidate, ...]
    probabilities: np.ndarray
    budget: float
    min_enrollment: float
    max_sites: int
    uncertain_fixed: tuple[int, ...] = ()     # site indices with uncertain f
    uncertain_variable: tuple[int, ...] = ()  # site indices with uncertain v
    # expected utilizations u[i, j] = population_i * p[i, j], set from checked data
    utilization: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = np.array(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", p)
        m, n = len(self.units), len(self.sites)
        if p.shape != (m, n):
            raise InstanceError(
                f"probability matrix shape {p.shape} does not match "
                f"{m} units x {n} sites"
            )
        bad = np.argwhere(~((p >= 0) & (p <= 1)))  # NaN too
        if bad.size:
            i, j = bad[0]
            raise InstanceError(
                f"probability p[{self.units[i].id},{self.sites[j].id}] = "
                f"{p[i, j]} outside [0, 1]"
            )
        rowsum = p.sum(axis=1)
        over = np.argwhere(rowsum > 1.0 + 1e-9)
        if over.size:
            i = over[0][0]
            raise InstanceError(
                f"unit {self.units[i].id!r}: site probabilities sum to "
                f"{rowsum[i]:.6g} > 1 (a person picks at most one site)"
            )
        if not (_is_int(self.max_sites) and self.max_sites >= 1):
            raise InstanceError(f"max_sites must be an integer of at least 1, "
                                f"got {self.max_sites!r}")
        if not 1.0 < self.budget < math.inf:
            raise InstanceError(f"budget must be finite and exceed 1 (the slack "
                                f"allowance max{{1, C}} must equal C), got {self.budget}")
        if not 0 <= self.min_enrollment < math.inf:
            raise InstanceError(f"min_enrollment must be finite and nonnegative, "
                                f"got {self.min_enrollment}")
        for key in ("uncertain_fixed", "uncertain_variable"):
            indices = getattr(self, key)
            if not all(_is_int(j) and 0 <= j < n for j in indices):
                raise InstanceError(f"{key} must hold integer site indices in "
                                    f"[0, {n}), got {indices}")
            if len(set(indices)) != len(indices):
                raise InstanceError(f"{key} repeats a site index: {indices}")
        _check_ids(self.units, self.sites)
        util = np.asarray([u.population for u in self.units], dtype=float)[:, None] * p
        p.flags.writeable = util.flags.writeable = False  # stay as checked
        object.__setattr__(self, "utilization", util)

    @staticmethod
    def with_all_uncertain(units, sites, probabilities, budget, min_enrollment,
                           max_sites) -> "SiteSelectionInstance":
        """Default uncertain sets: all fixed and variable costs (plus budget)."""
        n = len(sites)
        return SiteSelectionInstance(
            tuple(units), tuple(sites), probabilities, budget, min_enrollment,
            max_sites, tuple(range(n)), tuple(range(n)),
        )


# -- model builders -------------------------------------------------------------


def _base_model(instance: SiteSelectionInstance, name: str,
                exact_assignment: bool):
    u = instance.utilization
    m = Model(name)
    x_ids = {}
    y_ids = {}
    for j, site in enumerate(instance.sites):
        y_ids[j] = m.add_variable(f"y_{site.id}", "binary")
    for i, unit in enumerate(instance.units):
        for j, site in enumerate(instance.sites):
            x_ids[(i, j)] = m.add_variable(f"x_{unit.id}_{site.id}", "binary")
    m.set_objective(
        "max",
        [(x_ids[(i, j)], u[i, j])
         for i in range(len(instance.units))
         for j in range(len(instance.sites))],
    )
    budget_terms = [(y_ids[j], site.fixed_cost)
                    for j, site in enumerate(instance.sites)]
    budget_terms += [
        (x_ids[(i, j)], site.variable_cost * u[i, j])
        for i in range(len(instance.units))
        for j, site in enumerate(instance.sites)
    ]
    m.add_constraint(budget_terms, "<=", instance.budget, label="budget")
    for j, site in enumerate(instance.sites):
        terms = [(x_ids[(i, j)], u[i, j]) for i in range(len(instance.units))]
        terms.append((y_ids[j], -instance.min_enrollment))
        m.add_constraint(terms, ">=", 0.0, label=f"enroll_{site.id}")
    sense = "=" if exact_assignment else ">="
    for i, unit in enumerate(instance.units):
        m.add_constraint(
            [(x_ids[(i, j)], 1.0) for j in range(len(instance.sites))],
            sense, 1.0, label=f"assign_{unit.id}",
        )
    m.add_constraint(
        [(y_ids[j], 1.0) for j in range(len(instance.sites))],
        "<=", float(instance.max_sites), label="cardinality",
    )
    # linking keeps the enrollment floor honest: without it an assignment to a
    # closed site would dodge the floor entirely
    for i, unit in enumerate(instance.units):
        for j, site in enumerate(instance.sites):
            m.add_constraint(
                [(x_ids[(i, j)], 1.0), (y_ids[j], -1.0)], "<=", 0.0,
                label=f"link_{unit.id}_{site.id}",
            )
    return m, x_ids, y_ids


def build_nominal(instance: SiteSelectionInstance,
                  exact_assignment: bool = False) -> Model:
    """Nominal site-selection model: maximize total expected utilization.

    ``exact_assignment`` switches the per-unit cover rows from ``>= 1`` (as
    printed) to ``== 1`` (one and only one site per unit).
    """
    m, _, _ = _base_model(instance, "sitesel_nominal", exact_assignment)
    return m.finalize()


def build_irc(instance: SiteSelectionInstance, epsilon: float, delta: float,
              exact_assignment: bool = False) -> Model:
    """Nominal model plus the bounded-uncertainty robust budget row.

    The interval counterpart of the nominal model under
    :func:`budget_uncertain_set`: every binary is nonnegative, so the robust
    row charges uncertain fixed and variable costs at ``(1 + eps)`` times
    nominal, with no auxiliaries, against the worst-case budget
    ``(1 - eps + delta) * C``.
    """
    nominal = build_nominal(instance, exact_assignment)
    uset = budget_uncertain_set(instance, nominal)
    return interval_robust_counterpart(nominal, uset, epsilon, delta).model


def build_rc(instance: SiteSelectionInstance, epsilon: float, delta: float,
             kappa: float, exact_assignment: bool = False) -> Model:
    """Nominal model plus the reliability-level robust budget row.

    The robust row is the nominal ``budget`` row's terms plus, per uncertain
    fixed cost, the linear protection ``eps * |f_j| * l_j`` and a
    free cone auxiliary ``z_j`` linked by ``-l_j <= y_j - z_j <= l_j``;
    uncertain variable costs enter the radical through one per-site auxiliary
    pinned to the site's expected enrollment (scaled by the column total), as
    the formulation carries no linear protection for that block.  The radical
    constant is the squared budget and the right-hand side is
    ``(1 + delta) * C`` with the cone weighted by ``eps * omega``.

    This is not the symmetric counterpart of the nominal model under
    :func:`budget_uncertain_set`: that one gives every variable-cost entry
    its own cone component and its own linear protection ``eps |a| u``,
    while this row aggregates each site's variable-cost block into one cone
    component and gives the block no linear protection.
    """
    check_levels(epsilon, delta, InstanceError)
    omega = omega_from_kappa(kappa)
    m, x_ids, y_ids = _base_model(instance, "sitesel_rc", exact_assignment)
    u = instance.utilization
    terms = list(m.constraint_by_label("budget").lhs.terms)
    cone_components = []
    for j in instance.uncertain_fixed:
        site = instance.sites[j]
        l = m.add_variable(f"l_{site.id}", "continuous", 0.0)
        z = m.add_variable(f"z_{site.id}", "continuous", -math.inf, math.inf)
        terms.append((l, epsilon * abs(site.fixed_cost)))
        cone_components.append((z, site.fixed_cost))
        for sign, side in ((1.0, "up"), (-1.0, "lo")):
            m.add_constraint([(y_ids[j], sign), (z, -sign), (l, -1.0)], "<=", 0.0,
                             label=f"budget__rc_lnk_{site.id}_{side}")
    col_totals = u.sum(axis=0)
    for j in instance.uncertain_variable:
        site = instance.sites[j]
        if col_totals[j] <= 0.0:
            continue  # zero expected enrollment: the block contributes nothing
        zx = m.add_variable(f"zv_{site.id}", "continuous", -math.inf, math.inf)
        cone_components.append((zx, site.variable_cost * col_totals[j]))
        link = [(x_ids[(i, j)], u[i, j]) for i in range(len(instance.units))]
        link.append((zx, -col_totals[j]))
        m.add_constraint(link, "=", 0.0, label=f"budget__rc_lnk_{site.id}_v")
    cone = ConeTerm.from_components(
        epsilon * omega, cone_components, instance.budget ** 2
    )
    m.add_constraint(terms, "<=", (1.0 + delta) * instance.budget,
                     label="budget__rc", cone=cone)
    return m.finalize()


def budget_uncertain_set(instance: SiteSelectionInstance, model: Model
                         ) -> UncertainSet:
    """Uncertain entries on the budget row of a built model.

    Fixed costs for sites in the uncertain-fixed set, per-assignment
    variable-cost coefficients for the uncertain-variable set, and the
    budget itself on the right-hand side, all at the global level:
    :func:`build_irc` is the interval counterpart under this set.
    """
    budget = model.constraint_by_label("budget")
    uset = UncertainSet()
    for j in instance.uncertain_fixed:
        var = model.variable_by_name(f"y_{instance.sites[j].id}")
        uset.add(budget.id, var.id, Bounded())
    u = instance.utilization
    for j in instance.uncertain_variable:
        for i, unit in enumerate(instance.units):
            if u[i, j] == 0.0:
                continue  # zero coefficient carries no deviation
            var = model.variable_by_name(f"x_{unit.id}_{instance.sites[j].id}")
            uset.add(budget.id, var.id, Bounded())
    uset.add(budget.id, RHS, Bounded())
    return uset


# -- instance files ---------------------------------------------------------------
#
# A directory with:
#   units.csv   the fields of PopulationUnit: id,name,population
#   sites.csv   the fields of SiteCandidate: id,name,fixed_cost,variable_cost
#   prob.csv    header `id,<site ids...>`; one row per unit
#   config.txt  one key=value line per _SETTINGS entry, each key once
#
# Ids and numbers are read stripped; names are kept as written.

# config.txt: the instance field each key sets, read as a number of its kind,
# or as site ids (`all`, the default, names every site) for a tuple
_SETTINGS = {"budget": float, "min_enrollment": float, "max_sites": int,
             "uncertain_fixed": tuple, "uncertain_variable": tuple}


def _read_csv(path: Path, expected: list[str]):
    if not path.exists():
        raise InstanceError(f"missing instance file {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InstanceError(f"{path.name}: empty file") from None
        header = [h.strip() for h in header]
        if header != expected:
            raise InstanceError(
                f"{path.name}: expected header {','.join(expected)}, "
                f"got {','.join(header)}"
            )
        return [row for row in reader if any(cell.strip() for cell in row)]


def _float(path_name: str, row_id: str, field_name: str, raw: str) -> float:
    try:
        return _read_number(raw.strip())
    except ValueError:
        raise InstanceError(
            f"{path_name}: {field_name} for {row_id!r} is not a number: {raw!r}"
        ) from None


def _read_records(path: Path, record) -> list:
    """The rows of ``path`` as ``record``s; its columns are the record's
    fields, an id, a name and numbers."""
    columns = [f.name for f in fields(record)]
    records = []
    for row in _read_csv(path, columns):
        if len(row) != len(columns):
            raise InstanceError(f"{path.name}: malformed row {row}")
        rid, name, *numbers = row
        rid = rid.strip()
        records.append(record(rid, name, *(_float(path.name, rid, column, raw.strip())
                                           for column, raw in zip(columns[2:], numbers))))
    return records


def _write_records(path: Path, record, records) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(f.name for f in fields(record))
        for r in records:
            rid, name, *numbers = astuple(r)
            w.writerow([rid, name, *map(_num, numbers)])


def load_instance(path) -> SiteSelectionInstance:
    """Load and validate a site-selection instance directory."""
    root = Path(path)
    if not root.is_dir():
        raise InstanceError(f"instance directory {root} does not exist")
    units = _read_records(root / "units.csv", PopulationUnit)
    sites = _read_records(root / "sites.csv", SiteCandidate)
    _check_ids(units, sites)  # before prob.csv is keyed by them
    site_index = {s.id: j for j, s in enumerate(sites)}
    unit_index = {u.id: i for i, u in enumerate(units)}

    p = np.zeros((len(units), len(sites)))
    seen = set()
    for row in _read_csv(root / "prob.csv", ["id", *site_index]):
        uid = row[0].strip()
        if uid not in unit_index:
            raise InstanceError(f"prob.csv: unknown unit id {uid!r}")
        if uid in seen:
            raise InstanceError(f"prob.csv: duplicate row for unit {uid!r}")
        seen.add(uid)
        if len(row) != len(sites) + 1:
            raise InstanceError(f"prob.csv: row for {uid!r} has {len(row) - 1} "
                                f"probabilities for {len(sites)} sites")
        for j, cell in enumerate(row[1:]):
            p[unit_index[uid], j] = _float("prob.csv", uid, f"p[{uid},{sites[j].id}]", cell)
    missing = [u.id for u in units if u.id not in seen]
    if missing:
        raise InstanceError(f"prob.csv: missing rows for units {missing}")

    config_path = root / "config.txt"
    if not config_path.exists():
        raise InstanceError(f"missing instance file {config_path}")
    settings = {}
    config_lines = config_path.read_text(encoding="utf-8").splitlines()
    for line_no, raw in enumerate(config_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InstanceError(f"{config_path.name}:{line_no}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SETTINGS or key in settings:
            raise InstanceError(f"{config_path.name}:{line_no}: "
                                f"{'repeated' if key in settings else 'unknown'} setting {key!r}")
        settings[key] = value

    def setting(key, kind):
        if kind is not tuple:
            if key not in settings:
                raise InstanceError(f"{config_path.name}: missing {key}=")
            try:
                return _read_number(settings[key], kind)
            except ValueError:
                raise InstanceError(
                    f"{config_path.name}: {key}={settings[key]!r} is not a number"
                ) from None
        raw = settings.get(key, "all")
        if raw == "all":
            return tuple(range(len(sites)))
        if not raw:
            return ()
        out = []
        for token in raw.split(","):
            token = token.strip()
            if token not in site_index:
                raise InstanceError(
                    f"{config_path.name}: {key} names unknown site {token!r}"
                )
            out.append(site_index[token])
        return tuple(out)

    return SiteSelectionInstance(tuple(units), tuple(sites), p, **{
        key: setting(key, kind) for key, kind in _SETTINGS.items()})


def write_instance(instance: SiteSelectionInstance, path) -> None:
    """Write an instance directory in the load_instance format."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    _write_records(root / "units.csv", PopulationUnit, instance.units)
    _write_records(root / "sites.csv", SiteCandidate, instance.sites)
    with (root / "prob.csv").open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id"] + [s.id for s in instance.sites])
        for i, u in enumerate(instance.units):
            w.writerow([u.id] + [_num(p) for p in instance.probabilities[i]])
    every = tuple(range(len(instance.sites)))

    def text(value, kind):
        if kind is tuple:
            return "all" if value == every else ",".join(instance.sites[j].id for j in value)
        return _num(value) if kind is float else str(value)

    (root / "config.txt").write_text("".join(
        f"{key}={text(getattr(instance, key), kind)}\n" for key, kind in _SETTINGS.items()),
        encoding="utf-8")
