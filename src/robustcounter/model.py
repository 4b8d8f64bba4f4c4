"""Algebraic carrier for (mixed-integer) linear programs.

A :class:`Model` holds an ordered list of variables, an ordered list of
linear constraints (optionally augmented with a square-root cone term on
``<=`` rows), and a single linear objective.  The same carrier is used for
nominal problems and for their robust counterparts, so downstream code never
has to distinguish the two.

The module also provides evaluation of constraint residuals, conversion to
the bounded standard form consumed by the simplex solver, and a line-oriented
text format for persisting models.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

INF = math.inf

#: Absolute residual below which a constraint counts as satisfied.
FEASIBILITY_TOL = 1e-7
#: Distance to the nearest integer below which an integer variable is integral.
INTEGRALITY_TOL = 1e-6
#: Cone-row residual above which branch and bound adds a supporting-hyperplane cut.
CONE_CUT_TOL = 1e-6

VARIABLE_KINDS = ("continuous", "binary", "integer")
SENSES = ("<=", ">=", "=")


def residual(sense: str, lhs, rhs):
    """``lhs - rhs`` for ``<=``, ``rhs - lhs`` for ``>=``, ``|lhs - rhs|`` for
    ``=``, of floats or arrays; nonpositive means satisfied."""
    if sense == "<=":
        return lhs - rhs
    if sense == ">=":
        return rhs - lhs
    return abs(lhs - rhs)


#: Variable names and constraint labels: what the text format reads back.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ModelError(ValueError):
    """Raised for malformed model construction or misuse of a model."""


def _check_name(what: str, name) -> None:
    if not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
        raise ModelError(f"{what} {name!r} must be letters, digits and underscores, "
                         f"not starting with a digit")


class ParseError(ValueError):
    """Raised for malformed model text; carries 1-based line/column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Variable:
    """A decision variable; ``id`` is its stable index within the model."""

    id: int
    name: str
    kind: str
    lower: float
    upper: float

    @property
    def is_integer(self) -> bool:
        return self.kind in ("binary", "integer")


@dataclass(frozen=True)
class LinExpr:
    """A linear expression ``sum(coeff * var) + constant``.

    Terms are merged and sorted by variable id on construction, so two
    expressions built from shuffled term lists compare equal.
    """

    terms: tuple[tuple[int, float], ...]
    constant: float = 0.0

    @staticmethod
    def from_terms(terms, constant: float = 0.0) -> "LinExpr":
        merged: dict[int, float] = {}
        for var_id, coeff in terms:
            merged[var_id] = merged.get(var_id, 0.0) + float(coeff)
        ordered = tuple(sorted(merged.items()))
        return LinExpr(ordered, float(constant))

    def value(self, values) -> float:
        return self.constant + sum(c * values[v] for v, c in self.terms)


@dataclass(frozen=True)
class ConeTerm:
    """``scale * sqrt(sum((coeff*var)^2) + constant_inside)``.

    ``scale`` carries the product of the uncertainty level and the
    reliability weight; ``constant_inside`` carries the squared nominal
    right-hand side when that side is uncertain.
    """

    scale: float
    components: tuple[tuple[int, float], ...]
    constant_inside: float = 0.0

    def __post_init__(self):
        if not 0 <= self.scale < INF:
            raise ModelError(f"cone scale must be finite and nonnegative, got {self.scale}")
        if not 0 <= self.constant_inside < INF:
            raise ModelError(f"cone constant must be finite and nonnegative, "
                             f"got {self.constant_inside}")

    @staticmethod
    def from_components(scale, components, constant_inside=0.0) -> "ConeTerm":
        return ConeTerm(float(scale), LinExpr.from_terms(components).terms,
                        float(constant_inside))

    def value(self, values) -> float:
        s = self.constant_inside + sum((c * values[v]) ** 2 for v, c in self.components)
        return self.scale * math.sqrt(s)


@dataclass(frozen=True)
class Constraint:
    """A single row ``lhs [+ cone] (<=|>=|=) rhs``."""

    id: int
    lhs: LinExpr
    sense: str
    rhs: float
    label: str
    cone: ConeTerm | None = None


@dataclass
class SolverStats:
    """Work counters attached to a Solution, the row duals of ``solve_lp``
    and the worst cone-row residual of a cone solve (None elsewhere)."""

    iterations: int = 0
    nodes: int = 0
    cone_cuts: int = 0
    duals: np.ndarray | None = None
    cone_violation: float | None = None


@dataclass
class Solution:
    """Result of a solve: certified status, variable values, objective."""

    status: str  # optimal | infeasible | unbounded | limit_reached
    values: dict[int, float]
    objective: float
    stats: SolverStats = field(default_factory=SolverStats)


class Model:
    """Mutable builder that freezes into a shareable read-only carrier.

    Construction is single-threaded; after :meth:`finalize` the model rejects
    further mutation and may be read concurrently.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective_sense: str = "max"
        self.objective: LinExpr = LinExpr((), 0.0)
        self._by_name: dict[str, int] = {}
        self._labels: dict[str, int] = {}
        self._frozen = False

    # -- construction -----------------------------------------------------

    def _check_mutable(self):
        if self._frozen:
            raise ModelError("model is finalized; copy() it to modify")

    def add_variable(self, name: str, kind: str = "continuous",
                     lower: float = 0.0, upper: float = INF) -> int:
        """Append a variable and return its id (stable for the model's life).

        The name must be letters, digits and underscores, not starting with
        a digit, so that the text format reads it back.  Binary variables
        have their bounds forced to [0, 1] regardless of the arguments.  NaN
        bounds, a lower bound of +inf, an upper bound of -inf and bound
        inversion (lower > upper) are rejected.
        """
        self._check_mutable()
        _check_name("variable name", name)
        if name in self._by_name:
            raise ModelError(f"duplicate variable name {name!r}")
        if kind not in VARIABLE_KINDS:
            raise ModelError(f"unknown variable kind {kind!r}")
        if kind == "binary":
            lower, upper = 0.0, 1.0
        lower, upper = float(lower), float(upper)
        if not (lower < INF and upper > -INF):
            raise ModelError(f"bounds of {name!r} must be numbers with lower < inf "
                             f"and upper > -inf, got [{lower}, {upper}]")
        if lower > upper:
            raise ModelError(
                f"inverted bounds for {name!r}: lower {lower} > upper {upper}"
            )
        vid = len(self.variables)
        self.variables.append(Variable(vid, name, kind, lower, upper))
        self._by_name[name] = vid
        return vid

    def _checked(self, expr, cone: ConeTerm | None = None) -> LinExpr:
        """``expr`` (a LinExpr or (var_id, coeff) pairs) merged, once it and
        the ``cone`` components pass the checks :meth:`add_constraint` names."""
        expr = (LinExpr.from_terms(expr.terms, expr.constant) if isinstance(expr, LinExpr)
                else LinExpr.from_terms(expr))
        for var_id, coeff in expr.terms + (cone.components if cone else ()):
            if not (0 <= var_id < len(self.variables)):
                raise ModelError(f"unknown variable id {var_id}")
            if not math.isfinite(coeff):
                raise ModelError(f"coefficient of {self.variables[var_id].name!r} "
                                 f"must be finite, got {coeff}")
        if not math.isfinite(expr.constant):
            raise ModelError(f"constant must be finite, got {expr.constant}")
        return expr

    def add_constraint(self, lhs, sense: str, rhs: float, label: str = "",
                       cone: ConeTerm | None = None) -> int:
        """Append a constraint; duplicate terms in ``lhs`` are merged.

        ``lhs`` may be a LinExpr or an iterable of (var_id, coeff) pairs.  A
        label follows the rule for variable names; an empty one becomes
        ``c<id>``.  The terms of ``lhs`` and the components of ``cone`` (and
        of an objective) must name variables of this model with finite
        coefficients, the constant must be finite and ``rhs`` not NaN (an
        infinite ``rhs`` makes a vacuous or an infeasible row).  A cone term
        is only permitted on ``<=`` rows.
        """
        self._check_mutable()
        lhs = self._checked(lhs, cone)
        if sense not in SENSES:
            raise ModelError(f"unknown sense {sense!r}")
        if math.isnan(rhs):
            raise ModelError("right-hand side must not be NaN")
        if cone is not None and sense != "<=":
            raise ModelError("cone terms are only permitted on <= constraints")
        cid = len(self.constraints)
        if not label:
            label = f"c{cid}"
        _check_name("constraint label", label)
        if label in self._labels:
            raise ModelError(f"duplicate constraint label {label!r}")
        self.constraints.append(Constraint(cid, lhs, sense, float(rhs), label, cone))
        self._labels[label] = cid
        return cid

    def set_objective(self, sense: str, expr) -> None:
        self._check_mutable()
        if sense not in ("max", "min"):
            raise ModelError(f"objective sense must be max or min, got {sense!r}")
        self.objective = self._checked(expr)
        self.objective_sense = sense

    def finalize(self) -> "Model":
        self._frozen = True
        return self

    def copy(self, name: str | None = None) -> "Model":
        """Unfrozen structural copy, preserving variable and constraint ids."""
        out = Model(name or self.name)
        out.variables = list(self.variables)
        out.constraints = list(self.constraints)
        out.objective_sense = self.objective_sense
        out.objective = self.objective
        out._by_name = dict(self._by_name)
        out._labels = dict(self._labels)
        return out

    # -- lookups ----------------------------------------------------------

    def variable_by_name(self, name: str) -> Variable:
        try:
            return self.variables[self._by_name[name]]
        except KeyError:
            raise ModelError(f"no variable named {name!r}") from None

    def constraint_by_label(self, label: str) -> Constraint:
        try:
            return self.constraints[self._labels[label]]
        except KeyError:
            raise ModelError(f"no constraint labelled {label!r}") from None

    def has_cones(self) -> bool:
        return any(c.cone is not None for c in self.constraints)

    def has_integers(self) -> bool:
        return any(v.is_integer for v in self.variables)

    # -- evaluation -------------------------------------------------------

    def evaluate_constraint(self, values, con_id: int) -> float:
        """Signed :func:`residual` of one constraint at a point, where
        ``lhs`` includes the cone term."""
        con = self.constraints[con_id]
        for var_id, _ in con.lhs.terms + (con.cone.components if con.cone else ()):
            if var_id not in values:
                raise ModelError(
                    f"missing value for variable {self.variables[var_id].name!r}"
                )
        lhs = con.lhs.value(values)
        if con.cone is not None:
            lhs += con.cone.value(values)
        return residual(con.sense, lhs, con.rhs)

    def max_violation(self, values) -> float:
        """Largest residual over all constraints (0 when fully feasible)."""
        worst = 0.0
        for con in self.constraints:
            worst = max(worst, self.evaluate_constraint(values, con.id))
        return worst

    def objective_value(self, values) -> float:
        return self.objective.value(values)


# -- standard form ---------------------------------------------------------


@dataclass
class StandardFormLP:
    """A cone-free model as a maximization with bounds on rows and columns.

        maximize  c @ x + c0
        s.t.      row_lo <= a @ x <= row_hi
                  col_lo <=   x   <= col_hi

    Column ``j`` is model variable ``j`` and row ``i`` is constraint ``i``
    with its constant moved into its range: a ``<=`` row has
    ``row_lo = -inf``, a ``>=`` row ``row_hi = inf`` and an equality row
    ``row_lo == row_hi``.  ``sense`` records the model's objective sense: for
    ``min`` models ``c`` and ``c0`` are negated, and :meth:`model_objective`
    maps any value here, ``inf`` included, back to the model's sense.
    Branch and bound keeps one such LP as its working copy: a node is the
    same LP under other column bounds, and a cut is a row appended to it
    (both by ``dataclasses.replace``).
    """

    c: np.ndarray
    c0: float
    a: np.ndarray
    row_lo: np.ndarray
    row_hi: np.ndarray
    col_lo: np.ndarray
    col_hi: np.ndarray
    sense: str

    def model_objective(self, canonical: float) -> float:
        return canonical if self.sense == "max" else -canonical


def to_standard_form(model: Model) -> StandardFormLP:
    """Convert a cone-free model to :class:`StandardFormLP`: the variables,
    their bounds and the constraint rows stay as they are, so the LP's
    feasible points and objective values are the model's."""
    if model.has_cones():
        raise ModelError("model has cone terms; standard form is cone-free")
    cons = model.constraints
    exprs = [model.objective] + [c.lhs for c in cons]
    mat = np.zeros((len(exprs), len(model.variables)))
    mat[np.repeat(np.arange(len(exprs)), [len(e.terms) for e in exprs]),
        [v for e in exprs for v, _ in e.terms]] = [a for e in exprs for _, a in e.terms]
    const = np.array([e.constant for e in exprs], dtype=float)
    sign = 1.0 if model.objective_sense == "max" else -1.0
    rhs = np.array([c.rhs for c in cons], dtype=float) - const[1:]
    return StandardFormLP(
        c=sign * mat[0] + 0.0,
        c0=sign * float(const[0]) + 0.0,
        a=mat[1:],
        row_lo=np.where([c.sense != "<=" for c in cons], rhs, -INF),
        row_hi=np.where([c.sense != ">=" for c in cons], rhs, INF),
        col_lo=np.array([v.lower for v in model.variables], dtype=float),
        col_hi=np.array([v.upper for v in model.variables], dtype=float),
        sense=model.objective_sense,
    )


# -- text format -------------------------------------------------------------
#
# UTF-8, line oriented, three sections:
#
#   #vars
#   name kind lower upper
#   #obj
#   max|min coeff*name [+ coeff*name ...] [+ constant]
#   #cons
#   label: coeff*name [+ ...] [+ CONE(scale; coeff*name,...; const)] <=|>=|= rhs
#
# Numbers are ASCII decimal or scientific; infinities are spelled inf / -inf.


def _num(x: float) -> str:
    """Shortest text that parses back to the same float (``inf``, ``-inf``
    for the infinities): the one number format of model text, annotations
    and instance files."""
    return repr(float(x))


def _fmt_expr(model: Model, expr: LinExpr) -> str:
    parts = [f"{_num(c)}*{model.variables[v].name}" for v, c in expr.terms]
    if expr.constant != 0.0 or not parts:
        parts.append(_num(expr.constant))
    return " + ".join(parts)


def _fmt_cone(model: Model, cone: ConeTerm) -> str:
    comps = ", ".join(
        f"{_num(c)}*{model.variables[v].name}" for v, c in cone.components
    )
    return f"CONE({_num(cone.scale)}; {comps}; {_num(cone.constant_inside)})"


def export_text(model: Model) -> str:
    """Serialize a model; :func:`import_text` inverts this exactly."""
    lines = ["#vars"]
    for v in model.variables:
        lines.append(f"{v.name} {v.kind} {_num(v.lower)} {_num(v.upper)}")
    lines.append("#obj")
    lines.append(f"{model.objective_sense} {_fmt_expr(model, model.objective)}")
    lines.append("#cons")
    for con in model.constraints:
        body = _fmt_expr(model, con.lhs)
        if con.cone is not None:
            body += " + " + _fmt_cone(model, con.cone)
        lines.append(f"{con.label}: {body} {con.sense} {_num(con.rhs)}")
    return "\n".join(lines) + "\n"


_NUMBER_RE = re.compile(r"[+-]?(?:inf\b|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)", re.ASCII)
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")


def _read_number(text: str, kind=float):
    """``text`` as a ``kind`` in the one number grammar of model text,
    annotations and instance files: a signed ASCII decimal, scientific or
    ``inf`` float, or signed ASCII digits for an int; ValueError otherwise."""
    if not (_INTEGER_RE if kind is int else _NUMBER_RE).fullmatch(text):
        raise ValueError(f"malformed number {text!r}")
    return kind(text)


class _LineScanner:
    """Tokenizer for one expression line, tracking 1-based columns."""

    def __init__(self, text: str, line_no: int):
        self.text = text
        self.pos = 0
        self.line_no = line_no

    def error(self, message: str):
        raise ParseError(message, self.line_no, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self, literal: str) -> bool:
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def accept(self, literal: str) -> bool:
        if self.peek(literal):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.accept(literal):
            self.error(f"expected {literal!r}")

    def number(self) -> float:
        self.skip_ws()
        m = _NUMBER_RE.match(self.text, self.pos)
        if not m:
            self.error("expected a number")
        self.pos = m.end()
        return float(m.group(0))

    def name(self) -> str:
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            self.error("expected a name")
        self.pos = m.end()
        return m.group(0)


def _parse_term(sc: _LineScanner, model: Model):
    """One `coeff*name` or bare-constant term -> (var_id | None, value)."""
    coeff = sc.number()
    if sc.accept("*"):
        name = sc.name()
        try:
            var = model.variable_by_name(name)
        except ModelError:
            sc.error(f"unknown variable {name!r}")
        return var.id, coeff
    return None, coeff


def _parse_expr(sc: _LineScanner, model: Model, allow_cone: bool):
    terms: list[tuple[int, float]] = []
    constant = 0.0
    cone = None
    while True:
        if allow_cone and sc.peek("CONE("):
            if cone is not None:
                sc.error("multiple CONE terms in one constraint")
            sc.expect("CONE(")
            scale = sc.number()
            sc.expect(";")
            comps = []
            while not sc.peek(";"):
                var_id, coeff = _parse_term(sc, model)
                if var_id is None:
                    sc.error("cone components must be coeff*name")
                comps.append((var_id, coeff))
                if not sc.accept(","):
                    break
            sc.expect(";")
            const_inside = sc.number()
            sc.expect(")")
            try:
                cone = ConeTerm.from_components(scale, comps, const_inside)
            except ModelError as exc:
                sc.error(str(exc))
        else:
            var_id, value = _parse_term(sc, model)
            if var_id is None:
                constant += value
            else:
                terms.append((var_id, value))
        if not sc.accept("+"):
            break
    return LinExpr.from_terms(terms, constant), cone


def import_text(text: str) -> Model:
    """Parse the text format back into a finalized model.

    Raises :class:`ParseError` with line/column on malformed input.
    """
    model = Model()
    section = None
    saw = {"#vars": False, "#obj": False, "#cons": False}
    have_objective = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if line in saw:
            section = line
            saw[line] = True
            continue
        if section == "#vars":
            parts = line.split()
            if len(parts) != 4:
                raise ParseError("expected 'name kind lower upper'", line_no, 1)
            name, kind, lo, hi = parts
            try:
                lo = _read_number(lo)
                hi = _read_number(hi)
            except ValueError:  # at the bad bound's own column in the raw line
                bad = list(re.finditer(r"\S+", raw))[2 if isinstance(lo, str) else 3]
                raise ParseError("malformed bound", line_no, bad.start() + 1)
            try:
                model.add_variable(name, kind, lo, hi)
            except ModelError as exc:
                raise ParseError(str(exc), line_no, 1)
        elif section == "#obj":
            sc = _LineScanner(raw, line_no)
            sc.skip_ws()
            if sc.accept("max"):
                sense = "max"
            elif sc.accept("min"):
                sense = "min"
            else:
                sc.error("objective must start with max or min")
            expr, _ = _parse_expr(sc, model, allow_cone=False)
            if not sc.at_end():
                sc.error("trailing content after objective")
            try:
                model.set_objective(sense, expr)
            except ModelError as exc:
                raise ParseError(str(exc), line_no, 1)
            have_objective = True
        elif section == "#cons":
            sc = _LineScanner(raw, line_no)
            label = sc.name()
            sc.expect(":")
            expr, cone = _parse_expr(sc, model, allow_cone=True)
            for sense in ("<=", ">=", "="):
                if sc.accept(sense):
                    break
            else:
                sc.error("expected <=, >= or =")
            rhs = sc.number()
            if not sc.at_end():
                sc.error("trailing content after constraint")
            try:
                model.add_constraint(expr, sense, rhs, label=label, cone=cone)
            except ModelError as exc:
                raise ParseError(str(exc), line_no, 1)
        else:
            raise ParseError("content before any section header", line_no, 1)
    missing = [k for k, present in saw.items() if not present]
    if missing:
        raise ParseError(
            f"truncated document: missing section(s) {', '.join(missing)}",
            len(text.splitlines()) + 1, 1,
        )
    if not have_objective:
        raise ParseError("missing objective line", len(text.splitlines()) + 1, 1)
    return model.finalize()
