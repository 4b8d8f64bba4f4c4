"""Distribution tags for uncertain coefficients and scalar deviation machinery.

Uncertain data enters a model as per-constraint entries: a coefficient (or
the right-hand side) of one constraint is tagged with a distribution.  This
module holds those tags, each with the support ``xi`` of its perturbation
and a ``draw`` of it, plus the scalar conversions used by the robust
counterparts and the checks:

* ``bounded_interval`` -- the realization interval of one tagged entry, at
  the tag's own level or at the global level ``epsilon``
* ``support`` and ``draw_deviations`` -- the interval holding every draw
  of an entry's realization, and a block of those draws, minus the nominal
* ``check_levels`` and ``slack_allowance`` -- the one check of a run's
  ``epsilon`` and ``delta``, and the violation ``delta`` allows a row
* ``omega_from_kappa`` -- the reliability weight from ``kappa = exp(-omega^2/2)``
* ``normal_lambda``    -- the standard-normal quantile at ``1 - kappa``,
  from the standard library's ``statistics.NormalDist`` (Wichura's AS241)
* ``discrete_deviation`` -- smallest ``t`` with ``P(X > t) <= kappa`` for
  Poisson / binomial / general discrete tags

All operations are pure functions and safe to call from any thread.  The
module needs only the standard library and the model: importing the package
loads numpy and nothing else outside the standard library.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from statistics import NormalDist

from .model import Model, ModelError, _num, _read_number


class _RhsMarker:
    """Singleton target marking an uncertain right-hand side."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "RHS"


RHS = _RhsMarker()


# -- distribution tags --------------------------------------------------------


def _is_int(x) -> bool:
    """An int or numpy integer; a bool is not a count."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _require_finite(*params: float) -> None:
    """Tag parameters must be finite: a NaN or infinite one gives NaN draws."""
    if not all(math.isfinite(p) for p in params):
        raise ValueError(f"distribution parameters must be finite, got {params}")


class _UnitXi:
    """xi uniform on ``[-1, 1]``, drawn in place: ``low + (high - low) * u``
    is numpy's ``uniform(low, high)`` bit for bit, without its slower path."""

    xi = (-1.0, 1.0)

    def draw(self, rng, size: int):
        low, high = self.xi
        out = rng.random(size)
        out *= high - low
        out += low
        return out


@dataclass(frozen=True)
class Bounded(_UnitXi):
    """Interval of relative half-width epsilon around the nominal value.

    ``epsilon=None`` defers to the global uncertainty level of the run.
    """

    epsilon: float | None = None

    def __post_init__(self):
        if self.epsilon is not None and not 0 <= self.epsilon < math.inf:
            raise ValueError("bounded half-width must be finite and nonnegative")


@dataclass(frozen=True)
class BoundedRange:
    """Explicit interval [low, high] for the realized value."""

    low: float
    high: float

    def __post_init__(self):
        _require_finite(self.low, self.high)
        if self.low > self.high:
            raise ValueError(f"empty range [{self.low}, {self.high}]")

    def draw(self, rng, size: int):  # realized; + 0.0: numpy refuses [0.0, -0.0]
        return rng.uniform(self.low, self.high + 0.0, size=size)


@dataclass(frozen=True)
class Normal:
    mean: float
    std: float

    def __post_init__(self):
        _require_finite(self.mean, self.std)
        if self.std <= 0:
            raise ValueError("normal std must be positive")

    @property
    def xi(self) -> tuple[float, float]:  # a draw is clipped to six sigma
        return self.mean - 6.0 * self.std, self.mean + 6.0 * self.std

    def draw(self, rng, size: int):
        out = rng.normal(self.mean, self.std, size=size)
        out.clip(*self.xi, out=out)
        return out


@dataclass(frozen=True)
class Uniform(_UnitXi):
    """Symmetric perturbation uniform on [-1, 1], scaled by the global level."""


# the largest mean numpy's Generator.poisson draws
_POISSON_MAX = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)


@dataclass(frozen=True)
class Poisson:
    mean: float

    xi = None  # unbounded

    def __post_init__(self):
        _require_finite(self.mean)
        if not 0 < self.mean <= _POISSON_MAX:
            raise ValueError(
                f"poisson mean must lie in (0, {_POISSON_MAX!r}], got {self.mean!r}")

    def draw(self, rng, size: int):
        return rng.poisson(self.mean, size=size).astype(float)


@dataclass(frozen=True)
class Binomial:
    n: int
    p: float

    def __post_init__(self):
        if not (_is_int(self.n) and 0 <= self.n < 2**63):  # numpy draws int64 counts
            raise ValueError(f"binomial n must be an integer in [0, 2**63), got {self.n!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("binomial p must lie in [0, 1]")

    @property
    def xi(self) -> tuple[float, float]:
        return 0.0, float(self.n)

    def draw(self, rng, size: int):
        return rng.binomial(self.n, self.p, size=size).astype(float)


@dataclass(frozen=True)
class Discrete:
    """Finite support with probabilities summing to 1 (within 1e-9)."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("discrete support and probabilities must match")
        _require_finite(*self.values, *self.probs)
        if any(p < 0 for p in self.probs):
            raise ValueError("discrete probabilities must be nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ValueError("discrete probabilities must sum to 1")

    @property
    def xi(self) -> tuple[float, float]:
        return min(self.values), max(self.values)

    def draw(self, rng, size: int):
        return rng.choice(self.values, size=size, p=self.probs).astype(float)


# the annotation tag of each distribution; a tag takes one argument per field
# of its class (an integer for an `int` field), except that `bounded` may take
# none (the global level) and `discrete` takes value/probability pairs
_TAGS = {Bounded: "bounded", BoundedRange: "range", Normal: "normal", Uniform: "uniform",
         Poisson: "poisson", Binomial: "binomial", Discrete: "discrete"}
_TAG_CLASSES = {tag: cls for cls, tag in _TAGS.items()}

# the tags whose support is their bounded_interval: the corner check's tags
INTERVAL_TAGS = (Bounded, BoundedRange, Uniform)


@dataclass(frozen=True)
class UncertainEntry:
    constraint_id: int
    target: object  # variable id or RHS
    distribution: object

    @property
    def is_rhs(self) -> bool:
        return self.target is RHS


class UncertainSet:
    """Per-constraint index sets of uncertain coefficients plus uncertain RHS.

    Entries are (constraint id, variable id or RHS, distribution) triples,
    each passed to :meth:`add`, which rejects a non-integer id, an unknown
    tag and a duplicate.  ``validate`` checks every reference against a
    companion model.
    """

    def __init__(self, entries=()):
        self.entries: list[UncertainEntry] = []
        self._seen: set[tuple[int, object]] = set()
        for entry in entries:
            self.add(*entry)

    def add(self, constraint_id: int, target, distribution) -> "UncertainSet":
        if not (_is_int(constraint_id) and (target is RHS or _is_int(target))):
            raise ValueError(
                f"uncertain entry ids must be integers (or RHS as the target), "
                f"got constraint {constraint_id!r}, target {target!r}")
        if type(distribution) not in _TAGS:
            raise ValueError(f"unsupported distribution {distribution!r}")
        if (constraint_id, target) in self._seen:
            raise ValueError(
                f"duplicate uncertain entry for constraint {constraint_id}, "
                f"target {target!r}")
        self._seen.add((constraint_id, target))
        self.entries.append(UncertainEntry(constraint_id, target, distribution))
        return self

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def by_constraint(self) -> dict[int, list[UncertainEntry]]:
        grouped: dict[int, list[UncertainEntry]] = {}
        for entry in self.entries:
            grouped.setdefault(entry.constraint_id, []).append(entry)
        return grouped

    def validate(self, model: Model) -> None:
        for entry in self.entries:
            if not 0 <= entry.constraint_id < len(model.constraints):
                raise ValueError(f"unknown constraint id {entry.constraint_id}")
            if entry.is_rhs:
                continue
            con = model.constraints[entry.constraint_id]
            coeffs = dict(con.lhs.terms)
            if entry.target not in coeffs:
                name = (model.variables[entry.target].name
                        if 0 <= entry.target < len(model.variables)
                        else repr(entry.target))
                raise ValueError(
                    f"constraint {con.label!r} has no term for variable {name}"
                )


# -- scalar deviation machinery ------------------------------------------------


def omega_from_kappa(kappa: float) -> float:
    """Reliability weight: inverts kappa = exp(-omega^2 / 2).

    Strictly decreasing in kappa; omega_from_kappa(1) == 0.
    """
    if not 0.0 < kappa <= 1.0:
        raise ValueError(f"kappa must lie in (0, 1], got {kappa}")
    return math.sqrt(-2.0 * math.log(kappa))


_STANDARD_NORMAL = NormalDist()


def normal_lambda(kappa: float) -> float:
    """Standard-normal quantile at 1 - kappa (the deviation factor).

    Antisymmetric around kappa = 1/2: normal_lambda(k) == -normal_lambda(1-k).
    Wichura's AS241 keeps the result within a few ulp of the exact quantile.
    Below 2**-53, ``1 - kappa`` rounds to 1, whose quantile is infinite, so
    such a kappa is rejected.
    """
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kappa must lie in (0, 1), got {kappa}")
    p = 1.0 - kappa
    if p == 1.0:
        raise ValueError(
            f"kappa {kappa} is below 2**-53: 1 - kappa rounds to 1")
    return _STANDARD_NORMAL.inv_cdf(p)


def _count_deviation(log_pmf, mode: int, kappa: float, last: float) -> int | None:
    """Smallest integer t with P(X > t) <= kappa < 1 under the unimodal pmf
    ``exp(log_pmf(t))`` with mode ``mode``; None once t passes ``last``.

    The sum starts at the first term that is not exactly 0.0, found by
    walking left from the mode: every term left of it is 0.0 as well, so the
    cdf stays 0.0 and P(X > t) = 1 > kappa there.
    """
    t = mode
    while t > 0 and math.exp(log_pmf(t - 1)) != 0.0:
        t -= 1
    cdf = 0.0
    while True:
        cdf += math.exp(log_pmf(t))
        if 1.0 - cdf <= kappa:
            return t
        if t > last:
            return None
        t += 1


def discrete_deviation(distribution, kappa: float):
    """Smallest value t with P(X > t) <= kappa under the tagged distribution.

    The tail convention is strict: the returned t satisfies P(X > t) <= kappa
    while P(X > t - 1) > kappa (t integer for Poisson/binomial; a support
    value for Discrete).  This is the convention that puts the deviation of a
    mean-5 Poisson at 6 for a 24% reliability level.  Each pmf term is
    computed in log space (``lgamma``), so a large mean or n does not
    underflow the leading terms to zero, and the terms that do underflow to
    exactly 0.0 are never summed.
    """
    if not 0.0 < kappa <= 1.0:
        raise ValueError(f"kappa must lie in (0, 1], got {kappa}")
    if isinstance(distribution, (Poisson, Binomial)) and kappa == 1.0:
        return 0
    if isinstance(distribution, Poisson):
        mean = distribution.mean
        log_mean = math.log(mean)
        t = _count_deviation(lambda t: t * log_mean - mean - math.lgamma(t + 1),
                             math.floor(mean), kappa, mean + 50 * math.sqrt(mean) + 50)
        if t is None:
            raise ValueError("poisson tail search failed to converge")
        return t
    if isinstance(distribution, Binomial):
        n, p = distribution.n, distribution.p
        if p in (0.0, 1.0):  # all the mass sits at 0 or at n
            return n if p == 1.0 else 0
        log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)
        t = _count_deviation(
            lambda t: (log_n - math.lgamma(t + 1) - math.lgamma(n - t + 1)
                       + t * log_p + (n - t) * log_q),
            min(n, math.floor((n + 1) * p)), kappa, n - 1)
        return n if t is None else t
    if isinstance(distribution, Discrete):
        order = sorted(range(len(distribution.values)),
                       key=lambda i: distribution.values[i])
        cdf = 0.0
        for i in order:
            cdf += distribution.probs[i]
            if 1.0 - cdf <= kappa + 1e-15:
                return distribution.values[i]
        return distribution.values[order[-1]]
    raise ValueError(
        f"discrete deviation undefined for {type(distribution).__name__}"
    )


def _level(distribution, epsilon: float | None) -> float | None:
    """A ``Bounded`` tag's own half-width, else the global level ``epsilon``."""
    if isinstance(distribution, Bounded) and distribution.epsilon is not None:
        return distribution.epsilon
    return epsilon


def bounded_interval(nominal: float, distribution,
                     epsilon: float | None = None) -> tuple[float, float]:
    """Realization interval ``[low, high]`` of one uncertain value.

    An explicit BoundedRange is returned as given; every other tag maps
    nominal a to [a - eps|a|, a + eps|a|] at its level (:func:`_level`).
    The interval counterpart and the corner check both read an entry's
    interval here.
    """
    if not math.isfinite(nominal):
        raise ValueError("nominal value must be finite")
    if isinstance(distribution, BoundedRange):
        return distribution.low, distribution.high
    eps = _level(distribution, epsilon)
    if eps is None:
        raise ValueError(f"{distribution!r} without epsilon needs the global level")
    if not 0 <= eps < math.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {eps}")
    spread = eps * abs(nominal)
    return nominal - spread, nominal + spread


def support(nominal: float, distribution, epsilon: float) -> tuple[float, float] | None:
    """``[low, high]`` holding every realization :func:`draw_deviations`
    draws, rounding aside, None for Poisson: :func:`bounded_interval` for the
    ``INTERVAL_TAGS``, else the realizations ``nominal * (1 + eps * xi)`` at
    the ends of ``xi``."""
    if isinstance(distribution, INTERVAL_TAGS):
        return bounded_interval(nominal, distribution, epsilon)
    if distribution.xi is None:
        return None
    ends = [nominal * (1.0 + epsilon * v) for v in distribution.xi]
    return min(ends), max(ends)


def draw_deviations(nominal: float, distribution, epsilon: float, rng, size: int):
    """``size`` draws of ``realization - nominal`` for one uncertain value,
    in the buffer of the tag's ``draw``: a BoundedRange draws its realized
    value, every other tag xi, realizing ``nominal * (1 + eps * xi)`` at its
    :func:`_level`.  The in-place steps are the IEEE operations of the
    out-of-place form, in its order, so the bits are the same."""
    out = distribution.draw(rng, size)
    if not isinstance(distribution, BoundedRange):
        out *= _level(distribution, epsilon)
        out += 1.0
        out *= nominal
    out -= nominal
    return out


def check_levels(epsilon: float, delta: float, error=ValueError) -> None:
    """Raise ``error`` unless the level ``epsilon`` and the tolerance
    ``delta`` are finite and nonnegative: an infinite delta allows any
    violation, and a NaN one passes every comparison."""
    for name, level in (("epsilon", epsilon), ("delta", delta)):
        if not 0 <= level < math.inf:
            raise error(f"{name} must be finite and nonnegative, got {level}")


def slack_allowance(rhs: float, delta: float) -> float:
    """The violation ``delta * max(1, |rhs|)`` a row may keep at tolerance ``delta``."""
    return delta * max(1.0, abs(rhs))


def deviation_radius(nominal: float, distribution, epsilon: float,
                     kappa: float | None = None) -> float:
    """Worst-case single-coefficient deviation radius used for conservatism
    comparisons across distribution families.

    ``INTERVAL_TAGS``: half the :func:`bounded_interval` width (epsilon *
    |nominal| at the global level).  Normal: epsilon * normal_lambda(kappa)
    * std * |nominal|.  Poisson/Binomial/Discrete: epsilon * |nominal| *
    discrete_deviation.  Only the last two read ``kappa``, and they need it.
    """
    if isinstance(distribution, INTERVAL_TAGS):
        low, high = bounded_interval(nominal, distribution, epsilon)
        return (high - low) / 2.0
    if kappa is None:
        raise ValueError(f"the {type(distribution).__name__} deviation radius needs kappa")
    if isinstance(distribution, Normal):
        return epsilon * normal_lambda(kappa) * distribution.std * abs(nominal)
    return epsilon * abs(nominal) * discrete_deviation(distribution, kappa)


# -- annotation file format ----------------------------------------------------
#
# One entry per line: `constraint_label target(dist args)` where target is a
# variable name or `RHS`, e.g.
#
#   cost1 f_2(bounded 0.05)
#   cost1 RHS(normal 100 5)


def _parse_distribution(tag: str, args: list[str]):
    cls = _TAG_CLASSES.get(tag)
    if cls is None:
        raise ValueError(f"unknown distribution tag {tag!r}")
    count = len(fields(cls))
    if cls is Discrete:
        if not args or len(args) % 2:
            raise ValueError(f"discrete takes value/probability pairs, got {len(args)} arguments")
    elif len(args) != count and not (cls is Bounded and not args):
        expected = "0 or 1 arguments" if cls is Bounded else (
            f"{count} argument" + ("s" if count != 1 else ""))
        raise ValueError(f"{tag} takes {expected}, got {len(args)}")
    try:
        if cls is Discrete:
            return Discrete(tuple(map(_read_number, args[0::2])),
                            tuple(map(_read_number, args[1::2])))
        return cls(*(_read_number(a, int if f.type == "int" else float)
                     for f, a in zip(fields(cls), args)))
    except ValueError as exc:
        raise ValueError(f"malformed {tag} arguments {args}: {exc}") from None


def parse_annotations(text: str, model: Model) -> UncertainSet:
    """Parse an annotation document against a model.

    Unknown constraint labels or variable names are rejected by name.
    """
    uset = UncertainSet()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            label, rest = line.split(None, 1)
        except ValueError:
            raise ValueError(f"annotation line {line_no}: expected 'label target(dist ...)'")
        if "(" not in rest or not rest.rstrip().endswith(")"):
            raise ValueError(f"annotation line {line_no}: expected 'target(dist args)'")
        target_name, payload = rest.split("(", 1)
        target_name = target_name.strip()
        payload = payload.rstrip().rstrip(")")
        parts = payload.split()
        if not parts:
            raise ValueError(f"annotation line {line_no}: empty distribution")
        try:
            dist = _parse_distribution(parts[0], parts[1:])
        except ValueError as exc:
            raise ValueError(f"annotation line {line_no}: {exc}") from None
        try:
            con = model.constraint_by_label(label)
        except ModelError:
            raise ValueError(
                f"annotation line {line_no}: unknown constraint label {label!r}"
            ) from None
        if target_name == "RHS":
            target = RHS
        else:
            try:
                target = model.variable_by_name(target_name).id
            except ModelError:
                raise ValueError(
                    f"annotation line {line_no}: unknown variable {target_name!r}"
                ) from None
        uset.add(con.id, target, dist)
    uset.validate(model)
    return uset


def _format_distribution(dist) -> str:
    if isinstance(dist, Discrete):
        args = [_num(a) for pair in zip(dist.values, dist.probs) for a in pair]
    else:
        args = [str(v) if f.type == "int" else _num(v) for f in fields(dist)
                if (v := getattr(dist, f.name)) is not None]
    return " ".join([_TAGS[type(dist)], *args])


def format_annotations(uset: UncertainSet, model: Model) -> str:
    lines = []
    for entry in uset:
        label = model.constraints[entry.constraint_id].label
        target = "RHS" if entry.is_rhs else model.variables[entry.target].name
        lines.append(f"{label} {target}({_format_distribution(entry.distribution)})")
    return "\n".join(lines) + ("\n" if lines else "")
