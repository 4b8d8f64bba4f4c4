import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtri
from hypothesis import example, given, settings
from hypothesis import strategies as st

import robustcounter
from robustcounter.model import Model
from robustcounter.uncertainty import (
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

from _oracles import (
    binomial_tail_gt,
    erf_cdf_quantile,
    poisson_tail_gt,
    reference_discrete_deviation,
)


# -- omega_from_kappa ------------------------------------------------------------


def test_omega_anchors():
    assert omega_from_kappa(1.0) == 0.0
    assert omega_from_kappa(math.exp(-2.0)) == pytest.approx(2.0, abs=1e-12)
    # sqrt(-2 ln 0.05), frozen from a high-precision evaluation
    assert omega_from_kappa(0.05) == pytest.approx(2.44774683068, abs=1e-9)


def test_omega_domain():
    with pytest.raises(ValueError):
        omega_from_kappa(0.0)
    with pytest.raises(ValueError):
        omega_from_kappa(1.5)


def test_omega_round_trip():
    for omega in np.linspace(0.0, 6.0, 61):
        kappa = math.exp(-omega ** 2 / 2.0)
        assert omega_from_kappa(kappa) == pytest.approx(omega, abs=1e-10)


def test_omega_strictly_decreasing():
    kappas = np.linspace(0.01, 1.0, 50)
    omegas = [omega_from_kappa(k) for k in kappas]
    assert all(a > b for a, b in zip(omegas, omegas[1:]))


# -- normal_lambda ------------------------------------------------------------------


def test_normal_lambda_anchors():
    assert normal_lambda(0.5) == 0.0
    # bisection on an erf-based CDF, computed independently
    assert normal_lambda(0.05) == pytest.approx(erf_cdf_quantile(0.95), abs=1e-7)
    assert normal_lambda(0.05) == pytest.approx(1.6448536, abs=1e-6)
    assert normal_lambda(0.0228) == pytest.approx(1.9990772, abs=1e-6)
    assert normal_lambda(0.0228) == pytest.approx(2.0, abs=1e-3)


def test_normal_lambda_antisymmetry():
    for kappa in (0.01, 0.1, 0.3, 0.45):
        assert normal_lambda(kappa) == pytest.approx(-normal_lambda(1 - kappa),
                                                     abs=1e-12)


def test_normal_lambda_domain():
    for bad in (0.0, 1.0, -0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            normal_lambda(bad)


def test_normal_lambda_rejects_kappa_below_2_53():
    """Below 2**-53, 1 - kappa rounds to 1 and the quantile would be inf."""
    assert normal_lambda(2.0 ** -53) == pytest.approx(8.2095361516, abs=1e-9)
    for tiny in (2.0 ** -54, 1e-17, 5e-324):
        with pytest.raises(ValueError, match="2\\*\\*-53"):
            normal_lambda(tiny)


def test_normal_lambda_matches_ndtri():
    """scipy's ndtri as the oracle, over the open interval and both tails.

    Both are a few ulp from the exact quantile and can differ by up to
    about 1.02e-15 relative (at kappa = 0.1387, where the exact value is
    1 ulp from this one and 3.5 ulp from ndtri's), hence 2e-15."""
    grid = np.concatenate([
        np.linspace(0.0, 1.0, 10_001)[1:-1],
        np.geomspace(2.0 ** -53, 0.5, 500),
        1.0 - np.geomspace(2.0 ** -53, 0.5, 500),
    ])
    for kappa in map(float, grid):
        want = float(ndtri(1.0 - kappa))
        assert math.isclose(normal_lambda(kappa), want, rel_tol=2e-15,
                            abs_tol=1e-300), kappa


def test_import_loads_numpy_alone():
    """Importing the package and its CLI loads numpy and the standard
    library and nothing else: no scipy.  (``__mp_main__`` is the alias
    multiprocessing gives the main module.)"""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import robustcounter, robustcounter.cli\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before\n"
        "       if not m.startswith('__')}\n"
        "print(' '.join(sorted(new - set(sys.stdlib_module_names))))\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    src = str(Path(robustcounter.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout.split("\n")
    assert out[0].split() == ["numpy", "robustcounter"]
    assert out[1] == ""


def test_normal_lambda_monte_carlo_agreement():
    """Empirical exceedance of the quantile matches kappa within 3 sigma."""
    rng = np.random.default_rng(20240901)
    n = 10 ** 6
    samples = rng.standard_normal(n)
    for kappa in (0.5, 0.25, 0.05):
        lam = normal_lambda(kappa)
        frequency = float(np.mean(samples > lam))
        assert abs(frequency - kappa) <= 3.0 * math.sqrt(kappa * (1 - kappa) / n)


# -- discrete_deviation ----------------------------------------------------------------


def test_poisson_deviation_anchor():
    # a mean-5 count at the 24% reliability level deviates to 6
    assert discrete_deviation(Poisson(5.0), 0.24) == 6
    # cross-check against direct CDF summation
    assert poisson_tail_gt(5.0, 6) <= 0.24 < poisson_tail_gt(5.0, 5)


def test_poisson_deviation_near_one():
    # P(X > 0) = 1 - e^-5 ~ 0.99326 <= 0.999
    assert discrete_deviation(Poisson(5.0), 0.999) == 0


def test_binomial_deviation():
    assert discrete_deviation(Binomial(10, 0.5), 0.5) == 5
    assert binomial_tail_gt(10, 0.5, 5) <= 0.5 < binomial_tail_gt(10, 0.5, 4)


def test_discrete_deviation_general():
    dist = Discrete((1.0, 2.0, 5.0), (0.5, 0.3, 0.2))
    assert discrete_deviation(dist, 0.25) == 2.0
    assert discrete_deviation(dist, 0.1) == 5.0


def test_discrete_deviation_rejects_other_tags():
    with pytest.raises(ValueError):
        discrete_deviation(Normal(0.0, 1.0), 0.5)


def test_discrete_deviation_minimality_exhaustive():
    """Decrementing the returned t breaks the tail condition, for every
    Poisson mean up to 20 and a ladder of reliability levels."""
    for mean in range(1, 21):
        for kappa in (0.9, 0.5, 0.24, 0.1, 0.01):
            t = discrete_deviation(Poisson(float(mean)), kappa)
            assert poisson_tail_gt(float(mean), t) <= kappa
            if t > 0:
                assert poisson_tail_gt(float(mean), t - 1) > kappa


def test_poisson_matches_scipy_tails():
    for mean in (0.5, 3.0, 12.0, 500.0):
        for kappa in (0.6, 0.2, 0.05):
            t = discrete_deviation(Poisson(mean), kappa)
            assert scipy.stats.poisson.sf(t, mean) <= kappa + 1e-12
            if t > 0:
                assert scipy.stats.poisson.sf(t - 1, mean) > kappa


def test_binomial_matches_scipy_tails():
    for n, p in ((10, 0.5), (40, 0.2), (1000, 0.35)):
        for kappa in (0.6, 0.2, 0.05):
            t = discrete_deviation(Binomial(n, p), kappa)
            assert scipy.stats.binom.sf(t, n, p) <= kappa + 1e-12
            if t > 0:
                assert scipy.stats.binom.sf(t - 1, n, p) > kappa


_KAPPAS = (0.5, 0.3, 0.24, 0.1, 0.05, 0.01, 1e-3)


def _scipy_deviation(tails, kappa):
    """Smallest t with tails[t] <= kappa, or None when the tail at t or t - 1
    lies within 1e-12 of kappa (such ties may round either way)."""
    t = int(np.argmax(tails <= kappa))
    near = tails[max(t - 1, 0):t + 1]
    return None if np.any(np.abs(near - kappa) < 1e-12) else t


@pytest.mark.parametrize("family", ["binomial", "poisson"])
def test_discrete_deviation_matches_scipy_grid(family):
    """Each pmf term is taken in log space.  The first terms used to
    underflow: at kappa 0.1, Binomial(500, 0.9) and Binomial(2000, 0.5)
    returned n instead of 459 and 1029, and Poisson(1000) raised instead of
    giving 1041."""
    if family == "binomial":
        cases = [(Binomial(n, p), scipy.stats.binom.sf(np.arange(n + 1), n, p))
                 for n in (0, 1, 2, 5, 10, 40, 100, 500, 1000, 2000)
                 for p in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95)]
    else:
        cases = [(Poisson(m), scipy.stats.poisson.sf(np.arange(int(m + 50 * m ** 0.5 + 50)), m))
                 for m in (0.1, 0.5, 1.0, 5.0, 12.0, 50.0, 100.0, 500.0, 1000.0)]
    checked = 0
    for dist, tails in cases:
        for kappa in _KAPPAS:
            expected = _scipy_deviation(tails, kappa)
            if expected is not None:
                assert discrete_deviation(dist, kappa) == expected, (dist, kappa)
                checked += 1
    assert checked >= len(cases) * len(_KAPPAS) - 8


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.builds(Poisson, st.floats(1e-3, 1e5)),
    st.builds(Binomial, st.integers(0, 20_000),
              st.floats(0.0, 1.0) | st.sampled_from([1e-9, 1.0 - 1e-9])),
), st.floats(1e-6, 1.0))
@example(Poisson(1e5), 0.1)
@example(Poisson(1e5), 1.0)
@example(Poisson(800.0), 1e-6)
@example(Binomial(20_000, 0.5), 1.0)
@example(Binomial(20_000, 1e-9), 0.5)
@example(Binomial(20_000, 1.0 - 1e-9), 0.5)
@example(Binomial(20_000, 0.0), 0.5)
@example(Binomial(20_000, 1.0), 0.5)
@example(Binomial(20_000, 1.0), 1.0)
def test_discrete_deviation_matches_full_walk(dist, kappa):
    """Skipping the pmf terms that are exactly 0.0 changes no result: the
    walk that sums every term from t = 0 is the reference."""
    assert discrete_deviation(dist, kappa) == reference_discrete_deviation(dist, kappa)


def test_poisson_deviation_large_mean_is_fast():
    """The walk starts near the mode, not at 0: summing every term from 0
    took about 50 s at this mean."""
    start = time.perf_counter()
    t = discrete_deviation(Poisson(1e8), 0.1)
    assert time.perf_counter() - start < 5.0
    assert scipy.stats.poisson.sf(t, 1e8) <= 0.1 < scipy.stats.poisson.sf(t - 1, 1e8)


# -- bounded_interval -----------------------------------------------------------------


def test_bounded_interval_relative():
    assert bounded_interval(10.0, Bounded(0.05)) == (9.5, 10.5)
    assert bounded_interval(0.0, Bounded(0.3)) == (0.0, 0.0)
    low, high = bounded_interval(-10.0, Bounded(0.05))
    assert (low, high) == (-10.5, -9.5)


def test_bounded_interval_explicit_range():
    assert bounded_interval(11.1, BoundedRange(10.1, 11.3)) == (10.1, 11.3)


def test_bounded_interval_per_entry_level():
    # a tag's own level wins; a bare Bounded() or any other tag takes the
    # global level, which must then be given
    assert bounded_interval(10.0, Bounded(0.2), 0.1) == (8.0, 12.0)
    assert bounded_interval(10.0, Bounded(), 0.1) == (9.0, 11.0)
    assert bounded_interval(10.0, Uniform(), 0.1) == (9.0, 11.0)
    assert bounded_interval(11.1, BoundedRange(10.1, 11.3), 0.1) == (10.1, 11.3)
    with pytest.raises(ValueError, match="global level"):
        bounded_interval(10.0, Bounded())


def test_bounded_interval_rejects_nonfinite():
    with pytest.raises(ValueError):
        bounded_interval(math.inf, Bounded(0.1))


@pytest.mark.parametrize("eps", [math.nan, math.inf, -0.1])
def test_bounded_interval_rejects_unusable_levels(eps):
    # a NaN level used to give a NaN interval, which corner checks read as 0
    for tag in (Bounded(), Uniform()):
        with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
            bounded_interval(10.0, tag, eps)


# -- support and draw_deviations -------------------------------------------------------


_LEVEL = st.floats(0.0, 2.0) | st.sampled_from([0.0, 0.05, 0.3])
_VALUE = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1.0, -3.5, 1e16])


@st.composite
def _discrete(draw):
    values = draw(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=5))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(values),
                            max_size=len(values)))
    return Discrete(tuple(values), tuple(w / sum(weights) for w in weights))


_ANY_TAG = st.one_of(
    st.builds(Bounded, st.none() | _LEVEL),
    st.tuples(_VALUE, _VALUE).map(lambda ends: BoundedRange(*sorted(ends))),
    st.builds(Normal, st.floats(-5.0, 5.0), st.floats(1e-3, 5.0)),
    st.just(Uniform()),
    st.builds(Poisson, st.floats(0.1, 50.0)),
    st.builds(Binomial, st.integers(0, 60), st.floats(0.0, 1.0)),
    _discrete(),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(nominal=_VALUE, tag=_ANY_TAG, eps=_LEVEL, seed=st.integers(0, 2 ** 64 - 1))
@example(nominal=0.0, tag=BoundedRange(0.0, -0.0), eps=0.0, seed=0)
def test_every_draw_lies_in_its_support(nominal, tag, eps, seed):
    """``nominal + draw_deviations(...)`` lies within ``support(...)`` up to
    a few ulps of the largest magnitude involved, for every tag family: the
    Monte Carlo check skips a row on that bound alone.  A Poisson tag has
    no support.  The range [0.0, -0.0] is drawn too (numpy's ``uniform``
    refused it)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    realized = nominal + robustcounter.uncertainty.draw_deviations(
        nominal, tag, eps, rng, 513)
    bounds = robustcounter.uncertainty.support(nominal, tag, eps)
    if isinstance(tag, Poisson):
        assert bounds is None
        return
    low, high = bounds
    slack = 4 * 2.0 ** -52 * max(abs(nominal), abs(low), abs(high))
    assert low <= high
    assert realized.min() >= low - slack and realized.max() <= high + slack


# -- conservatism ordering hook ----------------------------------------------------------


def test_normal_vs_bounded_radius_ordering():
    """The normal radius sits below the bounded radius exactly when
    lambda(kappa) * sigma < 1 (closed-form comparison)."""
    sigma = 1.0 / 3.0
    for kappa in (0.4, 0.25, 0.14, 0.05, 0.01, 0.0013):
        bounded = deviation_radius(7.0, Bounded(), epsilon=0.1)
        normal = deviation_radius(7.0, Normal(0.0, sigma), epsilon=0.1, kappa=kappa)
        if normal_lambda(kappa) * sigma < 1.0:
            assert normal < bounded
        else:
            assert normal > bounded


def test_deviation_radius_needs_kappa_only_where_read():
    assert deviation_radius(7.0, Bounded(), 0.1) == pytest.approx(0.7)
    assert deviation_radius(7.0, Uniform(), 0.1) == pytest.approx(0.7)
    with pytest.raises(ValueError, match="Normal.*needs kappa"):
        deviation_radius(7.0, Normal(0.0, 1.0), 0.1)
    with pytest.raises(ValueError, match="Poisson.*needs kappa"):
        deviation_radius(7.0, Poisson(5.0), 0.1)
    assert deviation_radius(7.0, Normal(0.0, 1.0), 0.1, kappa=0.5) == pytest.approx(0.0)


# -- UncertainSet ---------------------------------------------------------------------------


def test_distribution_validation():
    with pytest.raises(ValueError):
        Normal(0.0, 0.0)
    with pytest.raises(ValueError):
        Poisson(0.0)
    with pytest.raises(ValueError):
        Binomial(5, 1.5)
    for n in (3.5, 3.0, True, -1, 2**63, 10**23):
        with pytest.raises(ValueError, match="binomial n"):
            Binomial(n, 0.5)
    assert Binomial(2**63 - 1, 0.5).n == 2**63 - 1
    # numpy's Generator.poisson draws a mean up to this value, inclusive
    limit = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)
    rng = np.random.default_rng(0)
    rng.poisson(limit)
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(math.nextafter(limit, math.inf))
    assert Poisson(limit).mean == limit
    for mean in (math.nextafter(limit, math.inf), 1e19):
        with pytest.raises(ValueError, match="poisson mean"):
            Poisson(mean)
    with pytest.raises(ValueError):
        Discrete((1.0, 2.0), (0.6, 0.6))
    with pytest.raises(ValueError):
        BoundedRange(3.0, 1.0)


@pytest.mark.parametrize("make", [
    lambda bad: Bounded(bad),
    lambda bad: BoundedRange(bad, bad),
    lambda bad: BoundedRange(0.0, bad),
    lambda bad: Normal(bad, 1.0),
    lambda bad: Normal(0.0, bad),
    lambda bad: Poisson(bad),
    lambda bad: Discrete((0.0, bad), (0.5, 0.5)),
    lambda bad: Discrete((0.0, 1.0), (bad, 0.5)),
], ids=["bounded", "range low", "range high", "normal mean", "normal std",
        "poisson", "discrete value", "discrete prob"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_distribution_rejects_nonfinite_parameters(make, bad):
    """A NaN or infinite parameter would make every draw NaN or infinite."""
    with pytest.raises(ValueError):
        make(bad)


def _small_model():
    m = Model()
    x = m.add_variable("x")
    y = m.add_variable("y")
    m.set_objective("max", [(x, 1.0), (y, 1.0)])
    m.add_constraint([(x, 2.0), (y, 1.0)], "<=", 6.0, label="cap")
    return m.finalize(), x, y


def test_uncertain_set_rejects_duplicates():
    m, x, _ = _small_model()
    uset = UncertainSet([(0, x, Bounded())])
    with pytest.raises(ValueError, match="duplicate"):
        uset.add(0, x, Bounded(0.1))


def test_uncertain_set_validates_references():
    m, x, _ = _small_model()
    UncertainSet([(0, x, Bounded()), (0, RHS, Bounded())]).validate(m)
    with pytest.raises(ValueError, match="unknown constraint"):
        UncertainSet([(5, x, Bounded())]).validate(m)


@pytest.mark.parametrize("constraint_id, target", [
    (0, "x"), (0, None), (0, True), (0, 1.0), (0.0, 0), ("0", 0), (None, 0), (True, 0),
])
def test_uncertain_set_add_rejects_non_integer_ids(constraint_id, target):
    with pytest.raises(ValueError, match=re.escape(
            f"constraint {constraint_id!r}, target {target!r}")):
        UncertainSet().add(constraint_id, target, Bounded())


def test_uncertain_set_add_takes_numpy_integer_ids():
    m, x, y = _small_model()
    uset = UncertainSet().add(np.int64(0), np.int32(y), Bounded())
    uset.add(np.int64(0), RHS, Bounded())
    uset.validate(m)
    assert [e.target for e in uset] == [y, RHS]


def test_uncertain_set_entries_enter_through_add():
    """Every entry passes the tag check: a triple with an unknown tag is
    rejected, and an ``UncertainEntry`` is not a triple."""
    m, x, _ = _small_model()
    with pytest.raises(ValueError, match="unsupported distribution 'junk'"):
        UncertainSet([(0, x, "junk")])
    with pytest.raises(TypeError):
        UncertainSet([UncertainEntry(0, x, "junk")])


def test_annotation_round_trip():
    m, x, y = _small_model()
    uset = UncertainSet([
        (0, x, Bounded(0.05)),
        (0, y, Normal(100.0, 5.0)),
        (0, RHS, Uniform()),
    ])
    text = format_annotations(uset, m)
    again = parse_annotations(text, m)
    assert len(again) == 3
    assert again.entries[0].distribution == Bounded(0.05)
    assert again.entries[1].distribution == Normal(100.0, 5.0)
    assert again.entries[2].is_rhs


_reals = st.floats(-1e12, 1e12, allow_nan=False)
_positive = st.floats(0.0, 1e12, exclude_min=True)


@st.composite
def _discrete(draw):
    weights = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=5))
    probs = [w / sum(weights) for w in weights]
    probs[-1] = 1.0 - math.fsum(probs[:-1])
    values = draw(st.lists(_reals, min_size=len(probs), max_size=len(probs)))
    return Discrete(tuple(values), tuple(probs))


_distributions = st.one_of(
    st.builds(Bounded, st.none() | st.floats(0.0, 1e6)),
    st.tuples(_reals, _reals).map(sorted).map(lambda lh: BoundedRange(*lh)),
    st.builds(Normal, _reals, _positive),
    st.just(Uniform()),
    st.builds(Poisson, _positive),
    st.builds(Binomial, st.integers(0, 10_000) | st.integers(0, 10_000).map(np.int64),
              st.floats(0.0, 1.0)),
    _discrete(),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_distributions, _distributions, _distributions)
def test_annotations_round_trip_exactly(d_x, d_y, d_rhs):
    m, x, y = _small_model()
    uset = UncertainSet([(0, x, d_x), (0, y, d_y), (0, RHS, d_rhs)])
    again = parse_annotations(format_annotations(uset, m), m)
    assert [e.distribution for e in again] == [d_x, d_y, d_rhs]


def test_annotation_normal_keeps_every_digit():
    m, x, _ = _small_model()
    uset = UncertainSet([(0, x, Normal(100.123456789, 5.0))])
    assert "normal 100.123456789 5.0" in format_annotations(uset, m)


@pytest.mark.parametrize("payload, message", [
    ("normal 1 2 3", "normal takes 2 arguments, got 3"),
    ("uniform 5", "uniform takes 0 arguments, got 1"),
    ("poisson 1 2", "poisson takes 1 argument, got 2"),
    ("range 1 2 3", "range takes 2 arguments, got 3"),
    ("bounded 0.1 junk", "bounded takes 0 or 1 arguments, got 2"),
    ("binomial 10", "binomial takes 2 arguments, got 1"),
    ("discrete 1 0.5 2", "discrete takes value/probability pairs, got 3 arguments"),
    ("discrete", "discrete takes value/probability pairs, got 0 arguments"),
    ("normal 1 oops", "malformed normal arguments"),
    ("normal 1_0 2", "malformed normal arguments"),
    ("binomial \u0661\u0660 0.5", "malformed binomial arguments"),
    ("binomial +1_0 0.5", "malformed binomial arguments"),
    ("discrete \u0661 1", "malformed discrete arguments"),
    ("bounded inf", "malformed bounded arguments ['inf']: bounded half-width must be finite"),
    ("gamma 1 2", "unknown distribution tag 'gamma'"),
])
def test_annotation_tags_count_their_arguments(payload, message):
    m, _, _ = _small_model()
    with pytest.raises(ValueError, match=re.escape(f"annotation line 2: {message}")):
        parse_annotations(f"cap RHS(bounded)\ncap x({payload})\n", m)


def test_annotation_unknown_label_named():
    m, x, _ = _small_model()
    with pytest.raises(ValueError, match="nosuch"):
        parse_annotations("nosuch x(bounded 0.05)\n", m)


def test_annotation_unknown_variable_named():
    m, _, _ = _small_model()
    with pytest.raises(ValueError, match="ghost"):
        parse_annotations("cap ghost(bounded)\n", m)
