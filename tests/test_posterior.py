"""Tests for conjugate capacity and detection posteriors."""

import numpy as np
import pytest
import scipy.stats

from postfeas.errors import (
    CountOutOfRange,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    RankDeficient,
    SingularPrecision,
)
from postfeas.certification import draw_blocks
from postfeas.posterior import (
    BetaCoverage,
    Nig,
    StudentTRhs,
    fit_beta_binomial,
    fit_nig,
    fit_ols,
    load_panel_data,
)
from postfeas.robustify import rhs_quantile_tighten
from postfeas.stats import Rng


def make_regression(gen, n, d, sigma=0.7):
    """Synthetic linear data with an intercept column."""
    design = np.column_stack([np.ones(n), gen.uniform(-1.0, 1.0, (n, d - 1))])
    beta = gen.normal(0.0, 1.0, d)
    y = design @ beta + sigma * gen.standard_normal(n)
    return design, y, beta, sigma


def make_responses(gen, n, d, m):
    """One design with an intercept column and m responses on it, each
    with its own coefficients and noise scale."""
    design, _, _, _ = make_regression(gen, n, d)
    Y = design @ gen.normal(size=(d, m)) + gen.uniform(0.5, 2.0, m) * (
        gen.standard_normal((n, m)))
    return design, Y


def response(nig, j):
    """Response j of an m-response Nig as a one-response Nig."""
    mean = nig.mean if nig.mean.ndim == 1 else nig.mean[:, j]
    rate = nig.rate if np.ndim(nig.rate) == 0 else nig.rate[j]
    return Nig(mean=mean, precision=nig.precision, shape=nig.shape, rate=rate)


def assert_close(got, want, rel=1e-12):
    """Equal to rel relative to the largest entry of want."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def one_row(dof, loc, scale):
    """A one-row Student-t model of the right-hand side."""
    return StudentTRhs(rows=[[0.0]], dof=[dof], loc=[loc], scale=[scale])


def quantile(model, p):
    """p-quantile of a one-row model: its tightening at level p."""
    return float(rhs_quantile_tighten(model, p)[0])


class TestFitNig:
    def test_empty_data_returns_prior(self):
        prior = Nig.default(3)
        post = fit_nig(np.zeros((0, 3)), np.zeros(0), prior)
        assert np.array_equal(post.mean, prior.mean)
        assert np.array_equal(post.precision, prior.precision)
        assert post.shape == prior.shape
        assert post.rate == prior.rate

    def test_closed_form_against_direct_inverse(self):
        gen = np.random.default_rng(11)
        design, y, _, _ = make_regression(gen, 25, 4)
        prior = Nig(
            mean=gen.normal(size=4),
            precision=np.diag(gen.uniform(0.5, 2.0, 4)),
            shape=3.0,
            rate=1.5,
        )
        post = fit_nig(design, y, prior)
        lam_n = prior.precision + design.T @ design
        m_n = np.linalg.solve(lam_n, prior.precision @ prior.mean + design.T @ y)
        assert np.allclose(post.precision, lam_n, rtol=0.0, atol=1e-12)
        assert np.allclose(post.mean, m_n, rtol=0.0, atol=1e-10)
        assert post.shape == prior.shape + 12.5
        rate_text = prior.rate + 0.5 * (
            y @ y + prior.mean @ prior.precision @ prior.mean - m_n @ lam_n @ m_n
        )
        assert abs(post.rate - rate_text) <= 1e-8

    def test_stable_rate_matches_textbook_form(self):
        gen = np.random.default_rng(12)
        for _ in range(20):
            n = int(gen.integers(5, 60))
            d = int(gen.integers(1, 5))
            design, y, _, _ = make_regression(gen, n, max(d, 2))
            prior = Nig(
                mean=gen.normal(size=design.shape[1]),
                precision=np.diag(gen.uniform(0.1, 3.0, design.shape[1])),
                shape=float(gen.uniform(0.5, 4.0)),
                rate=float(gen.uniform(0.5, 4.0)),
            )
            post = fit_nig(design, y, prior)
            lam_n = prior.precision + design.T @ design
            m_n = np.linalg.solve(
                lam_n, prior.precision @ prior.mean + design.T @ y
            )
            textbook = prior.rate + 0.5 * (
                y @ y
                + prior.mean @ prior.precision @ prior.mean
                - m_n @ lam_n @ m_n
            )
            assert abs(post.rate - textbook) <= 1e-8

    def test_rate_positive_on_random_data(self):
        gen = np.random.default_rng(13)
        for _ in range(50):
            n = int(gen.integers(1, 40))
            design = gen.normal(size=(n, 3))
            y = gen.normal(scale=5.0, size=n)
            post = fit_nig(design, y, Nig.default(3))
            assert post.rate > 0.0

    def test_flat_prior_limit_recovers_ols(self):
        gen = np.random.default_rng(14)
        design, y, _, _ = make_regression(gen, 80, 4)
        prior = Nig(
            mean=np.zeros(4), precision=1e-10 * np.eye(4), shape=2.0, rate=2.0
        )
        post = fit_nig(design, y, prior)
        fit = fit_ols(design, y)
        assert np.max(np.abs(post.mean - fit.mean)) <= 1e-6

    def test_two_stage_update_equals_batch(self):
        gen = np.random.default_rng(15)
        design, y, _, _ = make_regression(gen, 48, 3)
        prior = Nig(
            mean=gen.normal(size=3),
            precision=np.diag(gen.uniform(0.5, 2.0, 3)),
            shape=2.5,
            rate=1.2,
        )
        # a posterior is the next update's prior as it is
        stage1 = fit_nig(design[:20], y[:20], prior)
        stage2 = fit_nig(design[20:], y[20:], stage1)
        batch = fit_nig(design, y, prior)
        assert np.allclose(stage2.mean, batch.mean, rtol=0.0, atol=1e-10)
        assert np.allclose(stage2.precision, batch.precision, rtol=0.0, atol=1e-10)
        assert abs(stage2.shape - batch.shape) <= 1e-10
        assert abs(stage2.rate - batch.rate) <= 1e-10

    @pytest.mark.parametrize("d, m", [(3, 5), (4, 4), (5, 2)])
    @pytest.mark.parametrize("per_response", [False, True],
                             ids=["shared-prior", "per-response-prior"])
    def test_m_responses_equal_per_column_fits(self, d, m, per_response):
        # m responses on one design are m one-response fits; at d == m a
        # shared (d,) prior mean must still act on each column
        gen = np.random.default_rng(17)
        design, Y = make_responses(gen, 30, d, m)
        mean = gen.normal(size=(d, m) if per_response else d)
        rate = gen.uniform(0.5, 2.0, m) if per_response else 1.3
        prior = Nig(mean=mean, precision=np.diag(gen.uniform(0.5, 2.0, d)),
                    shape=2.5, rate=rate)
        post = fit_nig(design, Y, prior)
        assert post.mean.shape == (d, m) and post.rate.shape == (m,)
        for j in range(m):
            one = fit_nig(design, Y[:, j],
                          response(prior, j) if per_response else prior)
            assert_close(post.mean[:, j], one.mean)
            assert_close(post.rate[j], one.rate)
            assert np.array_equal(post.precision, one.precision)
            assert post.shape == one.shape

    def test_m_response_posterior_is_next_prior(self):
        gen = np.random.default_rng(18)
        design, Y = make_responses(gen, 48, 3, 4)
        prior = Nig(
            mean=gen.normal(size=3),
            precision=np.diag(gen.uniform(0.5, 2.0, 3)),
            shape=2.5,
            rate=1.2,
        )
        stage1 = fit_nig(design[:20], Y[:20], prior)
        stage2 = fit_nig(design[20:], Y[20:], stage1)
        batch = fit_nig(design, Y, prior)
        assert_close(stage2.mean, batch.mean)
        assert_close(stage2.precision, batch.precision)
        assert stage2.shape == batch.shape
        assert_close(stage2.rate, batch.rate)

    @pytest.mark.parametrize("precision", [
        [[1.0, 1.0], [1.0, 1.0]],
        [[1.0, 2.0], [2.0, 1.0]],
        [[2.0, 1.0], [0.0, 2.0]],
    ], ids=["singular", "indefinite", "asymmetric"])
    def test_bad_precision_fails_closed(self, precision):
        # none is perturbed into a positive definite matrix; the data
        # (rows along [1, 1]) leave the bad direction as it is, and an
        # asymmetric one is not read through its lower triangle
        bad = Nig(mean=np.zeros(2), precision=np.array(precision), shape=2.0,
                  rate=2.0)
        design = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(SingularPrecision):
            fit_nig(design, np.array([1.0, 2.0]), bad)
        with pytest.raises(SingularPrecision):
            StudentTRhs.from_nig([[0.0]], bad, np.array([1.0, 0.5]))

    def test_posterior_precision_dominates_prior(self):
        gen = np.random.default_rng(16)
        design, y, _, _ = make_regression(gen, 30, 4)
        prior = Nig.default(4)
        post = fit_nig(design, y, prior)
        gap_eigs = np.linalg.eigvalsh(post.precision - prior.precision)
        assert np.min(gap_eigs) >= -1e-10
        assert post.shape == prior.shape + 15.0

    def test_indefinite_prior_precision_rejected(self):
        prior = Nig(
            mean=np.zeros(2),
            precision=np.array([[1.0, 2.0], [2.0, 1.0]]),
            shape=2.0,
            rate=2.0,
        )
        with pytest.raises(SingularPrecision):
            fit_nig(np.zeros((0, 2)), np.zeros(0), prior)

    def test_dimension_and_domain_errors(self):
        prior = Nig.default(3)
        with pytest.raises(DimensionMismatch):
            fit_nig(np.zeros(4), np.zeros(4), prior)
        with pytest.raises(DimensionMismatch):
            fit_nig(np.zeros((4, 3)), np.zeros(5), prior)
        with pytest.raises(DimensionMismatch):
            fit_nig(np.zeros((4, 2)), np.zeros(4), prior)
        bad = Nig(mean=np.zeros(3), precision=np.eye(3), shape=0.0, rate=2.0)
        with pytest.raises(DomainError):
            fit_nig(np.zeros((4, 3)), np.zeros(4), bad)
        # a prior of 2 responses, in its mean or its rate, for 4 responses
        for mean, rate in ((np.zeros((3, 2)), 1.0), (np.zeros(3), np.ones(2))):
            other = Nig(mean=mean, precision=np.eye(3), shape=2.0, rate=rate)
            with pytest.raises(DimensionMismatch):
                fit_nig(np.zeros((4, 3)), np.zeros((4, 4)), other)


class TestPredictive:
    def fitted(self, seed=21, n=40):
        gen = np.random.default_rng(seed)
        design, y, _, _ = make_regression(gen, n, 3)
        post = fit_nig(design, y, Nig.default(3))
        x_ctx = np.array([1.0, 0.3, -0.4])
        return post, x_ctx

    def test_closed_form_fields(self):
        post, x = self.fitted()
        pred = StudentTRhs.from_nig([[0.0]], post, x)
        lev = x @ np.linalg.solve(post.precision, x)
        assert pred.dof[0] == 2.0 * post.shape
        assert abs(pred.loc[0] - x @ post.mean) <= 1e-12
        expect = np.sqrt(post.rate / post.shape * (1.0 + lev))
        assert abs(pred.scale[0] - expect) <= 1e-12 * expect

    def test_rows_follow_their_posteriors(self):
        # Each row is its own response's predictive, bit for bit.
        gen = np.random.default_rng(24)
        x = np.array([1.0, 0.3, -0.4])
        design, Y = make_responses(gen, 40, 3, 3)
        post = fit_nig(design, Y, Nig.default(3))
        rows = np.arange(6.0).reshape(3, 2)
        model = StudentTRhs.from_nig(rows, post, x)
        assert np.array_equal(model.rows, rows)
        for i in range(3):
            alone = StudentTRhs.from_nig([[0.0]], response(post, i), x)
            assert model.dof[i] == alone.dof[0]
            assert model.loc[i] == alone.loc[0]
            assert model.scale[i] == alone.scale[0]

    def test_row_count_must_match_responses(self):
        gen = np.random.default_rng(25)
        design, Y = make_responses(gen, 30, 3, 3)
        post = fit_nig(design, Y, Nig.default(3))
        x = np.array([1.0, 0.3, -0.4])
        for rows in (np.ones((2, 2)), np.ones((4, 2))):
            with pytest.raises(DimensionMismatch):
                StudentTRhs.from_nig(rows, post, x)
        with pytest.raises(DimensionMismatch):
            StudentTRhs.from_nig(np.ones((3, 2)), response(post, 0), x)
        # a (d, 3) mean with 2 rates
        bad = Nig(mean=post.mean, precision=post.precision, shape=post.shape,
                  rate=post.rate[:2])
        with pytest.raises(DimensionMismatch):
            StudentTRhs.from_nig(np.ones((3, 2)), bad, x)
        # a (d,) mean or a scalar rate applies to every response
        shared = Nig(mean=post.mean[:, 0], precision=post.precision,
                     shape=post.shape, rate=post.rate)
        assert StudentTRhs.from_nig(np.ones((3, 2)), shared, x).loc.shape == (3,)

    def test_median_equals_loc(self):
        post, x = self.fitted()
        pred = StudentTRhs.from_nig([[0.0]], post, x)
        assert quantile(pred, 0.5) == pytest.approx(pred.loc[0], abs=1e-12)

    def test_quantile_strictly_increasing(self):
        pred = one_row(7.0, 2.0, 1.5)
        ps = np.linspace(0.02, 0.98, 25)
        qs = np.array([quantile(pred, p) for p in ps])
        assert np.all(np.diff(qs) > 0.0)

    def test_sampler_matches_quantile(self):
        model = one_row(9.0, -1.0, 2.0)
        draws = model.draw(Rng.for_purpose(77, "pred-draws"), 10**5)[:, 0]
        q05 = quantile(model, 0.05)
        emp = np.quantile(draws, 0.05)
        dens = scipy.stats.t.pdf((q05 + 1.0) / 2.0, 9.0) / 2.0
        se = np.sqrt(0.05 * 0.95 / draws.size) / dens
        assert abs(emp - q05) <= 3.0 * se
        frac = np.mean(draws <= q05)
        assert abs(frac - 0.05) <= 3.0 * np.sqrt(0.05 * 0.95 / draws.size)

    def test_single_draw_reproducible(self):
        model = one_row(5.0, 0.5, 1.1)
        rng = Rng.for_purpose(3, "one-draw")
        first = model.draw(rng, 1)
        again = model.draw(Rng(rng.seed, rng.stream_id), 1)
        assert first.shape == (1, 1)
        assert np.array_equal(first, again)

    @pytest.mark.parametrize("dof", [[2.5] * 7, [40.0] * 3, [9.0],
                                     [3.0, 3.0, 5.0], [7.0, 4.0]])
    @pytest.mark.parametrize("count", [1, 1024, 1500])
    def test_draws_equal_the_per_row_dof_stream(self, dof, count):
        # a shared dof is drawn through numpy's scalar path; the values
        # and the generator's end state equal those of the per-row array
        m = len(dof)
        model = StudentTRhs(rows=np.ones((m, 1)), dof=dof,
                            loc=np.linspace(-1.0, 2.0, m),
                            scale=np.linspace(0.5, 1.5, m))
        rng = Rng.for_purpose(5, "shared-dof")
        ref = Rng(rng.seed, rng.stream_id).generator
        got = model.draw(rng, count)
        want = model.loc + model.scale * ref.standard_t(np.array(dof), (count, m))
        assert got.tobytes() == want.tobytes()
        assert rng.generator.random() == ref.random()

    def test_large_sample_scale_limit(self):
        gen = np.random.default_rng(22)
        n, sigma = 10_000, 1.3
        design, y, _, _ = make_regression(gen, n, 3, sigma=sigma)
        post = fit_nig(design, y, Nig.default(3))
        x = np.array([1.0, 0.2, -0.5])
        lev = x @ np.linalg.solve(design.T @ design, x)
        target = sigma * np.sqrt(1.0 + lev)
        pred = StudentTRhs.from_nig([[0.0]], post, x)
        assert abs(pred.scale[0] - target) <= 0.02 * target

    def test_scale_decreases_with_data(self):
        # The context sits far outside the covariate cloud so the shrinking
        # leverage term dominates the noise in the variance estimate.
        gen = np.random.default_rng(23)
        design, y, _, _ = make_regression(gen, 2000, 3)
        x = np.array([1.0, 10.0, 10.0])
        scales = []
        for n in (20, 80, 320, 1280):
            post = fit_nig(design[:n], y[:n], Nig.default(3))
            scales.append(StudentTRhs.from_nig([[0.0]], post, x).scale[0])
        assert np.all(np.diff(scales) < 0.0)

    def test_context_shape_checked(self):
        post, _ = self.fitted()
        with pytest.raises(DimensionMismatch):
            StudentTRhs.from_nig([[0.0]], post, np.zeros(5))

    def test_quantile_domain(self):
        pred = one_row(4.0, 0.0, 1.0)
        for p in (-0.1, 0.0, 1.0, 1.3):
            with pytest.raises(DomainError):
                quantile(pred, p)


class TestOls:
    """fit_ols is the reference-prior Nig posterior, and from_nig turns it
    into the classical t prediction law."""

    def test_exact_fit_collapses_interval(self):
        design = np.array(
            [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0], [1.0, 4.0]]
        )
        y = design @ np.array([2.0, -3.0])
        fit = fit_ols(design, y)
        assert fit.rate / fit.shape <= 1e-24
        x = np.array([1.0, 2.5])
        loc = float(x @ fit.mean)
        pred = StudentTRhs.from_nig([[0.0]], fit, x)
        for p in (0.01, 0.5, 0.99):
            assert abs(quantile(pred, p) - loc) <= 1e-10

    def test_closed_form_fields(self):
        # the t prediction law: dof n - d, loc x'beta_hat and scale
        # s sqrt(1 + x'(X'X)^{-1} x), from lstsq and an explicit inverse
        gen = np.random.default_rng(30)
        design, Y = make_responses(gen, 12, 3, 2)
        n, d = design.shape
        x = np.array([1.0, 0.3, -0.4])
        pred = StudentTRhs.from_nig(np.ones((2, 1)), fit_ols(design, Y), x)
        for i in range(2):
            coef, rss, _, _ = np.linalg.lstsq(design, Y[:, i], rcond=None)
            s2 = float(rss[0]) / (n - d)
            scale = np.sqrt(s2 * (1.0 + x @ np.linalg.inv(design.T @ design) @ x))
            assert pred.dof[i] == n - d
            assert pred.loc[i] == pytest.approx(x @ coef, rel=1e-12)
            assert pred.scale[i] == pytest.approx(scale, rel=1e-12)

    @pytest.mark.parametrize("d, m", [(3, 5), (4, 4), (5, 2)])
    def test_m_responses_equal_per_column_fits(self, d, m):
        gen = np.random.default_rng(36)
        design, Y = make_responses(gen, 30, d, m)
        fit = fit_ols(design, Y)
        assert fit.mean.shape == (d, m) and fit.rate.shape == (m,)
        for j in range(m):
            one = fit_ols(design, Y[:, j])
            assert_close(fit.mean[:, j], one.mean)
            assert_close(fit.rate[j], one.rate)
            assert np.array_equal(fit.precision, one.precision)
            assert fit.shape == one.shape

    def test_zero_scale_rejected(self):
        fit = Nig(mean=np.ones(2), precision=np.eye(2), shape=1.5, rate=0.0)
        with pytest.raises(DomainError, match="nonpositive predictive variance"):
            StudentTRhs.from_nig([[0.0]], fit, np.array([1.0, 2.5]))

    def test_median_is_point_prediction(self):
        gen = np.random.default_rng(31)
        design, y, _, _ = make_regression(gen, 50, 4)
        fit = fit_ols(design, y)
        x = np.array([1.0, 0.4, -0.2, 0.1])
        pred = StudentTRhs.from_nig([[0.0]], fit, x)
        assert quantile(pred, 0.5) == pytest.approx(
            float(x @ fit.mean), abs=1e-10
        )

    def test_residual_dof(self):
        gen = np.random.default_rng(32)
        design, y, _, _ = make_regression(gen, 90, 6)
        fit = fit_ols(design, y)
        assert fit.shape == 42.0
        x = np.array([1.0, 0.1, 0.2, 0.3, 0.4, 0.5])
        assert StudentTRhs.from_nig([[0.0]], fit, x).dof[0] == 84.0

    def test_closed_form_against_lstsq(self):
        gen = np.random.default_rng(33)
        design, y, _, _ = make_regression(gen, 40, 5)
        fit = fit_ols(design, y)
        ref, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
        assert np.allclose(fit.mean, ref, rtol=0.0, atol=1e-10)
        assert np.array_equal(fit.precision, design.T @ design)
        resid = y - design @ ref
        assert fit.rate == pytest.approx(resid @ resid / 2.0, rel=1e-12)
        # rate / shape is RSS / (n - d) bit for bit: halving is exact
        rss = 2.0 * fit.rate
        assert fit.rate / fit.shape == rss / 35.0

    def test_lower_prediction_quantile_calibration(self):
        gen = np.random.default_rng(34)
        n, d, reps = 30, 3, 2000
        hits = 0
        for _ in range(reps):
            design = np.column_stack(
                [np.ones(n), gen.uniform(-1.0, 1.0, (n, d - 1))]
            )
            beta = gen.normal(0.0, 1.0, d)
            sigma = float(gen.uniform(0.5, 2.0))
            y = design @ beta + sigma * gen.standard_normal(n)
            fit = fit_ols(design, y)
            x_new = np.array([1.0, *gen.uniform(-1.0, 1.0, d - 1)])
            y_new = float(x_new @ beta + sigma * gen.standard_normal())
            pred = StudentTRhs.from_nig([[0.0]], fit, x_new)
            if y_new < quantile(pred, 0.05):
                hits += 1
        assert abs(hits / reps - 0.05) <= 0.015

    def test_rank_errors(self):
        with pytest.raises(RankDeficient):
            fit_ols(np.ones((3, 3)), np.zeros(3))
        dup = np.column_stack([np.ones(10), np.arange(10.0), np.arange(10.0)])
        with pytest.raises(RankDeficient):
            fit_ols(dup, np.zeros(10))

    def test_dimension_errors(self):
        gen = np.random.default_rng(35)
        fit = fit_ols(*make_regression(gen, 8, 3)[:2])
        with pytest.raises(DimensionMismatch):
            StudentTRhs.from_nig([[0.0]], fit, np.zeros(2))
        with pytest.raises(DimensionMismatch):
            fit_ols(np.zeros((4, 2)), np.zeros(3))


class TestBetaBinomial:
    def test_no_data_returns_prior(self):
        post = fit_beta_binomial(np.zeros((1, 2)), np.zeros(1), 1.0)
        assert np.array_equal(post.a, np.ones((1, 2)))
        assert np.array_equal(post.b, np.ones((1, 2)))

    def test_saturated_cluster_cell(self):
        post = fit_beta_binomial(np.array([[480.0]]), np.array([480.0]), 1.0)
        assert post.a[0, 0] == 481.0
        assert post.b[0, 0] == 1.0

    def test_update_arithmetic(self):
        detected = np.array([[3.0, 0.0], [7.0, 5.0]])
        sizes = np.array([10.0, 12.0])
        post = fit_beta_binomial(detected, sizes, 1.5, a0=2.0, b0=0.5)
        assert isinstance(post, BetaCoverage)
        assert np.array_equal(post.a, 2.0 + detected)
        assert np.array_equal(post.b, 0.5 + sizes[:, None] - detected)
        assert post.threshold == 1.5

    def test_posterior_mean_matches_monte_carlo(self):
        post = fit_beta_binomial(np.array([[2.0]]), np.array([6.0]), 1.0)
        a, b = post.a[0, 0], post.b[0, 0]
        exact = a / (a + b)
        rng = Rng.for_purpose(99, "beta-mean")
        draws = rng.generator.beta(a, b, size=10**6)
        se = np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)) / draws.size)
        assert abs(draws.mean() - exact) <= 3.0 * se

    def test_mean_between_prior_and_empirical(self):
        gen = np.random.default_rng(41)
        for a0, b0 in ((1.0, 1.0), (2.0, 6.0)):
            n = gen.integers(2, 200, size=(8,)).astype(float)
            s = np.column_stack(
                [gen.integers(1, int(v), size=3) for v in n]
            ).T.astype(float)
            post = fit_beta_binomial(s, n, 1.0, a0=a0, b0=b0)
            prior_mean = a0 / (a0 + b0)
            post_mean = post.a / (post.a + post.b)
            emp = s / n[:, None]
            lo = np.minimum(prior_mean, emp)
            hi = np.maximum(prior_mean, emp)
            inner = (s > 0) & (s < n[:, None]) & (np.abs(emp - prior_mean) > 1e-9)
            assert np.all(post_mean[inner] > lo[inner])
            assert np.all(post_mean[inner] < hi[inner])

    def test_count_and_domain_errors(self):
        with pytest.raises(CountOutOfRange):
            fit_beta_binomial(np.array([[5.0]]), np.array([4.0]), 1.0)
        with pytest.raises(CountOutOfRange):
            fit_beta_binomial(np.array([[-1.0]]), np.array([4.0]), 1.0)
        with pytest.raises(CountOutOfRange):
            fit_beta_binomial(np.array([[0.0]]), np.array([-1.0]), 1.0)
        with pytest.raises(DomainError):
            fit_beta_binomial(np.array([[1.0]]), np.array([4.0]), 1.0, a0=0.0)
        with pytest.raises(DimensionMismatch):
            fit_beta_binomial(np.array([1.0, 2.0]), np.array([4.0]), 1.0)
        with pytest.raises(DimensionMismatch):
            fit_beta_binomial(np.array([[1.0]]), np.array([4.0, 5.0]), 1.0)
        with pytest.raises(DomainError, match="threshold must be finite"):
            fit_beta_binomial(np.array([[1.0]]), np.array([4.0]), np.nan)


class TestQMatrixSampling:
    def posterior(self, j=40, k=50):
        return BetaCoverage(a=np.ones((j, k)), b=np.ones((j, k)), threshold=1.0)

    def test_entries_in_unit_interval(self):
        post = fit_beta_binomial(
            np.array([[3.0, 0.0], [7.0, 5.0]]), np.array([10.0, 12.0]), 1.0
        )
        q = post.draw(Rng.for_purpose(5, "q"), 1)[0]
        assert q.shape == (2, 2)
        assert np.all((q > 0.0) & (q < 1.0))

    def test_uniform_prior_is_uniform(self):
        q = self.posterior().draw(Rng.for_purpose(6, "q-unif"), 1)[0]
        flat = np.sort(q.ravel())
        n = flat.size
        grid = np.arange(1, n + 1) / n
        dist = np.max(
            np.maximum(np.abs(grid - flat), np.abs(grid - 1.0 / n - flat))
        )
        assert dist <= 1.6276 / np.sqrt(n)

    def test_fixed_stream_reproduces(self):
        post = self.posterior(5, 4)
        rng = Rng.for_purpose(7, "q-repro")
        first = post.draw(rng, 1)
        again = post.draw(Rng(rng.seed, rng.stream_id), 1)
        assert np.array_equal(first, again)

    def test_draw_stack_shape_and_determinism(self):
        post = fit_beta_binomial(
            np.array([[3.0, 0.0], [7.0, 5.0]]), np.array([10.0, 12.0]), 1.0
        )
        rng = Rng.for_purpose(8, "q-stack")
        stack = post.draw(rng, 25)
        assert stack.shape == (25, 2, 2)
        assert np.all((stack > 0.0) & (stack < 1.0))
        assert np.array_equal(stack, post.draw(Rng(rng.seed, rng.stream_id), 25))

    def test_draw_stack_count_validated(self):
        post = self.posterior(2, 2)
        with pytest.raises(CountOutOfRange):
            next(draw_blocks(post, 0, Rng.for_purpose(9, "q-bad")))


def write_panel_fixture(tmp_path, detections, clusters, weights):
    det = tmp_path / "detections.csv"
    clu = tmp_path / "clusters.csv"
    wts = tmp_path / "weights.csv"
    det.write_text(detections, encoding="utf-8")
    clu.write_text(clusters, encoding="utf-8")
    wts.write_text(weights, encoding="utf-8")
    return det, clu, wts


GOOD_DETECTIONS = (
    "cluster,gene,detected_count\n"
    "cB,g1,40\n"
    "cA,g1,10\n"
    "cA,g2,0\n"
    "cB,g3,55\n"
)
GOOD_CLUSTERS = "cluster,n_cells\ncB,60\ncA,25\n"
GOOD_WEIGHTS = "gene,weight\ng1,1.5\ng2,0.25\ng3,2.0\n"


class TestLoadPanelData:
    def test_good_fixture(self, tmp_path):
        paths = write_panel_fixture(
            tmp_path, GOOD_DETECTIONS, GOOD_CLUSTERS, GOOD_WEIGHTS
        )
        data = load_panel_data(*paths)
        assert data.genes == ("g1", "g2", "g3")
        assert data.clusters == ("cA", "cB")
        assert np.array_equal(data.weights, [1.5, 0.25, 2.0])
        assert np.array_equal(data.cluster_sizes, [25.0, 60.0])
        expect = np.array([[10.0, 0.0, 0.0], [40.0, 0.0, 55.0]])
        assert np.array_equal(data.detected, expect)

    def test_missing_pairs_default_to_zero(self, tmp_path):
        paths = write_panel_fixture(
            tmp_path,
            "cluster,gene,detected_count\ncA,g2,5\n",
            GOOD_CLUSTERS,
            GOOD_WEIGHTS,
        )
        data = load_panel_data(*paths)
        assert data.detected.sum() == 5.0
        assert data.detected[0, 1] == 5.0

    def test_whitespace_tolerated(self, tmp_path):
        paths = write_panel_fixture(
            tmp_path,
            "cluster, gene ,detected_count\n cA , g1 , 3\n",
            "cluster , n_cells\ncA, 25\n",
            "gene, weight\n g1 , 1.5\n",
        )
        data = load_panel_data(*paths)
        assert data.genes == ("g1",)
        assert data.detected[0, 0] == 3.0

    def test_unknown_references_rejected(self, tmp_path):
        paths = write_panel_fixture(
            tmp_path,
            "cluster,gene,detected_count\ncZ,g1,1\n",
            GOOD_CLUSTERS,
            GOOD_WEIGHTS,
        )
        with pytest.raises(DomainError, match="unknown cluster"):
            load_panel_data(*paths)
        paths = write_panel_fixture(
            tmp_path,
            "cluster,gene,detected_count\ncA,gZ,1\n",
            GOOD_CLUSTERS,
            GOOD_WEIGHTS,
        )
        with pytest.raises(DomainError, match="unknown gene"):
            load_panel_data(*paths)

    def test_duplicates_rejected(self, tmp_path):
        paths = write_panel_fixture(
            tmp_path,
            GOOD_DETECTIONS,
            GOOD_CLUSTERS,
            "gene,weight\ng1,1.0\ng1,2.0\n",
        )
        with pytest.raises(DomainError, match="duplicate gene"):
            load_panel_data(*paths)
        paths = write_panel_fixture(
            tmp_path,
            GOOD_DETECTIONS,
            "cluster,n_cells\ncA,25\ncA,30\ncB,60\n",
            GOOD_WEIGHTS,
        )
        with pytest.raises(DomainError, match="duplicate cluster"):
            load_panel_data(*paths)
        paths = write_panel_fixture(
            tmp_path,
            GOOD_DETECTIONS + "cA,g2,7\n",
            GOOD_CLUSTERS,
            GOOD_WEIGHTS,
        )
        with pytest.raises(DomainError, match=r"\(cA, g2\) more than once"):
            load_panel_data(*paths)

    def test_bad_numerics_rejected(self, tmp_path):
        paths = write_panel_fixture(
            tmp_path,
            "cluster,gene,detected_count\ncA,g1,ten\n",
            GOOD_CLUSTERS,
            GOOD_WEIGHTS,
        )
        with pytest.raises(DomainError, match=r"\(cA, g1\) detected_count: "
                                              r'expected an integer, got "ten"'):
            load_panel_data(*paths)
        paths = write_panel_fixture(
            tmp_path,
            GOOD_DETECTIONS,
            GOOD_CLUSTERS,
            "gene,weight\ng1,heavy\ng2,0.25\ng3,2.0\n",
        )
        with pytest.raises(DomainError, match="gene 'g1' weight: expected a finite "
                                              'number, got "heavy"'):
            load_panel_data(*paths)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, tmp_path, weight):
        paths = write_panel_fixture(
            tmp_path,
            GOOD_DETECTIONS,
            GOOD_CLUSTERS,
            f"gene,weight\ng1,1.5\ng2,{weight}\ng3,2.0\n",
        )
        with pytest.raises(DomainError,
                           match=r"weights\.csv: gene 'g2' weight: expected a "
                                 r"finite number, got -?(NaN|Infinity)"):
            load_panel_data(*paths)

    def test_header_and_shape_errors(self, tmp_path):
        paths = write_panel_fixture(
            tmp_path,
            "gene,cluster,detected_count\ncA,g1,1\n",
            GOOD_CLUSTERS,
            GOOD_WEIGHTS,
        )
        with pytest.raises(DomainError, match="expected header"):
            load_panel_data(*paths)
        paths = write_panel_fixture(
            tmp_path,
            "cluster,gene,detected_count\ncA,g1\n",
            GOOD_CLUSTERS,
            GOOD_WEIGHTS,
        )
        with pytest.raises(DomainError, match="fields"):
            load_panel_data(*paths)

    def test_empty_inputs_rejected(self, tmp_path):
        paths = write_panel_fixture(tmp_path, GOOD_DETECTIONS, GOOD_CLUSTERS, "")
        with pytest.raises(EmptyInput):
            load_panel_data(*paths)
        paths = write_panel_fixture(
            tmp_path, GOOD_DETECTIONS, GOOD_CLUSTERS, "gene,weight\n"
        )
        with pytest.raises(EmptyInput):
            load_panel_data(*paths)

    def test_count_bounds_enforced(self, tmp_path):
        paths = write_panel_fixture(
            tmp_path,
            "cluster,gene,detected_count\ncA,g1,26\n",
            GOOD_CLUSTERS,
            GOOD_WEIGHTS,
        )
        with pytest.raises(CountOutOfRange):
            load_panel_data(*paths)
        paths = write_panel_fixture(
            tmp_path,
            GOOD_DETECTIONS,
            "cluster,n_cells\ncA,0\ncB,60\n",
            GOOD_WEIGHTS,
        )
        with pytest.raises(CountOutOfRange):
            load_panel_data(*paths)
