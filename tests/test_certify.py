"""Tests for Monte Carlo violation certificates."""

import json

import numpy as np
import pytest
import scipy.stats

from postfeas import stats
from postfeas.certification import (
    BLOCK,
    Certificate,
    certificate_to_json,
    certify,
    clopper_pearson_upper,
    draw_blocks,
    estimate_violation,
    violation_flags,
)
from postfeas.errors import CountOutOfRange, DimensionMismatch, DomainError
from postfeas.posterior import BetaCoverage, GaussianRows, StudentTRhs
from postfeas.stats import Rng


class TestClopperPearsonUpper:
    def test_table_value(self):
        value = clopper_pearson_upper(82, 4000, 0.05)
        assert value == pytest.approx(0.024582, abs=1e-5)
        assert value == pytest.approx(0.02458190209402681, abs=1e-12)

    def test_zero_count_closed_form(self):
        for m, beta in ((10, 0.05), (500, 0.01), (4000, 0.1)):
            expect = 1.0 - beta ** (1.0 / m)
            assert clopper_pearson_upper(0, m, beta) == pytest.approx(
                expect, abs=1e-12
            )

    def test_full_count_is_one(self):
        assert clopper_pearson_upper(17, 17, 0.05) == 1.0

    def test_matches_beta_ppf(self):
        gen = np.random.default_rng(81)
        for _ in range(25):
            m = int(gen.integers(1, 5000))
            s = int(gen.integers(0, m))
            beta = float(gen.uniform(0.005, 0.3))
            ref = scipy.stats.beta.ppf(1.0 - beta, s + 1, m - s)
            assert clopper_pearson_upper(s, m, beta) == pytest.approx(
                float(ref), abs=1e-10
            )

    def test_nondecreasing_in_count(self):
        vals = [clopper_pearson_upper(s, 25, 0.05) for s in range(26)]
        assert np.all(np.diff(vals) > 0.0)
        assert vals[-1] == 1.0

    def test_tightens_with_more_draws(self):
        vals = [
            clopper_pearson_upper(2, 100, 0.05),
            clopper_pearson_upper(20, 1000, 0.05),
            clopper_pearson_upper(200, 10000, 0.05),
        ]
        assert np.all(np.diff(vals) < 0.0)

    def test_gap_to_point_estimate_shrinks(self):
        for v in (0.01, 0.05, 0.2, 0.5):
            for m in (100, 1000, 10000):
                s = round(v * m)
                ub = clopper_pearson_upper(s, m, 0.05)
                gap = ub - s / m
                assert gap > 0.0
                assert gap <= 3.0 * np.sqrt(v * (1.0 - v) / m) + 2.0 / m

    def test_validation(self):
        with pytest.raises(CountOutOfRange):
            clopper_pearson_upper(-1, 10, 0.05)
        with pytest.raises(CountOutOfRange):
            clopper_pearson_upper(11, 10, 0.05)
        with pytest.raises(CountOutOfRange):
            clopper_pearson_upper(0, 0, 0.05)
        with pytest.raises(DomainError):
            clopper_pearson_upper(1, 10, 0.0)
        with pytest.raises(DomainError):
            clopper_pearson_upper(1, 10, 1.0)

    @pytest.mark.parametrize("s, m", [(2.7, 10), (2, 10.9), (True, 10), (1, True),
                                      (np.float64(2.0), 10)])
    def test_rejects_counts_that_are_not_integers(self, s, m):
        with pytest.raises(CountOutOfRange):
            clopper_pearson_upper(s, m, 0.05)

    def test_accepts_numpy_integers(self):
        assert clopper_pearson_upper(np.int64(3), np.int32(100), 0.05) == (
            clopper_pearson_upper(3, 100, 0.05))

    @pytest.mark.parametrize("m", [100, 2000, 4000, 5000])
    def test_every_count_against_beta_ppf(self, m):
        vals = np.array([clopper_pearson_upper(s, m, 0.05) for s in range(m + 1)])
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) > 0.0)
        s = np.arange(m)
        ref = scipy.stats.beta.ppf(0.95, s + 1, m - s)
        assert np.max(np.abs(vals[:-1] - ref) / ref) <= 1e-10

    def test_incomplete_beta_evaluations_per_bound(self, monkeypatch):
        calls = []
        inner = stats.reg_inc_beta

        def counted(x, a, b):
            calls.append(x)
            return inner(x, a, b)

        monkeypatch.setattr(stats, "reg_inc_beta", counted)
        per_bound = []
        for s in range(5000):
            calls.clear()
            clopper_pearson_upper(s, 5000, 0.05)
            per_bound.append(len(calls))
        assert np.mean(per_bound) <= 3
        assert max(per_bound) <= 8


class FnModel:
    """A posterior model assembled from two plain functions."""

    def __init__(self, draw, residuals):
        self.draw = draw
        self.residuals = residuals


def uniform_rhs(lo, hi):
    # constraint 0*x <= b with b ~ U(lo, hi): violated exactly when b < 0
    return FnModel(
        lambda rng, count: rng.generator.uniform(lo, hi, (count, 1)),
        lambda x, batch: np.zeros_like(batch) * np.sum(x) - batch,
    )


def uniform_below(p):
    # one draw u ~ U(0, 1), violated when u < p
    return FnModel(
        lambda rng, count: rng.generator.uniform(0.0, 1.0, (count, 1)),
        lambda x, batch: p - batch,
    )


def constant_rhs(value):
    # 0*x <= -value: residual value on every draw
    return FnModel(lambda rng, count: np.full((count, 1), value),
                   lambda x, batch: batch)


class TestEstimateViolation:
    def test_origin_feasible_when_rhs_positive(self):
        rows = np.array([[1.0, 2.0], [0.5, 0.3]])
        model = FnModel(
            lambda rng, count: rng.generator.uniform(0.5, 2.0, (count, 2)),
            lambda x, batch: (rows @ x)[np.newaxis, :] - batch,
        )
        s, counts = estimate_violation(
            np.zeros((1, 2)), model, 500, Rng.for_purpose(1, "cert-a")
        )
        assert s.tolist() == [0]
        assert counts.tolist() == [[0, 0]]

    def test_symmetric_rhs_violates_half_the_time(self):
        m = 10**4
        s, _ = estimate_violation(
            np.array([[3.0]]),
            uniform_rhs(-1.0, 1.0),
            m,
            Rng.for_purpose(2, "cert-b"),
        )
        se = np.sqrt(0.25 / m)
        assert abs(s[0] / m - 0.5) <= 3.0 * se

    def test_fixed_stream_reproduces_count(self):
        rng = Rng.for_purpose(3, "cert-c")
        args = (np.array([[1.0]]), uniform_rhs(-1.0, 1.0), 777)
        s1, _ = estimate_violation(*args, rng)
        s2, _ = estimate_violation(*args, Rng(rng.seed, rng.stream_id))
        assert s1.tolist() == s2.tolist()

    def test_per_constraint_counts(self):
        model = FnModel(
            lambda rng, count: rng.generator.uniform(-1.0, 1.0, (count, 3)),
            lambda x, batch: batch - 0.5,
        )
        s, counts = estimate_violation(
            np.zeros((1, 1)), model, 2000, Rng.for_purpose(4, "cert-d")
        )
        assert counts is not None
        assert counts.shape == (1, 3)
        assert np.all(counts >= 0)
        assert counts.max() <= s[0] <= counts.sum()
        assert s[0] > 0

    def test_strict_inequality_at_zero_residual(self):
        s, _ = estimate_violation(
            np.zeros((1, 1)), constant_rhs(0.0), 64, Rng.for_purpose(5, "cert-e")
        )
        assert s.tolist() == [0]

        s, _ = estimate_violation(
            np.zeros((1, 1)), constant_rhs(1e-300), 64, Rng.for_purpose(6, "cert-f")
        )
        assert s.tolist() == [64]

    def test_nan_residual_counts_as_violation(self):
        s, counts = estimate_violation(
            np.zeros((1, 1)), constant_rhs(np.nan), 64, Rng.for_purpose(6, "cert-nan")
        )
        assert s.tolist() == [64]
        assert counts.tolist() == [[64]]

    def test_non_finite_decision_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError):
                estimate_violation(
                    np.array([[bad, 1.0]]), uniform_rhs(0.5, 1.5), 100,
                    Rng.for_purpose(6, "cert-x"),
                )
            # one bad decision rejects the whole stack
            with pytest.raises(DomainError):
                estimate_violation(
                    np.array([[0.0, 1.0], [1.0, bad]]), uniform_rhs(0.5, 1.5),
                    100, Rng.for_purpose(6, "cert-x"),
                )
            with pytest.raises(DomainError):
                certify(np.array([1.0, bad]), uniform_rhs(0.5, 1.5), 100, 0.05,
                        Rng.for_purpose(6, "cert-x"))

    def test_shape_validation(self):
        def draw(rng, count):
            return np.zeros((count, 1))

        with pytest.raises(DomainError):
            estimate_violation(
                np.zeros((1, 1)),
                FnModel(draw, lambda x, b: np.zeros((3, 1))),
                5,
                Rng.for_purpose(7, "cert-g"),
            )
        with pytest.raises(DomainError):
            estimate_violation(
                np.zeros((1, 1)),
                FnModel(draw, lambda x, b: np.zeros(5)),
                5,
                Rng.for_purpose(8, "cert-h"),
            )
        # every decision of a stack must give the same number of constraints
        with pytest.raises(DomainError, match="at decision 1"):
            estimate_violation(
                np.array([[0.0], [1.0]]),
                FnModel(draw, lambda x, b: np.zeros((len(b), 1 + int(x[0])))),
                5,
                Rng.for_purpose(8, "cert-h"),
            )
        with pytest.raises(CountOutOfRange):
            estimate_violation(
                np.zeros((1, 1)), uniform_rhs(-1.0, 1.0), 0,
                Rng.for_purpose(9, "cert-i"),
            )
        # decisions come as a (D, n) stack with D >= 1
        for xs in (np.zeros(1), np.zeros((0, 1)), np.zeros((1, 1, 1))):
            with pytest.raises(DimensionMismatch):
                estimate_violation(xs, uniform_rhs(-1.0, 1.0), 5,
                                   Rng.for_purpose(9, "cert-i"))


def family_models():
    """One small model of each posterior family, with a decision x."""
    return {
        "student_t": (
            StudentTRhs(rows=[[1.0, 0.5], [0.2, 1.0]], dof=[5.0, 9.0],
                        loc=[2.0, 1.6], scale=[0.5, 0.3]),
            np.array([1.0, 1.0]),
        ),
        "gaussian": (
            GaussianRows(centers=[[0.0, 0.2, 1.0]],
                         factors=[np.linalg.cholesky(
                             [[0.25, 0.05, 0.0], [0.05, 0.2, 0.0],
                              [0.0, 0.0, 0.3]])]),
            np.array([1.0, 0.5]),
        ),
        "beta": (
            BetaCoverage(a=[[2.0, 3.0], [4.0, 1.5]], b=[[2.0, 2.0], [3.0, 2.5]],
                         threshold=0.9),
            np.array([1.0, 1.0]),
        ),
    }


def nan_residual_model():
    """Three constraints whose residual is NaN on about a fifth of the
    draws of the first, with a decision x."""
    def residuals(x, batch):
        res = batch * x[0] - x[1]
        res[batch[:, 0] > 0.6, 0] = np.nan
        return res

    return (FnModel(lambda rng, count: rng.generator.uniform(-1.0, 1.0, (count, 3)),
                    residuals),
            np.array([1.0, 0.3]))


def flags_of(model, x, m_draws, rng):
    return np.concatenate([
        violation_flags(model, x, batch)
        for batch in draw_blocks(model, m_draws, rng)
    ])


class TestDrawBlocks:
    @pytest.mark.parametrize("family", ["student_t", "gaussian", "beta"])
    def test_prefix_stable(self, family):
        model, x = family_models()[family]
        rng = Rng.for_purpose(16, "cert-prefix", family)
        short = flags_of(model, x, 1500, rng)
        long = flags_of(model, x, 5000, rng)
        assert short.shape == (1500, long.shape[1])
        assert np.array_equal(short, long[:1500])
        assert 0 < long.any(axis=1).sum() < 5000

    def test_blocks_are_named_by_stream_and_the_last_is_short(self):
        model, x = family_models()["student_t"]
        rng = Rng.for_purpose(17, "cert-blocks")
        blocks = list(draw_blocks(model, BLOCK + 10, rng))
        assert [len(b) for b in blocks] == [BLOCK, 10]
        second = model.draw(
            Rng.for_purpose(rng.seed, rng.stream_id, "block", 1), BLOCK
        )
        assert np.array_equal(blocks[1], second[:10])
        # the caller's Rng only names the streams; it is not advanced
        again = list(draw_blocks(model, BLOCK + 10, rng))
        assert all(np.array_equal(a, b) for a, b in zip(blocks, again))


def prefix_models():
    """The built-in families, with the parameter cases their samplers
    branch on: Beta cells above and below 1, a shared and a mixed
    Student-t dof, and Gaussian rows."""
    return {
        "beta": BetaCoverage(a=[[40.0, 0.3, 2.0]], b=[[25.0, 0.7, 0.5]],
                             threshold=0.9),
        "beta_small": BetaCoverage(a=[[0.2, 0.5]], b=[[0.4, 0.9]], threshold=0.5),
        "student_t_shared": StudentTRhs(rows=[[1.0], [2.0]], dof=[4.0, 4.0],
                                        loc=[1.0, 2.0], scale=[0.5, 0.2]),
        "student_t_mixed": family_models()["student_t"][0],
        "gaussian": family_models()["gaussian"][0],
    }


class TestDrawPrefix:
    # certification's short last block rests on this contract: k draws
    # are the first k of a whole block on the same stream
    @pytest.mark.parametrize("family", sorted(prefix_models()))
    @pytest.mark.parametrize("count", [1, 96, 904, 1000])
    def test_short_draw_is_a_prefix_of_a_block(self, family, count):
        model = prefix_models()[family]
        short = model.draw(Rng.for_purpose(31, "prefix", family), count)
        whole = model.draw(Rng.for_purpose(31, "prefix", family), BLOCK)
        assert short.shape == (count,) + whole.shape[1:]
        assert short.tobytes() == whole[:count].tobytes()

    @pytest.mark.parametrize("family", ["student_t", "gaussian", "beta"])
    def test_last_block_draws_only_the_draws_asked_for(self, family):
        model, _ = family_models()[family]
        drawn = []

        class Counting:
            def draw(self, rng, count):
                drawn.append(count)
                return model.draw(rng, count)

        rng = Rng.for_purpose(32, "prefix-count", family)
        blocks = list(draw_blocks(Counting(), 2 * BLOCK + 100, rng))
        assert drawn == [BLOCK, BLOCK, 100]
        whole = model.draw(Rng.for_purpose(rng.seed, rng.stream_id, "block", 2), BLOCK)
        assert blocks[2].tobytes() == whole[:100].tobytes()


class TestStackedDecisions:
    @pytest.mark.parametrize("family", ["student_t", "gaussian", "beta"])
    def test_stack_matches_one_decision_certify(self, family):
        # M = 1,500 crosses the first block edge
        model, x = family_models()[family]
        xs = np.stack([x, 0.5 * x, 1.5 * x])
        rng = Rng.for_purpose(18, "cert-stack", family)
        s, counts = estimate_violation(xs, model, 1500, rng)
        stacked = [Certificate.from_counts(s_d, c_d, 1500, 0.05)
                   for s_d, c_d in zip(s, counts)]
        assert stacked == [certify(x_d, model, 1500, 0.05, Rng(rng.seed, rng.stream_id))
                           for x_d in xs]
        assert len(set(s.tolist())) > 1

    @pytest.mark.parametrize("d", [1, 5])
    @pytest.mark.parametrize("family", ["student_t", "gaussian", "beta", "nan"])
    def test_counts_equal_the_per_decision_flag_stack(self, family, d):
        # the draw-major counts against the (D, count, n_constraints)
        # stack of violation_flags; M = 1,500 crosses the first block edge
        model, x = {**family_models(), "nan": nan_residual_model()}[family]
        xs = np.stack([x * f for f in (1.0, 0.5, 1.5, 0.8, 1.2)[:d]])
        rng = Rng.for_purpose(19, "cert-layout", family)
        s, counts = estimate_violation(xs, model, 1500, rng)
        ref_s, ref_counts = np.zeros(d, dtype=int), 0
        for batch in draw_blocks(model, 1500, rng):
            flags = np.stack([violation_flags(model, x_d, batch) for x_d in xs])
            ref_s += flags.any(axis=2).sum(axis=1)
            ref_counts = ref_counts + flags.sum(axis=1)
        assert s.dtype == ref_s.dtype and counts.dtype == ref_counts.dtype
        assert s.tobytes() == ref_s.tobytes()
        assert counts.tobytes() == ref_counts.tobytes()
        assert 0 < s[0] < 1500

    def test_from_counts_without_counts(self):
        cert = Certificate.from_counts(3, None, 100, 0.05)
        assert cert == Certificate(M=100, s=3, v_hat=0.03,
                                   upper_bound=clopper_pearson_upper(3, 100, 0.05),
                                   beta=0.05)
        assert type(cert.s) is int and type(cert.v_hat) is float

    def test_from_counts_rejects_a_fractional_count(self):
        with pytest.raises(CountOutOfRange):
            Certificate.from_counts(2.7, None, 100, 0.05)


class TestPosteriorModels:
    def test_bad_parameters_rejected(self):
        rows = [[1.0]]
        for dof, loc, scale in ((0.0, 1.0, 1.0), (-2.0, 1.0, 1.0),
                                (5.0, 1.0, 0.0), (5.0, 1.0, -1.0),
                                (5.0, np.nan, 1.0), (5.0, np.inf, 1.0),
                                (np.inf, 1.0, 1.0), (5.0, 1.0, np.nan)):
            with pytest.raises(DomainError):
                StudentTRhs(rows=rows, dof=[dof], loc=[loc], scale=[scale])
        with pytest.raises(DomainError):
            StudentTRhs(rows=rows, dof=[5.0, 5.0], loc=[1.0], scale=[1.0])
        for a, b in ((0.0, 1.0), (1.0, 0.0), (-1.0, 2.0), (np.nan, 1.0)):
            with pytest.raises(DomainError):
                BetaCoverage(a=[[a]], b=[[b]], threshold=0.5)
        with pytest.raises(DomainError):
            BetaCoverage(a=[[1.0]], b=[[1.0]], threshold=np.nan)
        with pytest.raises(DomainError):
            GaussianRows(centers=[[0.0, 1.0]], factors=[[[1.0, 0.0]]])
        with pytest.raises(DomainError):
            GaussianRows(centers=[[0.0, np.nan]], factors=[np.eye(2)])

    def test_residuals_follow_from_rows(self):
        # the built-in families state draws as rows and share one residual
        gen = np.random.default_rng(5)
        x = gen.uniform(0.0, 1.0, 3)
        rows = gen.normal(size=(2, 3))
        t_rhs = StudentTRhs(rows=rows, dof=[4.0, 9.0], loc=[1.0, 2.0],
                            scale=[0.5, 1.5])
        rhs = gen.normal(size=(6, 2))
        assert np.array_equal(t_rhs.residuals(x, rhs), rows @ x - rhs)
        gauss = GaussianRows.from_covs(gen.normal(size=(2, 4)), [np.eye(4)] * 2)
        batch = gen.normal(size=(6, 2, 4))
        assert np.allclose(gauss.residuals(x, batch),
                           batch[..., :3] @ x - batch[..., 3], rtol=0, atol=1e-12)
        cover = BetaCoverage(a=np.ones((2, 3)), b=np.ones((2, 3)), threshold=0.7)
        q = gen.uniform(size=(6, 2, 3))
        assert np.array_equal(cover.residuals(x, q), 0.7 - q @ x)
        for family in (StudentTRhs, GaussianRows, BetaCoverage):
            assert "residuals" not in vars(family)


def certificate_doc(text):
    """The Certificate a certificate_to_json document describes."""
    doc = json.loads(text)
    rates = doc["per_constraint"]
    return Certificate(M=doc["M"], s=doc["s"], v_hat=doc["v_hat"],
                       upper_bound=doc["upper_bound"], beta=doc["beta"],
                       per_constraint_rates=None if rates is None else tuple(rates))


class TestCertify:
    def test_deterministically_feasible_candidate(self):
        cert = certify(
            np.zeros(1),
            uniform_rhs(0.5, 1.5),
            250,
            0.05,
            Rng.for_purpose(10, "cert-j"),
        )
        assert cert.s == 0
        assert cert.v_hat == 0.0
        assert cert.upper_bound == pytest.approx(1.0 - 0.05 ** (1.0 / 250), abs=1e-12)
        assert cert.M == 250 and cert.beta == 0.05

    def test_invariants_and_rates(self):
        model = FnModel(
            lambda rng, count: rng.generator.uniform(-1.0, 1.0, (count, 2)),
            lambda x, batch: batch - 0.8,
        )
        cert = certify(
            np.zeros(1), model, 3000, 0.05, Rng.for_purpose(11, "cert-k")
        )
        assert 0 <= cert.s <= cert.M
        assert cert.v_hat == cert.s / cert.M
        assert cert.v_hat < cert.upper_bound <= 1.0
        assert cert.per_constraint_rates is not None
        assert len(cert.per_constraint_rates) == 2
        assert max(cert.per_constraint_rates) <= cert.v_hat

    def test_upper_bound_coverage(self):
        # Known violation probability p: the exact interval covers p in at
        # least 95% of replications, within Monte Carlo slack.
        p, beta, m, reps = 0.03, 0.05, 150, 2000
        covered = 0
        for rep in range(reps):
            cert = certify(
                np.zeros(1),
                uniform_below(p),
                m,
                beta,
                Rng.for_purpose(12, "cert-coverage", rep),
            )
            if cert.upper_bound >= p:
                covered += 1
        assert covered / reps >= 0.95 - 0.015

    def test_violation_count_is_binomial(self):
        # Small-M replication study: the counts should be statistically
        # indistinguishable from a Binomial(20, 0.3) law.
        p, m, reps = 0.3, 20, 5000
        counts = np.zeros(m + 1, dtype=int)
        for rep in range(reps):
            s, _ = estimate_violation(
                np.zeros((1, 1)),
                uniform_below(p),
                m,
                Rng.for_purpose(13, "cert-binom", rep),
            )
            counts[s[0]] += 1
        probs = np.array(
            [scipy.stats.binom.pmf(k, m, p) for k in range(m + 1)]
        )
        expected = reps * probs
        # pool the tails so every cell expects at least five replications
        order = np.argsort(expected)
        pooled_obs, pooled_exp = [], []
        acc_o = acc_e = 0.0
        for idx in order:
            acc_o += counts[idx]
            acc_e += expected[idx]
            if acc_e >= 5.0:
                pooled_obs.append(acc_o)
                pooled_exp.append(acc_e)
                acc_o = acc_e = 0.0
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
        stat = np.sum(
            (np.array(pooled_obs) - np.array(pooled_exp)) ** 2
            / np.array(pooled_exp)
        )
        crit = scipy.stats.chi2.ppf(0.99, len(pooled_obs) - 1)
        assert stat <= crit

    def test_certificate_json_round_trip(self):
        cert = certify(
            np.zeros(1),
            uniform_rhs(-1.0, 1.0),
            1234,
            0.07,
            Rng.for_purpose(14, "cert-json"),
        )
        assert certificate_doc(certificate_to_json(cert)) == cert

        with_rates = Certificate(
            M=100,
            s=3,
            v_hat=0.03,
            upper_bound=clopper_pearson_upper(3, 100, 0.05),
            beta=0.05,
            per_constraint_rates=(0.01, 0.02),
        )
        assert certificate_doc(certificate_to_json(with_rates)) == with_rates

    def test_draw_blocks_patchable_by_attribute_path(self, monkeypatch):
        seen = []
        real = draw_blocks

        def counting(model, m_draws, rng):
            seen.append(m_draws)
            return real(model, m_draws, rng)

        monkeypatch.setattr("postfeas.certification.draw_blocks", counting)
        s, _ = estimate_violation(np.zeros((1, 1)), uniform_rhs(0.5, 1.5), 300,
                                  Rng.for_purpose(16, "cert-patch"))
        assert seen == [300]
        assert s.tolist() == [0]

    @pytest.mark.parametrize("beta", [2.0, 0.0, 1.0, float("nan")])
    def test_beta_checked_before_drawing(self, monkeypatch, beta):
        def no_draws(*args):
            raise AssertionError("certify drew before checking beta")

        monkeypatch.setattr("postfeas.certification.draw_blocks", no_draws)
        with pytest.raises(DomainError, match="beta"):
            certify(np.zeros(1), uniform_rhs(0.5, 1.5), 3_000_000, beta,
                    Rng.for_purpose(17, "cert-beta"))

    def test_repeat_run_identical(self):
        rng = Rng.for_purpose(15, "cert-repeat")
        args = (
            np.array([0.2]),
            uniform_rhs(-1.0, 1.0),
            800,
            0.05,
        )
        assert certify(*args, rng) == certify(*args, Rng(rng.seed, rng.stream_id))
