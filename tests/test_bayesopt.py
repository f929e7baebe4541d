import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, solve_triangular
from scipy.stats import norm

from flexarray import bayesopt, harness
from flexarray.bayesopt import (JITTER_MAX, POSTERIOR_BLOCK, SOBOL_CANDIDATES, SOBOL_MAX_DIM,
                                GpDataset, Kernel, OptimizeResult, SobolStream,
                                _expected_improvement_batch, _features, _gram_cholesky, _lift,
                                _posterior_batch, _row_norms, _unit_kernel, optimize,
                                propose_next)
from flexarray.errors import (COND_MAX, SCREEN_MARGIN, GramConditionError, OptimizationError,
                              condition_number)
from flexarray.geometry import ArrayConfig, FlexModel
from flexarray.radiation import PatternKind, PatternSpec
from oracles import expected_improvement, expected_improvement_copies, gp_posterior, kernel_eval

UNIT = Kernel(eta0=1.0, eta1=1.0, jitter=0.0)


def unit_gram(kernel, points):
    """k / eta0 among (T, D) points, as the library builds it."""
    return _unit_kernel(_lift(kernel, points), _features(points))


def gram_factor(kernel, points):
    """The lower Cholesky factor the library accepts for the gram of (T, D) points."""
    return _gram_cholesky(kernel, _lift(kernel, points), points)[0]


class TestKernel:
    def test_same_point_no_jitter(self):
        assert kernel_eval(UNIT, [0.3], [0.3]) == 1.0

    def test_vanishes_at_distance(self):
        assert kernel_eval(UNIT, [0.0], [200.0]) == pytest.approx(0.0, abs=1e-300)

    def test_squared_distance_two(self):
        assert kernel_eval(UNIT, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(np.exp(-1.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_eval(UNIT, [0.0], [0.0, 1.0])

    def test_invalid_hyperparameters(self):
        # jitter=nan used to pass and then hang the jitter escalation of every fit
        for bad in (dict(eta0=0.0), dict(jitter=-1.0), dict(eta0=np.nan), dict(eta0=np.inf),
                    dict(eta1=np.nan), dict(eta1=np.inf), dict(jitter=np.nan),
                    dict(jitter=np.inf)):
            with pytest.raises(ValueError, match="^need finite eta0 > 0, eta1 > 0 and jitter"):
                Kernel(**bad)

    def test_gram_is_psd(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(12, 3))
        gram = np.array([[kernel_eval(UNIT, a, b) for b in pts] for a in pts])
        assert np.linalg.eigvalsh(gram).min() > -1e-10


def difference_form_kernel(kernel, points, queries):
    """Reference: the kernel from the (T, C, D) difference tensor."""
    diff = points[:, None, :] - queries[None, :, :]
    return kernel.eta0 * np.exp(-0.5 * kernel.eta1 * np.sum(diff**2, axis=-1))


class TestRowNorms:
    """The column sum of squares is ``np.sum(x**2, axis=1)`` bit for bit: at the 1-D grid, the
    3-D Sobol candidates and the measured points of a 3-D run, and at every Sobol dimension;
    the lifted points and query features filled in place keep the stacked forms' bits."""

    @pytest.mark.parametrize("shape", [(361, 1), (2048, 3), (1, 3), (5, 3), (35, 3), (65, 3)]
                             + [(65, dim) for dim in range(1, SOBOL_MAX_DIM + 1)])
    def test_equals_the_reduction_bit_for_bit(self, shape):
        rng = np.random.default_rng(list(shape))
        x = rng.uniform(-2.0, 2.0, shape) * 10.0 ** rng.integers(-8, 9, shape)
        assert _row_norms(x).tobytes() == np.sum(x**2, axis=1).tobytes()

    @pytest.mark.parametrize("shape", [(361, 1), (2048, 3), (35, 3)])
    def test_lift_and_features_keep_the_stacked_forms_bits(self, shape):
        rng, kernel = np.random.default_rng(list(shape)), Kernel(eta1=0.7)
        x = rng.uniform(-np.pi / 2, np.pi / 2, shape)
        norms = np.sum(x**2, axis=1)
        lifted = -0.5 * kernel.eta1 * np.column_stack([-2.0 * x, norms, np.ones(len(x))])
        assert _lift(kernel, x).tobytes() == lifted.tobytes()
        assert _features(x).tobytes() == np.vstack([x.T, np.ones(len(x)), norms]).tobytes()


class TestCrossKernel:
    """The lifted kernel h[-2a, ||a||^2, 1] . [b, 1, ||b||^2] against the
    difference form, with near-duplicate and identical query points."""

    @pytest.mark.parametrize("dim", [1, 3])
    def test_matches_difference_form(self, dim):
        rng = np.random.default_rng(11)
        points = rng.uniform(-np.pi / 2, np.pi / 2, size=(40, dim))
        queries = np.vstack([rng.uniform(-np.pi / 2, np.pi / 2, size=(300, dim)),
                             points, points + 1e-9, points - 1e-15])
        kernel = Kernel(eta0=2.5, eta1=1.7)
        got = kernel.eta0 * _unit_kernel(_lift(kernel, points), _features(queries))
        np.testing.assert_allclose(got, difference_form_kernel(kernel, points, queries),
                                   rtol=0, atol=1e-12)
        assert np.all(got <= kernel.eta0)

    def test_posterior_variance_matches_two_solve_form(self):
        rng = np.random.default_rng(12)
        data = GpDataset(points=rng.uniform(-1, 1, size=(15, 3)), values=rng.normal(size=15))
        queries = np.vstack([rng.uniform(-1, 1, size=(200, 3)), data.points,
                             data.points + 1e-9])
        kernel = Kernel()
        _, variance = _posterior_batch(kernel, data, queries)
        k_star = difference_form_kernel(kernel, data.points, queries)
        factor = gram_factor(kernel, data.points)
        reference = kernel.eta0 - np.sum(k_star * cho_solve((factor, True), k_star), axis=0)
        np.testing.assert_allclose(variance, np.clip(reference, 0.0, None), rtol=0, atol=1e-10)
        assert np.all(variance >= 0.0) and np.all(variance <= kernel.eta0)


def one_shot_posterior(kernel, data, queries):
    """Reference: the posterior with every query in one (T, C) block and the
    kernel built out of place, as one expression, and triangular solves."""
    points = data.points
    dist2 = (np.sum(points**2, axis=1)[:, None] + np.sum(queries**2, axis=1)[None, :]
             - 2.0 * points @ queries.T)
    k_star = kernel.eta0 * np.exp(-0.5 * kernel.eta1 * np.clip(dist2, 0.0, None))
    factor = gram_factor(kernel, points)
    mean = k_star.T @ cho_solve((factor, True), data.values)
    v = solve_triangular(factor, k_star, lower=True)
    return mean, np.clip(kernel.eta0 - np.sum(v * v, axis=0), 0.0, None)


class TestPosteriorBlocks:
    """The blocked GEMM-form posterior against the one-block solve form. The EI
    argmax is the same; the variance agrees to a fixed bound, and the mean to
    rounding of the kernel amplified by the weights, |mean error| <= c eta0 |w|_1 eps
    (c at most 6.8 on this grid)."""

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("n_queries", [1, 361, 511, 512, 513, 1030, 2048, 2049])
    @pytest.mark.parametrize("n_points", [1, 5, 35, 65])
    def test_blocks_equal_the_one_shot_formula(self, n_points, n_queries, dim):
        assert POSTERIOR_BLOCK == 512
        rng = np.random.default_rng([n_points, n_queries, dim])
        data = GpDataset(rng.uniform(-1.5, 1.5, (n_points, dim)), rng.normal(size=n_points))
        queries = rng.uniform(-1.5, 1.5, (n_queries, dim))
        queries[:min(n_points, n_queries)] = data.points[:n_queries]  # variance clipped to 0
        kernel = Kernel(eta0=1.3, eta1=2.1)
        mean, variance = one_shot_posterior(kernel, data, queries)
        got_mean, got_variance = _posterior_batch(kernel, data, queries)
        best = float(np.max(data.values))
        assert (np.argmax(_expected_improvement_batch(got_mean, np.sqrt(got_variance), best))
                == np.argmax(_expected_improvement_batch(mean, np.sqrt(variance), best)))
        np.testing.assert_allclose(got_variance, variance, rtol=0, atol=1e-11)
        weights = cho_solve((gram_factor(kernel, data.points), True), data.values)
        bound = 16 * kernel.eta0 * np.sum(np.abs(weights)) * np.finfo(float).eps
        np.testing.assert_allclose(got_mean, mean, rtol=0, atol=bound)


class TestDataset:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            GpDataset(points=np.array([[0.1], [0.1]]), values=np.array([1.0, 2.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GpDataset(points=np.array([[0.1], [0.2]]), values=np.array([1.0]))

    @pytest.mark.parametrize("name", ["points", "values"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected_by_name(self, name, bad):
        arrays = {"points": np.array([[0.1], [0.2]]), "values": np.array([1.0, 2.0])}
        arrays[name][1] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            GpDataset(**arrays)

    def test_one_dim_points_promoted(self):
        data = GpDataset(points=np.array([0.1, 0.7]), values=np.array([1.0, 2.0]))
        assert data.points.shape == (2, 1)
        assert data.dim == 1


class TestPosterior:
    def test_interpolates_measured_points(self):
        data = GpDataset(points=np.array([[-0.5], [0.2], [0.9]]),
                         values=np.array([1.0, -2.0, 0.5]))
        for point, value in zip(data.points, data.values):
            post = gp_posterior(UNIT, data, point)
            assert post.mean == pytest.approx(value, abs=1e-8)
            assert post.variance == pytest.approx(0.0, abs=1e-8)

    def test_far_query_recovers_prior(self):
        data = GpDataset(points=np.array([[0.0], [0.5]]), values=np.array([3.0, -1.0]))
        post = gp_posterior(UNIT, data, [1e3])
        assert post.mean == pytest.approx(0.0, abs=1e-12)
        assert post.variance == pytest.approx(UNIT.eta0, abs=1e-12)

    def test_symmetric_points_cancel_at_midpoint(self):
        data = GpDataset(points=np.array([[-1.0], [1.0]]), values=np.array([1.0, -1.0]))
        post = gp_posterior(UNIT, data, [0.0])
        assert post.mean == pytest.approx(0.0, abs=1e-12)

    def test_variance_never_exceeds_prior(self):
        rng = np.random.default_rng(2)
        data = GpDataset(points=rng.normal(size=(15, 2)), values=rng.normal(size=15))
        kernel = Kernel()
        for query in rng.normal(size=(50, 2)):
            post = gp_posterior(kernel, data, query)
            assert post.variance <= kernel.eta0 + 1e-8

    def test_near_duplicate_points_escalate_jitter(self):
        data = GpDataset(points=np.array([[0.0], [1e-5]]), values=np.array([1.0, 1.0]))
        post = gp_posterior(Kernel(jitter=1e-10), data, [0.5])
        assert np.isfinite(post.mean)

    def test_a_gram_at_exactly_cond_max_is_factored_without_jitter(self, monkeypatch):
        # the condition rule accepts cond <= COND_MAX, as for the Fisher and ZF grams; the
        # factor cannot certify this cluster (cond 3e13 without the patch), so eigvalsh decides
        seen = []
        monkeypatch.setattr(bayesopt, "condition_number", lambda gram: seen.append(gram) or COND_MAX)
        kernel, points = Kernel(eta0=1e3, jitter=1e-10), np.array([[0.0], [1e-9], [1.0]])
        factor, inverse = _gram_cholesky(kernel, _lift(kernel, points), points)
        gram = kernel.eta0 * unit_gram(kernel, points) + 1e-10 * np.eye(3)
        assert condition_number(gram) > COND_MAX
        assert len(seen) == 1 and np.array_equal(seen[0], gram)
        assert np.array_equal(factor, np.linalg.cholesky(gram))
        assert np.array_equal(inverse, np.linalg.inv(factor))

    def test_a_gram_the_factor_certifies_makes_no_condition_number_call(self, monkeypatch):
        seen = []
        monkeypatch.setattr(bayesopt, "condition_number", lambda gram: seen.append(gram) or 1.0)
        kernel, points = Kernel(jitter=1e-10), np.array([[0.0], [0.4], [1.0]])
        factor, inverse = _gram_cholesky(kernel, _lift(kernel, points), points)
        gram = kernel.eta0 * unit_gram(kernel, points) + 1e-10 * np.eye(3)
        assert seen == []
        assert np.array_equal(factor, np.linalg.cholesky(gram))
        assert np.array_equal(inverse, np.linalg.inv(factor))

    def test_pathological_cluster_raises(self):
        # with a large output scale the clustered gram stays above the
        # condition limit even after jitter escalation tops out at 1e-6
        points = (np.arange(8) * 1e-8)[:, None]
        data = GpDataset(points=points, values=np.zeros(8))
        with pytest.raises(GramConditionError):
            gp_posterior(Kernel(eta0=1e8), data, [0.5])

    def test_query_dimension_checked(self):
        data = GpDataset(points=np.array([[0.0, 0.0]]), values=np.array([1.0]))
        with pytest.raises(ValueError):
            gp_posterior(UNIT, data, [0.0])


def eigvalsh_rule(kernel, points):
    """Reference: the jitter escalation with ``condition_number`` deciding every gram; its
    accept (True) and escalate or raise (False) decisions, and numpy's Cholesky factor and
    inverse of the gram it accepts (None where it raises)."""
    base = kernel.eta0 * unit_gram(kernel, points)
    jitter, decisions = kernel.jitter, []
    while True:
        gram = base + jitter * np.eye(len(points))
        decisions.append(bool(condition_number(gram) <= COND_MAX))
        if decisions[-1]:
            factor = np.linalg.cholesky(gram)
            return decisions, factor, np.linalg.inv(factor)
        jitter = max(jitter, 1e-10) * 10.0
        if jitter > JITTER_MAX:
            return decisions, None, None


class TestGramCertificate:
    """The Cholesky factor certifies a gram with ||K||_F ||L^-1||_F^2 <= COND_MAX / SCREEN_MARGIN
    and ``condition_number`` decides the rest, so every decision is the eigvalsh rule's: on
    clusters of four points in 1-D and 3-D, whose first grams' conditions run from below 1e8
    to above 1e13, through jitter escalation up to the GramConditionError cap."""

    def test_decisions_and_bits_are_the_eigvalsh_rules(self, monkeypatch):
        asked = []
        monkeypatch.setattr(bayesopt, "condition_number",
                            lambda gram: asked.append(condition_number(gram)) or asked[-1])
        rng = np.random.default_rng(5)
        first, seen = [], set()
        for dim in (1, 3):
            for eta0 in (1.0, 1e2, 1e4, 1e6, 1e8):
                for delta in np.logspace(-7, -2, 21):
                    kernel, points = Kernel(eta0=eta0), rng.uniform(-1.5, 1.5, (12, dim))
                    points[1:4] = points[0] + delta * rng.normal(size=(3, dim))
                    first.append(condition_number(kernel.eta0 * unit_gram(kernel, points)
                                                  + kernel.jitter * np.eye(12)))
                    decisions, factor, inverse = eigvalsh_rule(kernel, points)
                    asked.clear()
                    if factor is None:
                        with pytest.raises(GramConditionError):
                            _gram_cholesky(kernel, _lift(kernel, points), points)
                        seen.add("raise")
                    else:
                        got_factor, got_inverse = _gram_cholesky(kernel, _lift(kernel, points),
                                                                 points)
                        assert np.array_equal(got_factor, factor)
                        assert np.array_equal(got_inverse, inverse)
                        seen.add("eigvalsh" if len(asked) == len(decisions) else "certified")
                    # every refused gram went to eigvalsh, and it decided as the rule did
                    assert len(decisions) - 1 <= len(asked) <= len(decisions)
                    assert [c <= COND_MAX for c in asked] == decisions[:len(asked)]
                    if len(decisions) > 1:
                        seen.add("escalate")
        assert seen == {"certified", "eigvalsh", "escalate", "raise"}
        assert min(first) < 1e8 and max(first) > 1e13

    @pytest.mark.parametrize("n_points", [35, 65])
    def test_an_escalating_3d_design_keeps_the_eigvalsh_rules_bits(self, n_points):
        # a near-duplicate pair at eta0 = 100: jitter escalates once (T = 35) or twice (T = 65)
        # on the diagonal of the one gram array, and the accepted factor keeps its bits
        kernel, rng = Kernel(eta0=1e2), np.random.default_rng(0)
        points = rng.uniform(-np.pi / 2, np.pi / 2, (n_points, 3))
        points[1] = points[0] + 1e-7 * rng.normal(size=3)
        decisions, factor, inverse = eigvalsh_rule(kernel, points)
        assert decisions == [False] * (n_points // 30) + [True]
        got_factor, got_inverse = _gram_cholesky(kernel, _lift(kernel, points), points)
        assert got_factor.tobytes() == factor.tobytes()
        assert got_inverse.tobytes() == inverse.tobytes()

    def test_the_certificate_bound_covers_the_condition(self):
        # cond_2(K) <= ||K||_F ||L^-1||_F^2 on every certified gram of a spread 3-D design
        rng = np.random.default_rng(6)
        for n_points in (5, 35, 65):
            points = rng.uniform(-np.pi / 2, np.pi / 2, (n_points, 3))
            kernel = Kernel()
            _, inverse = _gram_cholesky(kernel, _lift(kernel, points), points)
            gram = kernel.eta0 * unit_gram(kernel, points) + kernel.jitter * np.eye(n_points)
            bound = np.linalg.norm(gram) * np.linalg.norm(inverse) ** 2
            assert condition_number(gram) <= bound <= COND_MAX / SCREEN_MARGIN


class TestExpectedImprovement:
    def test_zero_sigma(self):
        assert expected_improvement(10.0, 0.0, 0.0) == 0.0

    def test_at_incumbent(self):
        assert expected_improvement(1.0, 1.0, 1.0) == pytest.approx(1 / np.sqrt(2 * np.pi))

    def test_dominant_mean(self):
        assert expected_improvement(10.0, 1.0, 0.0) == pytest.approx(10.0, abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(mean=st.floats(-50, 50), sigma=st.floats(0, 20), best=st.floats(-50, 50))
    def test_nonnegative(self, mean, sigma, best):
        assert expected_improvement(mean, sigma, best) >= 0.0

    def test_batch_equals_the_scipy_norm_form(self):
        rng = np.random.default_rng(13)
        mean = rng.normal(scale=3.0, size=500)
        sigma = np.concatenate([np.abs(rng.normal(size=490)), np.zeros(5), np.full(5, 1e-9)])
        ei = _expected_improvement_batch(mean, sigma, 0.7)
        z = (mean - 0.7) / np.where(sigma > 0, sigma, 1.0)
        reference = np.where(sigma > 0, (mean - 0.7) * norm.cdf(z) + sigma * norm.pdf(z), 0.0)
        assert np.array_equal(ei, np.clip(reference, 0.0, None))

    def test_in_place_zeroing_keeps_the_copying_forms_bits(self):
        # sigma 0 (z = +-inf or nan), tiny sigma (|z| > 40, z overflowing) and the bulk
        rng = np.random.default_rng(14)
        mean = np.concatenate([rng.normal(scale=3.0, size=2000), [0.7, 1.7, -0.3] * 4])
        sigma = np.concatenate([np.abs(rng.normal(size=2000)),
                                np.repeat([0.0, 0.02, 1e-12, 1e-300], 3)])
        with np.errstate(all="ignore"):
            z = (mean - 0.7) / sigma
        assert np.isnan(z).any() and np.isinf(z).any() and (np.abs(z[np.isfinite(z)]) > 40).any()
        ei = _expected_improvement_batch(mean, sigma, 0.7)
        assert ei.tobytes() == expected_improvement_copies(mean, sigma, 0.7).tobytes()

    def test_monotone_in_sigma_below_incumbent(self):
        sigmas = np.linspace(0.0, 3.0, 31)
        values = [expected_improvement(-1.0, s, 0.0) for s in sigmas]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


class TestProposeNext:
    def test_all_measured_ties_to_first(self):
        data = GpDataset(points=np.array([[0.0], [1.0]]), values=np.array([1.0, 2.0]))
        pick = propose_next(UNIT, data, np.array([[0.0], [1.0]]))
        assert pick[0] == 0.0

    def test_dominant_candidate_wins(self):
        data = GpDataset(points=np.array([[0.0], [2.0]]), values=np.array([0.0, 5.0]))
        # candidate near the high measurement has high mean and some variance
        pick = propose_next(UNIT, data, np.array([[-5.0], [1.9]]))
        assert pick[0] == pytest.approx(1.9)

    def test_matches_brute_force_ei(self):
        rng = np.random.default_rng(3)
        data = GpDataset(points=rng.uniform(-1, 1, size=(6, 1)),
                         values=rng.normal(size=6))
        candidates = np.linspace(-1.5, 1.5, 101)[:, None]
        best = float(data.values.max())
        brute = []
        for cand in candidates:
            post = gp_posterior(UNIT, data, cand)
            brute.append(expected_improvement(post.mean, np.sqrt(post.variance), best))
        pick = propose_next(UNIT, data, candidates)
        assert pick[0] == candidates[int(np.argmax(brute))][0]

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_candidates_rejected_by_name(self, bad):
        data = GpDataset(points=np.array([[0.0], [1.0]]), values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="^candidates must be non-empty and finite$"):
            propose_next(UNIT, data, np.array([[0.5], [bad]]))

    def test_empty_candidates_rejected(self):
        data = GpDataset(points=np.array([[0.0]]), values=np.array([1.0]))
        with pytest.raises(ValueError):
            propose_next(UNIT, data, np.empty((0, 1)))


class TestSobolStream:
    @pytest.mark.parametrize("dim", range(1, SOBOL_MAX_DIM + 1))
    def test_matches_scipy_bit_for_bit(self, dim):
        from scipy.stats import qmc

        for seed in (0, 1, 12345, [3, 0, 0]):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            stream, sobol = SobolStream(dim, ours), qmc.Sobol(d=dim, scramble=True, seed=theirs)
            for n in (SOBOL_CANDIDATES,) * 4 + (37,):
                np.testing.assert_array_equal(stream.random(n), sobol.random(n))
            assert ours.random() == theirs.random()  # the parent stream is left alone

    @pytest.mark.parametrize("dim", [0, SOBOL_MAX_DIM + 1])
    def test_dimension_outside_the_table_rejected(self, dim):
        with pytest.raises(ValueError, match="dimensions"):
            SobolStream(dim, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [0, -1, 2.0])
    def test_a_count_that_is_no_positive_integer_is_named(self, n):
        # 0 and -1 used to raise IndexError from the Gray-code step
        with pytest.raises(ValueError, match="^n must be an integer of at least 1, got"):
            SobolStream(3, np.random.default_rng(0)).random(n)


class TestOptimize:
    def test_finds_quadratic_maximum(self):
        result = optimize(lambda p: -(p[0] - 0.3) ** 2, [(-np.pi / 2, np.pi / 2)],
                          budget=20, n_init=4, seed=0)
        grid = np.linspace(-np.pi / 2, np.pi / 2, 100001)
        oracle = grid[np.argmax(-(grid - 0.3) ** 2)]
        assert abs(result.best_point[0] - oracle) < 0.05

    def test_budget_zero_returns_best_initial(self):
        calls = []

        def objective(p):
            calls.append(p[0])
            return -abs(p[0])

        result = optimize(objective, [(-1, 1)], budget=0, n_init=3, seed=1)
        assert len(result.trace) == 4  # three random points plus zero
        assert result.best_value == max(-abs(c) for c in calls)

    def test_include_zero_guarantees_baseline(self):
        def objective(p):
            return float(np.cos(3 * p[0]))  # maximum exactly at zero

        result = optimize(objective, [(-1, 1)], budget=5, n_init=2, seed=2)
        assert result.best_value >= objective(np.zeros(1))

    def test_deterministic_given_seed(self):
        def objective(p):
            return float(np.sin(4 * p[0]) - p[0] ** 2)

        a = optimize(objective, [(-2, 2)], budget=10, n_init=4, seed=7)
        b = optimize(objective, [(-2, 2)], budget=10, n_init=4, seed=7)
        assert a.best_value == b.best_value
        for (pa, va), (pb, vb) in zip(a.trace, b.trace):
            assert va == vb
            np.testing.assert_array_equal(pa, pb)

    def test_incumbent_monotone_along_trace(self):
        result = optimize(lambda p: float(np.sin(5 * p[0])), [(-2, 2)],
                          budget=12, n_init=4, seed=3)
        incumbent = -np.inf
        for _, value in result.trace:
            incumbent = max(incumbent, value)
        assert incumbent == result.best_value

    def test_three_dimensional_search(self):
        target = np.array([0.2, -0.1, 0.15])

        def objective(p):
            return -float(np.sum((p - target) ** 2))

        result = optimize(objective, [(-0.8, 0.8)] * 3, budget=40, n_init=6, seed=4)
        assert result.best_value > -0.05

    def test_invalid_arguments(self):
        calls = []

        def objective(point):
            calls.append(point)
            return 0.0

        with pytest.raises(ValueError):
            optimize(objective, [(-1, 1)], budget=-1)
        with pytest.raises(ValueError):
            optimize(objective, [(-1, 1)], budget=1, n_init=0)
        with pytest.raises(ValueError):
            optimize(objective, [(1, -1)], budget=1)
        for bad in (np.nan, np.inf, -np.inf):  # numpy's sampler named no argument for these
            for bounds in ([(-1.0, bad)], [(bad, 1.0)], [(-1.0, 1.0), (0.0, bad), (-1.0, 1.0)]):
                with pytest.raises(ValueError, match="^bounds must be finite"):
                    optimize(objective, bounds, budget=1)
        assert calls == []

    def test_a_box_without_dimensions_fails_before_any_call(self):
        # it used to measure five 0-length points, then raise IndexError
        calls = []
        with pytest.raises(ValueError, match="^bounds must be finite"):
            optimize(lambda p: calls.append(p) or 0.0, np.zeros((0, 2)), budget=2)
        assert calls == []

    def test_dimension_beyond_the_sobol_table_fails_before_any_call(self):
        calls = []
        with pytest.raises(ValueError, match="dimensions"):
            optimize(lambda p: calls.append(p) or 0.0, [(-1, 1)] * (SOBOL_MAX_DIM + 1), budget=1)
        assert calls == []

    def test_degenerate_axis_in_three_dimensions(self):
        result = optimize(lambda p: -float(np.sum(p**2)), [(-1, 1), (0.25, 0.25), (-1, 1)],
                          budget=5, n_init=3, seed=0)
        assert len(result.trace) == 3 + 1 + 5
        for point, _ in result.trace:
            assert point[1] == 0.25

    @pytest.mark.parametrize("dim", [1, 2])
    def test_box_without_the_origin_measures_its_nearest_point(self, dim):
        result = optimize(lambda p: -float(np.sum(p**2)), [(0.5, 1.0)] * dim, budget=3,
                          n_init=2, seed=0)
        assert result.trace[2][0].tolist() == [0.5] * dim  # the zero-point measurement
        assert all(np.all((point >= 0.5) & (point <= 1.0)) for point, _ in result.trace)
        assert result.best_point.tolist() == [0.5] * dim
        assert result.best_value == -0.25 * dim

    @pytest.mark.parametrize("dim", [1, 3])
    def test_every_round_dataset_passes_the_public_check(self, monkeypatch, dim):
        """``optimize`` builds its round datasets without the duplicate scan;
        the public constructor accepts each of them unchanged."""
        seen = []
        propose = bayesopt.propose_next
        monkeypatch.setattr(bayesopt, "propose_next",
                            lambda kernel, data, candidates: seen.append(data)
                            or propose(kernel, data, candidates))
        # a flat objective makes the 1-D search re-propose measured points
        optimize(lambda p: float(np.sum(np.round(p, 1))), [(-1.0, 1.0)] * dim, budget=25, seed=5)
        assert len(seen) >= 2
        for data in seen:
            checked = GpDataset(data.points.copy(), data.values.copy())
            assert np.array_equal(checked.points, data.points)
            assert np.array_equal(checked.values, data.values)

    def test_results_compare_by_value(self):
        def run(seed):
            return optimize(lambda p: float(np.sin(4 * p[0])), [(-2, 2)], budget=6, seed=seed)

        a, b, other = run(7), run(7), run(8)
        assert a == b and not a != b
        assert a != other and a != "a result"
        moved = OptimizeResult(a.best_point + 1e-9, a.best_value, a.trace)
        assert moved != a
        assert OptimizeResult(a.best_point, a.best_value, a.trace[:-1]) != a

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
    def test_non_finite_objective_value_is_rejected_by_name(self, bad):
        points = []

        def objective(point):
            points.append(point.copy())
            return bad if point[0] > 0.5 else -float(point[0])

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # before, standardizing the values warned
            with pytest.raises(OptimizationError) as err:
                optimize(objective, [(0.0, 1.0)], budget=10, seed=0)
        assert points[-1][0] > 0.5
        assert str(err.value) == f"objective returned {bad} at {points[-1].tolist()}"


TRACES = json.loads((Path(__file__).parent / "data" / "optimize_traces.json").read_text())


PINNED_RUNS = [("sfp", 30, [3, 0, 0]), ("sjfp", 60, [4, 0])]  # (strategy, budget, seed)


def full_load_drop():
    """The sum-rate benchmark's full-load drop: 8x2 bendable arrays, cosine
    kappa=2, K=N=16 users, 5 paths, 15 dB."""
    return harness.generate_scenario(ArrayConfig(8, 2, wavelength=0.03),
                                     PatternSpec(PatternKind.COSINE, kappa=2.0),
                                     FlexModel.BENDABLE, k_users=16, n_paths=5, snr_db=15.0,
                                     seed=0)


def pinned_trace(scenario, strategy: str, budget: int, seed) -> list:
    """One pinned ``optimize`` run's trace as rows [*point, value] of floats."""
    objective, dim = harness._objective(scenario, strategy)
    lo, hi = scenario.psi_bounds
    result = optimize(objective, [(lo, hi)] * dim, budget, n_init=4,
                      seed=np.random.default_rng(seed))
    return [[*map(float, point), value] for point, value in result.trace]


@pytest.fixture(scope="module")
def full_load_scenario():
    return full_load_drop()


class TestPinnedTraces:
    """Whole ``optimize`` traces, every float as ``repr`` wrote it
    (``tests/data/optimize_traces.json``), recorded before the acquisition
    used the expansion-form kernel, one triangular solve, the closed-form EI,
    the reuse of stalled 1-D proposals, blocked candidates, the GEMM form
    (augmented distance product, inverse Cholesky factor) and one lifted kernel
    formula on numpy's Cholesky factor; compared with ``==``."""

    @pytest.mark.parametrize("strategy, budget, seed", PINNED_RUNS)
    def test_trace_and_acquisitions(self, full_load_scenario, monkeypatch, strategy, budget,
                                    seed):
        calls = []
        propose = bayesopt.propose_next
        monkeypatch.setattr(bayesopt, "propose_next",
                            lambda *args: calls.append(args) or propose(*args))
        rows = pinned_trace(full_load_scenario, strategy, budget, seed)
        assert rows == TRACES[strategy]
        points = [tuple(row[:-1]) for row in rows]
        dim = len(points[0])
        new = [point not in points[:i] for i, point in enumerate(points)]
        if dim == 1:
            # round r >= 1 refits only after measurement 4 + r added a point
            assert len(calls) == 1 + sum(new[5:4 + budget]) < budget / 2
        else:
            assert len(calls) == budget  # fresh Sobol candidates every round
