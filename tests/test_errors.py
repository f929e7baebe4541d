import warnings

import numpy as np
import pytest

from flexarray.errors import COND_MAX, condition_number


class TestConditionNumber:
    @pytest.mark.parametrize("largest, accepted", [(0.99e12, True), (1.01e12, False)])
    def test_diagonal_ratio_against_the_limit(self, largest, accepted):
        cond = condition_number(np.diag([largest, 1.0, 2.0, 1.0]))
        assert cond == largest
        assert (cond <= COND_MAX) == accepted

    @pytest.mark.parametrize("matrix", [np.zeros((3, 3)), np.full((3, 3), np.nan),
                                        np.diag([1.0, np.nan, 1.0]), np.diag([1.0, np.inf, 1.0]),
                                        np.diag([-np.inf, 1.0, 1.0])],
                             ids=["zero", "all-nan", "one-nan", "inf", "minus-inf"])
    def test_zero_and_non_finite_give_inf(self, matrix):
        assert condition_number(matrix) == np.inf

    @pytest.mark.parametrize("eigenvalues", [[-1.0, 2.0, 3.0], [-1.0, 1.0], [-3.0, -2.0]])
    def test_negative_eigenvalue_gives_inf(self, eigenvalues):
        # |lambda|max / |lambda|min would read 3, 1 and 1.5 here
        assert condition_number(np.diag(eigenvalues)) == np.inf

    def test_matches_the_svd_condition_of_a_hermitian_gram(self):
        rng = np.random.default_rng(0)
        for n, k in [(16, 4), (16, 16), (48, 48)]:
            h = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            gram = h.conj().T @ h
            assert condition_number(gram) == pytest.approx(np.linalg.cond(gram), rel=1e-8)

    def test_stack_equals_the_single_matrix_calls_without_warnings(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((6, 4))
        stack = np.stack([h.T @ h, np.zeros((4, 4)), np.diag([1.0, np.nan, 1.0, 1.0]),
                          np.diag([1.0, 1.0, np.inf, 1.0]), np.diag([-1.0, 2.0, 3.0, 4.0])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = condition_number(stack)
            singles = [condition_number(matrix) for matrix in stack]
        assert got.shape == (5,)
        assert got.tolist() == singles
        assert np.isfinite(singles[0]) and singles[1:] == [np.inf] * 4
        assert condition_number(stack.reshape(5, 1, 4, 4)).shape == (5, 1)

    def test_one_matrix_gives_a_python_float(self):
        assert type(condition_number(np.diag([4.0, 1.0]))) is float
        assert type(condition_number(np.zeros((2, 2)))) is float
