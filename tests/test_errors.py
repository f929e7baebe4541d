import functools
import warnings

import numpy as np
import pytest

from flexarray import errors, estimation, harness
from flexarray.channel import PathSet
from flexarray.errors import (COND_MAX, OptimizationError, SingularFisherError, condition_number,
                              guarded_inverse)
from flexarray.estimation import FisherMatrix, mean_angle_crb
from flexarray.geometry import ArrayConfig, FlexModel
from flexarray.radiation import PatternKind, PatternSpec
from oracles import eigvalsh_first_inverse
from test_golden import CASES


class TestConditionNumber:
    @pytest.mark.parametrize("largest, accepted", [(0.99e12, True), (1.01e12, False)])
    def test_diagonal_ratio_against_the_limit(self, largest, accepted):
        cond = condition_number(np.diag([largest, 1.0, 2.0, 1.0]))
        assert cond == largest
        assert (cond <= COND_MAX) == accepted

    @pytest.mark.parametrize("matrix", [np.zeros((3, 3)), np.full((3, 3), np.nan),
                                        np.diag([1.0, np.nan, 1.0]), np.diag([1.0, np.inf, 1.0]),
                                        np.diag([-np.inf, 1.0, 1.0]), "zero-row-fisher"],
                             ids=["zero", "all-nan", "one-nan", "inf", "minus-inf",
                                  "zero-row-fisher"])
    def test_zero_and_non_finite_give_inf(self, matrix):
        if isinstance(matrix, str):
            matrix = zero_information_fisher()
            assert np.count_nonzero(np.diagonal(matrix) == 0) == 4  # one path's four parameters
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


@functools.cache
def rotatable_stacks(case):
    """Every stack that reaches ``guarded_inverse`` in a rotatable CRB sweep: a golden case's,
    or for "crb-sweep-seed-0" the benchmark's draws (ops 0-5 of seed 0)."""
    stacks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "guarded_inverse",
                      lambda stack: stacks.append(stack) or guarded_inverse(stack))
        if case == "crb-sweep-seed-0":
            for op in range(6):
                seed = int(np.random.SeedSequence([0, op]).generate_state(1)[0])
                harness.experiment_crb_sweep([FlexModel.ROTATABLE],
                                             PatternSpec(PatternKind.COSINE, kappa=2.0),
                                             ArrayConfig(8, 8, wavelength=0.03), range(1, 7),
                                             draws=1, seed=seed)
        else:
            harness.run_experiment({**CASES[case], "model": "rotate"})
    return stacks


def zero_information_fisher():
    """The Fisher matrix with a zero row (a path behind the rotated cosine array) of the
    benchmark's draws whose raw ``eigvalsh`` lambda_min is largest. It is positive on
    OpenBLAS's SkylakeX and Haswell kernels (lambda_max / lambda_min 3e31 and 2e18), where
    every zero-row matrix of the smaller "crb-sweep-cosine2" golden case reads it <= 0."""
    matrices = [matrix for stack in rotatable_stacks("crb-sweep-seed-0") for matrix in stack
                if not (np.diagonal(matrix) > 0).all()]
    return max(matrices, key=lambda matrix: np.linalg.eigvalsh(matrix)[0])


def hermitian_stack(rng, n, conditions, complex_=False):
    """Random positive definite matrices Q diag(lambda) Q^H of size n, one per condition
    number, with eigenvalues log-spaced from 1 to it."""
    stack = []
    for condition in conditions:
        a = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_ else 0)
        q, _ = np.linalg.qr(a)
        j = (q * np.geomspace(1.0, condition, n)) @ q.conj().T
        stack.append(0.5 * (j + j.conj().T))
    return np.array(stack)


def assert_matches_the_reference(stack):
    """Same decisions and inverse bits as ``eigvalsh`` first; the same condition for every
    refusal, but inf for a matrix the mask refused (``eigvalsh`` rounds lambda_min there)."""
    inverses, refusals = guarded_inverse(stack)
    expected_inverses, conditions = eigvalsh_first_inverse(stack)
    accepted = conditions <= COND_MAX
    assert np.array_equal(refusals == 0, accepted)
    assert np.all((refusals[~accepted] == conditions[~accepted]) | np.isinf(refusals[~accepted]))
    assert np.array_equal(inverses.view(np.uint64), expected_inverses.view(np.uint64))
    return refusals


class TestGuardedInverse:
    @pytest.mark.parametrize("n, complex_", [(4, False), (8, False), (16, False), (24, False),
                                             (4, True), (16, True), (48, True)])
    def test_the_screen_accepts_nothing_eigvalsh_refuses(self, monkeypatch, n, complex_):
        stack = hermitian_stack(np.random.default_rng([5, n]), n, np.geomspace(1e11, 1e13, 41),
                                complex_)
        decided = []
        monkeypatch.setattr(errors, "condition_number",
                            lambda h: decided.append(len(h)) or condition_number(h))
        refusals = assert_matches_the_reference(stack)
        assert 0 < sum(decided) < len(stack)  # the screen certified some, eigvalsh the rest
        assert 0 < np.count_nonzero(refusals) < len(stack)

    @pytest.mark.parametrize("case, masks", [("crb-sweep", False),  # omni: no zero pattern
                                             ("crb-sweep-cosine2", True),
                                             ("crb-sweep-seed-0", True)])
    def test_the_mask_agrees_with_eigvalsh_on_rotatable_stacks(self, case, masks):
        masked = 0
        for stack in rotatable_stacks(case):
            refusals = assert_matches_the_reference(stack)
            mask = ~(np.diagonal(stack, axis1=-2, axis2=-1) > 0).all(axis=-1)
            assert np.all(refusals[mask] == np.inf)
            masked += np.count_nonzero(mask)
        assert (masked > 0) == masks

    def test_a_stack_the_screen_certifies_whole_makes_no_eigvalsh_call(self, monkeypatch):
        stack = np.concatenate([hermitian_stack(np.random.default_rng(13), 16, [1.0, 1e3, 1e9],
                                                True),
                                np.zeros((1, 16, 16)), np.full((1, 16, 16), np.nan)])
        decided = []
        monkeypatch.setattr(errors, "condition_number",
                            lambda h: decided.append(len(h)) or condition_number(h))
        refusals = assert_matches_the_reference(stack)
        assert refusals.tolist() == [0.0, 0.0, 0.0, np.inf, np.inf] and decided == []

    def test_nested_lists_are_read_as_arrays(self):
        matrix, with_nan = [[2.0, 0.5], [0.5, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]
        assert condition_number(matrix) == condition_number(np.array(matrix)) < np.inf
        assert condition_number(with_nan) == np.inf
        assert condition_number([matrix, with_nan]).tolist() == [condition_number(matrix), np.inf]
        inverse, refusal = guarded_inverse(matrix)
        assert refusal == 0 and np.array_equal(inverse, np.linalg.inv(matrix))
        inverses, refusals = guarded_inverse([matrix, with_nan])
        assert refusals.tolist() == [0.0, np.inf]
        assert np.array_equal(inverses[0], inverse) and np.isnan(inverses[1]).all()
        assert_matches_the_reference([matrix, with_nan])

    def test_an_exactly_singular_matrix_takes_the_eigvalsh_first_path(self):
        rng = np.random.default_rng(7)
        stack = np.concatenate([hermitian_stack(rng, 4, [10.0, 0.99e12, 1.01e12]),
                                np.ones((1, 4, 4)), np.diag([1.0, 0.0, 1.0, 1.0])[None]])
        with pytest.raises(np.linalg.LinAlgError):  # so the stack cannot be inverted at once
            np.linalg.inv(stack[:4])
        refusals = assert_matches_the_reference(stack)
        assert refusals[:2].tolist() == [0.0, 0.0]
        assert refusals[2] == condition_number(stack[2]) and refusals[3] > COND_MAX
        assert refusals[4] == np.inf

    def test_a_well_conditioned_indefinite_matrix_is_refused(self, monkeypatch):
        # eigenvalues -1, 1, 1, 1 and a positive diagonal: the Frobenius bound reads 4
        householder = np.eye(4) - 0.5 * np.ones((4, 4))
        stack = np.concatenate([householder[None], hermitian_stack(np.random.default_rng(3), 4,
                                                                    [2.0, 30.0])])
        decided = []
        monkeypatch.setattr(errors, "condition_number",
                            lambda h: decided.append(len(h)) or condition_number(h))
        refusals = assert_matches_the_reference(stack)
        assert refusals.tolist() == [np.inf, 0.0, 0.0] and decided == [3]
        with pytest.raises(SingularFisherError):
            mean_angle_crb(FisherMatrix(householder, sigma2=1.0, n_paths=1))

    def test_an_empty_stack_gives_empty_results(self, monkeypatch):
        inverses, refusals = guarded_inverse(np.zeros((0, 8, 8)))
        assert inverses.shape == (0, 8, 8) and refusals.shape == (0,)
        # every grid point on a support edge: azimuth pi/2 behind the rotated boresight
        stacks = []
        monkeypatch.setattr(estimation, "guarded_inverse",
                            lambda stack: stacks.append(stack.shape) or guarded_inverse(stack))
        paths = PathSet(theta=[1.2], phi=[0.3 + np.pi / 2], beta=[1.0])
        with pytest.raises(OptimizationError, match="every grid point"):
            estimation.optimal_psi_for_crb(FlexModel.ROTATABLE, ArrayConfig(4, 2),
                                           PatternSpec(PatternKind.COSINE, kappa=2.0), paths,
                                           0.0, 1.0, (0.3, 0.3), grid_size=3)
        assert stacks == [(0, 4, 4)]

    def test_leading_shape_and_one_matrix(self):
        stack = hermitian_stack(np.random.default_rng(11), 3, [2.0, 1e13, 5.0, 7.0], True)
        inverses, refusals = guarded_inverse(stack.reshape(2, 2, 3, 3))
        assert inverses.shape == (2, 2, 3, 3) and refusals.shape == (2, 2)
        assert refusals.ravel().tolist() == [0.0, refusals[0, 1], 0.0, 0.0] and refusals[0, 1] > 1e12
        inverse, refusal = guarded_inverse(stack[0])
        assert refusal.shape == () and refusal == 0
        assert np.array_equal(inverse, np.linalg.inv(stack[0]))


@pytest.mark.parametrize("error, message", [
    (errors.RankDeficiencyError, "channel gram condition 2.500e+12 exceeds limit"),
    (errors.SingularFisherError, "fisher condition 2.500e+12 exceeds limit"),
], ids=["rank", "fisher"])
def test_condition_errors_keep_their_types_and_default_messages(error, message):
    raised = error(2.5e12)
    assert isinstance(raised, errors.FlexArrayError) and isinstance(raised, ValueError)
    assert (raised.condition, str(raised)) == (2.5e12, message)
    assert str(error(np.inf, "named")) == "named" and error(np.inf, "named").condition == np.inf
    other = ({errors.RankDeficiencyError, errors.SingularFisherError} - {error}).pop()
    assert not isinstance(raised, other)
