"""The grid kernel: losses, gradients against finite differences, predictions."""

import math

import numpy as np
import pytest

from fedfew.errors import ConfigError
from fedfew.model import (
    ModelSpec,
    grid_loss,
    grid_loss_and_grad,
    grid_predict,
    init_params,
    softmax_hessian,
    stack_rows,
)
from fedfew.numerics import Rng
from perpair import finite_difference_grad, grad, logits, loss


def random_instance(seed, kind="softmax-regression", p=3, classes=3, hidden=4, l2=1e-3):
    rng = Rng(seed)
    spec = ModelSpec(kind, input_dim=p, classes=classes,
                     hidden_dim=hidden if kind == "mlp-1hidden" else 0, l2_penalty=l2)
    theta = init_params(spec, rng.split(0))
    n = 8
    x = rng.split(1).normal(size=(n, p))
    y = rng.split(2).integers(0, classes, size=n)
    return spec, theta, x, y


def pair_loss(spec, theta, x, y) -> float:
    """The kernel on a grid of one pair."""
    return float(grid_loss(spec, np.asarray(theta, float)[None, None], stack_rows(spec, [(x, y)]))[0, 0])


def pair_grad(spec, theta, x, y) -> np.ndarray:
    rows = stack_rows(spec, [(x, y)])
    return grid_loss_and_grad(spec, np.asarray(theta, float)[None, None], rows)[1][0, 0]


def grid_instance(kind, seed=0, m=4, k=3):
    """Clients of 1, 6, 13 and 9 rows sharing one padded stack, k models each."""
    rng = Rng(seed)
    spec = ModelSpec(kind, input_dim=3, classes=4,
                     hidden_dim=5 if kind == "mlp-1hidden" else 0, l2_penalty=1e-3)
    sizes = [1, 6, 13, 9][:m]
    pairs = [(rng.split(1, i).normal(size=(n, 3)), rng.split(2, i).integers(0, 4, size=n))
             for i, n in enumerate(sizes)]
    thetas = np.stack([[init_params(spec, rng.split(3, i, j)) for j in range(k)]
                       for i in range(m)])
    return spec, pairs, thetas


def grid_fd(spec, thetas, rows, step):
    """Central differences of every pair of the grid at once."""
    return finite_difference_grad(lambda th: grid_loss(spec, th, rows), thetas, step=step)


def assert_close_per_pair(g, fd, rel):
    """Every pair's finite-difference gradient within rel * max(1, |g|) of g."""
    err = np.linalg.norm(g - fd, axis=-1)
    assert np.all(err <= rel * np.maximum(1.0, np.linalg.norm(g, axis=-1)))


class TestLoss:
    def test_zero_parameters_give_log_classes(self):
        for c in (2, 3, 7):
            spec = ModelSpec("softmax-regression", input_dim=4, classes=c, l2_penalty=0.0)
            x = Rng(0).normal(size=(5, 4))
            y = np.arange(5) % c
            assert pair_loss(spec, np.zeros(spec.dim), x, y) == pytest.approx(math.log(c), abs=1e-12)

    def test_hand_computed_binary_case(self):
        # logits [ln 3, 0] for true class 0: loss = -log(3/4) = log(4/3)
        spec = ModelSpec("softmax-regression", input_dim=1, classes=2, l2_penalty=0.0)
        theta = np.array([math.log(3.0), 0.0, 0.0, 0.0])  # class-0 weight ln3, rest zero
        value = pair_loss(spec, theta, np.array([[1.0]]), np.array([0]))
        assert value == pytest.approx(0.28768207245178085, abs=1e-12)

    def test_l2_term_is_half_squared_norm(self):
        spec0 = ModelSpec("softmax-regression", input_dim=1, classes=2, l2_penalty=0.0)
        spec1 = ModelSpec("softmax-regression", input_dim=1, classes=2, l2_penalty=1.0)
        theta = np.array([3.0, 4.0, 0.0, 0.0])
        x, y = np.array([[0.5]]), np.array([1])
        assert (pair_loss(spec1, theta, x, y) - pair_loss(spec0, theta, x, y)
                == pytest.approx(12.5, abs=1e-12))

    def test_nonnegative_and_permutation_invariant(self):
        spec, theta, x, y = random_instance(5)
        base = pair_loss(spec, theta, x, y)
        assert base >= 0.0
        perm = Rng(1).permutation(len(y))
        assert pair_loss(spec, theta, x[perm], y[perm]) == pytest.approx(base, rel=1e-12)

    def test_stacking_rejects_bad_rows(self):
        spec = ModelSpec("softmax-regression", input_dim=2, classes=2)
        with pytest.raises(ValueError):  # a feature count the spec does not have
            stack_rows(spec, [(np.zeros((1, 3)), np.array([0]))])
        with pytest.raises(ValueError):  # clients disagree on the feature count
            stack_rows(spec, [(np.zeros((2, 2)), np.array([0, 1])), (np.zeros((1, 3)), np.array([0]))])
        for label in (2, 5, -1):  # labels outside [0, classes)
            with pytest.raises(ValueError):
                stack_rows(spec, [(np.zeros((1, 2)), np.array([label]))])
        with pytest.raises(ValueError, match="each client needs n >= 1 rows"):  # an empty client
            stack_rows(spec, [(np.zeros((2, 2)), np.array([0, 1])), (np.zeros((0, 2)), np.zeros(0, int))])


class TestGrad:
    @pytest.mark.parametrize("kind, rel", [("softmax-regression", 1e-5), ("mlp-1hidden", 1e-4)])
    def test_grid_matches_finite_differences(self, kind, rel):
        for seed in range(10):
            spec, pairs, thetas = grid_instance(kind, seed=seed)
            rows = stack_rows(spec, pairs)
            g = grid_loss_and_grad(spec, thetas, rows)[1]
            assert_close_per_pair(g, grid_fd(spec, thetas, rows, 1e-5), rel)

    def test_class_swap_antisymmetry_at_zero(self):
        # balanced two-class batch, symmetric under label swap: the two class
        # rows of the gradient are exact negatives of each other at theta = 0
        spec = ModelSpec("softmax-regression", input_dim=2, classes=2, l2_penalty=0.0)
        x = np.array([[1.0, -0.5], [1.0, -0.5]])
        y = np.array([0, 1])
        g = pair_grad(spec, np.zeros(spec.dim), x, y).reshape(2, 3)
        np.testing.assert_allclose(g[0], -g[1], atol=1e-15)

    def test_l2_direction_is_linear(self):
        spec0, theta, x, y = random_instance(3, l2=0.0)
        lam = 0.37
        spec1 = ModelSpec(spec0.kind, spec0.input_dim, spec0.classes, l2_penalty=lam)
        diff = pair_grad(spec1, theta, x, y) - pair_grad(spec0, theta, x, y)
        np.testing.assert_allclose(diff, lam * theta, atol=1e-14)

    def test_gradient_dimension_matches_spec(self):
        for kind in ("softmax-regression", "mlp-1hidden"):
            spec, pairs, thetas = grid_instance(kind)
            g = grid_loss_and_grad(spec, thetas, stack_rows(spec, pairs))[1]
            assert g.shape == (*thetas.shape[:2], spec.dim)

    def test_norm_small_at_descent_optimum(self):
        # convex instance driven to its optimum by plain gradient descent
        spec, _, x, y = random_instance(7, p=2, classes=2, l2=0.05)
        rows = stack_rows(spec, [(x, y)])
        theta = np.zeros((1, 1, spec.dim))
        for _ in range(10000):
            theta -= 0.5 * grid_loss_and_grad(spec, theta, rows)[1]
        assert np.linalg.norm(grid_loss_and_grad(spec, theta, rows)[1]) <= 1e-4


class TestHessian:
    @pytest.mark.parametrize("classes", [2, 3])
    @pytest.mark.parametrize("l2", [0.0, 1e-4, 0.05])
    def test_matches_finite_differences_of_the_gradient(self, classes, l2):
        step = 1e-6
        for seed in range(3):
            spec, _, x, y = random_instance(seed, classes=classes, l2=l2)
            rows = stack_rows(spec, [(x, y)])
            theta = Rng(seed).split(3).normal(size=spec.dim)
            h = softmax_hessian(spec, theta[None, None], rows)
            assert h.shape == (spec.dim, spec.dim)
            np.testing.assert_allclose(h, h.T, rtol=0, atol=1e-15)
            fd = np.empty_like(h)
            for j in range(spec.dim):
                e = np.zeros(spec.dim)
                e[j] = step
                hi = grid_loss_and_grad(spec, (theta + e)[None, None], rows)[1][0, 0]
                lo = grid_loss_and_grad(spec, (theta - e)[None, None], rows)[1][0, 0]
                fd[:, j] = (hi - lo) / (2.0 * step)
            np.testing.assert_allclose(h, fd, rtol=0, atol=1e-8)


class TestPredict:
    def test_zero_parameters_tie_break_to_class_zero(self):
        spec = ModelSpec("softmax-regression", input_dim=3, classes=4)
        x = Rng(2).normal(size=(10, 3))
        rows = stack_rows(spec, [(x, np.zeros(10, int))])
        np.testing.assert_array_equal(grid_predict(spec, np.zeros((1, 1, spec.dim)), rows),
                                      np.zeros((1, 1, 10), int))

    def test_dominant_logit(self):
        spec = ModelSpec("softmax-regression", input_dim=1, classes=2)
        theta = np.array([0.0, 0.0, 1.0, 0.0])  # positive weight on class 1 only
        rows = stack_rows(spec, [(np.array([[10.0]]), np.array([0]))])
        assert grid_predict(spec, theta[None, None], rows)[0, 0, 0] == 1

    @pytest.mark.parametrize("kind", ["softmax-regression", "mlp-1hidden"])
    def test_agrees_with_reference_logits(self, kind):
        # every pair of a grid over unequal clients, against the per-pair logits
        spec, pairs, thetas = grid_instance(kind, seed=4)
        pred = grid_predict(spec, thetas, stack_rows(spec, pairs))
        for i, (x, _) in enumerate(pairs):
            for k in range(thetas.shape[1]):
                np.testing.assert_array_equal(pred[i, k, : len(x)],
                                              np.argmax(logits(spec, thetas[i, k], x), axis=1))


class TestFiniteDifference:
    def test_exact_on_pure_quadratic_direction(self):
        # far from the data the l2 term dominates; central differences are
        # exact for quadratics up to rounding
        spec = ModelSpec("softmax-regression", input_dim=1, classes=2, l2_penalty=2.0)
        theta = np.array([50.0, -30.0, 20.0, -10.0])
        x, y = np.array([[0.0]]), np.array([0])
        fd = finite_difference_grad(lambda th: pair_loss(spec, th, x, y), theta, step=1e-4)
        np.testing.assert_allclose(fd, pair_grad(spec, theta, x, y), rtol=1e-7, atol=1e-6)

    @pytest.mark.parametrize("kind", ["softmax-regression", "mlp-1hidden"])
    def test_two_step_sizes_agree_with_analytic(self, kind):
        for seed in range(25):
            spec, pairs, thetas = grid_instance(kind, seed=100 + seed)
            rows = stack_rows(spec, pairs)
            g = grid_loss_and_grad(spec, thetas, rows)[1]
            for step in (1e-4, 1e-5):
                assert_close_per_pair(g, grid_fd(spec, thetas, rows, step), 1e-4)

    def test_halving_the_step_shrinks_error_about_fourfold(self):
        spec, pairs, thetas = grid_instance("mlp-1hidden", seed=13)
        rows = stack_rows(spec, pairs)
        g = grid_loss_and_grad(spec, thetas, rows)[1]
        err = {step: np.linalg.norm(grid_fd(spec, thetas, rows, step) - g) for step in (2e-3, 1e-3)}
        ratio = err[2e-3] / err[1e-3]
        assert 2.5 <= ratio <= 6.0


class TestModelSpec:
    @pytest.mark.parametrize("l2", [-1.0, math.nan, math.inf])
    def test_l2_must_be_nonnegative_and_finite(self, l2):
        with pytest.raises(ConfigError, match="l2_penalty"):
            ModelSpec("softmax-regression", input_dim=2, classes=2, l2_penalty=l2)

    def test_hidden_dim_is_ignored_by_softmax(self):
        spec = ModelSpec("softmax-regression", input_dim=2, classes=3, hidden_dim=0)
        assert spec.dim == 9


class TestInit:
    def test_bounds_follow_fan_in(self):
        spec = ModelSpec("softmax-regression", input_dim=8, classes=3)
        theta = init_params(spec, Rng(0))
        assert np.max(np.abs(theta)) <= 1.0 / math.sqrt(9)

    def test_deterministic(self):
        spec = ModelSpec("mlp-1hidden", input_dim=4, classes=3, hidden_dim=5)
        np.testing.assert_array_equal(init_params(spec, Rng(7)), init_params(spec, Rng(7)))


class TestGridKernel:
    """The batched kernel against the per-pair reference loss/grad."""

    @pytest.mark.parametrize("kind", ["softmax-regression", "mlp-1hidden"])
    def test_whole_splits_match_per_pair(self, kind):
        spec, pairs, thetas = grid_instance(kind)
        rows = stack_rows(spec, pairs)
        losses, grads = grid_loss_and_grad(spec, thetas, rows)
        np.testing.assert_array_equal(grid_loss(spec, thetas, rows), losses)
        for i, (x, y) in enumerate(pairs):
            for k in range(thetas.shape[1]):
                assert losses[i, k] == pytest.approx(loss(spec, thetas[i, k], x, y), abs=1e-12)
                np.testing.assert_allclose(grads[i, k], grad(spec, thetas[i, k], x, y),
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["softmax-regression", "mlp-1hidden"])
    def test_per_task_batches_match_per_pair(self, kind):
        spec, pairs, thetas = grid_instance(kind, seed=1)
        rows = stack_rows(spec, pairs)
        counts = np.array([len(y) for _, y in pairs])
        rng = Rng(5)
        # three rows per task, drawn with repeats from the client's own rows
        idx = np.stack([[rng.integers(0, n, size=3) for _ in range(thetas.shape[1])]
                        for n in counts])
        losses, grads = grid_loss_and_grad(spec, thetas, rows.take(idx, np.full(idx.shape, 1 / 3)))
        for i, (x, y) in enumerate(pairs):
            for k in range(thetas.shape[1]):
                rows_ik = idx[i, k]
                assert losses[i, k] == pytest.approx(
                    loss(spec, thetas[i, k], x[rows_ik], y[rows_ik]), abs=1e-12)
                np.testing.assert_allclose(grads[i, k],
                                           grad(spec, thetas[i, k], x[rows_ik], y[rows_ik]),
                                           rtol=0, atol=1e-12)
