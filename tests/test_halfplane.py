"""Moebius actions, lifts, the invariant frame, and invariance residuals."""

import math
import random

import numpy as np
import pytest

from brieskorn.errors import DegenerateInput
from brieskorn.halfplane import (
    LiftedIsometry,
    MobiusElement,
    UpperHalfPoint,
    contact_covector,
    contact_invariance_residual,
    frame_at,
    frame_invariance_residual,
    invariance_residuals,
    lifted_jacobian,
    mobius_apply,
    random_mobius,
    random_point,
    rotation_about_i,
)


def test_identity_fixes_points():
    assert mobius_apply(MobiusElement.identity(), 2j) == 2j


def test_transport_matrix_moves_i():
    g = MobiusElement([[2 / math.sqrt(2), 1 / math.sqrt(2)], [0, 1 / math.sqrt(2)]])
    assert mobius_apply(g, 1j) == pytest.approx(1 + 2j)


def test_half_turn_fixes_i():
    assert mobius_apply(rotation_about_i(math.pi), 1j) == pytest.approx(1j)


def test_apply_rejects_lower_half_plane():
    with pytest.raises(DegenerateInput):
        mobius_apply(MobiusElement.identity(), 1 - 1j)


def test_composition_law_on_points():
    rng = random.Random(0)
    for _ in range(100):
        g = random_mobius(rng)
        h = random_mobius(rng)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3))
        assert g.compose(h).apply(z) == pytest.approx(g.apply(h.apply(z)), abs=1e-10)


def test_determinant_renormalization():
    g = MobiusElement([[2.0, 0.0], [0.0, 2.0]])
    assert np.linalg.det(g.matrix) == pytest.approx(1.0, abs=1e-14)


def test_lifted_identity_and_center():
    p = UpperHalfPoint(0.3, 1.7, 0.2)
    q = LiftedIsometry.identity().apply(p)
    assert (q.x, q.y, q.t) == pytest.approx((p.x, p.y, p.t))
    q = LiftedIsometry.center().apply(p)
    assert (q.x, q.y, q.t) == pytest.approx((p.x, p.y, p.t + 2 * math.pi))


def test_lifted_translation_leaves_t_alone():
    lift = LiftedIsometry.canonical(MobiusElement([[1.0, 0.7], [0.0, 1.0]]))
    p = UpperHalfPoint(0.1, 1.0, 0.5)
    q = lift.apply(p)
    assert (q.x, q.y, q.t) == pytest.approx((0.8, 1.0, 0.5))


def test_lifted_action_is_a_group_action():
    rng = random.Random(1)
    for _ in range(200):
        h1 = LiftedIsometry.canonical(random_mobius(rng))
        h2 = LiftedIsometry.canonical(random_mobius(rng))
        p = random_point(rng)
        lhs = h1.compose(h2).apply(p)
        rhs = h1.apply(h2.apply(p))
        assert abs(lhs.x - rhs.x) + abs(lhs.y - rhs.y) + abs(lhs.t - rhs.t) < 1e-8


def test_frame_values():
    e1, e2 = frame_at(UpperHalfPoint(0.0, 1.0, 0.0))
    assert e1 == pytest.approx([1.0, 0.0, -1.0])
    assert e2 == pytest.approx([0.0, 1.0, 0.0])
    e1, e2 = frame_at(UpperHalfPoint(0.0, 1.0, math.pi / 2))
    assert e1 == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)
    assert e2 == pytest.approx([-1.0, 0.0, 1.0], abs=1e-15)


def test_frame_lies_in_contact_planes_and_is_positive():
    rng = random.Random(2)
    for _ in range(1000):
        p = random_point(rng)
        lam = contact_covector(p)
        e1, e2 = frame_at(p)
        assert abs(lam @ e1) < 1e-14
        assert abs(lam @ e2) < 1e-14
        # induced area form evaluates to +1 on the pair
        area = (e1[0] * e2[1] - e1[1] * e2[0]) / p.y**2
        assert area == pytest.approx(1.0)


def test_invariance_residuals_random_elements():
    rng = random.Random(3)
    for _ in range(100):
        h = LiftedIsometry.canonical(random_mobius(rng))
        p = random_point(rng)
        assert contact_invariance_residual(h, p) < 1e-8
        assert frame_invariance_residual(h, p) < 1e-8


def _draws(seed, samples):
    """The elements and points verify-dynamics draws for ``seed``, in its order."""
    rng = random.Random(seed)
    elements, points = [], []
    for _ in range(samples):
        elements.append(LiftedIsometry.canonical(random_mobius(rng)))
        points.append(random_point(rng))
    return elements, points


def test_array_residuals_equal_the_scalar_residuals_bit_for_bit():
    for seed in range(20):
        for samples in (0, 1, 5, 50, 1000):
            elements, points = _draws(seed, samples)
            form, frame = invariance_residuals(elements, points)
            assert form.shape == frame.shape == (samples,)
            assert form.tolist() == [
                contact_invariance_residual(h, p) for h, p in zip(elements, points)]
            assert frame.tolist() == [
                frame_invariance_residual(h, p) for h, p in zip(elements, points)]


def test_array_residuals_refuse_degenerate_samples():
    elements, points = _draws(11, 5)
    collapsing = LiftedIsometry.canonical(MobiusElement([[1e13, 0.0], [1e-13, 1e-13]]))
    bad = UpperHalfPoint(0.0, 1.0, 0.5)
    with pytest.raises(DegenerateInput):
        collapsing.apply(bad)
    with pytest.raises(DegenerateInput, match=r"collapsed at z = 1j$"):
        invariance_residuals([*elements[:2], collapsing, *elements[2:]],
                             [*points[:2], bad, *points[2:]])
    # an image y that underflows to 0 is refused with the same type
    crushing = LiftedIsometry(MobiusElement([[0.0, -1e-200], [1e200, 0.0]]), 0.0)
    with pytest.raises(DegenerateInput, match="outside the upper half-plane"):
        invariance_residuals([elements[0], crushing], [points[0], UpperHalfPoint(0.3, 1.0, 0.0)])


def test_invariance_identity_and_vertical_shift():
    p = UpperHalfPoint(0.4, 0.9, -1.2)
    assert contact_invariance_residual(LiftedIsometry.identity(), p) == 0.0
    shift = LiftedIsometry(MobiusElement.identity(), 0.77)
    assert contact_invariance_residual(shift, p) == 0.0


def lifted_jacobian_fd(h: LiftedIsometry, p: UpperHalfPoint, step: float = 1e-6) -> np.ndarray:
    """Central differences of the lifted action at p, in (x, y, t) coordinates."""
    def embed(x, y, t):
        q = h.apply(UpperHalfPoint(x, y, t))
        return np.array([q.x, q.y, q.t])

    cols = []
    for axis in range(3):
        delta = np.zeros(3)
        delta[axis] = step
        plus = embed(p.x + delta[0], p.y + delta[1], p.t + delta[2])
        minus = embed(p.x - delta[0], p.y - delta[1], p.t - delta[2])
        cols.append((plus - minus) / (2.0 * step))
    return np.column_stack(cols)


def test_finite_difference_jacobian_agrees():
    rng = random.Random(4)
    for _ in range(20):
        h = LiftedIsometry.canonical(random_mobius(rng))
        p = random_point(rng)
        analytic, differenced = lifted_jacobian(h, p), lifted_jacobian_fd(h, p)
        assert np.max(np.abs(analytic - differenced)) < 1e-7 * max(1.0, np.max(np.abs(analytic)))


def test_point_requires_positive_y():
    with pytest.raises(ValueError):
        UpperHalfPoint(0.0, -1.0, 0.0)


def test_canonical_lift_projects_to_the_base_action():
    import cmath

    rng = random.Random(5)
    for _ in range(100):
        g = random_mobius(rng)
        lift = LiftedIsometry.canonical(g)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3))
        shift = lift.theta_shift(z)
        principal = -2.0 * cmath.phase(g.c * z + g.d)
        wrapped = (shift - principal + math.pi) % (2 * math.pi) - math.pi
        assert abs(wrapped) < 1e-10
