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
    automorphic_modulus,
    contact_covector,
    contact_invariance_residual,
    frame_at,
    frame_invariance_residual,
    invariance_residuals,
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


def test_both_residuals_at_once_equal_each_alone_bit_for_bit():
    rng = random.Random(5)
    for _ in range(200):
        h = LiftedIsometry.canonical(random_mobius(rng))
        p = random_point(rng)
        assert invariance_residuals(h, p) == (
            contact_invariance_residual(h, p), frame_invariance_residual(h, p))


def test_invariance_identity_and_vertical_shift():
    p = UpperHalfPoint(0.4, 0.9, -1.2)
    assert contact_invariance_residual(LiftedIsometry.identity(), p) == 0.0
    shift = LiftedIsometry(MobiusElement.identity(), 0.77)
    assert contact_invariance_residual(shift, p) == 0.0


def test_finite_difference_jacobian_agrees():
    rng = random.Random(4)
    for _ in range(20):
        h = LiftedIsometry.canonical(random_mobius(rng))
        p = random_point(rng)
        assert contact_invariance_residual(h, p, method="fd") < 1e-7


def test_automorphic_modulus():
    p = UpperHalfPoint(0.0, 2.0, 5.0)
    assert automorphic_modulus(lambda z: 1.0, 1, p) == 2.0
    for t in (0.0, 17.3, -4.4):
        q = UpperHalfPoint(0.3, 1.3, t)
        assert automorphic_modulus(lambda z: abs(z), 0, q) == abs(q.z)
    # bit-exact independence of t
    f = lambda z: abs(z * z - 1.0)
    values = {
        automorphic_modulus(f, 3, UpperHalfPoint(0.7, 1.9, t))
        for t in (0.0, 17.3, -123.456)
    }
    assert len(values) == 1


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
