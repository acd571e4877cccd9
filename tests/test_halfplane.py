"""Moebius actions, lifts, the invariant frame, and invariance residuals."""

import cmath
import importlib.util
import itertools
import math
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brieskorn import halfplane, polygon, validate_params
from brieskorn.errors import DegenerateInput
from brieskorn.halfplane import (
    LiftedIsometry,
    MobiusElement,
    _lift_shifts,
    _quotient,
    continued_arg,
    invariance_residuals,
    random_points,
    random_samples,
    rotation_about_i,
)
from brieskorn.polygon import build_polygon_group
import halfplane_reference as reference
import test_polygon
from halfplane_reference import (
    UpperHalfPoint,
    apply,
    canonical,
    contact_covector,
    contact_invariance_residual,
    frame_at,
    frame_invariance_residual,
    lifted_jacobian,
    random_matrix,
    random_mobius,
    random_point,
)


def test_identity_fixes_points():
    assert MobiusElement.identity().apply(2j) == 2j


def test_transport_matrix_moves_i():
    g = MobiusElement(2 / math.sqrt(2), 1 / math.sqrt(2), 0, 1 / math.sqrt(2))
    assert g.apply(1j) == pytest.approx(1 + 2j)


def test_half_turn_fixes_i():
    assert rotation_about_i(math.pi).apply(1j) == pytest.approx(1j)


def test_composition_law_on_points():
    rng = random.Random(0)
    for _ in range(100):
        g = random_mobius(rng)
        h = random_mobius(rng)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3))
        assert g.compose(h).apply(z) == pytest.approx(g.apply(h.apply(z)), abs=1e-10)


def test_determinant_renormalization():
    g = MobiusElement(2.0, 0.0, 0.0, 2.0)
    assert g.a * g.d - g.b * g.c == pytest.approx(1.0, abs=1e-14)


def test_lifted_identity_and_center():
    p = UpperHalfPoint(0.3, 1.7, 0.2)
    q = apply(LiftedIsometry.identity(), p)
    assert (q.x, q.y, q.t) == pytest.approx((p.x, p.y, p.t))
    # the center of the group is the pure vertical shift by 2*pi
    q = apply(LiftedIsometry(MobiusElement.identity(), 2 * math.pi), p)
    assert (q.x, q.y, q.t) == pytest.approx((p.x, p.y, p.t + 2 * math.pi))


def test_lifted_translation_leaves_t_alone():
    lift = canonical(MobiusElement(1.0, 0.7, 0.0, 1.0))
    p = UpperHalfPoint(0.1, 1.0, 0.5)
    q = apply(lift, p)
    assert (q.x, q.y, q.t) == pytest.approx((0.8, 1.0, 0.5))


def test_lifted_action_is_a_group_action():
    rng = random.Random(1)
    for _ in range(200):
        h1 = canonical(random_mobius(rng))
        h2 = canonical(random_mobius(rng))
        p = random_point(rng)
        lhs = apply(h1.compose(h2), p)
        rhs = apply(h1, apply(h2, p))
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
        h = canonical(random_mobius(rng))
        p = random_point(rng)
        assert contact_invariance_residual(h, p) < 1e-8
        assert frame_invariance_residual(h, p) < 1e-8


def _draws(seed, samples):
    """The rows verify-dynamics draws for ``seed``, and their canonical lifts
    and points drawn as objects, one by one, from the same seed."""
    matrices, points = random_samples(random.Random(seed), samples)
    rng = random.Random(seed)
    elements, objects = [], []
    for _ in range(samples):
        elements.append(canonical(random_mobius(rng)))
        objects.append(random_point(rng))
    assert [[h.base.a, h.base.b, h.base.c, h.base.d] for h in elements] == matrices.tolist()
    assert [[p.x, p.y, p.t] for p in objects] == points.tolist()
    return matrices, points, elements, objects


def test_array_residuals_equal_the_scalar_residuals_bit_for_bit():
    for seed in range(20):
        for samples in (0, 1, 5, 50, 1000):
            matrices, points, elements, objects = _draws(seed, samples)
            form, frame = invariance_residuals(matrices, points)
            assert form.shape == frame.shape == (samples,)
            assert form.tolist() == [
                contact_invariance_residual(h, p) for h, p in zip(elements, objects)]
            assert frame.tolist() == [
                frame_invariance_residual(h, p) for h, p in zip(elements, objects)]


def test_array_residuals_refuse_degenerate_samples():
    matrices, points, _, _ = _draws(11, 5)
    collapsing = (1e13, 0.0, 1e-13, 1e-13)
    bad = (0.0, 1.0, 0.5)
    with pytest.raises(DegenerateInput):
        apply(canonical(MobiusElement(*collapsing)), UpperHalfPoint(*bad))
    matrices, points = matrices.tolist(), points.tolist()
    with pytest.raises(DegenerateInput, match=r"collapsed at z = 1j$"):
        invariance_residuals([*matrices[:2], collapsing, *matrices[2:]],
                             [*points[:2], bad, *points[2:]])
    # an image y that underflows to 0, or is NaN, is refused with the same
    # type, by the point form and the arrays alike
    crushing = (0.0, -1e-200, 1e200, 0.0)
    off = r"z = \(0.3\+1j\) has y = 0.0, outside the upper half-plane$"
    with pytest.raises(DegenerateInput, match=off):
        MobiusElement(*crushing).apply(0.3 + 1j)
    with pytest.raises(DegenerateInput, match=off):
        invariance_residuals([matrices[0], crushing], [points[0], (0.3, 1.0, 0.0)])
    with pytest.raises(DegenerateInput, match="has y = nan, outside the upper half-plane$"):
        MobiusElement(math.nan, 0.0, 0.0, 1.0).apply(1j)


def test_random_matrix_is_the_mobius_element_of_its_draws():
    for seed in range(50):
        rng, raw = random.Random(seed), random.Random(seed)
        for _ in range(20):
            while True:
                a, b, c, d = (raw.uniform(-2.0, 2.0) for _ in range(4))
                if a * d - b * c > 0.05:
                    break
            g = MobiusElement(a, b, c, d)
            expected = [g.a, g.b, g.c, g.d]
            assert list(random_matrix(rng)) == expected
        assert rng.getstate() == raw.getstate()


def _bits(x):
    """A float's value and sign, with every NaN alike."""
    return "nan" if math.isnan(x) else (x, math.copysign(1.0, x))


def _numpy_quotient(ar, ai, br, bi):
    with np.errstate(all="ignore"):
        q = np.complex128(complex(ar, ai)) / np.complex128(complex(br, bi))
    return float(q.real), float(q.imag)


def test_quotient_is_numpy_complex_division_bit_for_bit():
    rng = random.Random(6)
    branches = set()
    for _ in range(20000):
        parts = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-150, 150) for _ in range(4)]
        branches.add(abs(parts[2]) >= abs(parts[3]))
        assert _quotient(*parts) == _numpy_quotient(*parts), parts
    assert branches == {True, False}
    # overflow and underflow of the scale, signed zeros, zero and NaN divisors
    specials = (0.0, -0.0, 1.0, -3.5, 1e-310, 1e308, -1e308, math.inf, math.nan)
    for parts in itertools.product(specials, repeat=4):
        assert list(map(_bits, _quotient(*parts))) == list(
            map(_bits, _numpy_quotient(*parts))), parts


def _sample_rows(seed, count):
    """The rows ``random_samples`` draws, as lists of Python floats."""
    return [rows.tolist() for rows in random_samples(random.Random(seed), count)]


# the principal argument and the walk each round a few times; 4 ulp(pi) covers both
WALK_BOUND = 4 * math.ulp(math.pi)


def _walk_gap(c, d, z):
    return abs(continued_arg(c, d, z) - reference.continued_arg(c, d, z))


def test_continued_arg_is_the_halving_walk_within_rounding():
    turning = 0
    for seed in range(50):
        matrices, points = _sample_rows(seed, 1000)
        for (_, _, c, d), (x, y, _) in zip(matrices, points):
            z = complex(x, y)
            assert _walk_gap(c, d, z) <= WALK_BOUND, (c, d, z)
            turning += abs(cmath.phase((c * z + d) / (c * 1j + d))) >= 0.5 * math.pi
    # about 1.2% of the rows turn by pi/2 or more at the first step, where
    # the walk halves its segment
    assert turning >= 300
    # bottom rows on the branch cut and with signed zeros
    for c, d in itertools.product((0.0, -0.0, 1e-300, -0.75), (-2.0, -0.0, 0.0, 1.5)):
        if (c, d) == (0.0, 0.0):
            continue
        for z in (0.5j, -3.0 + 0.1j, 2.0 + 4.0j, -0.0 + 1.0j):
            assert _walk_gap(c, d, z) <= WALK_BOUND, (c, d, z)


def _signed(low, high):
    """Floats of either sign whose magnitude is log-uniform in [low, high]."""
    return st.tuples(st.floats(math.log10(low), math.log10(high)), st.booleans()).map(
        lambda drawn: (-1.0 if drawn[1] else 1.0) * 10.0 ** drawn[0])


@settings(derandomize=True, database=None, max_examples=2000, deadline=None)
@given(_signed(1e-8, 1e8), _signed(1e-8, 1e8), _signed(1e-6, 1e4),
       st.floats(math.log10(1e-6), math.log10(1e4)))
def test_continued_arg_is_the_halving_walk_at_mixed_scales(c, d, x, log_y):
    z = complex(x, 10.0 ** log_y)
    assert _walk_gap(c, d, z) <= WALK_BOUND


def _point_shifts(rows):
    """The canonical lift's t-shift over each (c, d, x, y), by ``continued_arg``."""
    out = []
    for c, d, x, y in rows:
        ref = continued_arg(c, d, 1j)
        out.append(-2.0 * ref - 2.0 * (continued_arg(c, d, complex(x, y)) - ref))
    return out


def _array_shifts(rows):
    return _lift_shifts(*np.array(rows, dtype=float).reshape(-1, 4).T).tolist()


def test_array_shifts_equal_the_continued_arg_of_each_point_bit_for_bit():
    for seed in range(50):
        matrices, points = _sample_rows(seed, 1000)
        rows = [(c, d, x, y) for (_, _, c, d), (x, y, _) in zip(matrices, points)]
        assert list(map(_bits, _array_shifts(rows))) == list(map(_bits, _point_shifts(rows)))


def test_array_shifts_keep_signed_zeros_the_cut_and_extreme_entries():
    # c*i + d on the negative real axis (c a signed zero, d < 0), signed
    # zeros in c, d and x, huge and tiny entries and coordinates, and NaNs.
    # A row the point form refuses (c*z + d underflows to zero or onto the
    # real axis, or is NaN) is refused by the array form too, with the
    # same message
    entries = (0.0, -0.0, -2.0, 1.5, 1e-300, -1e-300, 1e150, -1e150, math.nan)
    points = ((0.5, 1.0), (-3.0, 0.1), (-0.0, 1.0), (2.0, 4.0), (-1e150, 1e150),
              (1e-3, 1e-300), (-0.5, 1e150), (math.nan, 1.0))
    rows, refused = [], 0
    for c, d in itertools.product(entries, repeat=2):
        for x, y in points:
            try:
                _point_shifts([(c, d, x, y)])
            except DegenerateInput as error:
                refused += 1
                with pytest.raises(DegenerateInput) as caught:
                    _array_shifts([(c, d, x, y)])
                assert str(caught.value) == str(error)
            else:
                rows.append((c, d, x, y))
    assert len(rows) >= 300 and refused >= 100
    assert list(map(_bits, _array_shifts(rows))) == list(map(_bits, _point_shifts(rows)))
    assert _array_shifts([]) == []


# The draw contract: the samplers' arrays are the values of one rng.random()
# call per draw, bit for bit, and leave the generator where those calls
# leave it. Each check takes the module under test, so the mutants below
# are held against the same checks.

def _assert_uniforms_exact(hp, seed, count):
    rng, calls = random.Random(seed), random.Random(seed)
    drawn = hp._uniforms(rng, count)
    assert drawn.dtype == np.float64 and drawn.shape == (count,)
    assert drawn.tolist() == [calls.random() for _ in range(count)]
    assert rng.getstate() == calls.getstate()


def _assert_samples_exact(hp, seed, count):
    rng, objects = random.Random(seed), random.Random(seed)
    matrices, points = hp.random_samples(rng, count)
    assert matrices.shape == (count, 4) and points.shape == (count, 3)
    expected = [(list(random_matrix(objects)), random_point(objects)) for _ in range(count)]
    assert matrices.tolist() == [m for m, _ in expected]
    assert points.tolist() == [[p.x, p.y, p.t] for _, p in expected]
    assert rng.getstate() == objects.getstate()


def _assert_points_exact(hp, seed, count):
    rng, raw = random.Random(seed), random.Random(seed)
    assert hp.random_points(rng, count) == [
        (raw.uniform(-2.0, 2.0), raw.uniform(0.2, 3.0), raw.uniform(-6.0, 6.0))
        for _ in range(count)]
    assert rng.getstate() == raw.getstate()


def test_uniforms_are_the_values_of_random_calls_bit_for_bit():
    for seed in range(20):
        for count in (0, 1, 2, 63, 64, 1000):
            _assert_uniforms_exact(halfplane, seed, count)


def test_random_point_is_the_uniform_draw_of_each_coordinate():
    for seed in range(20):
        for count in (0, 1, 100, 1000):
            _assert_points_exact(halfplane, seed, count)
    rng, rows = random.Random(8), random.Random(8)
    for row in random_points(rows, 100):
        p = random_point(rng)
        assert (p.x, p.y, p.t) == row
    assert rng.getstate() == rows.getstate()


def test_random_samples_are_the_draws_of_random_matrix_and_random_point():
    # small counts end in short chunks, where a taken window's point may
    # still be undrawn
    for seed in range(40):
        for count in (*range(65), 1000):
            _assert_samples_exact(halfplane, seed, count)
    for seed in (0, 1):
        _assert_samples_exact(halfplane, seed, 20000)


# source substitutions on a copy of halfplane.py, (text, replacement), and
# the draw-contract checks, with their counts, that each must fail
SAMPLER_MUTANTS = {
    "one word too many in the last chunk": (
        "    rows = _SAMPLE_LOW",
        "    if starts:\n        rng.getrandbits(32)\n    rows = _SAMPLE_LOW",
        ((_assert_samples_exact, 1), (_assert_samples_exact, 1000))),
    # the word path draws chunks of 64 values or more: at 1000 samples it
    # draws every chunk but the last few
    "hi and lo words swapped": (
        "((words[0::2] >> 5) * 2.0**26 + (words[1::2] >> 6))",
        "((words[1::2] >> 5) * 2.0**26 + (words[0::2] >> 6))",
        ((_assert_uniforms_exact, 1000), (_assert_samples_exact, 1000))),
    # chunks under 64 values are drawn call by call, as is one sample's first
    # chunk (one draw too few would leave random_samples waiting for a draw)
    "one draw too many in a small chunk": (
        "[draw() for _ in range(count)]",
        "[draw() for _ in range(count + 1)]",
        ((_assert_uniforms_exact, 1), (_assert_samples_exact, 1))),
}


def _mutated(text, replacement, tmp_path, monkeypatch):
    """A copy of halfplane.py with one substitution, loaded as a module."""
    source = Path(halfplane.__file__).read_text()
    assert source.count(text) == 1
    path = tmp_path / "halfplane.py"
    path.write_text(source.replace(text, replacement))
    spec = importlib.util.spec_from_file_location("brieskorn._mutant_halfplane", path)
    mutated = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mutated)
    spec.loader.exec_module(mutated)
    return mutated


@pytest.mark.parametrize("mutant", SAMPLER_MUTANTS)
def test_the_draw_contract_checks_kill_each_sampler_mutant(mutant, tmp_path, monkeypatch):
    text, replacement, killers = SAMPLER_MUTANTS[mutant]
    mutated = _mutated(text, replacement, tmp_path, monkeypatch)
    for check, count in killers:
        check(halfplane, 0, count)
        with pytest.raises(AssertionError):
            check(mutated, 0, count)


# source substitutions on a copy of halfplane.py, (text, replacement), how
# the package is bound to the mutated copy, and the test that must then fail
LIFT_MUTANTS = {
    "with_shift_at drops -arg(c*i + d)": (
        "shift + 2.0 * (continued_arg(c, d, z0) - continued_arg(c, d, _REF))",
        "shift + 2.0 * continued_arg(c, d, z0)",
        # the polygon builds its lifts with the mutated LiftedIsometry
        lambda mp, copy: mp.setattr(polygon, "LiftedIsometry", copy.LiftedIsometry),
        lambda mp: test_polygon.test_lifted_square_is_vertical_shift_2_3_7()),
    "no refusal of a Moebius image": (
        "    if abs(complex(den_re, den_im)) < _DENOMINATOR_TOL * max(1.0, abs(z)):\n"
        "        raise DegenerateInput(f\"Moebius denominator collapsed at z = {z}\")\n"
        "    if not image.imag > 0:\n"
        "        raise DegenerateInput(\n"
        "            f\"image of z = {z} has y = {image.imag}, outside the upper half-plane\")\n",
        "",
        # every MobiusElement.apply goes through the mutated _image
        lambda mp, copy: mp.setattr(halfplane, "_image", copy._image),
        test_polygon.test_a_nan_matrix_lift_is_refused_as_degenerate),
}


@pytest.mark.parametrize("mutant", LIFT_MUTANTS)
def test_the_lift_tests_kill_each_lift_mutant(mutant, tmp_path, monkeypatch):
    text, replacement, bind, killer = LIFT_MUTANTS[mutant]
    with monkeypatch.context() as mp:
        killer(mp)
    mutated = _mutated(text, replacement, tmp_path, monkeypatch)
    bind(monkeypatch, mutated)
    with pytest.raises(AssertionError):
        killer(monkeypatch)


def test_continued_arg_refuses_only_an_argument_it_cannot_place():
    # c*z + d rounds to zero, or c*y underflows so that its side of the real
    # axis is lost; the walk gave -pi for the second
    for c, d, z in ((-1e-300, 0.0, 1e-300 + 1e-300j), (-1e-300, -1.0, 1e-30j),
                    (0.0, 0.0, 1j), (math.nan, 1.0, 1j), (1.0, 1.0, complex(math.nan, 1.0))):
        with pytest.raises(DegenerateInput, match="is lost at z"):
            continued_arg(c, d, z)
    # well defined, but the walk refused them: a subnormal d, whose
    # reciprocal overflowed, and c*z overflowing to -inf + inf*i
    assert continued_arg(0.0, -5e-324, 0.5 + 1j) == math.pi
    assert continued_arg(1e300, 1.5, -1e150 + 1e150j) == 0.75 * math.pi
    # the walk took its last piece as it stood after 61 halvings here
    assert _walk_gap(-2.0, -2.0, -1e150 + 1e150j) <= WALK_BOUND


def test_polygon_lifts_equal_the_numpy_scalar_reference_bit_for_bit():
    for exponents in ((2, 3, 7), (2, 3, 5, 7), (50, 60, 70)):
        group = build_polygon_group(validate_params(exponents))
        angles = [math.pi / a for a in exponents]
        for lift, rotation, vertex, angle in zip(
                group.lifted_generators, group.rotation_generators, group.vertices, angles):
            c, d = rotation.c, rotation.d
            expected = 2.0 * angle + 2.0 * (
                reference.principal_arg(c, d, vertex) - reference.principal_arg(c, d, 1j))
            assert lift.winding_offset == expected
            assert _walk_gap(c, d, vertex) <= WALK_BOUND
        product = LiftedIsometry.identity()
        for a_j, lift in zip(exponents, group.lifted_generators):
            power = LiftedIsometry.identity()
            for _ in range(a_j):
                offset = power.winding_offset + reference.theta_shift(lift, power.base.apply(1j))
                power = lift.compose(power)
                assert power.winding_offset == offset
            offset = lift.winding_offset + reference.theta_shift(product, lift.base.apply(1j))
            product = product.compose(lift)
            assert product.winding_offset == offset


def test_a_lift_takes_its_reference_argument_once(monkeypatch):
    # from its first t-shift on, a lift keeps arg(c*i + d): one argument per
    # point, taken after the point's own, and each shift the reference's bits
    rng = random.Random(6)
    lifts = [canonical(random_mobius(rng)) for _ in range(20)]
    points = [complex(x, y) for x, y, _ in random_points(rng, 30)]
    calls = []
    arg = halfplane.continued_arg
    monkeypatch.setattr(halfplane, "continued_arg",
                        lambda c, d, z: calls.append(z) or arg(c, d, z))
    for lift in lifts:
        calls.clear()
        for z in points * 2:
            assert lift.theta_shift(z) == reference.theta_shift(lift, z)
        assert calls == [points[0], 1j, *points[1:], *points]


def test_a_lift_refuses_a_lost_argument_at_its_point_first():
    # a NaN bottom row loses the argument at every point, i included: the
    # refusal names the point, at every call
    lift = LiftedIsometry(MobiusElement(1.0, 0.0, math.nan, 1.0), 0.0)
    for z in (0.5 + 2j, 3j, 0.5 + 2j):
        with pytest.raises(DegenerateInput, match=re.escape(f"is lost at z = {z}")):
            lift.theta_shift(z)


def test_invariance_identity_and_vertical_shift():
    p = UpperHalfPoint(0.4, 0.9, -1.2)
    assert contact_invariance_residual(LiftedIsometry.identity(), p) == 0.0
    shift = LiftedIsometry(MobiusElement.identity(), 0.77)
    assert contact_invariance_residual(shift, p) == 0.0


def lifted_jacobian_fd(h: LiftedIsometry, p: UpperHalfPoint, step: float = 1e-6) -> np.ndarray:
    """Central differences of the lifted action at p, in (x, y, t) coordinates."""
    def embed(x, y, t):
        q = apply(h, UpperHalfPoint(x, y, t))
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
        h = canonical(random_mobius(rng))
        p = random_point(rng)
        analytic, differenced = lifted_jacobian(h, p), lifted_jacobian_fd(h, p)
        assert np.max(np.abs(analytic - differenced)) < 1e-7 * max(1.0, np.max(np.abs(analytic)))


def test_point_requires_positive_y():
    with pytest.raises(ValueError):
        UpperHalfPoint(0.0, -1.0, 0.0)


def test_canonical_lift_projects_to_the_base_action():
    rng = random.Random(5)
    for _ in range(100):
        g = random_mobius(rng)
        lift = canonical(g)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3))
        shift = lift.theta_shift(z)
        principal = -2.0 * cmath.phase(g.c * z + g.d)
        wrapped = (shift - principal + math.pi) % (2 * math.pi) - math.pi
        assert abs(wrapped) < 1e-10


def test_power_refuses_a_negative_exponent():
    with pytest.raises(ValueError, match="k >= 0, got -1"):
        halfplane.rotation_about_i(1.0).power(-1)
