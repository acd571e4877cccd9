"""Exponent validation and fibration invariants."""

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brieskorn import InvalidExponent, NotHyperbolic, cli, invariants, seifert_data, validate_params


def test_hyperbolic_gap_2_3_7():
    params = validate_params([2, 3, 7])
    assert params.hyperbolic_gap == Fraction(1, 42)


def reciprocal_sum(exponents):
    """sum(1/a_j), summed in Fractions: the oracle for the integer gap."""
    return sum((Fraction(1, a) for a in exponents), Fraction(0))


# every tuple that is not of hyperbolic type, in any order: (2, 2, k), the
# five spherical and flat triples beside it, and (2, 2, 2, 2)
NOT_HYPERBOLIC = st.one_of(
    st.integers(2, 10**6).map(lambda k: (2, 2, k)),
    st.sampled_from([(2, 3, 3), (2, 3, 4), (2, 3, 5), (2, 3, 6), (2, 4, 4), (3, 3, 3),
                     (2, 2, 2, 2)]),
).flatmap(st.permutations)


def test_the_gap_is_an_integer_numerator_over_the_lcm(fuzz_corpus):
    corpus = [data.params.exponents for data in fuzz_corpus]

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.one_of(st.sampled_from(corpus), NOT_HYPERBOLIC))
    def check(exponents):
        params = invariants.BrieskornParams(tuple(exponents))
        numerator, lcm = params.gap_over_lcm
        assert lcm == math.lcm(*exponents)
        assert Fraction(numerator, lcm) == len(exponents) - 2 - reciprocal_sum(exponents)
        assert params.hyperbolic_gap == Fraction(numerator, lcm)
        if numerator > 0:
            assert validate_params(exponents) == params
        else:
            with pytest.raises(NotHyperbolic) as excinfo:
                validate_params(exponents)
            assert excinfo.value.gap == Fraction(numerator, lcm)

    check()


def test_spherical_triple_rejected():
    with pytest.raises(NotHyperbolic) as excinfo:
        validate_params([2, 3, 5])
    assert excinfo.value.gap == Fraction(-1, 30)


def test_flat_boundary_rejected():
    with pytest.raises(NotHyperbolic) as excinfo:
        validate_params([2, 2, 2, 2])
    assert excinfo.value.gap == 0


def test_exponent_below_two_rejected():
    with pytest.raises(InvalidExponent):
        validate_params([1, 3, 7])


def test_too_few_exponents_rejected():
    with pytest.raises(InvalidExponent):
        validate_params([3, 7])


@pytest.mark.parametrize(
    "exponents, d, m, s, counts, genus",
    [
        ((2, 3, 7), 1, 1, Fraction(42), ((1, 2), (1, 3), (1, 7)), 0),
        ((2, 2, 2, 3), 4, 4, None, ((2, 1), (2, 1), (2, 1), (4, 3)), 0),
        ((2, 2, 3, 3, 3), 108, 18, None, ((9, 1), (9, 1), (6, 1), (6, 1), (6, 1)), 10),
        ((2, 3, 11), 5, 1, Fraction(66, 5), ((1, 2), (1, 3), (1, 11)), 0),
    ],
)
def test_seifert_tables(exponents, d, m, s, counts, genus):
    data = seifert_data(validate_params(exponents))
    assert data.d == d
    assert data.m == m
    assert data.fiber_winding == d // m
    assert data.s == s
    assert data.orbifold_counts == counts
    assert data.genus == genus
    assert data.minima_count == sum(s_j for s_j, _ in counts)


def test_coprime_triple_closed_form_for_d():
    for p, q, r in [(2, 3, 7), (2, 3, 11), (3, 4, 5), (2, 5, 7), (3, 5, 7)]:
        data = seifert_data(validate_params([p, q, r]))
        assert data.d == p * q * r - q * r - p * r - p * q
        assert data.m == 1
        assert data.orbifold_counts == ((1, p), (1, q), (1, r))
        assert data.genus == 0


def test_exponent_order_is_preserved():
    data = seifert_data(validate_params([7, 3, 2]))
    assert data.params.exponents == (7, 3, 2)
    assert data.orbifold_counts == ((1, 7), (1, 3), (1, 2))


def test_fuzzed_corpus_invariants(fuzz_corpus):
    assert len(fuzz_corpus) >= 1000
    for data in fuzz_corpus:
        assert data.d % data.m == 0
        assert data.genus >= 0
        # chain-level Euler characteristic per fiber class
        chi = data.minima_count - (data.minima_count - 1 + 2 * data.genus) + 1
        assert chi == 2 - 2 * data.genus


# each fake math breaks one identity of seifert_data on (2, 3, 7), where
# d = m = 1, the lcm of all three exponents is 42 and of each pair 21, 14, 6
_BROKEN = {
    "m = 5 does not divide d = 1": dict(gcd=lambda *a: 5),
    "the lcm 105 of the exponents other than a_1": dict(lcm=lambda *a: math.lcm(*a) * 5),
    "2g = -1 is not a nonnegative even integer": dict(
        lcm=lambda *a: math.lcm(*a) * (2 if len(a) == 3 else 1)),
}


@pytest.mark.parametrize("message", list(_BROKEN))
def test_a_broken_identity_is_a_typed_construction_failure(monkeypatch, message):
    fake = SimpleNamespace(prod=math.prod, lcm=math.lcm, gcd=math.gcd)
    monkeypatch.setattr(invariants, "math", fake)
    for name, function in _BROKEN[message].items():
        setattr(fake, name, function)
    code, report = cli.run(cli.RunConfig(exponents=[2, 3, 7], mode="invariants"))
    assert code == cli.EXIT_TOLERANCE == 3
    [error] = report["errors"]
    assert error["type"] == "ConstructionFailure"
    assert error["message"].startswith(message)


def test_a_fractional_d_is_a_typed_construction_failure(monkeypatch):
    # a gap of 1/84 on (2, 3, 7), whose exponents multiply to 42, makes d = 1/2
    monkeypatch.setattr(invariants.BrieskornParams, "gap_over_lcm",
                        property(lambda self: (1, 84)))
    code, report = cli.run(cli.RunConfig(exponents=[2, 3, 7], mode="compare"))
    assert code == 3
    assert report["errors"] == [
        {"type": "ConstructionFailure", "message": "d = 1/2 is not an integer"}]
