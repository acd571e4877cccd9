"""Closed-form dimensions and the chain-level cross-check."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brieskorn import (
    InconsistentComplex,
    RationalMatrix,
    chain_homology,
    closed_form_answer,
    closed_form_homology,
    compare_graded,
    seifert_data,
    validate_params,
)
from brieskorn import cli, closedform
from brieskorn.homology import graded_homology
from brieskorn.orbits import EXCEPTIONAL, MAXIMUM, build_complex, conley_zehnder
from chain_oracle import (
    fiber_classes,
    long_chain_homology,
    long_closed_form,
    loop_tile,
    singleton_classes,
    singleton_grading,
)


def data_for(*exponents):
    return seifert_data(validate_params(list(exponents)))


def test_closed_form_2_3_7_window():
    dims = closed_form_homology(data_for(2, 3, 7), -6)
    assert dims == {-2: 10, -4: 11, -6: 11}


def test_closed_form_2_3_7_deep_window():
    dims = closed_form_homology(data_for(2, 3, 7), -40)
    assert dims[-2] == 10
    for k in range(2, 21):
        assert dims[-2 * k] == 11
    assert all(g % 2 == 0 for g in dims)


def test_closed_form_2_3_11():
    dims = closed_form_homology(data_for(2, 3, 11), -6)
    assert dims == {-2: 2, -4: 3, -6: 3}


def test_closed_form_2_2_3_3_3():
    dims = closed_form_homology(data_for(2, 2, 3, 3, 3), -30)
    expected = {}
    for n in (1, 2):
        expected[-12 * n] = 1
        expected[-12 * n - 1] = 20
        expected[-12 * n - 2] = 1
    assert dims == expected


def test_g_block_totals():
    answer = closed_form_answer(data_for(2, 3, 11), -10)
    assert sum(answer.g_block.values()) == 1 + 2 + 10
    assert answer.g_block == {-2: 2, -4: 3, -6: 3, -8: 3, -10: 2}
    for data in [data_for(2, 2, 2, 3), data_for(2, 2, 3, 3, 3), data_for(2, 4, 5)]:
        answer = closed_form_answer(data, -12)
        total = sum(s_j * (t_j - 1) for s_j, t_j in data.orbifold_counts)
        assert sum(answer.g_block.values()) == total


def test_surface_blocks_shape():
    # one base block: fiber class n is class 1 shifted down by 2w(n - 1)
    data = data_for(2, 2, 3, 3, 3)
    answer = closed_form_answer(data, -30)
    assert answer.surface_block == {-12: 1, -13: 20, -14: 1}
    per_class = long_closed_form(data, -30).surface_blocks
    assert set(per_class) == {1, 2}
    for n, block in per_class.items():
        shift = -2 * data.fiber_winding * (n - 1)
        assert block == {g + shift: dim for g, dim in answer.surface_block.items()}


def test_chain_equals_closed_form_on_window():
    data = data_for(2, 3, 7)
    floor = -10
    chain = chain_homology(data, floor)
    oracle = closed_form_homology(data, floor)
    report = compare_graded(chain, oracle, floor)
    assert report.equal and report.first_mismatch is None


def test_compare_flags_mismatch():
    data = data_for(2, 3, 7)
    chain = chain_homology(data, -6)
    oracle = closed_form_homology(data, -6)
    oracle[-4] += 1
    report = compare_graded(chain, oracle, -6)
    assert not report.equal
    assert report.first_mismatch == (-4, 11, 12)


def test_compare_identical_inputs_equal():
    dims = {-2: 3, -5: 1}
    assert compare_graded(dims, dict(dims), -8).equal


def test_compare_ignores_explicit_zeros_and_entries_below_the_floor():
    # unequal dicts that agree at every grading of the window take the scan
    oracle = {-2: 3, -5: 1}
    for chain in ({-2: 3, -5: 1, -4: 0}, {-2: 3, -5: 1, -9: 2}, {-2: 3, -5: 1, -4: 0, -20: 1}):
        report = compare_graded(chain, oracle, -8)
        assert report.equal and report.first_mismatch is None, chain
        assert compare_graded(oracle, chain, -8).equal, chain
    report = compare_graded({-2: 3, -5: 1, -8: 2}, oracle, -8)
    assert report.first_mismatch == (-8, 2, 0)


@st.composite
def _tiling_cases(draw):
    """Blocks, a period and a floor; some entries sit below the floor and some
    a whole number of periods apart, and some dimensions are 0."""
    period = draw(st.integers(1, 12))
    floor = draw(st.integers(-200, 0))
    gradings = st.integers(floor - 3 * period - 5, 0)
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        block = draw(st.dictionaries(gradings, st.integers(0, 5), max_size=8))
        for grading, dim in list(block.items()):
            for k in draw(st.lists(st.integers(1, 4), max_size=2)):
                block.setdefault(grading - k * period, dim + k % 2)
        blocks.append(block)
    return blocks, period, floor


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_tiling_cases())
# two entries one residue apart, the lower one a period and more below the floor
@example(([{-2: 1, -10: 1}], 2, -5))
@example(([{-3: 0, -4: 2}, {-4: 1, -14: 3}], 10, -30))
@example(([{}], 1, 0))
def test_run_tiling_equals_the_loop_oracle(case):
    blocks, period, floor = case
    assert closedform._tile(blocks, period, floor) == loop_tile(blocks, period, floor)


def test_odd_gradings_carry_exactly_the_handle_dimensions(fuzz_corpus):
    for data in fuzz_corpus[:80]:
        floor = -30
        dims = closed_form_homology(data, floor)
        w = data.fiber_winding
        saddle_slots = set()
        n = 1
        while -2 * n * w - 1 >= floor:
            saddle_slots.add(-2 * n * w - 1)
            n += 1
        for grading, dim in dims.items():
            if grading % 2:
                assert grading in saddle_slots and dim == 2 * data.genus
        if data.genus:
            for slot in saddle_slots:
                assert dims.get(slot, 0) == 2 * data.genus


def test_nothing_above_grading_minus_two_and_top_dimension(fuzz_corpus):
    for data in fuzz_corpus[:80]:
        dims = closed_form_homology(data, -8)
        assert all(g <= -2 for g in dims)
        expected_top = 0
        for j, (s_j, t_j) in enumerate(data.orbifold_counts, start=1):
            if t_j == 1:
                continue
            count = sum(
                1
                for k in range(1, t_j)
                if k * data.d < data.m * t_j and k % t_j != 0
            )
            expected_top += s_j * count
        if data.fiber_winding == 1:
            expected_top += 1
        assert dims.get(-2, 0) == expected_top


def test_chain_matches_closed_form_on_fuzz_sample(fuzz_corpus):
    for data in fuzz_corpus[:25]:
        floor = -16
        report = compare_graded(
            chain_homology(data, floor), closed_form_homology(data, floor), floor
        )
        assert report.equal, (data.params.exponents, report.first_mismatch)


def test_chain_matches_closed_form_full_window(fuzz_corpus):
    for data in fuzz_corpus[:10]:
        for floor in (-40, -7, -2):
            report = compare_graded(
                chain_homology(data, floor), closed_form_homology(data, floor), floor
            )
            assert report.equal, (data.params.exponents, floor, report.first_mismatch)


def _count_builds_and_ranks(monkeypatch):
    built, eliminated = [], []
    real_build, real_rank = closedform.build_complex, RationalMatrix.rank

    def build(data, cls):
        complex_ = real_build(data, cls)
        built.append(complex_)
        return complex_

    def rank(matrix):
        eliminated.append(matrix)
        return real_rank(matrix)

    monkeypatch.setattr(closedform, "build_complex", build)
    monkeypatch.setattr(RationalMatrix, "rank", rank)
    return built, eliminated


def test_chain_homology_eliminates_each_distinct_matrix_once_per_call(monkeypatch):
    built, eliminated = _count_builds_and_ranks(monkeypatch)

    def nonempty(matrices):
        return [(m.rows, m.cols, m.entries) for m in matrices if m.rows and m.cols]

    data, floor = data_for(2, 2, 3, 3, 3), -40
    assert fiber_classes(data, floor) >= 3
    results = []
    for _ in range(2):  # the second call eliminates again: nothing outlives a call
        built.clear()
        eliminated.clear()
        results.append(chain_homology(data, floor))
        # one complex per call: the class-1 M x S boundary and S x 1 zero matrix
        assert [c.class_label for c in built] == ["fiber:1"]
        matrices = nonempty(built[0].differential.values())
        assert len(matrices) == len(set(matrices)) == 2
        assert sorted(nonempty(eliminated)) == sorted(matrices)
    assert results[0] == results[1] == closed_form_homology(data, floor)


def test_deep_window_builds_one_complex(monkeypatch):
    # 20,000 singleton and fiber classes reach the floor; one complex is built
    built, _ = _count_builds_and_ranks(monkeypatch)
    data, floor = data_for(2, 3, 7), -4000
    singletons = sum(1 for _ in singleton_classes(data, floor))
    assert singletons + fiber_classes(data, floor) == 20_000
    chain = chain_homology(data, floor)
    assert len(built) == 1
    assert compare_graded(chain, closed_form_homology(data, floor), floor).equal


def test_chain_homology_equals_the_class_by_class_oracle(fuzz_corpus):
    for data in fuzz_corpus[100:160]:
        for floor in (-2, -9, -30):
            assert chain_homology(data, floor) == long_chain_homology(data, floor), (
                data.params.exponents, floor)


def test_the_oracle_needs_every_fiber_class_it_counts(fuzz_corpus):
    # the oracle's class count is tight: dropping its last class loses the
    # top of that class's surface homology, one dimension at -2nw
    data = data_for(*[2] * 7)
    assert fiber_classes(data, -20) == 3 == 20 // (2 * data.fiber_winding)
    cases = [(data, -20)] + [
        (data, floor) for data in fuzz_corpus[400:440]
        for floor in (-2, -9, -30, -2 * data.fiber_winding, -4 * data.fiber_winding - 1)
    ]
    checked = 0
    for data, floor in cases:
        classes = fiber_classes(data, floor)
        chain = chain_homology(data, floor)
        assert long_chain_homology(data, floor) == chain, (data.params.exponents, floor)
        if classes:
            checked += 1
            assert long_chain_homology(data, floor, classes - 1) != chain, (
                data.params.exponents, floor)
    assert checked >= 80


def test_fiber_class_complexes_are_class_one_shifted(fuzz_corpus):
    for data in fuzz_corpus[200:240]:
        first = graded_homology(build_complex(data, 1))
        assert first  # the surface homology (1, 2g, 1) is never zero
        for n in range(1, 5):
            shift = conley_zehnder(data, MAXIMUM, n) - conley_zehnder(data, MAXIMUM, 1)
            expected = {grading + shift: dim for grading, dim in first.items()}
            assert graded_homology(build_complex(data, n)) == expected


def test_singleton_complexes_have_homology_one_at_their_grading(fuzz_corpus):
    for data in fuzz_corpus[200:240]:
        for j, i, k in singleton_classes(data, -30):
            grading = conley_zehnder(data, EXCEPTIONAL, k, j) - 1
            assert grading == singleton_grading(data, j, k)
            assert graded_homology(build_complex(data, (j, i, k))) == {grading: 1}


def test_compare_eight_twos_at_floor_minus_8():
    # 512 minima and genus 129: a 512 x 769 boundary matrix, eliminated once per call
    data, floor = data_for(*[2] * 8), -8
    report = compare_graded(
        chain_homology(data, floor), closed_form_homology(data, floor), floor
    )
    assert report.equal, report.first_mismatch


def test_both_sides_equal_their_long_oracles(fuzz_corpus):
    for data in fuzz_corpus[300:340]:
        w = data.fiber_winding
        for floor in (-2, -3, -2 * w - 2, -2 * w - 3, -6 * w - 10):
            label = (data.params.exponents, floor)
            answer, long = closed_form_answer(data, floor), long_closed_form(data, floor)
            assert answer.combined == long.combined, label
            assert answer.g_block == long.g_block, label
            assert chain_homology(data, floor) == long_chain_homology(data, floor), label


def test_answer_repeats_every_two_w_below_grading_minus_two(fuzz_corpus):
    for data in fuzz_corpus[:300]:
        w = data.fiber_winding
        floor = -6 * w - 10
        dims = closed_form_homology(data, floor)
        assert dims.get(-2 * w - 2, 0) == dims.get(-2, 0) + 1
        for grading in range(-3, floor + 2 * w - 1, -1):
            assert dims.get(grading - 2 * w, 0) == dims.get(grading, 0), (
                data.params.exponents, grading)


def test_work_outside_the_tiling_does_not_depend_on_the_floor(monkeypatch):
    calls = {"conley_zehnder": 0, "exceptional_grading": 0, "build_complex": 0}
    for name in calls:
        real = getattr(closedform, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(closedform, name, counted)

    data = data_for(2, 3, 7)
    seen = []
    for floor in (-200, -200_000):
        for name in calls:
            calls[name] = 0
        chain = chain_homology(data, floor)
        oracle = closed_form_homology(data, floor)
        assert min(chain) == min(oracle) == floor
        seen.append(dict(calls))
    assert seen[0] == seen[1]
    assert seen[0]["build_complex"] == 1
    assert seen[0]["conley_zehnder"] > 0 and seen[0]["exceptional_grading"] > 0


def test_chain_side_never_reads_the_closed_form(monkeypatch):
    def refuse(*args):
        raise AssertionError("the chain side read the closed form")

    for name in ("closed_form_answer", "closed_form_homology", "exceptional_grading"):
        monkeypatch.setattr(closedform, name, refuse)
    for exponents in ((2, 3, 7), (2, 2, 3, 3, 3), (3, 4, 5)):
        data = data_for(*exponents)
        assert chain_homology(data, -40) == long_chain_homology(data, -40)


def test_inconsistent_period_is_a_typed_failure(monkeypatch):
    real = closedform.conley_zehnder

    def skewed(data, kind, iterate, j=None):
        # iterates beyond the first period of exponent 3 sit 2 gradings too low
        cz = real(data, kind, iterate, j)
        if kind == EXCEPTIONAL and j == 3 and iterate > data.orbifold_counts[j - 1][1]:
            cz -= 2
        return cz

    monkeypatch.setattr(closedform, "conley_zehnder", skewed)
    with pytest.raises(InconsistentComplex, match="exponent 3"):
        chain_homology(data_for(2, 3, 7), -10)
    code, report = cli.run(cli.RunConfig(exponents=[2, 3, 7], mode="compare"))
    assert code == 3
    assert [e["type"] for e in report["errors"]] == ["InconsistentComplex"]
    assert "comparison" not in report
