"""Closed-form dimensions and the chain-level cross-check."""

import pytest

from brieskorn import (
    IncompleteWindow,
    RationalMatrix,
    chain_homology,
    closed_form_answer,
    closed_form_homology,
    compare_graded,
    required_classes,
    seifert_data,
    validate_params,
)
from brieskorn import closedform


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
    data = data_for(2, 2, 3, 3, 3)
    answer = closed_form_answer(data, -30)
    assert set(answer.surface_blocks) == {1, 2}
    assert answer.surface_blocks[1] == {-12: 1, -13: 20, -14: 1}
    assert answer.surface_blocks[2] == {-24: 1, -25: 20, -26: 1}


def test_chain_equals_closed_form_on_window():
    data = data_for(2, 3, 7)
    floor = -10
    chain = chain_homology(data, floor, classes=6)
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


def test_required_classes_matches_window():
    data = data_for(2, 3, 7)
    assert required_classes(data, -10) == 6
    with pytest.raises(IncompleteWindow):
        chain_homology(data, -10, classes=4)


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


def test_chain_homology_eliminates_each_distinct_matrix_once_per_call(monkeypatch):
    built, eliminated = [], []
    real_build, real_rank = closedform.build_complex, RationalMatrix.rank

    def build(data, cls):
        complex_ = real_build(data, cls)
        built.extend(complex_.differential.values())
        return complex_

    def rank(matrix):
        eliminated.append(matrix)
        return real_rank(matrix)

    monkeypatch.setattr(closedform, "build_complex", build)
    monkeypatch.setattr(RationalMatrix, "rank", rank)

    def nonempty(matrices):
        return [(m.rows, m.cols, m.entries) for m in matrices if m.rows and m.cols]

    data, floor = data_for(2, 2, 3, 3, 3), -40
    classes = required_classes(data, floor)
    assert classes >= 3
    results = []
    for _ in range(2):  # the second call eliminates again: nothing outlives a call
        built.clear()
        eliminated.clear()
        results.append(chain_homology(data, floor))
        # each fiber class builds the same M x S boundary and S x 1 zero matrix
        distinct = set(nonempty(built))
        assert len(nonempty(built)) == 2 * classes and len(distinct) == 2
        assert sorted(nonempty(eliminated)) == sorted(distinct)
    assert results[0] == results[1] == closed_form_homology(data, floor)


def test_compare_eight_twos_at_floor_minus_8():
    # 512 minima and genus 129: a 512 x 769 boundary matrix in each of 2 classes
    data, floor = data_for(*[2] * 8), -8
    report = compare_graded(
        chain_homology(data, floor), closed_form_homology(data, floor), floor
    )
    assert report.equal, report.first_mismatch
