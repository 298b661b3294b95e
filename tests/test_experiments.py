import os

import pytest

from embform.encodings import Encoding, antigray, gray, is_gray_code
from embform.experiments import (
    ScanBudgetError,
    antigray_check,
    exhaustive_mmc,
    scan_binary_encodings,
    size_g,
)
from _golden import embedding_vrep


def test_scan_exhaustive_k2():
    result = scan_binary_encodings(2, "exhaustive")
    assert len(result.samples) == 24
    assert result.min == 4  # unit-distance codes
    assert result.max <= 2 * 3  # trivial bound 2 C(3,1)
    assert all(sg % 2 == 0 for _, sg in result.samples)


def test_scan_refuses_large_exhaustive():
    with pytest.raises(ScanBudgetError):
        scan_binary_encodings(4, "exhaustive")


def test_scan_wide_widths_need_long_run():
    with pytest.raises(ScanBudgetError):
        scan_binary_encodings(5, "sample", count=1, seed=0)
    with pytest.raises(ScanBudgetError):
        scan_binary_encodings(7, "sample", count=1, seed=0, long_run=True)


def test_scan_k5_sample_long_run():
    result = scan_binary_encodings(5, "sample", count=2, seed=3, long_run=True)
    assert len(result.samples) == 2
    assert all(sg % 2 == 0 for _, sg in result.samples)


def test_scan_sampled_deterministic():
    a = scan_binary_encodings(3, "sample", count=40, seed=11)
    b = scan_binary_encodings(3, "sample", count=40, seed=11)
    assert a == b
    c = scan_binary_encodings(3, "sample", count=40, seed=12)
    assert a.samples != c.samples


def test_scan_sample_rows_reproducible_standalone():
    from embform.encodings import random_binary

    result = scan_binary_encodings(3, "sample", count=10, seed=100)
    for draw_seed, sg in result.samples:
        assert size_g(random_binary(8, draw_seed)) == sg


def test_scan_histogram_bins():
    result = scan_binary_encodings(2, "exhaustive")
    assert sum(c for _, c in result.bins) == 24
    assert all(v % 2 == 0 for v, _ in result.bins)


def test_scan_csv_shape():
    result = scan_binary_encodings(2, "exhaustive")
    lines = result.csv_lines()
    assert lines[0] == "seed_or_id,size_G"
    assert len(lines) == 25


def test_size_g_even_everywhere():
    for seed in range(6):
        from embform.encodings import random_binary

        assert size_g(random_binary(8, seed)) % 2 == 0


def test_antigray_check_values_match_hull_oracle():
    # closed-form counts cross-checked against the facet oracle
    from embform.polyhedra import vrep_to_hrep

    for k in (2, 3):
        enc = antigray(2**k)
        result = antigray_check(k)
        hull = vrep_to_hrep(embedding_vrep(enc))
        general = [
            row
            for row in hull.inequalities
            if sum(1 for c in row[0] if c) > 1
        ]
        assert result.size_G == len(general)


def test_antigray_check_computed_values():
    # the alternating codes span strictly more hyperplanes than the 0-1
    # cube count one dimension down, so equality fails at every k
    expected = {2: (6, 2), 3: (30, 6), 4: (282, 20)}
    for k, (sg, count) in expected.items():
        result = antigray_check(k)
        assert (result.size_G, result.affine_hyperplane_count) == (sg, count)
        assert result.equal is (sg == 2 * count)


def test_affine_hyperplane_counts_known_values():
    from embform.experiments import _affine_hyperplanes_spanned

    # classical counts for the 0-1 cube: 2, 6, 20, 140
    assert _affine_hyperplanes_spanned(1) == 2
    assert _affine_hyperplanes_spanned(2) == 6
    assert _affine_hyperplanes_spanned(3) == 20
    assert _affine_hyperplanes_spanned(4) == 140


def test_exhaustive_mmc_n3():
    result = exhaustive_mmc(3, 3)
    assert result.min_size_G == 4
    assert 3 + 3 + 2 <= result.min_size <= 3 + 3 + 4
    assert result.encodings_seen == 24 + 336


def test_exhaustive_mmc_n4_gray_attains():
    result = exhaustive_mmc(4, 3)
    assert result.min_size_G == 4
    assert result.encodings_seen == 24 + 1680
    assert any(
        enc.vectors == gray(4).vectors for enc in result.argmin_size_G
    )


def test_exhaustive_mmc_budget():
    with pytest.raises(ScanBudgetError):
        exhaustive_mmc(6, 3)
    with pytest.raises(ScanBudgetError):
        exhaustive_mmc(4, 5)


@pytest.mark.skipif(
    not os.environ.get("EMBFORM_LONG_RUN"),
    reason="n=5 enumeration (~500k encodings) runs only with EMBFORM_LONG_RUN=1",
)
def test_exhaustive_mmc_n5_long_run():
    result = exhaustive_mmc(5, 4)
    assert result.min_size_G == 6
    assert 5 + 3 + 3 <= result.min_size <= 5 + 3 + 6
    assert any(is_gray_code(enc) for enc in result.argmin_size_G)


def test_min_attained_by_non_gray_code_too():
    # a three-direction walk on the cube that is not unit-distance still
    # spans only three hyperplanes
    walk = Encoding(
        (
            (0, 1, 0),
            (1, 1, 0),
            (1, 0, 0),
            (0, 0, 0),
            (1, 1, 1),
            (0, 1, 1),
            (0, 0, 1),
            (1, 0, 1),
        )
    )
    assert not is_gray_code(walk)
    assert size_g(walk) == 6
