"""Gain function, cutoff conventions, and signal-to-noise arithmetic.

The (q, m) -> lambda_h anchor cells are the published table values for the
two proxy series at integration orders 1 through 6. Printed q values are
rounded to the shown digits, which caps the achievable precision; the m=3
oxygen-isotope cell is rounded so hard (1 significant digit) that the
printed pair is inconsistent, and is kept as a strict xfail with a
companion test showing the unrounded q reproduces the printed lambda_h.
"""

import csv
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paleokalman.butterworth import (
    GainCurve,
    cutoff_frequency,
    gain,
    gain_curve,
    half_gain_frequency,
    mean_increment,
    signal_to_noise,
    write_gain_csv,
)

# (q, m, expected lambda_h) for the d18O and d13C columns
TABLE_CELLS = [
    (0.2537, 1, 0.5092),
    (0.0095, 2, 0.0974),
    (2.8447e-7, 4, 5.3336e-4),
    (9.6940e-10, 5, 3.1135e-5),
    (3.0777e-12, 6, 1.7543e-6),
    (0.1009, 1, 0.3191),
    (0.0020, 2, 0.0445),
    (9.1488e-6, 3, 0.0030),
    (2.3601e-8, 4, 1.5363e-4),
    (9.4511e-12, 5, 3.0743e-6),
    (3.5973e-15, 6, 5.9978e-8),
]


def _check_cell(q, m, expected):
    got = cutoff_frequency(q)
    if expected < 0.01:  # tiny cells: printed digits only support relative
        assert got == pytest.approx(expected, rel=5e-2)
    else:
        assert got == pytest.approx(expected, abs=5e-4)


@pytest.mark.parametrize("q, m, expected", TABLE_CELLS)
def test_cutoff_frequency_table_cells(q, m, expected):
    _check_cell(q, m, expected)


@pytest.mark.xfail(
    strict=True,
    reason="the printed q for this cell is rounded to one significant digit "
    "and is inconsistent with its printed lambda_h",
)
def test_cutoff_frequency_printed_m3_cell():
    _check_cell(0.0001, 3, 0.0122)


def test_cutoff_frequency_m3_cell_with_unrounded_q():
    # inverting lambda_h = 0.0122 gives the q the printed cell was rounded
    # from; the table relation then holds
    q_implied = (2.0 * math.sin(0.0122 / 2.0)) ** 2
    assert q_implied == pytest.approx(1.4884e-4, rel=1e-3)
    assert cutoff_frequency(q_implied) == pytest.approx(0.0122, rel=1e-9)


def test_cutoff_frequency_boundary_and_domain():
    assert cutoff_frequency(4.0) == pytest.approx(math.pi, rel=1e-12)
    with pytest.raises(ValueError, match="no finite cutoff"):
        cutoff_frequency(4.0000001)
    with pytest.raises(ValueError):
        cutoff_frequency(0.0)
    with pytest.raises(ValueError):
        cutoff_frequency(-1.0)


# ---------------------------------------------------------------------------
# gain
# ---------------------------------------------------------------------------


def test_gain_endpoint_values():
    for m in (1, 2, 4):
        for q in (0.01, 0.25, 2.0):
            assert gain(0.0, q, m) == pytest.approx(1.0, rel=1e-14)
            assert gain(math.pi, q, m) == pytest.approx(
                1.0 / (1.0 + 4.0**m / q), rel=1e-12
            )


@given(
    q=st.floats(min_value=1e-6, max_value=4.0),
    m=st.integers(min_value=1, max_value=6),
)
def test_gain_half_at_half_gain_frequency(q, m):
    lam = half_gain_frequency(q, m)
    assert gain(lam, q, m) == pytest.approx(0.5, abs=1e-12)


def test_half_gain_equals_cutoff_at_order_one():
    for q in (0.01, 0.2537, 1.0, 3.9):
        assert half_gain_frequency(q, 1) == pytest.approx(
            cutoff_frequency(q), rel=1e-14
        )


@pytest.mark.parametrize(
    "func", [lambda q: gain(1.0, q, 1), cutoff_frequency, lambda q: half_gain_frequency(q, 2)],
    ids=["gain", "cutoff_frequency", "half_gain_frequency"],
)
def test_q_must_be_positive(func):
    # gain, cutoff_frequency and half_gain_frequency share one check
    for q in (math.nan, 0.0, -1.0):
        text = f"signal-to-noise ratio q must be positive, got {q}"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            func(q)


def test_half_gain_domain():
    # sin argument q^(1/2m)/2 must stay <= 1, so q <= 4^m
    assert half_gain_frequency(16.0, 2) == pytest.approx(math.pi, rel=1e-12)
    with pytest.raises(ValueError):
        half_gain_frequency(16.1, 2)
    with pytest.raises(ValueError):
        half_gain_frequency(4.1, 1)


def test_gain_monotone_in_lambda_and_q():
    lams = np.linspace(0.0, math.pi, 60)
    for m in (1, 3):
        g = [gain(l, 0.1, m) for l in lams]
        assert all(a >= b - 1e-15 for a, b in zip(g, g[1:]))
    for lam in (0.3, 1.5):
        g = [gain(lam, q, 2) for q in (0.01, 0.1, 1.0, 3.0)]
        assert g == sorted(g)


def test_gain_pivot_at_pi_over_three():
    # at lambda = pi/3, 2 sin(lambda/2) = 1 and the order drops out
    lam = math.pi / 3.0
    q = 0.17
    expected = 1.0 / (1.0 + 1.0 / q)
    for m in (1, 2, 5):
        assert gain(lam, q, m) == pytest.approx(expected, rel=1e-12)


def test_gain_sharpens_with_order_around_pivot():
    q = 0.17
    below, above = 0.8, 1.3  # pi/3 ~ 1.047
    assert gain(below, q, 2) > gain(below, q, 1)
    assert gain(below, q, 5) > gain(below, q, 2)
    assert gain(above, q, 2) < gain(above, q, 1)
    assert gain(above, q, 5) < gain(above, q, 2)


def test_gain_domain_errors():
    with pytest.raises(ValueError):
        gain(-0.1, 0.2, 1)
    with pytest.raises(ValueError):
        gain(math.pi + 0.1, 0.2, 1)
    with pytest.raises(ValueError):
        gain(1.0, -0.2, 1)
    with pytest.raises(ValueError):
        gain(1.0, 0.2, 0)


# ---------------------------------------------------------------------------
# signal to noise
# ---------------------------------------------------------------------------


def test_signal_to_noise_published_estimates():
    mean_dt = (67.101133 - 0.000564) / 23721
    q_18o = signal_to_noise(1.8364, 0.0205, mean_dt)
    q_13c = signal_to_noise(1.2135, 0.0340, mean_dt)
    assert q_18o == pytest.approx(0.2534, abs=5e-4)
    assert q_13c == pytest.approx(0.1009, abs=5e-4)
    # published table rounds to 0.2537 / 0.1009
    assert abs(q_18o - 0.2537) < 2e-3
    assert abs(q_13c - 0.1009) < 2e-3


def test_signal_to_noise_errors():
    with pytest.raises(ValueError):
        signal_to_noise(1.0, 0.0, 0.01)
    with pytest.raises(ValueError):
        signal_to_noise(1.0, -0.5, 0.01)
    # NaN fails every comparison, so no check may pass it
    for args in [(math.nan, 0.02, 0.01), (1.0, math.nan, 0.01), (1.0, 0.02, math.nan)]:
        with pytest.raises(ValueError):
            signal_to_noise(*args)
    # a zero or infinite input, or a q that overflows or underflows, has no cutoff
    for args in [
        (0.0, 0.02, 0.003),
        (math.inf, 0.02, 0.003),
        (1.0, math.inf, 0.003),
        (1.0, 0.02, math.inf),
        (1e300, 1e-300, 1e10),
        (1e-300, 1e300, 1e-10),
    ]:
        with pytest.raises(ValueError):
            signal_to_noise(*args)



def test_mean_increment_unique_stamps():
    assert mean_increment([-3.0, -2.0, -1.0]) == pytest.approx(1.0)
    # duplicates collapse before averaging
    assert mean_increment([-3.0, -2.0, -2.0, -1.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mean_increment([-1.0])


# ---------------------------------------------------------------------------
# curves and export
# ---------------------------------------------------------------------------


def test_gain_curve_shape_and_anchors():
    curve = gain_curve(0.25, 2, n_samples=1024)
    assert isinstance(curve, GainCurve)
    arr = np.asarray(curve.samples)
    assert arr.shape == (1024, 2)
    lam, g = arr[:, 0], arr[:, 1]
    assert lam[0] == 0.0
    assert lam[-1] == pytest.approx(math.pi)
    assert g[0] == pytest.approx(1.0)
    assert np.all(np.diff(g) <= 1e-15)
    # half-gain crossing happens where the closed form says it should
    lam_half = half_gain_frequency(0.25, 2)
    below = g[lam < lam_half]
    assert below.min() >= 0.5 - 1e-3


def test_numpy_q_gives_plain_floats():
    # paleokalman gain --fit passes q as a numpy float
    curve = gain_curve(np.float64(0.3), 2)
    assert type(curve.q) is float
    assert all(type(x) is float for sample in curve.samples for x in sample)
    assert type(gain(0.5, np.float64(0.3), 1)) is float


def test_write_gain_csv(tmp_path):
    curve = gain_curve(0.1, 1, n_samples=16)
    out = tmp_path / "gain.csv"
    write_gain_csv(curve, out, header_lines=["# gain"])
    lines = out.read_text().splitlines()
    assert lines[0] == "# gain"
    assert lines[1] == "lambda,gain"
    rows = list(csv.reader(lines[2:]))
    assert len(rows) == 16
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) == pytest.approx(1.0)
