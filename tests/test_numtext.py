"""numtext spells every number byte for byte as Python's '%' does."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from landauer_bounds import numtext


def spell_g15(values):
    """(numtext's cells, '%.15g' % v of each v) of ``values`` as a one-column CSV."""
    values = np.asarray(values, dtype=float)
    cells = b"".join(numtext.csv_rows(values[:, None])).decode("ascii").split("\r\n")[:-1]
    return cells, ["%.15g" % v for v in values.tolist()]


def spell_f2(values):
    """(numtext's numbers, '%.2f' % v of each v) of ``values`` as polyline points."""
    pairs = np.asarray(values, dtype=float)[:len(values) // 2 * 2].reshape(-1, 2)
    numbers = numtext.points(pairs).replace(",", " ").split()
    return numbers, ["%.2f" % v for v in pairs.ravel().tolist()]


def neighbours(values):
    """Each value with the doubles just below and just above it."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -math.inf),
                           np.nextafter(values, math.inf)])


# 10^k and its neighbours over the kernel's range and beyond both ends
POWERS = neighbours([10.0 ** k for k in range(-30, 17)])
G15_EDGES = [
    # exact 16-digit ties, and halves (m + 1/2) 10^-k next to ties
    1234567890123455.0, 123456789012345.5, 12345678901234.25,
    *[(123456789012345 + 0.5) / 10.0 ** k for k in range(20)],
    # rounding carries into the next decade
    9.999999999999995e-5, 0.9999999999999995, 999999999999999.5, 99999999999999.95,
    # zeros, the smallest subnormal and both sides of the kernel's range
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    *neighbours([1e-29, 1e15]),
    math.nan, math.inf, -math.inf,
    # trailing zeros around the point, and integers
    100.0, 1e6, 120.0, 1.5, 0.5, 1000000.5, 12345678901234.0, 0.000123, 1.5e-5,
    # the product's error term decides the rounding: hi alone rounds the other way
    0.009741861932592554, 958522999.7993715, 8.580389311980174e-11, 2.422540820564365e-14,
]
F2_EDGES = [
    # k/200 are ties of the second decimal in decimal, and near ties in binary
    *[k / 200 for k in range(-400, 401)],
    -0.001, -0.0, 0.0, 0.125, 2.675, 1e15, 4.5e13, 1e27, -1e300,
    *neighbours([2.0 ** 52 / 100]),
    math.nan, math.inf, -math.inf,
]


def test_g15_edges_match_percent_format():
    cells, expected = spell_g15(np.concatenate([POWERS, G15_EDGES]))
    assert cells == expected


def test_f2_edges_match_percent_format():
    numbers, expected = spell_f2(F2_EDGES + [0.0])
    assert numbers == expected


def test_random_doubles_of_every_exponent_match_percent_format():
    # raw bit patterns: every exponent, subnormals, NaN payloads and infinities
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(np.float64)
    # and the kernel's range, densely
    scaled = rng.random(20000) * 10.0 ** rng.integers(-30, 16, 20000)
    for values in (bits, scaled, -scaled):
        for spell in (spell_g15, spell_f2):
            spelled, expected = spell(values)
            assert spelled == expected


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_any_floats_match_percent_format(values):
    for spell, numbers in ((spell_g15, values), (spell_f2, values + [0.0])):
        spelled, expected = spell(numbers)
        assert spelled == expected


def test_csv_rows_blank_nan_and_last_column():
    block = np.array([[math.nan, 1.0, math.nan], [2.0, math.nan, -0.0]])
    rows = b"".join(numtext.csv_rows(block, [True, False, False], np.array([b"a;b", b""])))
    assert rows == b",1,nan,a;b\r\n2,nan,-0,\r\n"
