"""The whole-array repr kernel: every cell it writes must be repr's."""

import math
import struct
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oscdecay import _shortest


def column_text(values):
    """Each cell the kernel writes for values, as the one column of a CSV."""
    values = np.asarray(values, dtype=float)
    return _shortest.csv_text("x", [values], [0]).split("\n")[1:-1]


def assert_repr(values):
    values = np.asarray(values, dtype=float)
    expected = [repr(v) for v in values.tolist()]
    got = column_text(values)
    assert len(got) == len(expected)
    wrong = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not wrong, wrong[:5]


def test_random_bit_patterns_over_every_exponent():
    # 64 random signs and fractions for each of the 2048 biased exponents,
    # subnormals, infinities and NaN (exponents 0 and 2047) included
    rng = np.random.default_rng(20261019)
    exponent = np.repeat(np.arange(2048, dtype=np.uint64), 64)
    fraction = rng.integers(0, 1 << 52, size=exponent.size, dtype=np.uint64)
    sign = rng.integers(0, 2, size=exponent.size, dtype=np.uint64)
    bits = sign << np.uint64(63) | exponent << np.uint64(52) | fraction
    assert_repr(bits.view(np.float64))


def test_random_bit_patterns():
    rng = np.random.default_rng(7)
    assert_repr(rng.integers(0, 2**64, size=2**16, dtype=np.uint64, endpoint=False)
                .view(np.float64))


def _around(x):
    """x and its neighbours one ulp below and above."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def test_edge_values():
    largest_subnormal = struct.unpack("<d", struct.pack("<Q", (1 << 52) - 1))[0]
    edges = [0.0, 5e-324, largest_subnormal, 2.2250738585072014e-308, 1.7976931348623157e308,
             math.inf, math.nan, 1e-4, 1e-5, 1e15, 1e16, 0.1, 0.5, 1.0, 123456789012345680.0]
    edges += [x for e in range(-323, 309) for x in _around(float("1e%d" % e))]
    # at a power of two the spacing below is half the spacing above
    edges += [x for e in range(-1074, 1024) for x in _around(math.ldexp(1.0, e))]
    edges += [float(2**53 + i) for i in range(-4, 5)]
    edges += [float(2**54 + 2 * i) for i in range(-4, 5)]
    edges += _around(9007199254740993.0) + _around(1e23) + _around(5e-324 * 3)
    assert_repr(edges + [-x for x in edges])


def test_grid_like_values():
    t = np.geomspace(0.2, 60.0, 3001)
    assert_repr(np.concatenate([t, np.exp(-t), -np.exp(-t / 3) * np.cos(10 * t), t / 2.6926,
                                np.linspace(-1e-3, 1e-3, 2001)]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_floats_read_as_repr(values):
    assert column_text(values) == [repr(v) for v in values]


def _floor_log10(num, den):
    """floor(log10(num / den)) for positive integers, exactly."""
    k = len(str(num)) - len(str(den))
    while 10**max(k, 0) * den > num * 10**max(-k, 0):
        k -= 1
    while 10**max(k + 1, 0) * den <= num * 10**max(-k - 1, 0):
        k += 1
    return k


def test_tables_hold_schubfach_preconditions():
    # k = floor(log10(2**q)), or of 3/4 2**q where the spacing is irregular;
    # h in 2 .. 5 keeps ((c << 2) + 2) << h, c < 2**53, below 2**61 as _mulhi needs
    for biased in range(1, 2047):
        q = biased - 1075
        num, den = (2**q, 1) if q >= 0 else (1, 2**-q)
        assert _shortest._K[biased] == _floor_log10(num, den)
        assert _shortest._K[biased + 2048] == _floor_log10(3 * num, 4 * den)
    h = _shortest._TABLE[0][np.r_[1:2047, 2049:4095]]
    assert h.min() == 2 and h.max() == 5
    # g = floor(10**-k 2**(125 - r)) + 1 with that value in [2**125, 2**126)
    ks = range(-324, 293)
    for k, g in zip(ks, _shortest._g_values(ks)):
        scaled = Fraction(10)**-k * Fraction(2)**(125 - _shortest._floor_log2_pow10(-k))
        assert 2**125 <= scaled < 2**126
        assert g == math.floor(scaled) + 1


def test_block_boundaries_and_repeated_columns():
    # more rows than one block holds, a column passed twice, and a bool column
    rows = _shortest.BLOCK_VALUES + 3
    t = np.linspace(-1.0, 1.0, rows)
    flags = t > 0
    text = _shortest.csv_text("t,again,flag,cube", [t, t, flags, t**3], [0, 0, 2, 3])
    expected = ["t,again,flag,cube"] + ["%r,%r,%s,%r" % (a, a, "true" if f else "false", c)
                                        for a, f, c in zip(t.tolist(), flags, (t**3).tolist())]
    assert text == "\n".join(expected) + "\n"
