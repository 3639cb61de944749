"""``parnav._floatfmt.format_floats`` against ``repr`` byte for byte."""

import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from parnav import _floatfmt


def _reprs(values) -> list[bytes]:
    chars, lengths = _floatfmt.format_floats(values)
    assert chars.shape == (len(values), 32)
    assert not chars[np.arange(32) >= lengths[:, None]].any()  # zeros after each text
    return [chars[i, :n].tobytes() for i, n in enumerate(lengths.tolist())]


def _assert_repr(values):
    values = np.asarray(values, dtype=float)
    assert _reprs(values) == [repr(v).encode() for v in values.tolist()]


def _from_bits(*patterns) -> list[float]:
    return [struct.unpack("<d", struct.pack("<Q", p))[0] for p in patterns]


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
def test_any_bit_pattern_formats_as_repr(patterns):
    _assert_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_powers_of_two_and_ten():
    _assert_repr([2.0**e for e in range(-1074, 1024)])
    _assert_repr([-(2.0**e) for e in range(-1074, 1024)])
    tens = [float(f"1e{e}") for e in range(-323, 309)]
    _assert_repr(tens)
    _assert_repr(np.concatenate([np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)]))


_EDGES = [
    5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308, 2.2250738585072014e-308 * (1 + 2**-52),
    1.7976931348623157e308, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 9007199254740993.0, 9999999999999998.0,
    1e16, 1.0000000000000002e16, 123456789012345680.0, 999999999999999.9, 1e15, 1e-5, 9.999999999999999e-06,
    1e-4, 0.00012345, 0.1, 0.2, 0.30000000000000004, 1.0 / 3.0, 1.5, 100.0, 1e22, 1e23, 5e-310,
]


def test_edges():
    _assert_repr(_EDGES + [-v for v in _EDGES])


def test_signed_zeros_nans_and_infinities_take_repr():
    specials = [0.0, -0.0, float("inf"), -float("inf"), float("nan"), -float("nan")]
    specials += _from_bits(0x7FF0000000000001, 0xFFF8000000000123, 0x7FFFFFFFFFFFFFFF)
    assert _reprs(np.array(specials)) == [repr(v).encode() for v in specials]


def test_uncertified_values_take_repr(monkeypatch):
    real = _floatfmt._shortest

    def nothing_certified(bits):
        digits, exponent, _ = real(bits)
        return digits + 1, exponent, np.ones(bits.shape, dtype=bool)

    monkeypatch.setattr(_floatfmt, "_shortest", nothing_certified)
    _assert_repr(_EDGES + [-1.25, 3.0e-7])


def test_blocks_and_the_empty_array():
    values = np.random.default_rng(5).uniform(-1e4, 1e4, 2 * _floatfmt._BLOCK + 3)
    _assert_repr(values)
    chars, lengths = _floatfmt.format_floats(np.array([]))
    assert chars.shape == (0, 32) and lengths.shape == (0,)


@pytest.mark.parametrize("draw", ["uniform-5000", "unit", "thousandths", "times"])
def test_blocks_without_scientific_values_format_as_repr(draw):
    """Whole blocks of positional values, as simulation tables hold them, take the kernel's positional path."""
    rng, n = np.random.default_rng(11), 2 * _floatfmt._BLOCK
    values = {"uniform-5000": lambda: rng.uniform(-5000.0, 5000.0, n),
              "unit": lambda: rng.uniform(0.0, 1.0, n),
              "thousandths": lambda: rng.uniform(1e-3, 1e-2, n),
              "times": lambda: np.round(rng.uniform(0.0, 20.0, n), 3)}[draw]()
    _assert_repr(values)


def test_power_table_exceeds_the_exact_powers_by_at_most_one():
    g1, g0, e = _floatfmt._powers()
    for K, hi, lo, exp in zip(range(_floatfmt._K_LO, _floatfmt._K_HI + 1), g1.tolist(), g0.tolist(),
                              e.view(np.int64).tolist()):
        scaled = Fraction(10) ** K * Fraction(2) ** (127 - exp)
        assert 2**127 <= scaled < 2**128
        assert 0 < (hi << 64 | lo) - scaled <= 1


@pytest.mark.parametrize("closer", [False, True])
def test_decimal_exponent_is_the_floor_log10_of_the_binade(closer):
    q = np.arange(-1074, 972)
    k = _floatfmt._floor_log10_pow2(q, np.full(q.shape, closer))
    scale = Fraction(3, 4) if closer else Fraction(1)
    for qi, ki in zip(q.tolist(), k.tolist()):
        assert Fraction(10) ** ki <= scale * Fraction(2) ** qi < Fraction(10) ** (ki + 1)
