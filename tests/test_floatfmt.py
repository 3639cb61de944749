"""``parnav._floatfmt.format_floats`` against ``repr`` byte for byte."""

import struct
from decimal import Decimal
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


def _repr_calls(monkeypatch, values) -> list[float]:
    """The values ``format_floats`` passes to ``repr``, and the bytes checked against ``repr``."""
    calls = []

    def counting(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(_floatfmt, "repr", counting, raising=False)
    _assert_repr(values)
    return calls


def _short(x: float) -> bool:
    """Whether the exact decimal expansion of ``x`` has at most 20 significant digits.  Every value whose scaled
    form ``4 x 10^-k`` (below 2^55 10) is an integer has one, and the kernel leaves those to ``repr``."""
    return len(Decimal(x).normalize().as_tuple().digits) <= 20


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


def test_signed_zeros_nans_and_infinities_take_repr(monkeypatch):
    specials = [0.0, -0.0, float("inf"), -float("inf"), float("nan"), -float("nan")]
    specials += _from_bits(0x7FF0000000000001, 0xFFF8000000000123, 0x7FFFFFFFFFFFFFFF)
    assert len(_repr_calls(monkeypatch, specials)) == len(specials)


def test_uncertified_values_take_repr(monkeypatch):
    real = _floatfmt._shortest

    def nothing_certified(bits):
        digits, exponent, _ = real(bits)
        return digits + 1, exponent, np.ones(bits.shape, dtype=bool)

    monkeypatch.setattr(_floatfmt, "_shortest", nothing_certified)
    _assert_repr(_EDGES + [-1.25, 3.0e-7])


def test_blocks_and_the_empty_array():
    values = np.random.default_rng(5).uniform(-1e4, 1e4, 16_387)
    _assert_repr(values)
    chars, lengths = _floatfmt.format_floats(np.array([]))
    assert chars.shape == (0, 32) and lengths.shape == (0,)


def test_power_table_exceeds_the_exact_powers_by_at_most_one():
    g1, g0, e = _floatfmt._powers()
    for K, hi, lo, exp in zip(range(_floatfmt._K_LO, _floatfmt._K_HI + 1), g1.tolist(), g0.tolist(),
                              e.view(np.int64).tolist()):
        scaled = Fraction(10) ** K * Fraction(2) ** (127 - exp)
        assert 2**127 <= scaled < 2**128
        assert 0 < (hi << 64 | lo) - scaled <= 1


@pytest.mark.parametrize("negative", [False, True])
def test_decimal_exponent_is_the_floor_log10_of_the_binade(negative):
    """``k`` for every binade, split by the sign of ``q``: for ``q < 0`` the right shift in :func:`_binades`
    must round the negative product toward minus infinity."""
    k = _floatfmt._binades()[0]
    assert len(k) == 2047
    for E, ki in enumerate(k.tolist()):
        q = E - 1075
        if (q < 0) == negative:
            assert Fraction(10) ** ki <= Fraction(2) ** q < Fraction(10) ** (ki + 1)


@pytest.mark.parametrize("draw", ["uniform-5000", "unit", "thousandths", "times", "decades"])
def test_blocks_without_scientific_values_format_as_repr(monkeypatch, draw):
    """Whole blocks of positional values, as simulation tables hold them, take the kernel's positional path:
    at most 0.1% of a draw takes ``repr`` for any reason but a short exact expansion.

    The short ones are the 3-decimal times that are multiples of 1/8 (0.8% of the draw) and, among the
    decades, every value from 2^48 up, whose spacing is at least 1/16, and many just below it (9%)."""
    rng, n = np.random.default_rng(11), 16_384
    values = {"uniform-5000": lambda: rng.uniform(-5000.0, 5000.0, n),
              "unit": lambda: rng.uniform(0.0, 1.0, n),
              "thousandths": lambda: rng.uniform(1e-3, 1e-2, n),
              "times": lambda: np.round(rng.uniform(0.0, 20.0, n), 3),
              "decades": lambda: rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-4.0, 16.0, n)}[draw]()
    calls = _repr_calls(monkeypatch, values)
    assert sum(not _short(x) for x in calls) <= 0.001 * n
    assert len(calls) <= {"times": 0.01, "decades": 0.1}.get(draw, 0.001) * n


# what the kernel leaves to repr besides +-0.0, +-inf and nan
_REPR_CLASSES = {
    "subnormals": [5e-324, -2.225073858507201e-308, 1e-310],
    "powers of two": [1.0, 0.5, -1024.0, 2.0**-1022, 2.0**60],
    "short exact expansions": [100.0, -4.25, 0.375, 1234567.0, 2.0**52 + 1.0, 1933585633082760.8],
    "scientific": [1e-5, -9.999999999999999e-06, 1e16, 1.2345e22, 1.7976931348623157e308, 3.5e-300],
}


@pytest.mark.parametrize("kind", _REPR_CLASSES)
def test_classes_the_kernel_leaves_to_repr(monkeypatch, kind):
    values = _REPR_CLASSES[kind]
    assert len(_repr_calls(monkeypatch, values)) == len(values)


def test_17_digit_positional_values_take_the_kernel(monkeypatch):
    values = [0.30000000000000004, -1234.5678901234567, 0.00012345678901234567, 98765.43210987654, 1.0 / 3.0]
    assert _repr_calls(monkeypatch, values) == []
