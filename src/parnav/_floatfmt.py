"""``repr(float(v))`` for a whole float64 array at once.

``format_floats(values)`` returns the bytes of ``repr`` for every value,
as a ``uint8`` matrix and per-row lengths.  The digits are the shortest
decimal that reads back as the value, found by Schubfach (R. Giulietti,
"The Schubfach way to render doubles", 2020): the value is scaled by a
128-bit power of ten, one 64 x 128-bit product on 32-bit limbs in
``uint64`` arithmetic, and its two rounding-interval bounds follow by
adding the half gaps.  Each scaled value is known to within 4 units of
its 64th fraction bit; where that leaves it within reach of an integer,
whether the exact value is one is decided from its 2- and 5-adic orders.
As in Grisu3 (F. Loitsch, PLDI 2010), a value the kernel cannot certify
goes through ``repr``, as do nan, +-inf and +-0.0, so the bytes never
depend on the fast path covering every value.  The layout is CPython's:
positional with a ``.0`` for decimal exponents -4 to 15, ``1e+16`` /
``1e-05`` style otherwise.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_MASK32 = _U(0xFFFFFFFF)
_FRACTION = _U((1 << 52) - 1)
# powers of ten over the doubles' range: 10^K for K = -k, k = floor(log10(2^q)), q in [-1074, 971]
_K_LO, _K_HI = -292, 324
_POW5 = np.array([5**i for i in range(28)], dtype=np.uint64)  # 5^27 < 2^63
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)


@functools.cache
def _powers() -> np.ndarray:
    """Rows ``g1, g0, e`` by ``K``: ``g = g1 2^64 + g0 = floor(10^K 2^(127 - e)) + 1``, ``e = floor(log2 10^K)``."""
    rows = []
    for K in range(_K_LO, _K_HI + 1):
        if K >= 0:
            e = (10**K).bit_length() - 1
            g = (10**K << (127 - e) if e <= 127 else 10**K >> (e - 127)) + 1
        else:
            e = -(10**-K).bit_length()
            g = (1 << (127 - e)) // 10**-K + 1
        assert 1 << 127 < g < 1 << 128
        rows.append((g >> 64, g & (1 << 64) - 1, e % (1 << 64)))
    return np.array(rows, dtype=np.uint64).T.copy()


@functools.cache
def _binades() -> list[np.ndarray]:
    """What :func:`_shortest` needs of each binade, indexed by ``E + 2047 closer`` (``E`` the biased
    exponent): ``k``, ``h``, ``g1``, ``g0``, then the integer part and fraction word of the half gaps
    ``2^(h+1) g / 2^128`` (``2^h`` below when ``closer``) to the lower and the upper bound."""
    g1, g0, e10 = _powers()
    E, closer = np.tile(np.arange(2047), 2), np.repeat([False, True], 2047)
    q = np.maximum(E, 1) - 1075
    k = _floor_log10_pow2(q, closer)
    i = -k - _K_LO
    g1, g0 = g1[i], g0[i]
    h = (q + e10[i].view(np.int64) + 1).astype(np.uint64)  # 1..4, so 4c << h < 2^60
    columns = [k, h, g1, g0]
    for s in (h + _U(1) - closer, h + _U(1)):
        columns += [g1 >> (_U(64) - s), (g1 << s) | (g0 >> (_U(64) - s))]
    return columns


def _scale(x, g1, g0):
    """``(floor(P), fraction)``, ``P = x g / 2^128`` for ``g = g1 2^64 + g0`` and ``x < 2^60``, on 32-bit limbs:
    ``P``'s integer part and first 64 fraction bits, less than 3 units of the last below the exact ones.

    ``P 2^64 = x g1 + x g0 / 2^64``; the first term is exact, the second
    is ``floor(x g0 / 2^64)`` less at most 2, from the three partial
    products that reach it."""
    x0, x1 = x & _MASK32, x >> _U(32)
    a0, a1, b0, b1 = g0 & _MASK32, g0 >> _U(32), g1 & _MASK32, g1 >> _U(32)
    low = x1 * a1 + ((x1 * a0) >> _U(32)) + ((x0 * a1) >> _U(32))
    p10, p01 = x1 * b0, x0 * b1
    carry = ((x0 * b0) >> _U(32)) + (p10 & _MASK32) + (p01 & _MASK32)
    high = x1 * b1 + (p10 >> _U(32)) + (p01 >> _U(32)) + (carry >> _U(32))
    fraction = x * g1 + low
    return high + (fraction < low), fraction


def _is_integer(cb, q, k):
    """Whether ``cb 2^q 10^-k`` is an integer: ``2^(k - q)`` and, for ``k > 0``, ``5^k`` divide ``cb``."""
    s2 = k - q
    low = (_U(1) << np.minimum(np.maximum(s2, 0), 63).astype(np.uint64)) - _U(1)
    twos = (s2 <= 0) | ((s2 < 64) & ((cb & low) == _U(0)))
    fives = (k <= 0) | (cb % _POW5.take(np.minimum(np.maximum(k, 0), 27)) == _U(0))
    return twos & fives


def _round_to_odd(whole, fraction, cb, q, k, uncertain):
    """``floor(P) | 1`` for a non-integer ``P = cb 2^q 10^-k`` known as ``whole + fraction / 2^64`` to
    within 4 units of the last fraction bit, and ``P`` where it is an integer.  Within 16 units of an
    integer, :func:`_is_integer` decides, and ``uncertain`` is set where it says no."""
    out = whole | _U(1)
    near = np.flatnonzero(fraction + _U(16) < _U(32))
    if near.size:
        exact = _is_integer(cb[near], q[near], k[near])
        out[near[exact]] = whole[near[exact]] + (fraction[near[exact]] >> _U(63))
        uncertain[near[~exact]] = True
    return out


def _floor_log10_pow2(q, closer):
    """``floor(log10(2^q))``, or ``floor(log10(3/4 2^q))`` where ``closer``, for ``|q| <= 1074``."""
    return (q * 1262611 - closer * 524031) >> 22


def _shortest(bits):
    """Shortest round-trip decimal ``digits 10^exponent`` of positive finite nonzero doubles given as bits,
    as ``(digits, exponent, uncertain)``; the digits of ``uncertain`` values are not certified.

    Schubfach works on ``4 10^-k`` times the value and its rounding
    bounds, rounded to odd, with ``10^k <= 2^q`` (``3/4 2^q`` when the
    lower neighbour is closer) so that the scaled interval holds at most
    one multiple of 10.  The scaled value ``B`` is one product with the
    table's ``g``, which exceeds ``10^-k 2^(127 - e)`` by at most 1; the
    bounds are ``B -+ D`` with ``D = 2^(h+1) g / 2^128`` (``2^h`` below
    when the lower neighbour is closer).  Each is known to within 4 units
    of its 64th fraction bit, and :func:`_round_to_odd` certifies it."""
    E = (bits >> _U(52)).astype(np.intp)
    closer = ((bits & _FRACTION) == _U(0)) & (E > 1)  # the lower neighbour is half as far
    at = E + 2047 * closer
    k, h, g1, g0, *gaps = (column.take(at) for column in _binades())
    binade = np.maximum(E, 1)  # subnormals share the smallest normal binade
    c = bits - ((binade - 1).astype(np.uint64) << _U(52))
    q = binade - 1075
    cb = c << _U(2)
    y1, fraction = _scale(cb << h, g1, g0)
    uncertain = np.zeros(bits.shape, dtype=bool)
    vb = _round_to_odd(y1, fraction, cb, q, k, uncertain)
    frac = fraction - gaps[1]
    lower = _round_to_odd(y1 - gaps[0] - (frac > fraction), frac, cb - _U(2) + closer, q, k, uncertain)
    frac = fraction + gaps[3]
    upper = _round_to_odd(y1 + gaps[2] + (frac < fraction), frac, cb + _U(2), q, k, uncertain)
    odd = c & _U(1)
    lower, upper = lower + odd, upper - odd  # an odd significand's bounds round away from it

    # one digit fewer if exactly one of its two candidates is inside, else the closer of s and s + 1
    s = vb >> _U(2)
    sp = s // _U(10)
    sp_in = lower <= _U(40) * sp
    up_in = _U(40) * (sp + _U(1)) <= upper
    shorter = (s >= _U(10)) & (sp_in != up_in)
    u_in = lower <= _U(4) * s
    w_in = _U(4) * (s + _U(1)) <= upper
    mid = _U(4) * s + _U(2)
    round_up = (vb > mid) | ((vb == mid) & (s & _U(1)).astype(bool))
    digits = s + (w_in & (round_up | ~u_in))
    digits += shorter * (sp + up_in - digits)
    return digits, k + shorter, uncertain


def _ascii8(n):
    """The 8 decimal digits of each ``n < 10^8`` as ASCII, most significant in the low byte (SWAR)."""
    a = n // _U(10000)
    x = a | ((n - a * _U(10000)) << _U(32))  # 32-bit lanes of 4 digits
    y = ((x * _U(5243)) >> _U(19)) & _U(0x7F0000007F)  # lane // 100, exact below 10^4
    x = y | ((x - y * _U(100)) << _U(16))  # 16-bit lanes of 2 digits
    y = ((x * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # lane // 10, exact below 179
    return y | ((x - y * _U(10)) << _U(8))


# A row of text is handled as three little-endian uint64 words: byte i of the text is byte i % 8 of word i // 8.
# _FIRST[k, n] masks the first n bytes of a row in word k.
_FIRST = np.array([[(1 << min(max(8 * n - 64 * k, 0), 64)) - 1 for n in range(25)] for k in range(3)],
                  dtype=np.uint64)
_ASCII_ZEROS = _U(0x3030303030303030)


def _shift(words, n_bytes):
    """Each row's text moved ``n_bytes`` (0..8) bytes later."""
    bits = (np.asarray(n_bytes) * 8).astype(np.uint64)
    return [words[0] << bits] + [(words[k] << bits) | (words[k - 1] >> (_U(64) - bits)) for k in (1, 2)]


def format_floats(values) -> tuple[np.ndarray, np.ndarray]:
    """``(chars, lengths)``: row ``i`` of the ``(n, 32)`` uint8 matrix ``chars`` holds the
    ``lengths[i]`` (at most 24) bytes of ``repr(float(values[i]))``, then zeros."""
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    chars = np.empty((v.size, 32), dtype=np.uint8)
    bits = v.view(np.uint64)
    mag = bits & _U((1 << 63) - 1)
    special = (mag == _U(0)) | (mag >= _U(0x7FF << 52))  # +-0.0, +-inf, nan
    digits, exp10, uncertain = _shortest(np.where(special, _U(0x3FF << 52), mag))  # 1.0 stands in for them
    fallback = special | uncertain

    # the digits left-aligned in 17 places, nd of them significant; value = 0.DIGITS 10^point
    n_digits = np.add(digits >= _U(10**15), digits >= _U(10**16), dtype=np.intp)
    n_digits += 15
    short = np.flatnonzero(digits < _U(10**14))  # the usual 15 to 17 digits take two comparisons, the rest a search
    n_digits[short] = np.searchsorted(_POW10, digits[short], side="right")
    aligned = digits * _POW10.take(17 - n_digits)
    high = aligned // _U(10**9)
    low = aligned - high * _U(10**9)
    mid = low // _U(10)
    raw = [_ascii8(high), _ascii8(mid), low - mid * _U(10)]
    nd = n_digits.copy()
    at = np.flatnonzero(digits // _U(10) * _U(10) == digits)
    if at.size:  # strip the trailing zeros of the values that have them, up to 31 in five steps
        rest, cut = digits[at], np.zeros(at.size, dtype=np.intp)
        for k in (16, 8, 4, 2, 1):
            tens = rest // _U(10**k)
            more = tens * _U(10**k) == rest
            rest = np.where(more, tens, rest)
            cut += k * more
        nd[at] -= cut
    point = exp10 + n_digits
    neg = (bits >> _U(63)).astype(np.intp)
    # positional 0.00DIGITS is "0" * zeros + DIGITS with the point after dot digits
    zeros = np.maximum(1 - point, 0)
    dot = np.maximum(point, 1)
    lengths = neg + dot + 1 + np.maximum(nd + zeros - dot, 1)
    sci = np.flatnonzero((point < -3) | (point > 16))
    if sci.size:  # scientific is DIGITS with the point after one digit, then the exponent
        zeros[sci] = 0
        dot[sci] = 1
        n_exp = 2 + (np.abs(point[sci] - 1) >= 100)
        lengths[sci] = neg[sci] + np.where(nd[sci] > 1, nd[sci] + 1, 1) + 2 + n_exp
    texts = {i: repr(float(v[i])).encode() for i in np.flatnonzero(fallback).tolist()}
    lengths[list(texts)] = [len(text) for text in texts.values()]

    # the sign, then zeros and the digits; the text after the point moves one byte on to make room for it
    row = _shift([raw[0] + _ASCII_ZEROS, raw[1] + _ASCII_ZEROS, raw[2] + _U(ord("0"))], neg + zeros)
    row[0] |= ((_ASCII_ZEROS & (_FIRST[0].take(neg + zeros) ^ _FIRST[0].take(neg)))
               | (neg.astype(np.uint64) * _U(ord("-"))))
    dot += neg
    before = [m.take(dot) for m in _FIRST]
    after = _shift([w & ~m for w, m in zip(row, before)], 1)
    dots = [_U(0x2E2E2E2E2E2E2E2E) & (m.take(dot + 1) ^ b) for m, b in zip(_FIRST, before)]
    row = [(w & m) | a | d for w, m, a, d in zip(row, before, after, dots)]
    words = chars.view(np.uint64)
    for k, (w, m) in enumerate(zip(row, _FIRST)):
        words[:, k] = w & m.take(lengths)
    words[:, 3] = 0

    if sci.size:  # scientific: "e" and the exponent's sign after the mantissa, its 2 or 3 digits at the end
        certain = ~fallback[sci]
        rows, n_exp = sci[certain], n_exp[certain]
        end, x = lengths[rows], point[rows] - 1
        chars[rows, end - 2 - n_exp] = ord("e")
        chars[rows, end - 1 - n_exp] = np.where(x < 0, ord("-"), ord("+"))
        for place in range(3):
            at = place < n_exp
            chars[rows[at], end[at] - 1 - place] = np.abs(x[at]) // 10**place % 10 + ord("0")
    for i, text in texts.items():
        chars[i] = 0
        chars[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return chars, lengths
