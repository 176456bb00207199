"""repr's cells for whole float64 arrays, and the CSV text made of them.

The digits are Giulietti's Schubfach ("The Schubfach way to render
doubles", 2020), the algorithm of Java's Double.toString: the shortest
decimal in a double's rounding interval and, of two such, the one closer
to it, which are exactly the digits repr prints. Its 128-bit products are
built from 32-bit limbs in uint64 lanes, so a whole array converts in a
few dozen numpy operations, each over every value at once.

A cell is six little-endian 8-byte words of fixed slots, the unused ones
NUL: the sign, "0." and up to three zeros, then each of the 17 digits
followed by a slot for the point, then a tail that holds the "0" of a
trailing ".0" or an exponent such as "e-05". A CSV block is its rows of
cells and separators with the NULs dropped. Zeros, subnormals,
infinities and NaN take repr itself, one value at a time.

Every uint64 operand is a uint64 array or an np.uint64 scalar, so that
numpy's legacy and NEP 50 promotion rules give the same dtypes.
"""

import numpy as np

_U = np.uint64
_0, _1, _2, _10, _32, _48, _52, _63 = (_U(n) for n in (0, 1, 2, 10, 32, 48, 52, 63))
_LOW32 = _U(0xFFFFFFFF)
_LOW63 = _U((1 << 63) - 1)
_EXPONENT = _U(0x7FF)
_FRACTION = _U((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_ONE = _U(0x3FF0000000000000)
_E4, _E8, _E16 = _U(10**4), _U(10**8), _U(10**16)

# the words of a cell; their bytes are written in this order
_WORD = np.dtype("<u8")
_WIDTH = 6 * _WORD.itemsize

# values converted at a time, which bounds the temporaries
BLOCK_VALUES = 2048


def _floor_log10_pow2(q, three_quarters=False):
    """floor(log10(2**q)), or of 3/4 2**q, for the exponents of doubles."""
    return (q * 661971961083 - (274743187321 if three_quarters else 0)) >> 41


def _floor_log2_pow10(e):
    """floor(log2(10**e)) for |e| <= 400."""
    return (e * 913124641741) >> 38


def _g_values(ks):
    """Schubfach's g for each k of the range ks: 10**-k scaled into
    [2**125, 2**126) and rounded up."""
    powers = [1]
    for _ in range(max(-ks[0], ks[-1])):
        powers.append(powers[-1] * 10)
    g = []
    for k in ks:
        shift = 125 - _floor_log2_pow10(-k)
        if k > 0:
            g.append((1 << shift) // powers[k] + 1)
        else:
            g.append((powers[-k] << shift if shift >= 0 else powers[-k] >> -shift) + 1)
    return g


def _tables():
    """Per biased exponent, and again at index + 2048 for a power of two,
    whose spacing below is irregular: k, and the rows h, g1 (g's top 63
    bits) with its 32-bit halves, and the halves of g0 (its low 63 bits)."""
    q = np.arange(-1075, 973, dtype=np.int64)
    k = np.concatenate([_floor_log10_pow2(q), _floor_log10_pow2(q, True)])
    h = np.concatenate([q, q]) + _floor_log2_pow10(-k) + 2
    ks = range(int(k.min()), int(k.max()) + 1)
    g = _g_values(ks)
    g1 = np.array([x >> 63 for x in g], dtype=_U)[k - ks[0]]
    g0 = np.array([x & ((1 << 63) - 1) for x in g], dtype=_U)[k - ks[0]]
    return k, np.stack([h.astype(_U), g1, g1 >> _32, g1 & _LOW32, g0 >> _32, g0 & _LOW32])


_K, _TABLE = _tables()


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """High 64 bits of a * b, from the 32-bit halves of a < 2**63 and of
    b < 2**61, whose three lower partial products then sum below 2**64."""
    high = a_lo * b_lo
    high >>= _32
    high += a_hi * b_lo
    high += a_lo * b_hi
    high >>= _32
    high += a_hi * b_hi
    return high


def _round_to_odd(g1, g1_hi, g1_lo, g0_hi, g0_lo, cp):
    """g cp / 2**127 rounded to odd, for g = g1 2**63 + g0, as Java's
    DoubleToDecimal.rop computes it."""
    cp_hi = cp >> _32
    cp_lo = cp & _LOW32
    z = _mulhi(g0_hi, g0_lo, cp_hi, cp_lo)
    z += g1 * cp >> _1
    vbp = _mulhi(g1_hi, g1_lo, cp_hi, cp_lo)
    vbp += z >> _63
    z &= _LOW63
    z += _LOW63
    vbp |= z >> _63
    return vbp


def _decimal(bits):
    """(f, e): f 10**e is the shortest decimal that rounds to the normal
    double of each IEEE bit pattern in bits, the closer to it of two such,
    and 10**16 <= f < 10**17."""
    biased = bits >> _52
    biased &= _EXPONENT
    c = bits & _FRACTION
    irregular = (c == _0) & (biased > _1)
    c |= _HIDDEN
    index = biased + irregular * _U(2048)
    h, *g = np.take(_TABLE, index, axis=1)
    # the rounding interval of c 2**q and c itself, in units of 2**(q - 2)
    cb = c << _2
    vb = _round_to_odd(*g, cb << h)
    vbl = _round_to_odd(*g, cb - _2 + irregular << h)
    vbr = _round_to_odd(*g, cb + _2 << h)
    # the interval is closed where c is even, and open where it is odd
    odd = c & _1
    vbl += odd
    vbr -= odd
    s = vb >> _2
    # of the two multiples of ten around s, at most one lies in the interval
    sp10 = s // _10 * _10
    upin = vbl <= sp10 << _2
    shorter = upin != (sp10 + _10 << _2 <= vbr)
    uin = vbl <= s << _2
    differ = uin != (s + _1 << _2 <= vbr)
    middle = s << _2 | _2
    pick_s = (differ & uin) | ~differ & ((vb < middle) | (vb == middle) & (s & _1 == _0))
    f = np.where(shorter, sp10 + ~upin * _10, s + ~pick_s)
    short = f < _E16
    f *= _1 + short * _U(9)
    return f, _K[index] - short


def _words(text):
    """The native uint64 of each 8-byte slice of text, read little-endian."""
    return np.frombuffer(text.encode("ascii"), _WORD).astype(_U)


def _digit_tables():
    """Per n in 0 .. 9999: the word of its four digits, in the even bytes;
    and as the j-th four digits of a significand (j = 0 .. 3, at n + 10000
    j), the count of its digits up to the last nonzero one of n, or 1
    where n is 0."""
    n = np.arange(10000, dtype=np.int16)
    quads = np.zeros((10000, 8), np.uint8)
    for i in range(4):
        quads[:, 2 * i] = n // 10**(3 - i) % 10 + 48
    trailing = sum(n % 10**i == 0 for i in range(1, 5))
    ends = np.where(n == 0, 1, 5 - trailing + 4 * np.arange(4)[:, None]).astype(np.int8)
    return quads.view(_WORD).ravel().astype(_U), ends.ravel()


_QUADS, _ENDS = _digit_tables()

# digit word j (row j of _J) holds digits 4j + 1 .. 4j + 4, each with a point slot.
# _KEEP[kept + 11 - 4j]: its mask where the first kept digits are shown;
# _POINT[i + 13 - 4j]: the point after digit i (-1: none), or 0 if elsewhere
_KEEP = np.array([sum(0xFF << 16 * i for i in range(min(max(m - 12, 0), 4)))
                  for m in range(29)], _U)
_POINT = _words("\0" * 8 * 14 + "".join(("\0" * (2 * i + 1) + ".").ljust(8, "\0")
                                        for i in range(4)) + "\0" * 8 * 11)
_J = np.arange(4)[:, None]

# the head word: sign, "0." and its zeros, the first digit's slot, the point
# after it; at 10 * negative + 2 * (zeros after "0." plus 1, or 0) + point
_HEADS = _words("".join(("-" * neg + ("0." + "0" * (z - 1) if z else "")).ljust(7, "\0")
                        + ("." if point else "\0")
                        for neg in (0, 1) for z in range(5) for point in (0, 1)))

# the tail word: "e-308" .. "e+308", then the "0" of ".0", then nothing
_TAILS = _words("".join(("e%+03d" % x).ljust(8, "\0") for x in range(-308, 309))
                + "0".ljust(16, "\0"))


def _cells(values):
    """(len(values), _WIDTH) uint8: the ASCII repr of each float64 of values,
    its bytes in order among NULs."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(_U)
    biased = bits >> _52 & _EXPONENT
    normal = (biased != _0) & (biased != _EXPONENT)
    # zeros, subnormals, infinities and NaN carry 1.0 and take repr below
    f, e = _decimal(np.where(normal, bits, _ONE))
    decpt = e + 17
    lead = f // _E16
    f -= lead * _E16
    high = f // _E8
    f -= high * _E8
    quads = np.empty((4, len(values)), np.intp)
    quads[:2] = np.divmod(high, _E4)
    quads[2:] = np.divmod(f, _E4)
    n = np.maximum.reduce(np.take(_ENDS, quads + 10000 * _J))
    fixed = (decpt > -4) & (decpt <= 16)
    kept = np.maximum(n, decpt * fixed)
    # the point follows digit decpt - 1 in fixed notation, digit 0 in
    # exponent notation when more digits follow, and no digit otherwise
    point = np.where(fixed, decpt - 1, (n > 1) - 1)
    zeros = np.maximum(1 - decpt, 0) * fixed
    head = (bits >> _63).astype(np.intp) * 10 + 2 * zeros + (point == 0)
    out = np.empty((len(values), 6), _WORD)
    out[:, 0] = np.take(_HEADS, head) | lead + _U(48) << _48
    words = np.take(_QUADS, quads)
    words &= np.take(_KEEP, kept + 11 - 4 * _J)
    words |= np.take(_POINT, point + 13 - 4 * _J)
    out[:, 1:5] = words.T
    out[:, 5] = np.take(_TAILS, np.where(fixed, 618 - (decpt >= n), decpt + 307))
    out = out.view(np.uint8)
    odd = np.flatnonzero(~normal)
    if len(odd):
        text = "".join([repr(v).ljust(_WIDTH, "\0") for v in values[odd].tolist()])
        out[odd] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _WIDTH)
    return out


_BOOLS = np.frombuffer(b"false" b"true\0", np.uint8).reshape(2, 5)


def csv_text(header, columns, first):
    """CSV text of header and the equal-length numpy arrays columns, as
    cli._csv_text writes it: a bool column reads true/false, any other the
    repr of each of its values as a double. Column i reads the cells of
    column first[i], formatted once for all the places that read them."""
    floats = [j for j in sorted(set(first)) if columns[j].dtype != bool]
    widths = [5 if columns[j].dtype == bool else _WIDTH for j in first]
    ends = np.cumsum(np.add(widths, 1))
    rows = len(columns[0])
    step = max(1, BLOCK_VALUES // max(1, len(floats)))
    text = [header, "\n"]
    for start in range(0, rows, step):
        stop = min(rows, start + step)
        block = np.empty((len(floats), stop - start))
        for i, j in enumerate(floats):
            block[i] = columns[j][start:stop]
        formatted = _cells(block.ravel()).reshape(len(floats), stop - start, _WIDTH)
        buf = np.empty((stop - start, int(ends[-1])), np.uint8)
        for j, end, width in zip(first, ends, widths):
            if columns[j].dtype == bool:
                buf[:, end - 1 - width:end - 1] = _BOOLS[columns[j][start:stop].view(np.uint8)]
            else:
                buf[:, end - 1 - width:end - 1] = formatted[floats.index(j)]
            buf[:, end - 1] = ord(",")
        buf[:, -1] = ord("\n")
        text.append(buf.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(text)
