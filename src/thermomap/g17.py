"""Exact vectorized ``"%.17g"`` formatting of float64 tables.

`format_rows` turns a 2-D float64 array into CSV text: cells joined by
commas, rows ended by newlines, every cell byte-identical to
``format(x, ".17g")``.

Digits. For finite nonzero x with decimal exponent X = floor(log10|x|), the
17-digit significand is D = round(|x| * 10**(16 - X)). With |x| = m * 2**e,
m in [0.5, 1), and 10**(16 - X) = (hi + lo) * 2**shift, hi in [1, 2), the
product is a double-double: Dekker's split gives m * hi = p + err exactly,
and p + err + m * lo carries a relative error near 2**-100, far inside the
tie window below. The (hi, lo, shift) table is built exactly from integers
for every X a finite double can have.

Fallback. A cell goes to Python's own formatting when its digits are not
certain: zero, nan and +-inf; a fraction within 1e-9 of one half (a
possible tie, which %.17g breaks to even); a floor below 10**16 or a
rounded D of 10**17 or more (a wrong log10 guess, or a round-up to the
next power of ten). No such cell is ever formatted from D. `format_rows`
also sends there every cell of 10 <= |x| < 1e17, whose integer part the
frame below has no field for.

Layout. Each cell fills a 32-byte frame of NUL-padded fields, and deleting
the NULs leaves its text:

    head      8  sign, "0." and leading zeros when 1e-4 <= |x| < 1, the
                 first digit, and "." when a nonzero digit follows it
    fraction 16  the remaining digits, trailing zeros dropped
    suffix    8  the exponent of scientific notation, then the separator

The head depends on X only through its class: one of four counts of
leading zeros, or plain; its table holds 2 signs x 5 classes x 10 digits x
point or not. Digits come four at a time from a 10,000-entry table of
4-byte strings; its second half has the trailing zeros blanked, for the
last nonzero group of the fraction and the zero groups after it. The tables
are built on the first call, so importing this module costs nothing. Every
%.17g text, separator included, fits in 25 bytes, so fallback cells fit
the frame.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

_X_MIN, _X_MAX = -324, 308  # decimal exponents of finite nonzero float64
_NX = _X_MAX - _X_MIN + 1
_DEKKER = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
_QUAD = 10000  # values of a group of four digits
_WIDTH = 32  # bytes per cell: head 8, fraction 16, suffix 8


def _packed(texts, width: int) -> np.ndarray:
    """Byte strings NUL-padded to `width`, one row each."""
    raw = b"".join(t.ljust(width, b"\0") for t in texts)
    return np.frombuffer(raw, np.uint8).reshape(len(texts), width)


@functools.cache
def _tables() -> SimpleNamespace:
    """Per decimal exponent X - _X_MIN: scaled powers of ten, suffixes and
    head rows (at + _NX for a minus sign); per digit group or head: text."""
    xs = range(_X_MIN, _X_MAX + 1)
    hi, lo, shift = [], [], []
    for x in xs:
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        e = num.bit_length() - den.bit_length()
        num, den = num << max(-e, 0), den << max(e, 0)
        if num < den:  # make 1 <= num / den < 2
            num, e = 2 * num, e - 1
        h = num / den  # correctly rounded
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
        shift.append(e)
    hi = np.array(hi)
    hi_hi = hi * _DEKKER - (hi * _DEKKER - hi)  # hi = hi_hi + hi_lo exactly

    v = np.arange(_QUAD)
    quad = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], 1)
    quad = (quad + ord("0")).astype(np.uint8)
    kept = np.cumsum(quad[:, ::-1] != ord("0"), axis=1)[:, ::-1] > 0
    suffix, cls, head = [], [], []
    for x in xs:
        fixed = -4 <= x < 17
        exponent = b"" if fixed else b"e%+03d" % x
        suffix += [exponent + b",", exponent + b"\n"]
        # head class 0-3: that many leading zeros; 4: plain
        cls.append(-x - 1 if fixed and x < 0 else 4)
    for sign in (b"", b"-"):
        for c in range(5):
            for d in b"0123456789":
                lead = (b"0." + b"0" * c if c < 4 else b"") + bytes([d])
                head += [sign + lead, sign + lead + b"." * (c == 4)]
    return SimpleNamespace(
        hi_hi=hi_hi,
        hi_lo=hi - hi_hi,
        lo=np.array(lo),
        shift=np.array(shift, np.int32),
        quad=np.concatenate([quad, quad * kept]).view(np.uint32).ravel(),
        head=_packed(head, 8).view(np.uint64).ravel(),
        head_row=20 * np.array(cls + [c + 5 for c in cls]),
        suffix=_packed(suffix, 8).view(np.uint64).ravel(),
    )


def significands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k, D, exact) for a 1-D float64 array: k = X - _X_MIN indexes the
    decimal exponent X, D is the 17-digit significand of |x| as int64, and
    `exact` is False where D is not certain (see Fallback above)."""
    t = _tables()
    ax = np.abs(x)
    exact = np.isfinite(ax) & (ax > 0)
    ax[~exact] = 1.0  # placeholder: these cells fall back
    k = np.floor(np.log10(ax)).astype(np.intp) - _X_MIN
    m, e = np.frexp(ax)
    m_hi = m * _DEKKER - (m * _DEKKER - m)
    m_lo = m - m_hi
    h_hi, h_lo = t.hi_hi[k], t.hi_lo[k]
    p = m * (h_hi + h_lo)  # h_hi + h_lo is hi exactly
    err = ((m_hi * h_hi - p) + m_hi * h_lo + m_lo * h_hi) + m_lo * h_lo
    err += m * t.lo[k]
    e += t.shift[k]
    p = np.ldexp(p, e)  # an integer once p >= 2**53, as it is whenever X is right
    err = np.ldexp(err, e)
    whole = np.floor(p)
    rest = (p - whole) + err
    carry = np.floor(rest)
    frac = rest - carry
    D = whole.astype(np.int64) + carry.astype(np.int64)
    exact &= (D >= 10**16) & (np.abs(frac - 0.5) > 1e-9)
    D += frac > 0.5
    exact &= D < 10**17
    return k, D, exact


def format_rows(table: np.ndarray) -> bytes:
    """CSV rows of a 2-D float64 array, each cell as ``format(x, ".17g")``."""
    t = _tables()
    with np.errstate(invalid="ignore"):  # a float32 signaling nan stays nan
        x = np.ascontiguousarray(table, dtype=np.float64).ravel()
    k, D, exact = significands(x)
    exact &= (k <= -_X_MIN) | (k > 16 - _X_MIN)  # 10 <= |x| < 1e17 falls back
    first = D // 10**16  # np.divmod has no fast path for an int64 scalar
    tail = D - first * 10**16
    first[~exact] = 1  # any digit: these rows are replaced below
    upper = tail // 10**8
    lower = tail - upper * 10**8
    g0, g2 = upper // _QUAD, lower // _QUAD
    groups = [g0, upper - g0 * _QUAD, g2, lower - g2 * _QUAD]

    # uint32 words: head 0-1, fraction 2-5, suffix 6-7
    frame = np.zeros((x.size, _WIDTH), np.uint8)
    words = frame.view(np.uint32)
    head = t.head_row[k + _NX * np.signbit(x)] + 2 * first + (tail != 0)
    frame.view(np.uint64)[:, 0] = t.head[head]
    strip = np.full(x.size, _QUAD)  # offset of the zero-blanked half of quad
    for i in (3, 2, 1, 0):
        words[:, 2 + i] = t.quad[groups[i] + strip]
        strip *= groups[i] == 0
    sep = 2 * k
    sep.reshape(table.shape)[:, -1] += 1
    frame.view(np.uint64)[:, 3] = t.suffix[sep]

    bad = np.flatnonzero(~exact)
    if bad.size:
        last = bad % table.shape[1] == table.shape[1] - 1
        seps = np.where(last, "\n", ",").tolist()
        text = "".join(
            f"{v:.17g}{s}".ljust(_WIDTH, "\0") for v, s in zip(x[bad].tolist(), seps)
        )
        frame[bad] = np.frombuffer(text.encode(), np.uint8).reshape(bad.size, -1)
    return frame.tobytes().translate(None, b"\0")
