"""Exact exponent arithmetic for the L^p machinery.

Exponents live in [1, inf].  Finite values are kept as exact rationals so
that derived quantities (conjugates, Holder complements, ratios) carry no
float error: p = q must give r = inf exactly, never an overflowing float.
Infinity is a distinct case of the type, never a float sentinel.

Exponent values repeat, so each is parsed, and each derived exponent
formed, once per value: a bounded cache maps a str, int, float or Fraction
to one shared (immutable) instance, and the conjugate, the Holder
complement and the ratio are memoised.  An instance carries float(p),
float(1/p) and its hash; comparisons read float(p) and fall back to the
exact reciprocals only on a float tie.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import BadExponent, ExponentOrder


class Exponent:
    """A point of [1, inf]; finite values stored as `Fraction`, inf as None.

    A finite value must fit in a float (BadExponent otherwise), so that
    `float(p)` never overflows.  1/p, float(p), float(1/p) and the hash are
    kept; the conjugate is kept once asked for.
    """

    __slots__ = ("_frac", "_recip", "_float", "_float_recip", "_hash", "_conj")

    def __new__(cls, value):
        if isinstance(value, Exponent):
            return value
        if isinstance(value, (str, int, float, Fraction)):
            return _parse_cached(value)
        return _parse(value)

    @classmethod
    def _of(cls, frac: Fraction | None) -> "Exponent":
        self = object.__new__(cls)
        self._frac, self._hash, self._conj = frac, hash(frac), None
        if frac is None:
            self._recip, self._float = Fraction(0), math.inf
        else:
            self._recip, self._float = 1 / frac, float(frac)
        self._float_recip = float(self._recip)
        return self

    def __reduce__(self):
        return Exponent, (str(self),)

    @property
    def is_inf(self) -> bool:
        return self._frac is None

    @property
    def fraction(self) -> Fraction:
        if self._frac is None:
            raise BadExponent("infinite exponent has no finite value")
        return self._frac

    def reciprocal(self) -> Fraction:
        """1/p as an exact rational; 0 for p = inf."""
        return self._recip

    def float_reciprocal(self) -> float:
        """float(1/p), kept: 0.0 for p = inf."""
        return self._float_recip

    def conjugate(self) -> "Exponent":
        """The dual exponent p* with 1/p + 1/p* = 1."""
        if self._conj is None:
            if self._frac is None:
                self._conj = Exponent(1)
            elif self._frac == 1:
                self._conj = INF
            else:
                self._conj = Exponent(self._frac / (self._frac - 1))
        return self._conj

    def scaled(self, k) -> "Exponent":
        """k * p (inf stays inf)."""
        if self._frac is None:
            return INF
        return Exponent(self._frac * Fraction(k))

    def __float__(self) -> float:
        return self._float

    # Comparisons read float(p) first: rounding is monotone, so floats that
    # differ order the exact values; only a float tie reads the rationals.
    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, Exponent):
            try:
                other = Exponent(other)
            except BadExponent:
                return NotImplemented
        return self._float == other._float and self._frac == other._frac

    def __hash__(self):
        return self._hash

    def __le__(self, other):
        other = other if isinstance(other, Exponent) else Exponent(other)
        a, b = self._float, other._float
        return a < b if a != b else self._recip >= other._recip

    def __lt__(self, other):
        other = other if isinstance(other, Exponent) else Exponent(other)
        a, b = self._float, other._float
        return a < b if a != b else self._recip > other._recip

    def __ge__(self, other):
        return not self < other

    def __gt__(self, other):
        return not self <= other

    def __repr__(self):
        return f"Exponent({str(self)!r})"

    def __str__(self):
        return "inf" if self._frac is None else str(self._frac)


def _parse(value) -> Exponent:
    """A new Exponent from a string, a number or anything Fraction accepts."""
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("inf", "infinity", "oo"):
            return Exponent._of(None)
        try:
            frac = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadExponent(f"cannot parse exponent {value!r}") from exc
    elif isinstance(value, float) and math.isinf(value):
        return Exponent._of(None)
    else:
        try:
            frac = Fraction(value)
        except (TypeError, ValueError) as exc:
            raise BadExponent(f"cannot interpret exponent {value!r}") from exc
    if frac < 1:
        raise BadExponent(f"exponent {value!r} is below 1")
    try:
        float(frac)
    except OverflowError as exc:
        raise BadExponent(f"exponent {value!r} is too large for a float") from exc
    return Exponent._of(frac)


_parse_cached = lru_cache(maxsize=64, typed=True)(_parse)

INF = Exponent("inf")


def require_order(p: Exponent, q: Exponent) -> None:
    """Enforce q <= p (the only regime where composition operators behave)."""
    if q > p:
        raise ExponentOrder(f"need q <= p, got q = {q} > p = {p}")


@lru_cache(maxsize=64, typed=True)
def holder_complement(p, q) -> Exponent:
    """The exponent r with 1/q = 1/p + 1/r; r = inf when p = q."""
    p, q = Exponent(p), Exponent(q)
    require_order(p, q)
    inv_r = q.reciprocal() - p.reciprocal()
    if inv_r == 0:
        return INF
    return Exponent(1 / inv_r)


@lru_cache(maxsize=64, typed=True)
def ratio(p, q) -> Exponent:
    """p/q with the convention inf/inf = 1."""
    p, q = Exponent(p), Exponent(q)
    if p.is_inf and q.is_inf:
        return Exponent(1)
    if p.is_inf:
        return INF
    if q.is_inf:
        raise ExponentOrder(f"ratio p/q undefined for finite p = {p}, q = inf")
    return Exponent(p.fraction / q.fraction)
