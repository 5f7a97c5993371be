"""Exact exponent arithmetic for the L^p machinery.

Exponents live in [1, inf].  Finite values are kept as exact rationals so
that derived quantities (conjugates, Holder complements, ratios) carry no
float error: p = q must give r = inf exactly, never an overflowing float.
Infinity is a distinct case of the type, never a float sentinel.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BadExponent, ExponentOrder


class Exponent:
    """A point of [1, inf]; finite values stored as `Fraction`, inf as None.

    A finite value must fit in a float (BadExponent otherwise), so that
    `float(p)` never overflows.  1/p, which every comparison reads, is kept.
    """

    __slots__ = ("_frac", "_recip")

    def __init__(self, value):
        if isinstance(value, Exponent):
            self._frac, self._recip = value._frac, value._recip
            return
        if isinstance(value, str):
            text = value.strip().lower()
            if text in ("inf", "infinity", "oo"):
                self._frac, self._recip = None, Fraction(0)
                return
            try:
                frac = Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise BadExponent(f"cannot parse exponent {value!r}") from exc
        elif isinstance(value, float) and math.isinf(value):
            self._frac, self._recip = None, Fraction(0)
            return
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
        self._frac, self._recip = frac, 1 / frac

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

    def conjugate(self) -> "Exponent":
        """The dual exponent p* with 1/p + 1/p* = 1."""
        if self._frac is None:
            return Exponent(1)
        if self._frac == 1:
            return INF
        return Exponent(self._frac / (self._frac - 1))

    def scaled(self, k) -> "Exponent":
        """k * p (inf stays inf)."""
        if self._frac is None:
            return INF
        return Exponent(self._frac * Fraction(k))

    def __float__(self) -> float:
        return math.inf if self._frac is None else float(self._frac)

    def __eq__(self, other):
        if not isinstance(other, Exponent):
            try:
                other = Exponent(other)
            except BadExponent:
                return NotImplemented
        return self._frac == other._frac

    def __hash__(self):
        return hash(self._frac)

    def __le__(self, other):
        other = other if isinstance(other, Exponent) else Exponent(other)
        return self._recip >= other._recip

    def __lt__(self, other):
        other = other if isinstance(other, Exponent) else Exponent(other)
        return self._recip > other._recip

    def __ge__(self, other):
        return not self < other

    def __gt__(self, other):
        return not self <= other

    def __repr__(self):
        return f"Exponent({str(self)!r})"

    def __str__(self):
        return "inf" if self._frac is None else str(self._frac)


INF = Exponent("inf")


def coerce(value) -> Exponent:
    """Accept Exponent, number or string and return an Exponent."""
    return value if isinstance(value, Exponent) else Exponent(value)


def require_order(p: Exponent, q: Exponent) -> None:
    """Enforce q <= p (the only regime where composition operators behave)."""
    if q > p:
        raise ExponentOrder(f"need q <= p, got q = {q} > p = {p}")


def holder_complement(p: Exponent, q: Exponent) -> Exponent:
    """The exponent r with 1/q = 1/p + 1/r; r = inf when p = q."""
    require_order(p, q)
    inv_r = q.reciprocal() - p.reciprocal()
    if inv_r == 0:
        return INF
    return Exponent(1 / inv_r)


def ratio(p: Exponent, q: Exponent) -> Exponent:
    """p/q with the convention inf/inf = 1."""
    if p.is_inf and q.is_inf:
        return Exponent(1)
    if p.is_inf:
        return INF
    if q.is_inf:
        raise ExponentOrder(f"ratio p/q undefined for finite p = {p}, q = inf")
    return Exponent(p.fraction / q.fraction)
