import math
from fractions import Fraction

import pytest

from nclp.errors import BadExponent, ExponentOrder
from nclp.exponents import INF, Exponent, holder_complement, ratio


def test_parse_forms():
    assert Exponent("2") == Exponent(2)
    assert Exponent("1.5") == Exponent(Fraction(3, 2))
    assert Exponent("inf").is_inf
    assert Exponent(float("inf")).is_inf
    assert float(Exponent("3")) == 3.0
    assert math.isinf(float(INF))


def test_below_one_rejected():
    with pytest.raises(BadExponent):
        Exponent(0.5)
    with pytest.raises(BadExponent):
        Exponent("0.99")


def test_too_large_for_a_float_rejected():
    # an exact rational past the float range would overflow in float(p)
    for value in ("1e400", 10 ** 400, Fraction(10 ** 309, 3)):
        with pytest.raises(BadExponent):
            Exponent(value)
    assert float(Exponent("1e300")) == 1e300


def test_conjugate_pairs():
    assert Exponent(2).conjugate() == Exponent(2)
    assert Exponent(1).conjugate().is_inf
    assert INF.conjugate() == Exponent(1)
    assert Exponent("1.5").conjugate() == Exponent(3)
    p = Exponent("2.7")
    assert p.reciprocal() + p.conjugate().reciprocal() == 1


def test_order_and_ratio():
    assert Exponent(1) < Exponent("1.5") < Exponent(2) < INF
    assert ratio(INF, INF) == Exponent(1)
    assert ratio(Exponent(3), Exponent("1.5")) == Exponent(2)
    assert ratio(INF, Exponent(2)).is_inf


def test_holder_complement_exact():
    # p = q must give r = inf exactly, not a float blow-up
    assert holder_complement(Exponent(2), Exponent(2)).is_inf
    assert holder_complement(Exponent(2), Exponent(1)) == Exponent(2)
    assert holder_complement(Exponent(3), Exponent("1.5")) == Exponent(3)
    assert holder_complement(INF, Exponent(2)) == Exponent(2)
    with pytest.raises(ExponentOrder):
        holder_complement(Exponent(1), Exponent(2))


def test_reciprocal_is_computed_once(monkeypatch):
    p, q = Exponent("3"), Exponent(Exponent("3/2"))
    assert (p.reciprocal(), q.reciprocal(), INF.reciprocal()) == (Fraction(1, 3), Fraction(2, 3), 0)
    divisions = []
    div = Fraction.__truediv__
    monkeypatch.setattr(Fraction, "__truediv__", lambda a, b: divisions.append(1) or div(a, b))
    monkeypatch.setattr(Fraction, "__rtruediv__", lambda a, b: divisions.append(1) or div(b, a))
    assert q <= p and not p < q and INF > p and p >= p and p.reciprocal() is p.reciprocal()
    assert divisions == []
