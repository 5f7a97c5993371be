import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from nclp.compop import change_of_weights, operator_norm
from nclp.errors import BadExponent, ExponentOrder
from nclp.exponents import INF, Exponent, holder_complement, ratio
from nclp.haagerup import ExponentTriple
from nclp.matcore import BlockMatrix, BlockProfile
from nclp.vnops import Weight


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


def test_floats_that_tie_compare_exactly():
    # float(10**17 + 1) == float(10**17): the exact values decide
    p, q = Exponent(10 ** 17 + 1), Exponent(10 ** 17)
    assert float(p) == float(q)
    assert p != q and q < p and not p <= q and p > q and not q >= p
    assert holder_complement(p, q) == Exponent(10 ** 34 + 10 ** 17)
    assert Exponent("1.0000000000000000001") > Exponent(1)
    assert Exponent("1.0000000000000000001") != 1


def test_one_value_many_inputs():
    forms = [Exponent("3/2"), Exponent(Fraction(3, 2)), Exponent(1.5), Exponent(" 1.5 ")]
    assert all(e == forms[0] for e in forms) and len({hash(e) for e in forms}) == 1
    assert hash(forms[0]) == hash(Fraction(3, 2))
    assert Exponent("3/2") is Exponent("3/2") and Exponent(forms[1]) is forms[1]
    assert (str(forms[2]), repr(forms[2])) == ("3/2", "Exponent('3/2')")
    assert forms[2].fraction == Fraction(3, 2)
    assert float(forms[2]) == 1.5 and float(INF) == math.inf
    assert pickle.loads(pickle.dumps(forms[2])) == forms[2]
    for value in ([2], np.array(2.5)):
        with pytest.raises(BadExponent):
            Exponent(value)


def test_derived_exponents_follow_the_pair():
    # memoised per pair: an entry handed to another pair would show here
    for p, q, r, p_over_q in (("3", "3/2", "3", "2"), ("3", "2", "6", "3/2"), ("4", "2", "4", "2"),
                              ("3", "1", "3/2", "3"), ("inf", "2", "2", "inf"),
                              ("2", "2", "inf", "1"), ("3", "3/2", "3", "2")):
        p, q = Exponent(p), Exponent(q)
        triple = ExponentTriple.from_pq(p, q)
        assert (triple.p, triple.q, triple.r, triple.p_conj) == (p, q, Exponent(r), p.conjugate())
        assert (holder_complement(p, q), ratio(p, q)) == (Exponent(r), Exponent(p_over_q))
        assert ExponentTriple.from_pq(str(p), str(q)) == triple
    with pytest.raises(ExponentOrder):
        ExponentTriple.from_pq("3/2", "3")


def test_derived_exponents_take_any_exponent_value():
    # numbers and strings are read as Exponent(value), as everywhere else
    assert ratio("inf", 3) == INF and ratio("inf", "inf") == Exponent(1)
    assert ratio(3, "3/2") == Exponent(2) and holder_complement(3, 2) == Exponent(6)
    with pytest.raises(ExponentOrder):
        ratio(3, "inf")
    with pytest.raises(BadExponent):
        holder_complement("abc", 2)
    with pytest.raises(ExponentOrder):
        holder_complement(2, 3)


def _diagonal_weight(values):
    return Weight(BlockMatrix(BlockProfile((len(values),)), [np.diag(values).astype(complex)]))


def test_warm_exponent_arithmetic_is_cached(monkeypatch):
    # a change of weights and the norm of its operator at a pair already
    # seen make no Fraction: the triple and its check, the Holder power rho/p
    # and float(1/p) are kept per pair or per exponent
    h, k = _diagonal_weight([0.3, 0.7]), _diagonal_weight([0.6, 0.4])
    operator_norm(change_of_weights(h, k, "3", "3/2").operator)
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(lambda cls, *a, **kw: made.append(1) or new(cls, *a, **kw)))
    counts = []
    for _ in range(2):
        made.clear()
        cw = change_of_weights(h, k, "3", "3/2")
        counts.append(len(made))
        operator_norm(cw.operator)
        counts.append(len(made) - counts[-1])
    assert counts == [0, 0, 0, 0]


def test_exponent_refusals():
    with pytest.raises(ExponentOrder) as info:
        ratio(Exponent(3), INF)
    assert str(info.value) == "ratio p/q undefined for finite p = 3, q = inf"
    with pytest.raises(BadExponent) as info:
        Exponent("inf").fraction
    assert str(info.value) == "infinite exponent has no finite value"
    # a string that is no exponent compares unequal, it does not raise
    assert (Exponent(2) == "abc") is False


def test_comparisons_match_the_exact_rationals():
    # float(p) decides every comparison whose floats differ; pairs whose
    # floats tie, and distinct instances of one value, read the rationals
    from nclp.exponents import _parse

    assert float(10**17 + 1) == float(10**17)
    assert float(Fraction("1.0000000000000000001")) == 1.0
    rng = np.random.default_rng(31)
    values = [Fraction(10**17 + 1), Fraction(10**17), Fraction("1.0000000000000000001"),
              Fraction(1), Fraction(2), Fraction(3, 2), None]
    values += [Fraction(int(n), int(d)) for n, d in rng.integers(1, 40, size=(60, 2)) if n >= d]
    values += [Fraction(v) for v in rng.uniform(1.0, 10.0, size=20)]
    recips = [Fraction(0) if v is None else 1 / v for v in values]
    exps = [INF if v is None else Exponent(v) for v in values]
    twins = [_parse("inf" if v is None else str(v)) for v in values]
    for ra, a, a2 in zip(recips, exps, twins):
        assert a2 is not a and a2 == a and a == a2 and a2 <= a and not a2 < a
        for rb, b in zip(recips, exps):
            assert (a == b) == (ra == rb), (a, b)
            assert (a != b) == (ra != rb), (a, b)
            assert (a <= b) == (ra >= rb), (a, b)
            assert (a < b) == (ra > rb), (a, b)
            assert (a >= b) == (ra <= rb), (a, b)
            assert (a > b) == (ra < rb), (a, b)
            assert (a2 <= b) == (ra >= rb) and (a2 < b) == (ra > rb), (a, b)
