"""Finite-dimensional weighted L^p structure.

At this scale the weighted noncommutative L^p space is isometric to a
Schatten class: elements are plain block matrices, norms are Schatten norms,
and the weight enters only through the symmetric embeddings
a -> h^{1/(2p)} a h^{1/(2p)}.  The embedding with equal half-powers on both
sides is the positivity-preserving one, which is why it is the only one
implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExponentMismatch, ProfileMismatch
from .exponents import Exponent, coerce, holder_complement, require_order
from .matcore import BlockMatrix, schatten_norm
from .vnops import Weight


@dataclass(frozen=True)
class LpElement:
    """A block matrix tagged with its exponent. The ambient weight is contextual."""

    matrix: BlockMatrix
    p: Exponent

    def norm(self) -> float:
        return schatten_norm(self.matrix, self.p)

    def adjoint(self) -> "LpElement":
        return LpElement(self.matrix.adjoint(), self.p)


@dataclass(frozen=True)
class ExponentTriple:
    """Exponents (p, q, r) with 1/q = 1/p + 1/r, plus the conjugate p*."""

    p: Exponent
    q: Exponent
    r: Exponent
    p_conj: Exponent

    @classmethod
    def from_pq(cls, p, q) -> "ExponentTriple":
        p, q = coerce(p), coerce(q)
        require_order(p, q)
        return cls(p=p, q=q, r=holder_complement(p, q), p_conj=p.conjugate())

    def __post_init__(self):
        if self.q.reciprocal() - self.p.reciprocal() - self.r.reciprocal() != 0:
            raise ExponentMismatch(
                f"1/{self.q} != 1/{self.p} + 1/{self.r}"
            )


def embed(w: Weight, a: BlockMatrix, p) -> LpElement:
    """Symmetric embedding a -> h^{1/(2p)} a h^{1/(2p)}; the identity at p = inf.

    Positivity preserving: a >= 0 lands on a positive element.
    """
    p = coerce(p)
    if a.profile != w.profile:
        raise ProfileMismatch("element and weight profiles differ")
    if p.is_inf:
        return LpElement(a, p)
    w.require_faithful("symmetric embedding")
    half = w.power(p.reciprocal() / 2)
    return LpElement(half @ a @ half, p)


def unembed(w: Weight, x: LpElement) -> BlockMatrix:
    """Inverse embedding h^{-1/(2p)} . h^{-1/(2p)} (bijective: h is invertible)."""
    if x.p.is_inf:
        return x.matrix
    w.require_faithful("inverse embedding")
    half = w.power(-x.p.reciprocal() / 2)
    return half @ x.matrix @ half


def kosaki_embed(w: Weight, x: LpElement) -> LpElement:
    """The L^p -> L^1 embedding x -> h^{1/(2p*)} x h^{1/(2p*)} (p > 1).

    Exponent arithmetic makes it match the symmetric embeddings exactly:
    1/(2p) + 1/(2p*) = 1/2, so embedded elements of L^p land where the
    direct L^1 embedding would put them.
    """
    if not x.p > Exponent(1):
        raise ExponentMismatch("Kosaki embedding needs p > 1")
    w.require_faithful("Kosaki embedding")
    half = w.power(x.p.conjugate().reciprocal() / 2)
    return LpElement(half @ x.matrix @ half, Exponent(1))


def tr(x: LpElement) -> complex:
    """The trace functional on L^1: the plain matrix trace."""
    if x.p != Exponent(1):
        raise ExponentMismatch("trace functional is defined on L^1")
    return x.matrix.trace()


def holder_check(x: LpElement, y: LpElement, triple: ExponentTriple):
    """Both sides of the Holder inequality ||xy||_q <= ||x||_p ||y||_r.

    Returns (lhs, rhs); the tolerance policy is left to the caller.
    """
    if x.p != triple.p or y.p != triple.r:
        raise ExponentMismatch(
            f"expected exponents ({triple.p}, {triple.r}), got ({x.p}, {y.p})"
        )
    lhs = schatten_norm(x.matrix @ y.matrix, triple.q)
    rhs = schatten_norm(x.matrix, triple.p) * schatten_norm(y.matrix, triple.r)
    return lhs, rhs
