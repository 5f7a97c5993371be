"""Walk through the weighted L^p carrier: norms, embeddings, Holder duality."""

import numpy as np

from nclp import (
    BlockMatrix,
    BlockProfile,
    ExponentTriple,
    Weight,
    embed,
    holder_check,
    kosaki_embed,
    schatten_norm,
    tr,
    unembed,
)

rng = np.random.default_rng(1)

# The algebra is a direct sum of matrix blocks, here M_2 (+) M_3.
profile = BlockProfile([2, 3])
g = lambda n: rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
a = BlockMatrix(profile, [g(2), g(3)])

print("Schatten norms of a random element:")
for p in (1, 1.5, 2, 4, "inf"):
    print(f"  ||a||_{p} = {schatten_norm(a, p):.6f}")
print("  (nonincreasing in p, as expected)\n")

# A weight is a positive density; faithful means positive definite.
w = Weight(BlockMatrix(profile, [
    np.diag([0.4, 0.2]), np.diag([0.2, 0.1, 0.1]),
]))
print(f"weight total mass: {w.total():.3f}, faithful: {w.is_faithful}")

# The symmetric embedding a -> h^(1/2p) a h^(1/2p) carries the algebra into
# L^p; it is positivity preserving and invertible at finite dimension.
x = embed(w, a, 2)
print(f"||embed(a, 2)||_2 = {x.norm():.6f}")
back = unembed(w, x)
print(f"round trip error: {(back - a).fro_norm():.2e}")

# The trace functional on L^1 recovers the weight.
print(f"tr(embed(a,1)) = {tr(embed(w, a, 1)):.6f}")
print(f"phi(a)         = {w.value(a):.6f}")

# Kosaki's map lowers any exponent to 1, consistently with the embeddings.
gap = (kosaki_embed(w, embed(w, a, 3)).matrix - embed(w, a, 1).matrix).fro_norm()
print(f"Kosaki consistency gap at p=3: {gap:.2e}\n")

# Holder's inequality on the weighted carrier, with an equality witness.
triple = ExponentTriple.from_pq(2, 1)
y = BlockMatrix(profile, [g(2), g(3)])
lhs, rhs = holder_check(embed(w, a, 2), embed(w, y, 2), triple)
print(f"Holder check: ||xy||_1 = {lhs:.6f} <= ||x||_2 ||y||_2 = {rhs:.6f}")
one = BlockMatrix.identity(profile)
lhs_eq, rhs_eq = holder_check(
    embed(Weight(one), one, 2), embed(Weight(one), one, 2), triple
)
print(f"equality case (identities): {lhs_eq:.1f} = {rhs_eq:.1f}")
