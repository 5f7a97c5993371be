"""Build composition operators from tile morphisms and bound their norms."""

import numpy as np

from nclp import (
    BlockMatrix,
    BlockProfile,
    JordanMorphismSpec,
    Tile,
    Weight,
    build_composition,
    change_of_weights,
    change_of_weights_scale,
    decompose,
    operator_norm,
    pushforward_density,
    splitting_inequality_check,
)

profile = BlockProfile([2])

# A morphism in tile form: copy M_2 once as written (H) and once transposed
# (A) into diagonal corners of M_4.
big = BlockProfile([4])
J = JordanMorphismSpec(profile, big, [Tile(0, 0, 0, "H"), Tile(0, 0, 2, "A")])
w1 = Weight.diagonal(profile, [0.6, 0.4])
w2 = Weight.diagonal(big, [0.4, 0.3, 0.2, 0.1])

C = build_composition(J, w1, w2, 2, 1)
est = operator_norm(C, restarts=8, seed=0)
# J copies the block both as written and transposed, so neither C_J nor C_J
# after a transpose is completely positive: the maximiser's lower bound.
print(f"||C_J: L^2 -> L^1|| >= {est.lower_bound:.6f} ({est.status})")

# The transposed copy alone is completely positive after a transpose, so its
# norm at q = 1 is the closed form ||C#(1)||_(p*).
A = JordanMorphismSpec(profile, big, [Tile(0, 0, 2, "A")])
est_a = operator_norm(build_composition(A, w1, w2, 2, 1))
print(f"||C_A: L^2 -> L^1|| = {est_a.lower_bound:.6f} ({est_a.status})")

# At p = q = 2 the norm is exact: the top singular value of the matrix form.
C22 = build_composition(J, w1, w2, 2, 2)
print(f"||C_J: L^2 -> L^2|| = {operator_norm(C22).lower_bound:.6f} (certified)")

# The decomposition splits J into its multiplicative part (under z) and its
# antimultiplicative part, with matching pushforward densities.
dec = decompose(J, w2)
print("z diagonal:", np.round(np.real(np.diagonal(dec.z.matrix.blocks[0])), 6))
print("h_J = h_z + h_(1-z) gap:",
      f"{(dec.weight_total.rho - dec.weight_hom.rho - dec.weight_anti.rho).fro_norm():.2e}")

# The splitting inequality for the commuting summands, per exponent.
for q in (1, 2, 3):
    rep = splitting_inequality_check(dec.weight_total, dec.weight_hom, dec.weight_anti, q)
    print(f"  q={q}: min eig of h_z^(1/q) + h_(1-z)^(1/q) - h_J^(1/q) = {rep.min_gap_eigenvalue:.3e}")

# Changing weights: the connecting element d = k^(1/2q) h^(-1/2p) solves the
# problem exactly and ||(d* d)||_r bounds the operator norm from above.
h = Weight.diagonal(profile, [0.5, 0.5])
k = Weight.diagonal(profile, [0.8, 0.2])
cw = change_of_weights(h, k, 2, 1)
measured = operator_norm(cw.operator, restarts=8, seed=1).lower_bound
print(f"\nchange of weights (p,q) = (2,1): bound {cw.bound:.6f}, measured {measured:.6f}")

# The same statement along a whole scale p/q = 2.
report = change_of_weights_scale(h, k, 2, [(2, 1), (4, 2)])
for entry in report.entries:
    print(f"  (p,q) = ({entry.p},{entry.q}): measured {entry.measured:.6f} <= bound {entry.bound:.6f}")

# The pushforward density is what the domain weight becomes after J.
kj = pushforward_density(J, w2)
print("\npushforward density of w2 through J:")
print(np.round(np.real(kj.rho.blocks[0]), 6))
