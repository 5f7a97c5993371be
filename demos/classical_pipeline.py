"""The commutative picture: point maps, the L^r criterion, five factor maps."""

import numpy as np

from nclp import (
    FiniteMeasureSpace,
    PointMap,
    build_classical,
    criterion,
    diagonal_consistency,
    eps_delta_modulus,
    five_step_pipeline,
    operator_norm,
    pushforward,
    rn_derivative,
)

# Three atoms of mass 1/3 map onto two atoms of mass 1/2: the first two
# atoms both land on 'a', the third on 'b'.
m1 = FiniteMeasureSpace(["a", "b"], [0.5, 0.5])
m2 = FiniteMeasureSpace(["x", "y", "z"], [1 / 3, 1 / 3, 1 / 3])
T = PointMap({"x": "a", "y": "a", "z": "b"})

pushed, support = pushforward(T, m1, m2)
print("pushforward measure m2 o T^-1:", np.round(pushed, 6), "support:", support)
print("derivative d(m2 o T^-1)/d m1:", np.round(rn_derivative(T, m1, m2), 6))

# Boundedness criterion for C_T : L^2(m1) -> L^1(m2).
crit = criterion(T, m1, m2, 2, 1)
print(f"\nr = {crit.r}, ||f||_r = {crit.norm_f:.6f}, bound = {crit.bound:.6f}")

C = build_classical(T, m1, m2, 2, 1)
exact = C.criterion.measured
iterative = operator_norm(C.direct, restarts=6, seed=0, method="alternating").lower_bound
print(f"exact norm {exact:.6f}, alternating maximiser {iterative:.6f}")
print("(for q < p the Lagrange profile attains the bound exactly)")

# The operator factors through five canonical stages; the composite agrees
# with the direct construction and the middle stage is an isometry.
pipe = five_step_pipeline(C)
print(f"\npullback partition of the domain: {pipe.partition.blocks}")
print(f"five-step composite residual: {pipe.composite_residual:.2e}")
print(f"stage-three isometry residual: {pipe.isometry_residual:.2e}")

# Quantitative absolute continuity: the largest usable delta for a given eps.
phi0 = [0.7, 0.1, 0.1, 0.1]
phi1 = [0.25, 0.25, 0.25, 0.25]
print(f"\ndelta*(eps=0.5) = {eps_delta_modulus(phi0, phi1, 0.5)}")
print(f"delta*(eps=0.8) = {eps_delta_modulus(phi0, phi1, 0.8)}")
print(f"delta*(eps=2.0) = {eps_delta_modulus(phi0, phi1, 2.0)}  (never reached)")

# The commutative operator agrees with its diagonal noncommutative encoding.
rep = diagonal_consistency(C)
print(f"\ndiagonal consistency residual: {rep.max_residual:.2e}")
