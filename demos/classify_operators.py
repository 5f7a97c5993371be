"""Recognise composition operators among raw maps between L^p carriers.

Composition operators are exactly the bounded maps that send embedded
projections to embedded projections; the classifier decides that exactly,
as the Jordan laws on every pair of matrix units, and on success
reconstructs the inducing morphism in tile form.
"""

import numpy as np

from nclp import (
    BlockMatrix,
    BlockProfile,
    SuperOperator,
    Weight,
    build_composition,
    classify_characteristic_preserving,
    random_morphism,
)
from nclp.sampling import psd

rng = np.random.default_rng(7)
spec = random_morphism(rng, profile1=BlockProfile([2, 2]))
print("hidden morphism:", spec.profile1.dims, "->", spec.profile2.dims)
for t in spec.tiles:
    print(f"  tile src={t.src} dst={t.dst} offset={t.offset} kind={t.kind}")

w1 = Weight(psd(spec.profile1, rng, eps=0.2))
w2 = Weight(psd(spec.profile2, rng, eps=0.2))

# Hand the classifier only the raw matrix of the operator.
C = build_composition(spec, w1, w2, 2, 1)
raw = SuperOperator.from_matrix(spec.profile1, spec.profile2, 2, 1, C.matrix())
result = classify_characteristic_preserving(raw, w1, w2)
print(f"\nverdict: {result.verdict}")
print("recovered tiles:")
for t in result.morphism.tiles:
    print(f"  tile src={t.src} dst={t.dst} offset={t.offset} kind={t.kind}")

# The recovered morphism reproduces the hidden one pointwise.
worst = 0.0
for s, size in enumerate(spec.profile1.dims):
    for i in range(size):
        for j in range(size):
            u = BlockMatrix.matrix_unit(spec.profile1, s, i, j)
            worst = max(worst, (result.morphism.apply(u) - spec.apply(u)).fro_norm())
print(f"max basis gap between hidden and recovered morphism: {worst:.2e}")

# A small perturbation breaks projection preservation and is refused,
# with a concrete witness projection.
noise = 0.05 * (rng.standard_normal(C.matrix().shape)
                + 1j * rng.standard_normal(C.matrix().shape))
bad = SuperOperator.from_matrix(spec.profile1, spec.profile2, 2, 1, C.matrix() + noise)
verdict = classify_characteristic_preserving(bad, w1, w2)
print(f"\nperturbed operator: {verdict.verdict}")
print(f"witness projection residual: {verdict.witness[2]:.3e}")
