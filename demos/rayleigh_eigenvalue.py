"""Rayleigh-quotient eigenvalue estimates and their domain scaling."""

import numpy as np

from pxkirchhoff import (
    MaxIterations,
    build_exponent_field,
    build_interval_mesh,
    constant_exponent,
    rayleigh_quotient_min,
)

for length in (1.0, 2.0):
    mesh = build_interval_mesh(200, 0.0, length)
    p = constant_exponent(2.0, mesh)
    ray = rayleigh_quotient_min(p, mesh, seed=0)
    exact = (np.pi / length) ** 2
    print(f"(0, {length:g}), p = 2: lambda = {ray.value:.6f}  (pi/L)^2 = {exact:.6f}  "
          f"rel err {abs(ray.value - exact) / exact:.2e}  "
          f"(residual {ray.residual:.1e} after {ray.steps} steps)")

# variable exponent: positivity of the infimum hinges on monotonicity of p.
# For a monotone p there is a clean local minimum.  For a non-monotone p the
# 1-D infimum is zero: R decreases along a whole ray e^s u, and the solver
# says so instead of chasing the infimum.
mesh = build_interval_mesh(200, 0.0, 1.0)
x = mesh.element_centroids[:, 0]
for descr, samples in (
    ("increasing p = 2 + x", 2.0 + x),
    ("decreasing p = 3 - x", 3.0 - x),
    ("non-monotone p = 2 + |x - 0.5|", 2.0 + np.abs(x - 0.5)),
):
    p = build_exponent_field(samples, mesh)
    try:
        lam = rayleigh_quotient_min(p, mesh, seed=0).value
    except MaxIterations as exc:
        print(f"{descr}: {exc}")
        continue
    print(f"{descr}: lambda = {lam:.6f}")
