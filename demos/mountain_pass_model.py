"""Mountain-pass solve of the model problem, end to end.

-(a - b A(u)) u'' = |u|^{q-2} u on (0, 1) with a = 1, b = 0.1, q = 4.5:
sample the pass geometry, find the maximum of the energy on the ray of the
negative-energy point, run Newton's method from that peak (descent steps
on the ray maximum are the fallback if it cannot certify a point no higher
than that peak), and certify the result as a critical point of
mountain-pass type (Morse index 1).
"""

import numpy as np

from pxkirchhoff import (
    KirchhoffProblem,
    NonlinearitySpec,
    build_interval_mesh,
    constant_exponent,
    gradient_J,
    mountain_pass_solve,
    sobolev_norm,
    verify_mountain_geometry,
)

mesh = build_interval_mesh(100, 0.0, 1.0)
p = constant_exponent(2.0, mesh)
q = constant_exponent(4.5, mesh)
prob = KirchhoffProblem(1.0, 0.1, 0.0, p, NonlinearitySpec("pure_power", q, theta=3.2), mesh)
print(f"compactness ceiling a^2/(2b) = {prob.ps_ceiling:g}")

geo = verify_mountain_geometry(prob, [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0], 20, seed=0)
print(f"geometry: sampled minimum alpha = {geo.alpha:.4f} on the sphere rho = {geo.rho:g}, "
      f"J(e) = {geo.negative_energy:.3f} at |e| = {sobolev_norm(geo.negative_point, p):.3f}")

report = mountain_pass_solve(prob, geo.negative_point, tol=1e-6)
print(f"converged in {report.iterations} descent steps and {report.newton_steps} Newton steps:")
print(f"  energy c = {report.energy:.8f}  (below ceiling: {report.below_ps_ceiling})")
print(f"  residual |J'(u*)| = {report.residual_norm:.2e}")
print(f"  nonlocal coefficient K(u*) = {report.nonlocal_coefficient:.5f}")
print(f"  amplitude max|u*| = {np.max(np.abs(report.solution.nodal_values)):.5f}")
print(f"  Morse index {report.morse_index} (no eigenvalue within {report.morse_margin:g} of 0)")

recheck = gradient_J(report.solution, prob)
print("  residual recheck:", np.linalg.norm(recheck.nodal_values[mesh.interior]))

print("last five recorded ray maxima:",
      [f"{e:.6f}" for e in report.path_energies[-5:]])
