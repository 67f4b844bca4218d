"""Finite multiplicity evidence on a coarse desk mesh.

For the a - b A(u) coefficient the energy can never exceed a^2/(2b), so
higher critical values pile up just under that ceiling with K(u) -> 0+.
The search below finds four orbits: the one-signed ground orbit and orbits
with one, two and three sign changes, whose Morse indices are 1 to 4.  The
highest sits 0.05% below the ceiling.
"""

import numpy as np

from pxkirchhoff import (
    KirchhoffProblem,
    NonlinearitySpec,
    build_interval_mesh,
    constant_exponent,
    multiplicity_search,
)

mesh = build_interval_mesh(12, 0.0, 1.0)
p = constant_exponent(2.0, mesh)
q = constant_exponent(4.5, mesh)
prob = KirchhoffProblem(1.0, 0.1, 0.0, p, NonlinearitySpec("pure_power", q, theta=3.2), mesh)
print(f"ceiling a^2/(2b) = {prob.ps_ceiling:g}")

reports = multiplicity_search(prob, n_starts=8, k_max=4, seed=0)
print(f"{len(reports)} distinct orbits (each stands for a pair u, -u):")
for i, rep in enumerate(reports):
    u = rep.solution.nodal_values
    sign_changes = int(np.sum(np.diff(np.sign(u[np.abs(u) > 1e-8])) != 0))
    print(f"  orbit {i}: energy {rep.energy:.6f}  K(u) {rep.nonlocal_coefficient:.6f}  "
          f"sign changes {sign_changes}  Morse index {rep.morse_index}  "
          f"residual {rep.residual_norm:.1e}")

gap = prob.ps_ceiling - reports[-1].energy
print(f"highest orbit sits {gap:.2e} below the ceiling; its K is already "
      f"{reports[-1].nonlocal_coefficient:.1e}")
