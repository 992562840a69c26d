"""Feedback equilibrium of the two-player pollution game, plus trajectories.

Uses a faster-discounting variant of the two-player layout so the demo
finishes in seconds; the benchmark settings (h=1e-3, tol=1e-6) behave the
same way, just with more sweeps.

Run:  python demos/02_equilibrium_two_players.py
"""

import warnings

import numpy as np

import chebnash as cn

spec = cn.preset_spec("example1", rho=0.5, h=5e-3, tol=1e-7, Np=6)
print("two players, shared boundary, isolated from outside")
print(f"discount rate {spec.rho}, step {spec.h}, per-step factor {spec.delta}")

with warnings.catch_warnings():
    warnings.simplefilter("ignore", RuntimeWarning)
    result = cn.solve(spec)
print(f"\nconverged: {result.converged} after {result.iterations} sweeps and "
      f"{result.evaluations} exact policy evaluations "
      f"({result.timings['total']:.2f} s)")
print(f"final Bellman residual per player: {result.history[-1]}")

grid = cn.build_state_grid(spec)
print("\nequilibrium emission at a few states (player 1):")
print(f"{'p1':>6} {'p2':>6} {'u1*':>10} {'u2*':>10}")
for j in (0, 10, 24, 48, grid.n_nodes - 1):
    p = grid.nodes[j]
    print(f"{p[0]:6.3f} {p[1]:6.3f} {result.policy.values[0, j]:10.6f} "
          f"{result.policy.values[1, j]:10.6f}")

n = spec.Np[0] + 1
u1 = result.policy.values[0].reshape(n, n, order="F")
u2 = result.policy.values[1].reshape(n, n, order="F")
print("\nplayer-exchange symmetry max |u1(p1,p2) - u2(p2,p1)|:",
      f"{np.max(np.abs(u1 - u2.T)):.2e}")

print("\nclosed-loop trajectories from a clean environment (p0 = 0):")
policies = cn.fit_policy(grid, result.policy)
path = cn.simulate(spec, policies, np.zeros(2), n_steps=4000)
print(f"{'t':>6} {'p1':>9} {'p2':>9} {'u1':>9} {'u2':>9}")
for k in range(0, 4001, 800):
    print(f"{path.t[k]:6.1f} {path.states[k, 0]:9.5f} {path.states[k, 1]:9.5f} "
          f"{path.controls[k, 0]:9.5f} {path.controls[k, 1]:9.5f}")
print("\nstocks settle at the stationary point of the feedback dynamics;")
print("emissions start at the myopic level and fall as pollution builds up.")

payoff = cn.discounted_payoff(spec, path.states, path.controls, 4000)
print(f"\ntruncated discounted payoffs from p0=0: {np.round(payoff, 6)}")
print(f"value function at the origin node:      "
      f"{np.round(result.values.values[:, grid.n_nodes - 1], 6)}")
