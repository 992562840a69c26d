"""Collocation solver versus the exact linear-feedback equilibrium.

Without the control bounds the discounted Bellman update maps quadratic
values and affine feedbacks to the same family, so its fixed point can be
computed exactly in coefficient space, by best-response iteration on the
feedback gains.  Where that feedback stays inside the control box, the oracle
gives a true policy error for the collocation solver at each degree (the
solver also starts from it).

Run:  python demos/03_closed_form_benchmark.py
"""

import time
import warnings

import numpy as np

import chebnash as cn

base = dict(rho=0.5, h=5e-3, tol=1e-7)
spec0 = cn.preset_spec("example1", **base)
fb = cn.lq_solve(spec0)
print("closed-form feedback u_i(p) = e_i + f_i . p")
print(f"  e = {np.round(fb.e, 6)}")
print(f"  f = {np.round(fb.f, 6)}")
print(f"  unconstrained feedback negative on {fb.negative_fraction:.1%} of grid nodes")
print(f"  (fixed point reached in {fb.iterations} gain steps)")

print("\npolicy error of the collocation solver by state degree:")
print(f"{'degree':>7} {'nodes':>6} {'error':>12} {'sweeps':>7} {'seconds':>8}")
for degree in (2, 3, 4, 6, 8):
    spec = cn.preset_spec("example1", Np=degree, **base)
    grid = cn.build_state_grid(spec)
    oracle = cn.lq_solve(spec, grid)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = cn.solve(spec)
    dt = time.perf_counter() - t0
    err = cn.policy_error(result.policy, oracle, grid)
    print(f"{degree:>7} {grid.n_nodes:>6} {err:12.3e} {result.iterations:>7} {dt:8.2f}")

print("\nthe error is the aggregate policy discrepancy sqrt(sum (u*-u)^2)/N.")
print("Here the feedback and its successors stay inside the boxes, so the LQ")
print("equilibrium is also the fixed point of the collocation game at every")
print("degree, and the solver, which maximises each player's exact objective,")
print("stops at its start.  What is left is the start's gain tolerance (tol);")
print("the aggregate falls with the degree mostly through its division by N.")
