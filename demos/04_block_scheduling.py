"""Block plans: identical results, different wall time.

The per-node work of a sweep factors into N_b blocks of N_f nodes
(N_b * N_f = number of state nodes), processed one after another.  Every
plan produces bitwise identical equilibria, so the plan only sets how
many nodes each batched kernel call handles.  Which plan is fastest
depends on the machine and array sizes; the bench-blocks command exists
to measure that, and this demo shows a small slice of it.

Run:  python demos/04_block_scheduling.py
"""

import time
import warnings

import numpy as np

import chebnash as cn

spec = cn.preset_spec("example3", Np=7, Nu=7, rho=0.5, h=1e-2, tol=1e-3)
n_nodes = int(np.prod(spec.Np + 1))
print(f"three players, degree 7 in every state dimension: {n_nodes} nodes")

reference = None
print(f"\n{'N_b':>5} {'N_f':>5} {'seconds':>8} {'sweeps':>7} {'bitwise':>8}")
for nb in (1, 4, 16, 64):
    plan = cn.partition(n_nodes, nb)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = cn.solve(spec, plan=plan)
    dt = time.perf_counter() - t0
    if reference is None:
        reference = result
        same = "ref"
    else:
        same = str(
            np.array_equal(result.values.values, reference.values.values)
            and np.array_equal(result.policy.values, reference.policy.values)
        )
    print(f"{nb:>5} {plan.block_size:>5} {dt:8.2f} {result.iterations:>7} {same:>8}")

print("\nevery row solves the same fixed point; only the wall time moves.")
print("fewer, larger blocks usually win, because each block pays a fixed")
print("per-call overhead; see the bench-blocks command for a full sweep.")
