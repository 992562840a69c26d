"""Tour of the Chebyshev machinery: nodes, transforms, derivatives, tensors.

A 1-D interpolant is the one-axis case of the tensor-product one: it is
fitted with ``tensor_coeffs(samples, (basis,))`` and evaluated with the
Chebyshev rows of ``basis_matrix``.

Run:  python demos/01_interpolation_basics.py
"""

import numpy as np

import chebnash as cn
from chebnash.cheb1d import derivative_array, to_reference

print("=" * 64)
print("1-D interpolation on an interval")
print("=" * 64)

basis = cn.make_basis(10, 0.0, 2.0)
print(f"degree {basis.degree} basis on [{basis.a}, {basis.b}]")
print("first nodes (descending):", np.round(basis.nodes[:4], 6), "...")

coef = cn.tensor_coeffs(np.sin(3.0 * basis.nodes), (basis,)).coefficients
xs = np.linspace(0.0, 2.0, 7)
approx = cn.basis_matrix(to_reference(basis, xs), basis.degree) @ coef
print(f"{'x':>6} {'sin(3x)':>12} {'interpolant':>12} {'error':>10}")
for x, a in zip(xs, approx):
    print(f"{x:6.3f} {np.sin(3 * x):12.8f} {a:12.8f} {abs(a - np.sin(3 * x)):10.2e}")

print("\nconvergence of the max error with the degree:")
grid = np.linspace(0.0, 2.0, 1001)
for n in (4, 8, 12, 16, 20):
    b = cn.make_basis(n, 0.0, 2.0)
    c = cn.tensor_coeffs(np.sin(3.0 * b.nodes), (b,)).coefficients
    err = np.max(np.abs(cn.basis_matrix(to_reference(b, grid), n) @ c - np.sin(3.0 * grid)))
    print(f"  degree {n:2d}: {err:9.2e}")

print("\nderivative in coefficient space (chain-rule factor 2/(b-a)):")
dcoef = derivative_array(coef)
scale = 2.0 / (basis.b - basis.a)
dx = scale * (cn.basis_matrix(to_reference(basis, xs), basis.degree - 1) @ dcoef)
print("max |d/dx - 3 cos(3x)| on the sample points:",
      f"{np.max(np.abs(dx - 3.0 * np.cos(3.0 * xs))):.2e}")

print()
print("=" * 64)
print("tensor-product interpolation and batched evaluation")
print("=" * 64)

rng = np.random.default_rng(0)
bases = (cn.make_basis(6, -1.0, 1.0), cn.make_basis(5, -1.0, 1.0))
gx, gy = np.meshgrid(bases[0].nodes, bases[1].nodes, indexing="ij")
surface = np.exp(-(gx**2) - 0.5 * gy**2)
tensor = cn.tensor_coeffs(surface, bases)
pt = rng.uniform(-1, 1, 2)
print(f"surface exp(-x^2 - y^2/2) at {np.round(pt, 3)}:",
      f"interpolant {cn.eval_full(tensor, pt):.8f}",
      f"exact {np.exp(-pt[0]**2 - 0.5 * pt[1]**2):.8f}")

# bind x at 5 points in one contraction with the Chebyshev rows of x:
# row j holds the coefficients in y of the surface restricted to x = xs5[j]
xs5 = rng.uniform(-1, 1, 5)
rows = cn.basis_matrix(xs5, bases[0].degree) @ tensor.coefficients
print(f"\nbinding x at 5 points in one contraction gives a {rows.shape} array")
print("of coefficients in y; residual of each restricted curve at y = 0.3")
print("versus evaluating the full surface point by point:")
worst = 0.0
for x, row in zip(xs5, rows):
    curve = cn.CoefTensor(bases[1:], row)
    worst = max(worst, abs(cn.eval_full(curve, [0.3]) - cn.eval_full(tensor, [x, 0.3])))
print(f"  max residual: {worst:.2e}")
