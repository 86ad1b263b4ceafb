"""The geometric toolkit behind the diagnostics: proximal maps, distances to
the subdifferential d(s, dP(x)), and distances to the inverse image
Gamma_P(g) = {x : -g in dP(x)}.

Gamma_P(g) is where the optimal set lives: the optimal set is the
intersection of {x : A(x) = y_bar} with Gamma_P(g_bar).  Each family admits
an explicit parameterization: per-coordinate intervals for L1 and orthant
constraints, per-group rays for the grouped penalty, and a rotated PSD cone
slice for the nuclear norm.
"""

import numpy as np

from ebound import L1, GroupedLasso, NuclearNorm

# .. soft thresholding and its inverse-image case analysis ..
l1 = L1(1.0)
z = np.array([2.0, -0.5, 1.0])
print("L1 prox of", z, "->", l1.prox(z))
img = l1.inverse_image(np.array([-1.0, 0.3, 1.0]))
# the set is a box: its nearest points to -inf and +inf are its bounds
print("L1 inverse image bounds: lo =", img.project(np.full(3, -np.inf)),
      " hi =", img.project(np.full(3, np.inf)))

# .. grouped penalty: radial shrinkage, ray geometry ..
gl = GroupedLasso([[0, 1]], [1.0])
print("\ngrouped prox of (3, 4) ->", gl.prox(np.array([3.0, 4.0])))
g = np.array([0.6, 0.8])  # ||g|| equals the weight: the inverse image is a ray
print("on the ray:     d =", gl.inverse_image_distance(g, np.array([-0.6, -0.8])))
print("opposite point: d =", gl.inverse_image_distance(g, np.array([0.6, 0.8])))

# .. nuclear norm: singular value shrinkage and the PSD-slice inverse image ..
nn = NuclearNorm()
delta = 0.3
Z = np.array([[2 + delta**2, delta], [delta, 1 + 2 * delta**2]])
print("\nmatrix shrinkage of a matrix dominating the identity subtracts I:")
print(np.array2string(nn.prox(Z), precision=4))

G = -np.diag([1.0, 0.3])
img = nn.inverse_image(G)
print(f"\ninverse image of -G = diag(1, 0.3): {img.s_bar} unit singular value(s)")
print("the set is {diag(z, 0) : z >= 0}; distance from diag(5, 0.2):",
      nn.inverse_image_distance(G, np.diag([5.0, 0.2])))

# .. the subdifferential of the nuclear norm at diag(1, 0) is an interval ..
x = np.diag([1.0, 0.0])
print("\nd(I, d||diag(1,0)||_*)        =", nn.subdiff_distance(x, np.eye(2)))
print("d(diag(1, 2), same set)       =", nn.subdiff_distance(x, np.diag([1.0, 2.0])))
