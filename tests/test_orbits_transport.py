"""Invariant-subspace transport along type-A legs.

Any subspace preserved by the orbit representative spreads down the
chain to a graded invariant subspace, zero iff the seed is zero and
full iff the seed is everything.
"""

import numpy as np

from conftest import rand_complex
from dsirr import linalg
from dsirr.orbits import minimal_marking, realize_leg


def _contains(basis_cols, vecs, rtol=1e-8):
    if basis_cols.shape[1] == 0:
        return np.linalg.norm(vecs) <= rtol
    coef, *_ = np.linalg.lstsq(basis_cols, vecs, rcond=None)
    return np.linalg.norm(basis_cols @ coef - vecs) <= rtol * max(1.0, np.linalg.norm(vecs))


def test_leg_transport_of_invariant_subspace(rng):
    # L preserves its eigenspaces; push one down the chain
    L = np.diag([1.0, 1.0, 3.0, 3.0]).astype(complex)
    L[0, 1] = 1.0  # J_2 at eigenvalue 1
    marking = minimal_marking(L)
    leg = realize_leg(L, marking)
    d = len([v for v in leg.dims if v != "0"])
    s = np.zeros((4, 2), dtype=complex)
    s[0, 0] = 1.0
    s[1, 1] = 1.0  # the generalized 1-eigenspace, L-invariant
    chain = [s]
    for l in range(1, d + 1):
        chain.append(leg.rev[f"{l}>{l-1}"] @ chain[-1])
    # the resulting graded collection is invariant both ways
    for l in range(1, d + 1):
        down = leg.rev[f"{l}>{l-1}"] @ chain[l - 1]
        assert _contains(chain[l], down)
        up = leg.fwd[f"{l}>{l-1}"] @ chain[l]
        assert _contains(chain[l - 1], up)


def test_leg_transport_trivial_cases(rng):
    for _ in range(5):
        n = 3
        g = rand_complex(rng, n, n) + 3 * np.eye(n)
        L = g @ np.diag([2.0, 2.0, -1.0]).astype(complex) @ np.linalg.inv(g)
        leg = realize_leg(L, minimal_marking(L))
        # zero seed stays zero; a cyclic (generating) seed fills everything
        full = np.eye(n, dtype=complex)
        w = full
        for l in range(1, len(leg.dims)):
            w = leg.rev[f"{l}>{l-1}"] @ w
            assert linalg.rank(w) == leg.dims[str(l)]
