"""Reference states, witnesses, and constructors used throughout the tests
and the command line.

The two named families are classics of the bound-entanglement literature: a
3x3 family that is separable for alpha in [2, 3], entangled with positive
partial transpose for alpha in (3, 4], and NPT outside [1, 4]; and a 4x4
family whose entanglement for small mixing parameter is invisible to the
partial transpose test but caught at level 2.  The 3x3 family comes with
an exact witness whose expectation values on the family are known in
closed form, which gives the test suite an independent oracle.
"""

import functools

import numpy as np

from .hierarchy import DensityMatrix
from .tensorops import TensorSpace


def _ket(dim, *indices):
    """Product basis column vector |i j ...> for the given factor sizes."""
    if isinstance(dim, int):
        dims = [dim] * len(indices)
    else:
        dims = list(dim)
    v = np.zeros(int(np.prod(dims)), dtype=complex)
    stride = 0
    for d, i in zip(dims, indices):
        stride = stride * d + i
    v[stride] = 1.0
    return v


def _proj(vec):
    return np.outer(vec, vec.conj())


def maximally_mixed(d_a, d_b):
    n = d_a * d_b
    return DensityMatrix(np.eye(n) / n, TensorSpace([d_a, d_b]))


def max_entangled(d=2):
    """Projector onto sum_i |ii> / sqrt(d)."""
    v = np.zeros(d * d, dtype=complex)
    for i in range(d):
        v[i * d + i] = 1.0
    v /= np.sqrt(d)
    return DensityMatrix(_proj(v), TensorSpace([d, d]))


def random_state(d_a, d_b, rank=None, seed=0):
    """Random density matrix from a normalized Ginibre square."""
    n = d_a * d_b
    rank = rank or n
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, TensorSpace([d_a, d_b]))


# -- 3x3 family with a bound-entangled window ---------------------------


def choi_family_state(alpha):
    """Mixture of the maximally entangled state with two cyclic-shift
    diagonals on 3x3; separable on [2, 3], PPT-entangled on (3, 4].
    """
    if not 0.0 <= alpha <= 5.0:
        raise ValueError(
            f"family parameter must lie in [0, 5] for a valid state, got {alpha}"
        )
    pe, plus, minus = _choi_family_parts()
    m = (2.0 / 7.0) * pe + (alpha / 7.0) * plus + ((5.0 - alpha) / 7.0) * minus
    return DensityMatrix(m, TensorSpace([3, 3]))


@functools.lru_cache(maxsize=1)
def _choi_family_parts():
    """The maximally entangled projector and the two cyclic-shift
    diagonals the 3x3 family mixes, built once; read-only."""
    parts = (
        max_entangled(3).matrix,
        sum(_proj(_ket(3, i, (i + 1) % 3)) for i in range(3)) / 3.0,
        sum(_proj(_ket(3, (i + 1) % 3, i)) for i in range(3)) / 3.0,
    )
    for part in parts:
        part.flags.writeable = False
    return parts


def choi_family_witness():
    """Exact witness for the 3x3 family: expectation (3 - alpha)/7."""
    z = 2.0 * sum(_proj(_ket(3, i, i)) for i in range(3))
    z += _proj(_ket(3, 0, 2)) + _proj(_ket(3, 1, 0)) + _proj(_ket(3, 2, 1))
    z -= 3.0 * max_entangled(3).matrix
    return np.asarray(z, dtype=complex), TensorSpace([3, 3])


# -- 4x4 family invisible to the partial transpose ----------------------


def gisin_family_state(alpha):
    """Two rank-one terms plus diagonal noise on 4x4.

    Detected at level 1 only for alpha below 2 sqrt(2); entangled for every
    alpha >= 0, which level 2 certifies.
    """
    if alpha < 0:
        raise ValueError(f"noise weight must be nonnegative, got {alpha}")
    s2 = np.sqrt(2.0)
    psi1 = (_ket(4, 0, 0) + _ket(4, 1, 1) + s2 * _ket(4, 2, 2)) / 2.0
    psi2 = (_ket(4, 0, 1) + _ket(4, 1, 0) + s2 * _ket(4, 3, 3)) / 2.0
    noise = sum(
        _proj(_ket(4, i, j)) for i, j in [(0, 2), (0, 3), (1, 2), (1, 3),
                                          (2, 0), (2, 1), (3, 0), (3, 1)]
    ) / 8.0
    m = (_proj(psi1) + _proj(psi2) + alpha * noise) / (2.0 + alpha)
    return DensityMatrix(m, TensorSpace([4, 4]))


# -- named catalog for the command line ---------------------------------


def catalog_entries():
    """Constructors reachable by name, with their parameters."""
    return [
        {
            "name": "choi",
            "dims": (3, 3),
            "params": {"alpha": 3.5},
            "make": lambda alpha=3.5: choi_family_state(float(alpha)),
            "note": "3x3 family; separable [2,3], PPT-entangled (3,4], NPT beyond",
        },
        {
            "name": "gisin",
            "dims": (4, 4),
            "params": {"alpha": 3.0},
            "make": lambda alpha=3.0: gisin_family_state(float(alpha)),
            "note": "4x4 family; PPT for alpha >= 2 sqrt(2), entangled throughout",
        },
        {
            "name": "maxmixed",
            "dims": (3, 3),
            "params": {"d_a": 3, "d_b": 3},
            "make": lambda d_a=3, d_b=3: maximally_mixed(int(d_a), int(d_b)),
            "note": "maximally mixed state, separable at every level",
        },
        {
            "name": "maxent",
            "dims": (2, 2),
            "params": {"d": 2},
            "make": lambda d=2: max_entangled(int(d)),
            "note": "maximally entangled pure state, caught at level 1",
        },
        {
            "name": "random",
            "dims": (3, 3),
            "params": {"d_a": 3, "d_b": 3, "rank": 0, "seed": 0},
            "make": lambda d_a=3, d_b=3, rank=0, seed=0: random_state(
                int(d_a), int(d_b), rank=int(rank) or None, seed=int(seed)
            ),
            "note": "seeded Ginibre-random density matrix",
        },
    ]


def make_catalog_state(name, **params):
    for entry in catalog_entries():
        if entry["name"] == name:
            return entry["make"](**params)
    known = ", ".join(e["name"] for e in catalog_entries())
    raise KeyError(f"unknown catalog state {name!r}; known: {known}")
