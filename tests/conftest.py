import math

import numpy as np
import pytest

import weldlab.cart
from weldlab._rng import GOLDEN_GAMMA, MASK64, MIX_MUL_1, MIX_MUL_2
from weldlab.cart import Internal, Leaf, _is_leaf
from weldlab.dataset import Dataset, Run, builtin_aa6262


@pytest.fixture
def builtin() -> Dataset:
    return builtin_aa6262()


@pytest.fixture
def batch_calls(monkeypatch) -> list:
    """(real node sizes, padded width) of every `best_splits` call that
    the batched grower makes."""
    calls = []
    batch_kernel = weldlab.cart.best_splits

    def recording(Xb, yb, features, min_leaf, sizes):
        calls.append((sizes.tolist(), yb.shape[1]))
        return batch_kernel(Xb, yb, features, min_leaf, sizes)

    monkeypatch.setattr(weldlab.cart, "best_splits", recording)
    return calls


@pytest.fixture
def constant_dataset() -> Dataset:
    """Two identical runs: zero variance everywhere."""
    r = Run(rpm=1000.0, traverse=50.0, depth=0.2, hardness=65.0)
    return Dataset(runs=(r, r))


def lane_draws(seed: int, state: int) -> int:
    """Draws a SplitMix64 stream seeded `seed` has made to reach `state`:
    each draw adds GOLDEN_GAMMA, which is odd, so invertible mod 2^64."""
    return (state - seed) * pow(GOLDEN_GAMMA, -1, 2**64) % 2**64


def _unshift(z: int, s: int) -> int:
    """The x with ``x ^ (x >> s) == z``."""
    x = z
    for _ in range(64 // s + 1):
        x = z ^ (x >> s)
    return x


def unmix64(z: int) -> int:
    """The state word that `mix64` maps to `z`: mix64 is a bijection."""
    z = _unshift(z, 31)
    z = (z * pow(MIX_MUL_2, -1, 2**64)) & MASK64
    z = _unshift(z, 27)
    z = (z * pow(MIX_MUL_1, -1, 2**64)) & MASK64
    return _unshift(z, 30)


def rejecting_seed(draw: int) -> int:
    """A seed whose stream's draw number `draw` (from 1) is 2^64 - 1, which
    `next_below` rejects for every bound but a power of two."""
    return (unmix64(MASK64) - draw * GOLDEN_GAMMA) & MASK64


def sample_subset(rng, n: int, k: int) -> list[int]:
    """k distinct indices from range(n), sorted ascending: k steps of
    partial Fisher-Yates, step i swapping position i with i +
    ``rng.next_below(n - i)``.  The per-node feature subset draw of the
    determinism contract, one stream at a time; `_rng.lane_subsets` must
    draw the same subsets on its lanes."""
    pool = list(range(n))
    for i in range(k):
        j = i + rng.next_below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:k])


def subset_tree(X, y, cfg, rng, m: int, x_constant=None):
    """The tree of (X, y) under `cfg` whose nodes each search `m` features
    drawn from the `SplitMix64` `rng` by `sample_subset`, grown alone by
    preorder recursion: the reference that every tree that
    `cart._grow_forests` grows on lanes must equal, tree for tree, with its
    lane ending where `rng` ends.

    Each node goes through the per-node kernel that `weldlab.cart` binds,
    so that a test counting that kernel's calls counts the reference's
    nodes too.  A `Counter` `x_constant` counts, under "nodes", the scored
    nodes whose rows all share one feature row, which `_grow_forests`
    settles without scoring.
    """
    Xl = np.asarray(X, dtype=np.float64).tolist()
    yl = np.asarray(y, dtype=np.float64).tolist()

    def grow(idx, depth):
        n = len(idx)
        ys = [yl[i] for i in idx]
        if not _is_leaf(cfg, n, depth, min(ys) == max(ys)):
            if x_constant is not None:
                x_constant["nodes"] += all(Xl[i] == Xl[idx[0]] for i in idx)
            feat, thr, children_sse, parent_sse = weldlab.cart._best_split_loops(
                [Xl[i] for i in idx], ys, sample_subset(rng, len(Xl[0]), m),
                cfg.min_samples_leaf)
            decrease = (parent_sse - children_sse) / n
            if not _is_leaf(cfg, n, depth, False, feat, decrease):
                return Internal(
                    feat, thr, decrease, n,
                    grow([i for i in idx if Xl[i][feat] <= thr], depth + 1),
                    grow([i for i in idx if not Xl[i][feat] <= thr], depth + 1))
        return Leaf(float(np.add.reduce(ys) / n), n)

    return grow(list(range(len(yl))), 0)


def make_dataset(rows) -> Dataset:
    return Dataset(runs=tuple(Run(*row) for row in rows))


# Standard L9(3^4) array restricted to its first three columns, mapped to
# this problem's factor settings; responses are arbitrary positive values.
L9_LEVELS = [
    (1, 1, 1), (1, 2, 2), (1, 3, 3),
    (2, 1, 2), (2, 2, 3), (2, 3, 1),
    (3, 1, 3), (3, 2, 1), (3, 3, 2),
]


def l9_dataset() -> Dataset:
    rpm = {1: 800.0, 2: 1000.0, 3: 1200.0}
    trav = {1: 40.0, 2: 50.0, 3: 60.0}
    dep = {1: 0.1, 2: 0.2, 3: 0.3}
    rows = [
        (rpm[a], trav[b], dep[c], 60.0 + i)
        for i, (a, b, c) in enumerate(L9_LEVELS)
    ]
    return make_dataset(rows)


def brute_force_split_score(X, y, j, thr, min_leaf=1):
    """Score one candidate split by summed child SSE via np.var."""
    n = len(y)
    mask = X[:, j] <= thr
    nl = int(mask.sum())
    nr = n - nl
    if nl < min_leaf or nr < min_leaf:
        return np.inf
    return float(np.var(y[mask]) * nl + np.var(y[~mask]) * nr)


def brute_force_best_split(X, y, min_leaf=1):
    """Exhaustive split oracle, independent of the kernel implementation.

    Enumerates every (feature, midpoint threshold) and applies the same
    tie-break: strictly better wins, lowest feature index then lowest
    threshold on ties.
    """
    best = (-1, 0.0, np.inf)
    for j in range(X.shape[1]):
        values = np.unique(X[:, j])
        for a, b in zip(values[:-1], values[1:]):
            thr = (a + b) / 2
            score = brute_force_split_score(X, y, j, thr, min_leaf)
            if score < best[2]:
                best = (j, float(thr), score)
    return best


def f_tail_quadrature(f, d1, d2, points=20001):
    """Brute-force tail probability by Simpson integration of the F density.

    The unnormalized density is x^(d1/2-1) * (1 + d1 x/d2)^-((d1+d2)/2).
    Substituting x = u^2 on [0, f] and x = f/w^2 on [f, inf) removes the
    endpoint singularities (d1 = 1 resp. d2 = 1) exactly; the tail
    probability is upper/(lower+upper) so the normalizing constant cancels.
    """

    def simpson(values, h):
        w = np.ones(len(values))
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return h / 3.0 * float(w @ values)

    # lower: integrand becomes 2 u^(d1-1) (1 + d1 u^2/d2)^-((d1+d2)/2)
    u = np.linspace(0.0, math.sqrt(f), points)
    lower_vals = 2.0 * u ** (d1 - 1) * (1.0 + d1 * u * u / d2) ** (-(d1 + d2) / 2.0)
    lower = simpson(lower_vals, u[1] - u[0])

    # upper: integrand becomes
    # 2 f^(d1/2) d2^((d1+d2)/2) w^(d2-1) (d2 w^2 + d1 f)^-((d1+d2)/2)
    w = np.linspace(0.0, 1.0, points)
    upper_vals = (
        2.0
        * f ** (d1 / 2.0)
        * d2 ** ((d1 + d2) / 2.0)
        * w ** (d2 - 1)
        * (d2 * w * w + d1 * f) ** (-(d1 + d2) / 2.0)
    )
    upper = simpson(upper_vals, w[1] - w[0])
    return upper / (lower + upper)


def assert_split_optimal(X, y, f, t, min_leaf=1):
    """The kernel's chosen split must achieve the oracle's best score.

    When two candidates induce the same partition their scores tie
    mathematically but the two float routes can disagree by an ulp about
    which is 'smaller', so disagreement on the chosen (feature, threshold)
    is allowed only when the kernel's choice scores the oracle optimum.
    """
    of, ot, oscore = brute_force_best_split(X, y, min_leaf)
    assert (f >= 0) == (of >= 0)
    if f < 0:
        return
    if (f, t) == (of, ot):
        return
    kscore = brute_force_split_score(X, y, f, t, min_leaf)
    tol = 1e-9 * max(1.0, abs(oscore))
    assert abs(kscore - oscore) <= tol, (
        f"kernel split ({f}, {t}) scores {kscore}, oracle best "
        f"({of}, {ot}) scores {oscore}"
    )
