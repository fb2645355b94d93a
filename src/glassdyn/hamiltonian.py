"""Finite-N mixed p-spin Gaussian field: sampling, evaluation, conditioning.

The random energy is a sum over dense coupling tensors, one per active power
p.  Each tensor is drawn with i.i.d. entries of variance N^(1-p), which gives
the covariance Cov(H(x), H(y)) = N nu(<x,y>/N), and is then symmetrized:
averaged over all axis permutations.  The stored entries are no longer
i.i.d., but H is the same function of x, so the covariance law is unchanged.
A symmetric tensor is kept once per sorted index tuple x_0 <= ... <=
x_(p-1), as J there times the tuple's orbit size (its number of distinct
orderings), in dense blocks of 16 consecutive x_(p-2) with 0.0 at the
unsorted positions (see _spans): for p = 3 at N = 400 that is 91.4 MiB,
under a fifth of the full tensor.  The i.i.d. entries are drawn a few
first indices at a time and summed straight into the tuples' slots, so the
full tensor never exists and the result is the same, bit for bit, as
averaging the whole drawn tensor and scaling by the orbit size.  Two
products per block give the gradient for a whole batch of points, one of
them batched over the block's 16 values of x_(p-2), so each SDE step
streams the stored tensor twice: 183 MiB at N = 400, against 488 MiB for
one pass over the full tensor.
ConditioningSpec(target, N, seed) builds the pinned point x_star and the
start x_0 from the InitCondition alone.  Conditioning on the value at the
start point and on value/gradient at a critical point is
exact for a Gaussian field and is realized by a mean swap: subtract the
conditional mean at the observed data, add it back at the target data.  The
conditional mean is -N v(q, y) for the drift source v of init_params, with
q and y the overlaps of a point with x_star and x_0, so both engines share
one conditioning algebra.  The orthogonal complement of the conditioned
directions is never materialized; its contribution enters through a single
projected gradient vector.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DomainError, check_count
from .init_params import InitCondition, VFunction, solve_w, solve_weights
from .mixture import Mixture

__all__ = [
    "SpinSystem",
    "ConditioningSpec",
    "ConditionedField",
    "sample_system",
    "check_system_size",
    "conditional_mean",
    "conditional_mean_hessian",
    "conditioned_field",
    "sample_band_point",
]

_P_MAX = 4
_MAX_TENSOR_ENTRIES = 3e8
_R_GUARD = 4.0
_DRAW_ROWS = 2  # first-axis indices of the draw per generator call, at least
_DRAW_RING = 4  # chunk buffers: the worker draws up to three chunks ahead
_DRAW_VALUES = 2**15  # values of the draw per generator call, at least
_GROUP = 16  # consecutive values of x_(p-2) per stored block
_K_BYTES = 8 * 2**20  # most bytes of one piece of a block's scratch in a pass


@dataclass
class SpinSystem:
    """One realization of the symmetrized coupling tensors at size N.

    tensors[p] holds one entry per sorted index tuple of the p-tensor, in
    blocks (see _spans): one float64 array per power of
    8 sum_g (b1 - b0) b1^(p-2) (N - b0) bytes over the blocks [b0, b1) of
    x_(p-2), against 8 N^p for the full tensor: 91.4 MiB for p = 3 at
    N = 400.  The draw writes the blocks directly and the full tensor never
    exists: it needs _DRAW_RING chunks of at least _DRAW_ROWS N^(p-1)
    entries more.  The block views and the widest block are built once, at
    construction.  A pass writes its large pieces of scratch per block (see
    _block_gradient) into two rows of one buffer the system keeps and
    grows, so a pass allocates nothing of a block's size, and one system
    evaluates one batch at a time.
    """

    N: int
    mixture: Mixture
    tensors: dict[int, np.ndarray]
    seed: int
    _blocks: dict = field(init=False, repr=False, compare=False)
    _widest: int = field(init=False, repr=False, compare=False)
    _scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._blocks = {p: _blocks(P, self.N, p) for p, P in self.tensors.items()}
        # a block's rows or columns, whichever are more: each piece of a
        # pass's scratch holds at most that many entries per row of X
        self._widest = max(max(B.size // B.shape[-1], B.shape[-1])
                           for bs in self._blocks.values() for _, _, B in bs)
        self._scratch = np.empty((2, 0))

    def _contract(self, X: np.ndarray, values: bool = True, gradients: bool = True):
        """Values and gradients at the rows of the (k, N) batch X, either of
        them None when not asked for, one tensor pass per power p; a batch of
        any other shape is a DomainError.

        A stored entry S at a sorted tuple is the symmetric J there times
        the tuple's orbit size, so H_p(x) = sqrt(b_p) sum S x[x_0] ...
        x[x_(p-1)] over the sorted tuples, and its gradient takes each
        position of a tuple in turn (see _block_gradient).  With both asked
        for, Euler's identity x . grad H_p = p H_p gives the values from the
        gradients, and the gradients are the same, bit for bit, as a pass for
        gradients alone.  For values alone only the last position's product
        is made: it counts each sorted tuple once, so G . x is H_p itself.
        Rows of X go in chunks of at most N rows, fewer where a piece of a
        block's scratch would pass _K_BYTES = 8 MiB: each holds at most the
        chunk's rows times the block's rows or columns, whichever are more
        (a p = 2 block's columns, N - b0, outnumber its 16 rows).  For p = 3
        at N = 400 a chunk is up to 163 rows.  The dominant cost is
        streaming each block twice per chunk (once for values alone).  A
        row outside the radius _R_GUARD sqrt(N) is a DomainError.
        """
        if X.ndim != 2 or X.shape[1] != self.N:
            raise DomainError(f"batch of shape {X.shape}: the system takes rows of "
                              f"width N = {self.N}")
        k, N = X.shape
        if (np.linalg.norm(X, axis=1) > _R_GUARD * math.sqrt(N)).any():
            raise DomainError("evaluation point outside the radius guard")
        out_values = np.zeros(k) if values else None
        out_grads = np.zeros((k, N)) if gradients else None
        step = max(1, min(N, _K_BYTES // (8 * self._widest)))
        if self._scratch.shape[1] < min(k, step) * self._widest:
            self._scratch = np.empty((2, min(k, step) * self._widest))
        for a in range(0, k, step):
            Xc = X[a:a + step]
            work = self._scratch[:, :len(Xc) * self._widest].reshape(2, len(Xc), -1)
            for p, b in self.mixture.coeffs.items():
                G = np.zeros(Xc.shape)
                for b0, b1, B in self._blocks[p]:
                    _block_gradient(G, Xc, B, b0, b1, gradients, work)
                G *= math.sqrt(b)
                if values:  # Euler's identity, or without gradients H_p itself
                    out_values[a:a + step] += (G * Xc).sum(axis=1) / (p if gradients else 1)
                if gradients:
                    out_grads[a:a + step] += G
        return out_values, out_grads

    def gradient_batch(self, X: np.ndarray) -> np.ndarray:
        """Gradients at the rows of X: one tensor pass per power p."""
        return self._contract(X, values=False)[1]

    def value_batch(self, X: np.ndarray) -> np.ndarray:
        """Energies at the rows of X: one tensor pass per power p."""
        return self._contract(X, gradients=False)[0]


@functools.lru_cache(maxsize=32)
def _spans(N: int, p: int) -> tuple:
    """(b0, b1, start, stop) of each stored block of a p-tensor.

    Block g holds the sorted tuples x_0 <= ... <= x_(p-1) with x_(p-2) in
    [b0, b1) = [16 g, 16 g + 16) ∩ [0, N), as a dense array with axes
    (x_(p-2), x_0, ..., x_(p-3), x_(p-1)) on [b0, b1) x [0, b1)^(p-2) x
    [b0, N); an unsorted position holds 0.0.  The blocks follow each other
    in one flat array, at [start, stop).
    """
    spans, stop = [], 0
    for b0 in range(0, N, _GROUP):
        b1 = min(N, b0 + _GROUP)
        start, stop = stop, stop + (b1 - b0) * b1 ** (p - 2) * (N - b0)
        spans.append((b0, b1, start, stop))
    return tuple(spans)


def _blocks(P: np.ndarray, N: int, p: int) -> list:
    """(b0, b1, block) over the blocks of the flat stored tensor P, as views."""
    return [(b0, b1, P[start:stop].reshape((b1 - b0,) + (b1,) * (p - 2) + (N - b0,)))
            for b0, b1, start, stop in _spans(N, p)]


def _outer(vs: list, out: np.ndarray | None = None) -> np.ndarray:
    """The row-wise outer product of the (k, L) arrays vs, flattened to
    (k, prod L), in the first entries of the flat array out if one is given;
    a single array is its own product."""
    if len(vs) == 1:
        return vs[0]
    shape = (len(vs[0]),) + tuple(v.shape[1] for v in vs)
    axes = "abcdefgh"[:len(vs)]
    if out is not None:
        out = out[:math.prod(shape)].reshape(shape)
    return np.einsum(",".join("k" + a for a in axes) + "->k" + axes, *vs,
                     out=out).reshape(shape[0], -1)


def _partials(Z: np.ndarray, vs: list) -> list:
    """Z (k, prod L) contracted, for each d, with every vs[e] but vs[d]."""
    k, L = vs[0].shape
    Z = Z.reshape(k, L, -1)
    if len(vs) == 1:
        return [Z[:, :, 0]]
    first = np.matmul(Z, _outer(vs[1:])[:, :, None])[:, :, 0]
    return [first] + _partials(np.matmul(vs[0][:, None, :], Z)[:, 0], vs[1:])


def _block_gradient(G: np.ndarray, X: np.ndarray, B: np.ndarray, b0: int, b1: int,
                    gradients: bool, work: np.ndarray):
    """Add to G the gradient at the rows of X of the sum over block B's
    tuples, or with gradients False its last position's part alone.

    B's axes are the coordinates (x_(p-2), x_0, ..., x_(p-3), x_(p-1)),
    and the derivative takes each position of a tuple in turn.  One batched
    product T_i = K @ B[i] over the block's values i of x_(p-2), with K the
    row-wise products of x_0, ..., x_(p-3) (X[:, :b1] itself for p = 3),
    gives two of them: sum_i x_i T_i is the part of x_(p-1), and T_i . x
    that of x_(p-2).  For x_0, ..., x_(p-3), Z = X[:, b0:] @ B.T is
    contracted with x_(p-2) and then with all the others but one.  For
    p = 2 the parts are X[:, b0:b1] @ B and X[:, b0:] @ B.T.  An unsorted
    position holds 0.0, so the products count each sorted tuple once.  T
    goes to work[0] of work (2, k, width), for as many values i at a time
    as width allows, and K and then Z to work[1].
    """
    (_, k, width), p, C = work.shape, B.ndim, B.shape[-1]
    xl = X[:, b0:]
    if p == 2:
        G[:, b0:] += X[:, b0:b1] @ B
        if gradients:
            G[:, b0:b1] += xl @ B.T
        return
    (w0, w1), xs, vs = work.reshape(2, -1), X[:, None, b0:b1], [X[:, :b1]] * (p - 2)
    K, B = _outer(vs, w1), B.reshape(b1 - b0, -1, C)
    n = min(b1 - b0, width // C)  # values i per batched product, so T fits w0
    for i in range(0, b1 - b0, n):
        Bi = B[i:i + n]
        T = np.matmul(K, Bi, out=w0[:len(Bi) * k * C].reshape(-1, k, C)).transpose(1, 0, 2)
        G[:, b0:] += np.matmul(xs[:, :, i:i + n], T)[:, 0]
        if gradients:
            G[:, b0 + i:b0 + i + len(Bi)] += np.matmul(T, xl[:, :, None])[:, :, 0]
    if not gradients:
        return
    R = B.size // C
    Z = np.matmul(xl, B.reshape(R, C).T, out=w1[:k * R].reshape(k, R))
    for part in _partials(np.matmul(xs, Z.reshape(k, b1 - b0, -1))[:, 0], vs):
        G[:, :b1] += part


@functools.lru_cache(maxsize=None)
def _steps(p: int, k: int) -> tuple:
    """The orderings sg of y, x without x_k, in itertools.permutations order,
    each with the axes that turn M[y permuted by sg] to the block's order."""
    axes = [p - 2, *range(p - 2), p - 1]  # the tuple position of each block axis
    y = [d - (d > k) for d in axes if d != k]  # their index in y
    return tuple((sg, tuple(sg.index(a) for a in y))
                 for sg in itertools.permutations(range(p - 1)))


def _orbits(p: int, b0: int, b1: int):
    """Over a block's rows: the orbit size for x_(p-1) above x_(p-2), the
    orbit size for x_(p-1) equal to it, and whether the row is unsorted."""
    grid = np.ix_(np.arange(b0, b1), *[np.arange(b1)] * (p - 2))
    shape = (b1 - b0,) + (b1,) * (p - 2)
    unsorted, run, denom = np.zeros(shape, bool), 1, 1
    for prev, cur in itertools.pairwise([*grid[1:], grid[0]]):
        unsorted = unsorted | (prev > cur)
        run = np.where(prev == cur, run + 1, 1)
        denom = denom * run
    f = math.factorial(p)
    return (np.broadcast_to(f / denom, shape), np.broadcast_to(f / (denom * (run + 1)), shape),
            unsorted)


def _draw_symmetric(rng: np.random.Generator, N: int, p: int) -> np.ndarray:
    """The stored p-tensor (see _spans) of standard normals times
    N^(-(p-1)/2), symmetrized.

    The i.i.d. draw D is the stream of one standard_normal call of N^p
    values, taken in chunks of whole first-axis indices (at least _DRAW_ROWS
    of them and _DRAW_VALUES values) into a ring of _DRAW_RING buffers: a
    worker thread draws up to three chunks ahead while this one folds (the
    generator releases the GIL), so a slow index does not leave the
    generator idle.  The entry at a sorted tuple x is w times the sum of D
    at x permuted by each sg, added in itertools.permutations order, times
    the tuple's orbit size; sg[0] never decreases in that order, so the
    terms arrive index by index, those of D[x_k] when the draw reaches
    i = x_k, and they are added straight into the tuple's own slot (see
    _fold).  A chunk's first indices are, as x_(p-1), the columns of the
    blocks; their last terms come after the chunk's other positions (see
    _finish), which scales the sums and writes 0.0 at the unsorted
    positions.  The full tensor never exists: the draw holds the stored
    tensor, 8 sum_g (b1 - b0) b1^(p-2) (N - b0) bytes, plus the ring:
    104 MiB traced for p = 3 at N = 400.
    """
    P = np.zeros(_spans(N, p)[-1][3])
    blocks = _blocks(P, N, p)
    orbits = [_orbits(p, b0, b1) for b0, b1, _ in blocks]
    w = N ** (-(p - 1) / 2.0) / math.factorial(p)
    rows = min(N, max(_DRAW_ROWS, _DRAW_VALUES // N ** (p - 1)))  # per chunk
    heads = range(0, N, rows)
    bufs = [np.empty((rows,) + (N,) * (p - 1)) for _ in range(_DRAW_RING)]
    chunks = [bufs[a % _DRAW_RING][:min(rows, N - b)] for a, b in enumerate(heads)]
    with ThreadPoolExecutor(1) as pool:  # one worker: the chunks are drawn in order
        drawn = [pool.submit(rng.standard_normal, out=C) for C in chunks[:_DRAW_RING - 1]]
        for a, c0 in enumerate(heads):
            if a + _DRAW_RING - 1 < len(chunks):  # its buffer held chunk a - 1
                drawn.append(pool.submit(rng.standard_normal, out=chunks[a + _DRAW_RING - 1]))
            drawn[a].result()
            for i, M in enumerate(chunks[a], c0):
                for k in range(p - 1):
                    # the blocks with x_(p-2) = i, or x_(p-2) >= i for k < p - 2
                    g = i // _GROUP
                    for b0, b1, B in blocks[g:g + 1] if k == p - 2 else blocks[g:]:
                        _fold(B, M, k, i, b0, b1)
            c1 = c0 + len(chunks[a])
            for (b0, b1, B), orbit in zip(blocks[:(c1 - 1) // _GROUP + 1], orbits):
                _finish(B, chunks[a], c0, b0, b1, w, orbit)
    return P


def _fold(B: np.ndarray, M: np.ndarray, k: int, i: int, b0: int, b1: int):
    """Add the terms D[i] = M to the sums of block B's tuples with x_k = i,
    for k < p - 1.

    y, x without x_k, runs over the box of indices up to i before position
    k and from i on after it, cut to the block; the terms M[y permuted]
    are turned to the block's axis order.  At k = 0 the first term starts
    the sum.  The box holds unsorted tuples too; their sums are zeroed when
    their column is finished, and no term is added after that.
    """
    N, p = M.shape[0], M.ndim + 1
    origin = [0] * (p - 2) + [b0, b0]  # of each position's block axis
    lo = [0 if d < k else max(i, origin[d]) for d in range(p)]
    hi = [i + 1 if d < k else b1 for d in range(p - 1)] + [N]
    y = [slice(lo[d], hi[d]) for d in range(p) if d != k]
    at = [i - origin[d] if d == k else slice(lo[d] - origin[d], hi[d] - origin[d])
          for d in range(p)]
    S = B[(at[p - 2], *at[:p - 2], at[p - 1])]
    terms = (M[tuple(y[a] for a in sg)].transpose(axes) for sg, axes in _steps(p, k))
    if k == 0:
        np.copyto(S, next(terms))
    for T in terms:
        S += T


def _finish(B: np.ndarray, D: np.ndarray, c0: int, b0: int, b1: int, w: float, orbit):
    """Add the terms of the chunk D = D[c0:c1] as the last position x_(p-1)
    to the columns c0 .. c1 - 1 of block B, then scale each sum by w and by
    its orbit size, and write 0.0 at the unsorted positions.

    Every row of the block takes part, so the column is final: later
    indices add only to columns beyond it.  S has the columns first and
    the ufuncs run in its C order, so their inner loops run over a row
    coordinate, not over the chunk's few columns.
    """
    p = D.ndim
    open_, tie, unsorted = orbit
    a, c1 = max(b0, c0), c0 + len(D)
    y = [slice(0, b1)] * (p - 2) + [slice(b0, b1)]
    S = np.moveaxis(B[..., a - b0:c1 - b0], -1, 0)
    for sg, axes in _steps(p, p - 1):
        T = D[(slice(a - c0, c1 - c0), *(y[j] for j in sg))].transpose([0] + [1 + j for j in axes])
        np.add(S, T, out=S, order="C")
    np.multiply(S, w, out=S, order="C")
    c = np.arange(a, c1).reshape((-1,) + (1,) * (p - 1))
    xl = np.arange(b0, b1).reshape((-1,) + (1,) * (p - 2))
    np.multiply(S, np.where(xl < c, open_, tie), out=S, order="C")
    # x - x is +0.0: the unsorted positions read exactly 0.0
    np.subtract(S, S, out=S, where=unsorted | (xl > c), order="C")


def check_system_size(m: Mixture, N: int) -> int:
    """N as an int; refuse a count N < 1, or dense tensors the draw would not
    hold, before anything of size N is allocated."""
    N = check_count("N", N, 1)
    if m.p_max > _P_MAX:
        raise ConfigError(f"dense tensors limited to p <= {_P_MAX}")
    if N ** m.p_max > _MAX_TENSOR_ENTRIES:
        raise ConfigError(f"N = {N}: the N^{m.p_max} tensor would exceed the memory guard")
    return N


def sample_system(m: Mixture, N: int, seed: int) -> SpinSystem:
    """Draw the symmetrized coupling tensors; deterministic given the seed."""
    N, seed = check_system_size(m, N), check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    tensors = {p: _draw_symmetric(rng, N, p) for p in m.coeffs}
    return SpinSystem(N, m, tensors, seed)


def sample_band_point(ic: InitCondition, N: int, seed: int) -> np.ndarray:
    """Uniform start point on the sub-sphere of overlap q_o with the axis point.

    x0 = alpha sqrt(N) xhat + sqrt(1 - alpha^2) sqrt(N) ghat with ghat a
    uniform unit vector orthogonal to xhat; an RS start means uniform on the
    whole sphere.  On the band edge (ic.is_degenerate) the sub-sphere is the
    point sign(q_o) sqrt(N) xhat, for any N; off the edge the band needs
    N >= 2.
    """
    N, seed = check_count("N", N, 1), check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(N)
    if ic.is_rs:
        return math.sqrt(N) * g / np.linalg.norm(g)
    if ic.is_degenerate:
        x0 = np.zeros(N)
        x0[0] = math.copysign(math.sqrt(N), ic.q_o)
        return x0
    if N < 2:
        raise ConfigError(f"N = {N}: a start with |q_o| < q_star needs N >= 2")
    alpha = ic.alpha
    g[0] = 0.0
    g /= np.linalg.norm(g)
    x0 = math.sqrt(max(1.0 - alpha**2, 0.0)) * math.sqrt(N) * g
    x0[0] = alpha * math.sqrt(N)
    return x0


@dataclass
class ConditioningSpec:
    """Geometry and target data of the critical-point conditioning event.

    Built from the target alone: x_star = q_star sqrt(N) on the first axis,
    x_0 = sample_band_point(target, N, seed), and the unit vectors
    xhat_star (None when q_star = 0) and zhat, the direction of x_0
    orthogonal to x_star, None off the branches with the z coordinate: at
    q_star = 0 and on a degenerate band |q_o| = q_star.
    """

    target: InitCondition
    N: int
    seed: int
    x_star: np.ndarray = field(init=False)
    x_0: np.ndarray = field(init=False)
    xhat_star: np.ndarray | None = field(init=False, default=None)
    zhat: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        self.N, self.seed = check_count("N", self.N, 1), check_count("seed", self.seed, 0)
        ic, N = self.target, self.N
        self.x_0 = sample_band_point(ic, N, self.seed)
        self.x_star = np.zeros(N)
        self.x_star[0] = ic.q_star * math.sqrt(N)
        if ic.is_rs:
            return
        self.xhat_star = self.x_star / np.linalg.norm(self.x_star)
        if not ic.is_degenerate:
            z = self.x_0 / math.sqrt(N) - ic.alpha * self.xhat_star
            self.zhat = z / np.linalg.norm(z)


def conditional_mean(spec: ConditioningSpec, m: Mixture, Vhat: np.ndarray,
                     u_perp: np.ndarray | None, x: np.ndarray,
                     what: str = "value"):
    """Mean of the field given the conditioned values, or its gradient.

    Vhat is the 4-vector of conditioned (sign-flipped, N-normalized) values;
    u_perp is the component of -grad H(x_star) orthogonal to xhat_star and,
    where the spec has one, zhat, kept as a plain N-vector.  The q_star = 0
    branch conditions on the start value only.  x is one point or a batch
    of rows.
    """
    if what not in ("value", "gradient"):
        raise ConfigError(f"unknown what {what!r}")
    out = _mean_eval(spec, solve_weights(spec.target, m, Vhat), u_perp, what == "value",
                     what == "gradient", np.atleast_2d(x))[what == "gradient"]
    if not np.isfinite(out).all():
        raise DomainError("conditional mean overflows at these conditioned values")
    if np.ndim(x) == 2:
        return out
    return float(out[0]) if what == "value" else out[0]


def _mean_eval(spec: ConditioningSpec, vf: VFunction, u: np.ndarray | None,
               values: bool, gradients: bool, X: np.ndarray):
    """Conditional mean and its gradient at the rows of X, each None when
    not asked for.

    The mean is -N v(q, y) - nu'(q) (X . u) / nu'(q_star^2), with q and y
    the overlaps of a row with x_star and x_0.  One product X @ R.T over
    the rows R = (x_star, x_0, u) gives q, y and X . u, and one
    (k, 3) @ (3, N) product C @ R the gradient: the coefficient of x_star
    is -vx - nu''(q) (X . u) / (N nu'(q_star^2)), of x_0 -vy, and of u
    -nu'(q) / nu'(q_star^2).  Without u, R has its first two rows.  Linear
    in (vf.w, u): the mean with weights w1 - w2 and handle u1 - u2 is the
    difference of the two means.
    """
    N, m = spec.N, vf.mixture
    R = np.stack([spec.x_star, spec.x_0] + ([] if u is None else [u]))
    P = X @ R.T
    q, y = P[:, 0] / N, P[:, 1] / N
    value = grad = None
    if u is not None:
        gam, d1 = m.nu(vf.ic.q_star**2, 1), m.nu(q, 1)
    if values:
        value = -N * vf.v(q, y)
        if u is not None:
            value -= d1 * P[:, 2] / gam
    if gradients:
        C = np.empty(P.shape)
        C[:, 0], C[:, 1] = -vf.vx(q, y), -vf.vy(q, y)
        if u is not None:
            C[:, 0] -= m.nu(q, 2) * P[:, 2] / (N * gam)
            C[:, 2] = -d1 / gam
        grad = C @ R
    return value, grad


def conditional_mean_hessian(spec: ConditioningSpec, m: Mixture,
                             Vhat: np.ndarray, u_perp: np.ndarray | None,
                             x: np.ndarray) -> np.ndarray:
    """Dense Hessian of the conditional mean at x (analytic, standard basis).

    An independent second-derivative formula, with its weights from the
    same solve as conditional_mean.
    """
    N = spec.N
    ic = spec.target
    vf = solve_weights(ic, m, Vhat)
    w = vf.w
    xs, y = x @ spec.x_star / N, x @ spec.x_0 / N
    a, b = spec.x_star / N, spec.x_0 / N
    if ic.is_rs:
        return -N * w[0] * m.nu(y, 2) * np.outer(b, b)
    qs2 = ic.q_star**2
    gam = m.nu(qs2, 1)
    psi_p = 2.0 * m.nu(xs, 2) + xs * m.nu(xs, 3)
    aa = np.outer(a, a)
    hess = -N * (w[0] * m.nu(y, 2) * np.outer(b, b)
                 + (w[1] * m.nu(xs, 2) + w[2] * psi_p / qs2) * aa)
    if vf.use_z:
        # z = <x, zhat>/|x_star|, whose gradient is c
        c = spec.zhat / np.linalg.norm(spec.x_star)
        ac = np.outer(a, c)
        hess -= N * w[3] * (x @ c * m.nu(xs, 3) * aa + m.nu(xs, 2) * (ac + ac.T))
    if u_perp is not None:
        au = np.outer(a, u_perp)
        hess = hess - (m.nu(xs, 3) * float(u_perp @ x) * aa
                       + m.nu(xs, 2) * (au + au.T)) / gam
    return hess


class ConditionedField:
    """Field realization conditioned on the critical-point event, by mean swap.

    The constructor observes the realization: one tensor pass over the
    stacked points (x_0, x_star) gives both energies and the gradient at
    x_star.  The swap adds the conditional mean at the target data and
    subtracts it at the observed data.  The mean is linear in the weights
    of its drift source v and in u, the observed gradient orthogonal to the
    conditioned directions, so the field keeps v with the weights
    w_tgt - w_obs and u.  Each batch call makes one tensor pass and one
    mean evaluation, both for the energies alone or for the gradients
    alone.  The batch values and gradients interpolate the target data
    exactly: the start-point energy is -N E, the critical-point energy
    -N E_star and its gradient -G_star x_star, up to round-off.
    """

    def __init__(self, sys: SpinSystem, spec: ConditioningSpec):
        if spec.N != sys.N:
            raise ConfigError(f"spec N = {spec.N} differs from the system's N = {sys.N}")
        self.sys = sys
        self.spec = spec
        m, ic, N = sys.mixture, spec.target, spec.N
        (h0, hs), grads = sys._contract(np.vstack([spec.x_0, spec.x_star]))
        Vhat_obs, self._u = np.array([-h0 / N, 0.0, 0.0, 0.0]), None
        if not ic.is_rs:
            gs, norm_star = grads[1], np.linalg.norm(spec.x_star)
            g1, g2 = gs @ spec.xhat_star, 0.0
            self._u = gs - g1 * spec.xhat_star
            # a degenerate band has no z coordinate: its gradient stays in u
            if spec.zhat is not None:
                g2 = gs @ spec.zhat
                self._u -= g2 * spec.zhat
            Vhat_obs = np.array([-h0 / N, -hs / N, -g1 / norm_star, -g2 / norm_star])
        vf = solve_w(ic, m)
        self._vf = replace(vf, w=vf.w - solve_weights(ic, m, Vhat_obs).w)

    def gradient_batch(self, X: np.ndarray) -> np.ndarray:
        return self.sys.gradient_batch(X) + _mean_eval(self.spec, self._vf, self._u,
                                                       False, True, X)[1]

    def value_batch(self, X: np.ndarray) -> np.ndarray:
        return self.sys.value_batch(X) + _mean_eval(self.spec, self._vf, self._u,
                                                    True, False, X)[0]


def conditioned_field(sys: SpinSystem, spec: ConditioningSpec) -> ConditionedField:
    return ConditionedField(sys, spec)
