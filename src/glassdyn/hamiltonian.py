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
products per slice of a block, made back to back while the slice is in
cache, give the gradient for a whole batch of points, so each SDE step
reads the stored tensor from memory once: 91 MiB at N = 400, against 488
MiB for one pass over the full tensor.  A pass splits each power's blocks
into two halves of equal stored bytes, one for the calling thread and one
for the process's one worker thread, which also draws the tensor.
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
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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
# least stored bytes in the worker thread's half of a pass: below it (N up
# to about 130 for p = 3) the hand-off costs about what the second core saves
_HALF_BYTES = 2 * 2**20
_L2_BYTES = 2**20  # most stored bytes read by both products of a block back to back
_BLAS_MADDS = 2**19  # OpenBLAS runs a product with fewer multiply-adds on one thread


@dataclass
class SpinSystem:
    """One realization of the symmetrized coupling tensors at size N.

    tensors[p] holds one entry per sorted index tuple of the p-tensor, in
    blocks (see _spans): one float64 array per power of
    8 sum_g (b1 - b0) b1^(p-2) (N - b0) bytes over the blocks [b0, b1) of
    x_(p-2), against 8 N^p for the full tensor: 91.4 MiB for p = 3 at
    N = 400.  The draw writes the blocks directly and the full tensor never
    exists: it needs _DRAW_RING chunks of at least _DRAW_ROWS N^(p-1)
    entries more.  The block views, the widest block and the two halves of
    each power's blocks, split by stored bytes, are built once, at
    construction.  A pass runs one half on the calling thread and the other
    on the process's worker thread (see _worker), each into its own
    gradients and its own scratch buffer, which the system keeps and grows,
    so a pass allocates nothing of a block's size, and one system evaluates
    one batch at a time.
    """

    N: int
    mixture: Mixture
    tensors: dict[int, np.ndarray]
    seed: int
    _halves: tuple = field(init=False, repr=False, compare=False)
    _widest: int = field(init=False, repr=False, compare=False)
    _scratch: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = {p: _blocks(P, self.N, p) for p, P in self.tensors.items()}
        # a block's rows or columns, whichever are more: each piece of a
        # pass's scratch holds at most that many entries per row of X
        self._widest = max(max(B.size // B.shape[-1], B.shape[-1])
                           for bs in blocks.values() for _, _, B in bs)
        cuts = {p: _halfway(bs) for p, bs in blocks.items()}
        if sum(B.nbytes for p, bs in blocks.items() for _, _, B in bs[cuts[p]:]) < _HALF_BYTES:
            cuts = {p: len(bs) for p, bs in blocks.items()}  # the caller takes all
        self._halves = tuple({p: bs[:cuts[p]] if h == 0 else bs[cuts[p]:]
                              for p, bs in blocks.items()} for h in (0, 1))
        self._scratch = [np.empty((3, 0)), np.empty((3, 0))]

    def _contract(self, X: np.ndarray, values: bool = True, gradients: bool = True):
        """Values and gradients at the rows of the (k, N) batch X, either of
        them None when not asked for, one read of the stored tensors per
        chunk of rows; a batch of any other shape is a DomainError.

        A stored entry S at a sorted tuple is the symmetric J there times
        the tuple's orbit size, so H_p(x) = sqrt(b_p) sum S x[x_0] ...
        x[x_(p-1)] over the sorted tuples, and its gradient takes each
        position of a tuple in turn (see _block_gradient).  With both asked
        for, Euler's identity x . grad H_p = p H_p gives the values from the
        gradients, and the gradients are the same, bit for bit, as a pass for
        gradients alone.  For values alone only the last position's product
        is made: it counts each sorted tuple once, so G . x is H_p itself.
        The calling thread takes the first half of each power's blocks and
        the process's worker thread the second (see _halfway), when that
        half holds _HALF_BYTES or more; their two sums are added in that
        order, so a pass is the same bit for bit every time, and an
        exception in either half reaches the caller once both are done.
        Rows of X go in chunks of at most N rows, fewer where a piece of a
        block's scratch would pass _K_BYTES = 8 MiB: each holds at most the
        chunk's rows times the block's rows or columns, whichever are more
        (a p = 2 block's columns, N - b0, outnumber its 16 rows).  For p = 3
        at N = 400 a chunk is up to 163 rows.  A row outside the radius
        _R_GUARD sqrt(N) is a DomainError.
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
        for a in range(0, k, step):
            Xc = X[a:a + step]
            theirs = (_worker().submit(self._half, 1, Xc, gradients)
                      if any(self._halves[1].values()) else None)
            try:
                mine = self._half(0, Xc, gradients)
            finally:  # the worker is done with the scratch before anything moves on
                theirs = theirs.result() if theirs is not None else {}
            for p, b in self.mixture.coeffs.items():
                G = mine[p] + theirs[p] if p in theirs else mine[p]
                G *= math.sqrt(b)
                if values:  # Euler's identity, or without gradients H_p itself
                    out_values[a:a + step] += (G * Xc).sum(axis=1) / (p if gradients else 1)
                if gradients:
                    out_grads[a:a + step] += G
        return out_values, out_grads

    def _half(self, h: int, X: np.ndarray, gradients: bool) -> dict:
        """Each power's gradient part over half h of its blocks, at the rows
        of X, in scratch buffer h, grown to the rows of X if it holds fewer."""
        if self._scratch[h].shape[1] < len(X) * self._widest:
            self._scratch[h] = np.empty((3, len(X) * self._widest))
        work = self._scratch[h][:, :len(X) * self._widest].reshape(3, len(X), -1)
        parts = {}
        for p, blocks in self._halves[h].items():
            G = parts[p] = np.zeros(X.shape)
            for b0, b1, B in blocks:
                _block_gradient(G, X, B, b0, b1, gradients, work)
        return parts

    def gradient_batch(self, X: np.ndarray) -> np.ndarray:
        """Gradients at the rows of X: one read of the stored tensors."""
        return self._contract(X, values=False)[1]

    def value_batch(self, X: np.ndarray) -> np.ndarray:
        """Energies at the rows of X: one read of the stored tensors."""
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


def _halfway(blocks: list) -> int:
    """The cut s that splits the blocks into blocks[:s] and blocks[s:] of
    the nearest stored bytes, the first half the larger on a tie."""
    sizes = [0, *itertools.accumulate(B.size for _, _, B in blocks)]
    return min(range(len(sizes)), key=lambda s: (abs(2 * sizes[s] - sizes[-1]), -s))


_WORKER: tuple = (None, None)  # (pid, executor) of the process's one worker thread
_WORKER_LOCK = threading.Lock()


def _worker() -> ThreadPoolExecutor:
    """The process's one worker thread, made on first use and again in a
    child after os.fork (which copies the executor but not its thread).
    The tensor draw's generator and the second half of every pass run on
    it; neither waits on anything, so work queued from several threads
    runs in turn."""
    global _WORKER
    with _WORKER_LOCK:
        pid, pool = _WORKER
        if pid != os.getpid():
            pool = ThreadPoolExecutor(1, thread_name_prefix="glassdyn")
            _WORKER = (os.getpid(), pool)
    return pool


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


def _pieces(k: int, size: int) -> list:
    """Row ranges [r0, r1) that cut k rows, each row a product of size
    multiply-adds, into products under _BLAS_MADDS (one row at least)."""
    step = max(1, (_BLAS_MADDS - 1) // size)
    return [(r0, min(k, r0 + step)) for r0 in range(0, k, step)]


def _block_gradient(G: np.ndarray, X: np.ndarray, B: np.ndarray, b0: int, b1: int,
                    gradients: bool, work: np.ndarray):
    """Add to G the gradient at the rows of X of the sum over block B's
    tuples, or with gradients False its last position's part alone.

    B's axes are the coordinates (x_(p-2), x_0, ..., x_(p-3), x_(p-1)),
    and the derivative takes each position of a tuple in turn.  Per slice
    B[i], i a value of x_(p-2), two products: T_i = K @ B[i], with K the
    row-wise products of x_0, ..., x_(p-3) (X[:, :b1] itself for p = 3),
    and Z_i = B[i] @ Y, with Y the columns x_(p-1) of X, transposed.  They
    run back to back over a few slices at a time, at most _L2_BYTES of
    them, so the second reads the slices from cache: the block is read
    from memory once.  Rows of X go through them in pieces (see _pieces)
    so that no product reaches OpenBLAS's threshold for threading, and no
    BLAS thread wakes up beside the pass's own two.  Then, once per block:
    sum_i x_i T_i is the part of x_(p-1) and T_i . x that of x_(p-2), and
    sum_i x_i Z_i, contracted with all other row coordinates but one, those
    of x_0, ..., x_(p-3).  For p = 2 the parts are X[:, b0:b1] @ B and
    X[:, b0:] @ B.T.  An unsorted position holds 0.0, so the products
    count each sorted tuple once.  T goes to work[0] of work (3, k, width),
    for as many slices at a time as width allows (all of them unless
    N - b0 is more than a sixteenth of the width), Z to work[1] and K to
    work[2].
    """
    (_, k, width), p, C = work.shape, B.ndim, B.shape[-1]
    xl, n = X[:, b0:], b1 - b0
    if p == 2:
        for r0, r1 in _pieces(k, n * C):
            G[r0:r1, b0:] += np.matmul(X[r0:r1, b0:b1], B)
            if gradients:
                G[r0:r1, b0:b1] += np.matmul(xl[r0:r1], B.T)
        return
    w0, w1, w2 = work.reshape(3, -1)
    vs, B = [X[:, :b1]] * (p - 2), B.reshape(n, -1, C)
    K, R, xs = _outer(vs, w2), B.shape[1], X[:, None, b0:b1]
    Z, Y = w1[:n * R * k].reshape(n, R, k), xl.T.copy()
    per_t = min(n, width // C)  # slices whose T fits w0
    per_read = max(1, min(per_t, _L2_BYTES // B[0].nbytes))
    pieces = _pieces(k, R * C)
    for t0 in range(0, n, per_t):
        t1 = min(n, t0 + per_t)
        T = w0[:(t1 - t0) * k * C].reshape(t1 - t0, k, C)
        for i in range(t0, t1, per_read):
            Bi = B[i:min(t1, i + per_read)]
            for r0, r1 in pieces:
                np.matmul(K[r0:r1], Bi, out=T[i - t0:i - t0 + len(Bi), r0:r1])
                if gradients:
                    np.matmul(Bi, Y[:, r0:r1], out=Z[i:i + len(Bi), :, r0:r1])
        T = T.transpose(1, 0, 2)
        G[:, b0:] += np.matmul(xs[:, :, t0:t1], T)[:, 0]
        if gradients:
            G[:, b0 + t0:b0 + t1] += np.matmul(T, xl[:, :, None])[:, :, 0]
    if not gradients:
        return
    for part in _partials(np.matmul(xs, Z.transpose(2, 0, 1))[:, 0], vs):
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
    of them and _DRAW_VALUES values) into a ring of _DRAW_RING buffers: the
    process's worker thread (see _worker) draws up to three chunks ahead
    while this one folds (the generator releases the GIL), so a slow index
    does not leave the generator idle.  The entry at a sorted tuple x is w
    times the sum of D at x permuted by each sg, added in
    itertools.permutations order, times the tuple's orbit size; sg[0]
    never decreases in that order, so the terms arrive index by index,
    those of D[x_k] when the draw reaches i = x_k, and they are added
    straight into the tuple's own slot (see _fold).  A chunk's first
    indices are, as x_(p-1), the columns of the blocks; their last terms
    come after the chunk's other positions (see _finish).  Once every
    chunk is in, each block is scaled and its unsorted positions written
    0.0 in one sweep (see _scale), which gives each slot the same
    operations in the same order as scaling it column by column.  The
    full tensor never exists: the draw holds the stored tensor,
    8 sum_g (b1 - b0) b1^(p-2) (N - b0) bytes, plus the ring: 104 MiB
    traced for p = 3 at N = 400.
    """
    P = np.zeros(_spans(N, p)[-1][3])
    blocks = _blocks(P, N, p)
    rows = min(N, max(_DRAW_ROWS, _DRAW_VALUES // N ** (p - 1)))  # per chunk
    heads = range(0, N, rows)
    bufs = [np.empty((rows,) + (N,) * (p - 1)) for _ in range(_DRAW_RING)]
    chunks = [bufs[a % _DRAW_RING][:min(rows, N - b)] for a, b in enumerate(heads)]
    pool = _worker()  # one thread: the chunks are drawn in order
    drawn = [pool.submit(rng.standard_normal, out=C) for C in chunks[:_DRAW_RING - 1]]
    try:
        for a, c0 in enumerate(heads):
            if a + _DRAW_RING - 1 < len(chunks):  # its buffer held chunk a - 1
                drawn.append(pool.submit(rng.standard_normal, out=chunks[a + _DRAW_RING - 1]))
            drawn[a].result()
            for i, M in enumerate(chunks[a], c0):
                g = i // _GROUP
                for k in range(p - 1):
                    # the blocks with x_(p-2) = i, or x_(p-2) >= i for k < p - 2
                    for b0, b1, B in blocks[g:g + 1] if k == p - 2 else blocks[g:]:
                        _fold(B, M, k, i, b0, b1)
            c1 = c0 + len(chunks[a])
            for b0, b1, B in blocks[:(c1 - 1) // _GROUP + 1]:
                _finish(B, chunks[a], c0, b0, b1)
    finally:  # no draw is left writing into the ring
        for f in drawn:
            f.cancel()
        wait(drawn)
    w = N ** (-(p - 1) / 2.0) / math.factorial(p)
    for b0, b1, B in blocks:
        _scale(B, b0, b1, w)
    return P


def _fold(B: np.ndarray, M: np.ndarray, k: int, i: int, b0: int, b1: int):
    """Add the terms D[i] = M to the sums of block B's tuples with x_k = i,
    for k < p - 1.

    y, x without x_k, runs over the box of indices up to i before position
    k and from i on after it, cut to the block; the terms M[y permuted]
    are turned to the block's axis order.  At k = 0 the first term starts
    the sum.  The box holds unsorted tuples too; their sums are zeroed
    when the draw is complete (see _scale).
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


def _finish(B: np.ndarray, D: np.ndarray, c0: int, b0: int, b1: int):
    """Add the terms of the chunk D = D[c0:c1] as the last position x_(p-1)
    to the columns c0 .. c1 - 1 of block B.

    Every row of the block takes part, so the column's sums are complete:
    later indices add only to columns beyond it.  S has the columns first
    and the adds run in its C order, so their inner loops run over a row
    coordinate, not over the chunk's few columns.
    """
    p = D.ndim
    a, c1 = max(b0, c0), c0 + len(D)
    y = [slice(0, b1)] * (p - 2) + [slice(b0, b1)]
    S = np.moveaxis(B[..., a - b0:c1 - b0], -1, 0)
    for sg, axes in _steps(p, p - 1):
        T = D[(slice(a - c0, c1 - c0), *(y[j] for j in sg))].transpose([0] + [1 + j for j in axes])
        np.add(S, T, out=S, order="C")


def _scale(B: np.ndarray, b0: int, b1: int, w: float):
    """Scale block B's sums by w and then by their orbit sizes, and write
    0.0 at its unsorted positions: the rows that are not sorted and, in a
    row with x_(p-2) = b0 + i, the columns below it.

    The two scales run over a few rows at a time, at most _L2_BYTES of
    them, so the block is read from memory once.  A sum at x_(p-1) =
    x_(p-2), on the block's diagonal, takes the orbit size with the tie.
    """
    open_, tie, unsorted = _orbits(B.ndim, b0, b1)
    n, i = b1 - b0, np.arange(b1 - b0)
    diagonal = B[i, ..., i] * w * tie
    rows, factors = B.reshape(-1, B.shape[-1]), open_.reshape(-1, 1)
    step = max(1, _L2_BYTES // (8 * B.shape[-1]))
    for r in range(0, len(rows), step):
        S = rows[r:r + step]
        np.multiply(S, w, out=S)
        np.multiply(S, factors[r:r + step], out=S)
    B[i, ..., i] = diagonal
    below = (i[None, :] < i[:, None]).reshape((n,) + (1,) * (B.ndim - 2) + (n,))
    np.copyto(B[..., :n], 0.0, where=below)
    B[unsorted] = 0.0


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
    u = None if u_perp is None else u_perp / m.nu(spec.target.q_star**2, 1)
    out = _mean_eval(spec, solve_weights(spec.target, m, Vhat), u, what == "value",
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

    u is the observed gradient orthogonal to the conditioned directions
    divided by nu'(q_star^2), a constant its caller computes once.  The
    mean is -N v(q, y) - nu'(q) (X . u), with q and y the overlaps of a
    row with x_star and x_0.  One product X @ R.T over the rows R =
    (x_star, x_0, u) gives q, y and X . u, and one (k, 3) @ (3, N) product
    C @ R the gradient: the coefficient of x_star is -vx - nu''(q) (X . u)
    / N, of x_0 -vy, and of u -nu'(q).  nu'(q) and nu''(q) are evaluated
    once and shared with vx and vy.  Without u, R has its first two rows.
    Linear in (vf.w, u): the mean with weights w1 - w2 and handle u1 - u2
    is the difference of the two means.
    """
    N, m = spec.N, vf.mixture
    R = np.stack([spec.x_star, spec.x_0] + ([] if u is None else [u]))
    P = X @ R.T
    q, y = P[:, 0] / N, P[:, 1] / N
    value = grad = None
    d1 = m.nu(q, 1) if gradients or u is not None else None
    if values:
        value = -N * vf.v(q, y)
        if u is not None:
            value -= d1 * P[:, 2]
    if gradients:
        d2 = m.nu(q, 2)
        C = np.empty(P.shape)
        C[:, 0], C[:, 1] = -vf.vx(q, y, d1, d2), -vf.vy(q, y, d1)
        if u is not None:
            C[:, 0] -= d2 * P[:, 2] / N
            C[:, 2] = -d1
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
    w_tgt - w_obs and u, divided once by the constant nu'(q_star^2) (see
    _mean_eval).  Each batch call makes one tensor pass and one
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
            self._u /= m.nu(ic.q_star**2, 1)  # the mean's constant, once per field
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
