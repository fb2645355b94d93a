"""Finite-N mixed p-spin Gaussian field: sampling, evaluation, conditioning.

The random energy is a sum over dense coupling tensors, one per active power
p.  Each tensor is drawn with i.i.d. entries of variance N^(1-p), which gives
the covariance Cov(H(x), H(y)) = N nu(<x,y>/N), and is then symmetrized:
averaged over all axis permutations.  The stored entries are no longer
i.i.d., but H is the same function of x, so the covariance law is unchanged.
A symmetric tensor is kept as its packed rows J[i1, ..., i_(p-1), :] with
i1 <= ... <= i_(p-1), in lexicographic order: N(N+1)/2 rows for p = 3, half
the bytes of the full tensor, and J itself for p = 2.  The i.i.d. entries
are drawn slab by slab and summed straight into those rows, so the full
tensor never exists and the result is the same, bit for bit, as averaging
the whole drawn tensor.  One matrix product with those rows gives the
gradient for a whole batch of points, so each SDE step streams half the
bytes it would over the full tensor.  ConditioningSpec(target, N, seed)
builds the pinned point x_star and the start x_0 from the InitCondition
alone.  Conditioning on
the value at the start point and on value/gradient at a critical point is
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
from typing import NamedTuple

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
_SYM_BLOCK = 25  # slab thickness of the draw, edge of the averaged sub-blocks
_K_BYTES = 64 * 2**20  # most bytes of the row factor K in one tensor pass


@dataclass
class SpinSystem:
    """One realization of the symmetrized coupling tensors at size N.

    tensors[p] holds the packed rows of the p-tensor (see _layout): an
    (N(N+1)/2, N) array for p = 3, (N, N) for p = 2.  The draw writes them
    directly and the full tensor never exists: a p = 3 system keeps
    4 N^2 (N + 1) bytes, and its draw needs two slabs of _SYM_BLOCK N^2
    entries more.
    """

    N: int
    mixture: Mixture
    tensors: dict[int, np.ndarray]
    seed: int

    def _contract(self, X: np.ndarray):
        """Values and gradients at the rows of X, one GEMM per power p.

        With J symmetric, grad H_p(x) = p sqrt(b_p) J(x, ..., x, .), and a
        packed row (i1 <= ... <= i_(p-1)) stands for every ordering of its
        indices, so the contraction is K from _row_factor times the packed
        tensor.  Euler's identity x . grad H_p = p H_p gives the values from
        the same product.  Rows of X go in chunks of at most N rows and at
        most _K_BYTES = 64 MiB of K, so a pass holds the packed tensors and
        no more than 64 MiB beside them; for p = 3 up to N = 255 a chunk is
        N rows.  The dominant cost is streaming each tensor once per chunk.
        A row outside the radius _R_GUARD sqrt(N) is a DomainError.
        """
        k, N = X.shape
        if (np.linalg.norm(X, axis=1) > _R_GUARD * math.sqrt(N)).any():
            raise DomainError("evaluation point outside the radius guard")
        values, grads = np.zeros(k), np.zeros((k, N))
        widest = max(len(T) for T in self.tensors.values())
        step = max(1, min(N, _K_BYTES // (8 * widest)))
        for a in range(0, k, step):
            Xc = X[a:a + step]
            for p, b in self.mixture.coeffs.items():
                G = _row_factor(Xc, p) @ self.tensors[p]
                bp = math.sqrt(b)
                values[a:a + step] += bp * (G * Xc).sum(axis=1)
                grads[a:a + step] += (p * bp) * G
        return values, grads

    def gradient_batch(self, X: np.ndarray) -> np.ndarray:
        """Gradients at the rows of X: one tensor pass per power p."""
        return self._contract(X)[1]

    def value_batch(self, X: np.ndarray) -> np.ndarray:
        """Energies at the rows of X: one tensor pass per power p."""
        return self._contract(X)[0]


class _Layout(NamedTuple):
    starts: list              # starts[m][i]: first sorted m-tuple beginning with i
    source: np.ndarray        # row of each packed row in the (N^(p-1), N) reshape
    row_of: np.ndarray        # packed row of each (p-1)-tuple's sorted order
    repeats: np.ndarray       # packed rows with a repeated index
    repeat_scale: np.ndarray  # their mult / (p-1)!


@functools.lru_cache(maxsize=32)
def _layout(N: int, p: int) -> _Layout:
    """Packed rows of a symmetric p-tensor: the sorted (p-1)-tuples, in order.

    A row stands for mult = (p-1)!/prod(run length)! orderings of its
    indices; the product of the run-length factorials is accumulated one
    position at a time as the length of the run so far.
    """
    digits = np.indices((N,) * (p - 1)).reshape(p - 1, -1)
    source = np.flatnonzero((np.diff(digits, axis=0) >= 0).all(axis=0))
    row_of = np.empty(digits.shape[1], np.intp)
    row_of[source] = np.arange(len(source))
    row_of = row_of[np.ravel_multi_index(np.sort(digits, axis=0), (N,) * (p - 1))]
    run, denom = np.ones(len(source), int), np.ones(len(source), int)
    for prev, cur in itertools.pairwise(digits[:, source]):
        run = np.where(cur == prev, run + 1, 1)
        denom *= run
    repeats = np.flatnonzero(denom > 1)
    # in lexicographic order the C(N - i + m - 1, m) sorted m-tuples
    # beginning with i or more end the list
    starts = [None] + [[math.comb(N + m - 1, m) - math.comb(N - i + m - 1, m)
                        for i in range(N + 1)] for m in range(1, p)]
    return _Layout(starts, source, row_of, repeats, 1.0 / denom[repeats])


def _row_factor(X: np.ndarray, p: int) -> np.ndarray:
    """K[:, r] = mult_r x_i1 ... x_i(p-1) over the packed rows r of a p-tensor.

    Built transposed, one contiguous product per level and first index i:
    level m rows beginning with i are x_i times the level m - 1 suffix.  The
    factor (p-1)! rides on the first level; the rows with a repeated index
    are then scaled back to their mult (exactly, for p = 3).
    """
    if p == 2:
        return X
    N = X.shape[1]
    lay = _layout(N, p)
    XT = X.T.copy()
    K = math.factorial(p - 1) * XT
    for m in range(2, p):
        prev, new = lay.starts[m - 1], lay.starts[m]
        out = np.empty((new[N], len(X)))
        for i in range(N):
            np.multiply(K[prev[i]:], XT[i], out=out[new[i]:new[i + 1]])
        K = out
    K[lay.repeats] *= lay.repeat_scale[:, None]
    return K.T


def _draw_symmetric(rng: np.random.Generator, N: int, p: int) -> np.ndarray:
    """Packed rows of standard normals times N^(-(p-1)/2), symmetrized.

    The i.i.d. draw is the stream of one standard_normal call of N^p values,
    taken in slabs of _SYM_BLOCK along the first axis into two reused
    buffers: a worker thread draws the next slab while this one is added
    (the generator releases the GIL).  The entry at a sorted index tuple t is
    w times the sum of the drawn entries at t permuted by each sg, added in
    itertools.permutations order.  sg[0] never decreases in that order, so
    for a sorted tuple s of block starts the terms arrive slab by slab in
    that same order, and each slab's terms are added to the partial sums
    kept in the packed box of s (see _add_slab).  The full tensor never
    exists: the draw peaks at the packed rows plus two slabs, 306 MiB for
    p = 3 at N = 400.
    """
    lay = _layout(N, p)
    P = np.empty((len(lay.source), N))
    perms = list(itertools.permutations(range(p)))
    w = N ** (-(p - 1) / 2.0) / len(perms)
    blocks = range(0, N, _SYM_BLOCK)
    tuples = list(itertools.combinations_with_replacement(blocks, p))
    bufs = [np.empty((min(_SYM_BLOCK, N),) + (N,) * (p - 1)) for _ in range(2)]
    slabs = [bufs[a % 2][:min(_SYM_BLOCK, N - b)] for a, b in enumerate(blocks)]
    with ThreadPoolExecutor(1) as pool:
        drawn = pool.submit(rng.standard_normal, out=slabs[0])
        for a, b in enumerate(blocks):
            drawn.result()
            if a + 1 < len(slabs):  # its buffer held the slab before this one
                drawn = pool.submit(rng.standard_normal, out=slabs[a + 1])
            for s in tuples:
                if b in s:
                    _add_slab(P, slabs[a], s, b, perms, w)
    return P


def _add_slab(P: np.ndarray, slab: np.ndarray, s: tuple, b: int, perms: list,
              w: float):
    """Add the terms drawn in slab b to the packed box of sorted block starts s.

    The box of s holds the packed rows of the index tuples in the blocks of
    s[:-1], at the columns of block s[-1].  At b = s[0] the identity term
    starts the sum; until b = s[-1] the partial sum waits in the box.  After
    the last term the sum is scaled by w, each entry takes the value at its
    sorted index, and the result goes, transposed, to every box whose blocks
    are a reordering of s with sorted row blocks.
    """
    N = P.shape[1]
    sl = [slice(t, min(t + _SYM_BLOCK, N)) for t in s]
    terms = [slab[(slice(None),) + tuple(sl[a] for a in sg[1:])].transpose(np.argsort(sg))
             for sg in perms if s[sg[0]] == b]
    if b == s[0]:  # perms[0] is the identity
        S = terms.pop(0).copy()
    else:
        S = P[_box_rows(N, s[:-1])[0], sl[-1]]
    for A in terms:
        S += A
    if b < s[-1]:
        _put(P, S, s)
        return
    S *= w
    if len(set(s)) < len(s):
        S = S.ravel()[_sorted_in_box(tuple(s.index(t) for t in s), S.shape)]
    placed = set()
    for sg in perms:
        u = tuple(s[a] for a in sg)
        if u not in placed and list(u[:-1]) == sorted(u[:-1]):
            placed.add(u)
            _put(P, S.transpose(sg), u)


@functools.lru_cache(maxsize=1024)
def _box_rows(N: int, heads: tuple):
    """Packed rows of the index tuples in the blocks starting at heads.

    An unsorted tuple gets the row of its sorted one; keep marks the sorted
    tuples, whose rows are their own, and is None when all of them are.
    """
    flat = np.ravel_multi_index(
        np.ix_(*[np.arange(h, min(h + _SYM_BLOCK, N)) for h in heads]), (N,) * len(heads))
    lay = _layout(N, len(heads) + 1)
    rows = lay.row_of[flat]
    keep = lay.source[rows] == flat
    return rows, None if keep.all() else keep


def _put(P: np.ndarray, T: np.ndarray, u: tuple):
    """Write box T to the packed rows of block starts u[:-1], columns block u[-1]."""
    rows, keep = _box_rows(P.shape[1], u[:-1])
    cols = slice(u[-1], u[-1] + T.shape[-1])
    if keep is None:
        P[rows, cols] = T
    else:
        P[rows[keep], cols] = T[keep]


@functools.lru_cache(maxsize=32)
def _sorted_in_box(pattern: tuple, shape: tuple) -> np.ndarray:
    """Flat position in a box of the sorted index of each of its entries.

    pattern[a] names the block of axis a (equal for a repeated block); a box
    never spans two different blocks, so sorting stays inside each block.
    """
    off = np.reshape(pattern, (len(shape),) + (1,) * len(shape)) * _SYM_BLOCK
    idx = np.sort(np.indices(shape) + off, axis=0) - off
    return np.ravel_multi_index(tuple(idx), shape)


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
    out = _mean_eval(spec, solve_weights(spec.target, m, Vhat), u_perp,
                     np.atleast_2d(x))[what == "gradient"]
    if not np.isfinite(out).all():
        raise DomainError("conditional mean overflows at these conditioned values")
    if np.ndim(x) == 2:
        return out
    return float(out[0]) if what == "value" else out[0]


def _mean_eval(spec: ConditioningSpec, vf: VFunction, u: np.ndarray | None,
               X: np.ndarray):
    """Conditional mean and its gradient at the rows of X.

    The mean is -N v(q, y) - nu'(q) (X . u) / nu'(q_star^2), with q and y
    the overlaps of a row with x_star and x_0, so its gradient is
    -(vx x_star + vy x_0) plus the terms of u.  Linear in (vf.w, u): the
    mean with weights w1 - w2 and handle u1 - u2 is the difference of the
    two means.
    """
    N, m = spec.N, vf.mixture
    q, y = X @ spec.x_star / N, X @ spec.x_0 / N
    value = -N * vf.v(q, y)
    # in place: value_batch builds the gradient too, so its temporaries stay few
    grad = np.outer(vf.vx(q, y), -spec.x_star)
    grad -= np.outer(vf.vy(q, y), spec.x_0)
    if u is None:
        return value, grad
    gam, d1, uterm = m.nu(vf.q_star**2, 1), m.nu(q, 1), X @ u
    du = np.outer(m.nu(q, 2) * uterm, spec.x_star / N)
    du += np.outer(d1, u)
    grad -= np.divide(du, gam, out=du)
    return value - d1 * uterm / gam, grad


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
    w_tgt - w_obs and u, and each batch call makes one mean evaluation.  The
    batch values and gradients interpolate the target data exactly: the
    start-point energy is -N E, the critical-point energy -N E_star and its
    gradient -G_star x_star, up to round-off.
    """

    def __init__(self, sys: SpinSystem, spec: ConditioningSpec):
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
        return self.sys.gradient_batch(X) + _mean_eval(self.spec, self._vf, self._u, X)[1]

    def value_batch(self, X: np.ndarray) -> np.ndarray:
        return self.sys.value_batch(X) + _mean_eval(self.spec, self._vf, self._u, X)[0]


def conditioned_field(sys: SpinSystem, spec: ConditioningSpec) -> ConditionedField:
    return ConditionedField(sys, spec)
