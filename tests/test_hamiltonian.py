"""Finite-N field: covariance law, gradients, exact conditioning."""

import functools
import hashlib
import itertools
import math
import os
import signal
import sys as sys_module
import threading
import time
import tracemalloc
import warnings
from sys import gettrace, settrace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glassdyn.acceptance import _basis_hessian_gap
from glassdyn import hamiltonian
from glassdyn.errors import ConfigError, DomainError
from glassdyn.hamiltonian import (
    ConditioningSpec, conditional_mean, conditional_mean_hessian,
    check_system_size, conditioned_field, sample_band_point, sample_system,
)
from glassdyn.init_params import InitCondition, solve_w
from glassdyn.mixture import Mixture

M23 = Mixture({2: 1.0, 3: 0.5})
M234 = Mixture({2: 1.0, 3: 1.0, 4: 0.5})


def _random_sphere_point(rng, N):
    x = rng.standard_normal(N)
    return x * math.sqrt(N) / np.linalg.norm(x)


def _value(field, x):
    """Energy of a field at one point: its one-row batch."""
    return field.value_batch(x[None])[0]


def _gradient(field, x):
    """Gradient of a field at one point: its one-row batch."""
    return field.gradient_batch(x[None])[0]


def _block_sizes(N, p):
    """Entries of each block of the stored p-tensor, one block per 16
    values of x_(p-2): the grid of its rows times its N - b0 columns."""
    return [(min(b0 + 16, N) - b0) * min(b0 + 16, N) ** (p - 2) * (N - b0)
            for b0 in range(0, N, 16)]


def _slots(N, p):
    """The stored position of each of the N^p index tuples (in C order), the
    size of its orbit (its number of distinct orderings), and whether it is
    sorted.

    A tuple is kept at its sorted copy x_0 <= ... <= x_(p-1): in block
    g = x_(p-2) // 16, spanning b0 = 16 g to b1 = min(b0 + 16, N), at row
    (x_(p-2) - b0, x_0, ..., x_(p-3)) of the grid [b0, b1) x [0, b1)^(p-2),
    column x_(p-1) - b0 of N - b0.  The blocks follow each other in order.
    """
    t = np.indices((N,) * p).reshape(p, -1)
    s = np.sort(t, axis=0)
    b0 = s[p - 2] // 16 * 16
    b1 = np.minimum(b0 + 16, N)
    first = np.cumsum([0] + _block_sizes(N, p))
    row = s[p - 2] - b0
    for d in range(p - 2):
        row = row * b1 + s[d]
    pos = first[s[p - 2] // 16] + row * (N - b0) + s[p - 1] - b0
    run, repeats = np.ones(t.shape[1], int), np.ones(t.shape[1], int)
    for d in range(1, p):
        run = np.where(s[d] == s[d - 1], run + 1, 1)
        repeats *= run
    return pos, math.factorial(p) // repeats, (t == s).all(axis=0)


def _unpack(P, N, p):
    """The full p-tensor from its stored form: every ordering of a tuple
    reads the tuple's sorted slot, divided by the tuple's orbit size."""
    assert P.shape == (sum(_block_sizes(N, p)),)
    pos, orbit, _ = _slots(N, p)
    return (P[pos] / orbit).reshape((N,) * p)


class TestSampling:
    def test_deterministic_given_seed(self):
        a = sample_system(M23, 12, 5)
        b = sample_system(M23, 12, 5)
        for p in a.tensors:
            np.testing.assert_array_equal(a.tensors[p], b.tensors[p])

    def test_variance_matches_covariance_law(self):
        # Var H(x) = N nu(1) on the sphere, Monte Carlo over disorder draws
        N, n_draws = 30, 200
        rng = np.random.default_rng(0)
        x = _random_sphere_point(rng, N)
        vals = np.array([_value(sample_system(M23, N, s), x) for s in range(n_draws)])
        assert vals.var() / (N * M23.nu(1.0)) == pytest.approx(1.0, abs=0.25)

    def test_cross_covariance_on_random_pair(self):
        N, n_draws = 30, 300
        rng = np.random.default_rng(1)
        x, y = _random_sphere_point(rng, N), _random_sphere_point(rng, N)
        hx, hy = [], []
        for s in range(n_draws):
            sys = sample_system(M23, N, 1000 + s)
            hx.append(_value(sys, x))
            hy.append(_value(sys, y))
        cov = np.cov(hx, hy)[0, 1]
        assert cov / N == pytest.approx(M23.nu(x @ y / N), abs=0.3)

    def test_zero_point(self):
        sys = sample_system(M23, 10, 2)
        assert _value(sys, np.zeros(10)) == 0.0
        np.testing.assert_array_equal(_gradient(sys, np.zeros(10)), 0.0)

    def test_memory_guard(self):
        with pytest.raises(ConfigError):
            sample_system(Mixture.pure(4), 5000, 0)

    @pytest.mark.parametrize("p, N", [(2, 53), (3, 53), (4, 27)])
    def test_stored_tensor_symmetric_bit_for_bit(self, p, N):
        J = _unpack(sample_system(Mixture.pure(p), N, 4).tensors[p], N, p)
        for perm in itertools.permutations(range(p)):
            np.testing.assert_array_equal(J, J.transpose(perm))

    @pytest.mark.parametrize("p, N", [(2, 53), (3, 53), (4, 27)])
    def test_matches_unsymmetrized_draw(self, p, N):
        # symmetrizing changes the stored entries, not H as a function
        seed = 6
        raw = (np.random.default_rng(seed).standard_normal((N,) * p)
               * N ** (-(p - 1) / 2.0))
        sys = sample_system(Mixture.pure(p), N, seed)
        perms = list(itertools.permutations(range(p)))
        np.testing.assert_allclose(
            _unpack(sys.tensors[p], N, p),
            sum(raw.transpose(sg) for sg in perms) / len(perms),
            rtol=1e-13, atol=1e-15 * np.abs(raw).max())
        x = _random_sphere_point(np.random.default_rng(p), N)
        letters = "abcd"[:p]
        h = np.einsum(f"{letters},{','.join(letters)}->", raw, *[x] * p)
        grad = sum(np.einsum(f"{letters},{','.join(letters[:a] + letters[a + 1:])}"
                             f"->{letters[a]}", raw, *[x] * (p - 1))
                   for a in range(p))
        assert _value(sys, x) == pytest.approx(h, rel=1e-12)
        np.testing.assert_allclose(_gradient(sys, x), grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(grad).max())

    def test_overlapped_draw_is_reproducible(self):
        # a worker thread draws up to three chunks ahead of the averaging
        N = 79
        first = sample_system(Mixture.pure(3), N, 9).tensors[3]
        for _ in range(5):
            np.testing.assert_array_equal(
                sample_system(Mixture.pure(3), N, 9).tensors[3], first)

    def test_draw_under_a_tracer_that_reads_locals(self):
        # a tracer that reads frame locals (as profilers and debuggers do)
        # holds extra references to the draw's buffers; it must not change
        # the draw
        def tracer(frame, event, arg):
            frame.f_locals
            return tracer

        previous = gettrace()
        settrace(tracer)
        try:
            traced = sample_system(Mixture.pure(3), 12, 0).tensors[3]
        finally:
            settrace(previous)
        plain = sample_system(Mixture.pure(3), 12, 0).tensors[3]
        np.testing.assert_array_equal(traced, plain)

    @staticmethod
    def _ring_bytes(N, p):
        rows = max(hamiltonian._DRAW_ROWS, hamiltonian._DRAW_VALUES // N ** (p - 1))
        return 8 * hamiltonian._DRAW_RING * min(N, rows) * N ** (p - 1)

    def test_symmetrization_does_not_double_memory(self):
        N = 200
        tracemalloc.start()
        try:
            sys = sample_system(Mixture.pure(3), N, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # only the one entry per sorted tuple, in blocks, is kept after the draw
        stored = sys.tensors[3].nbytes
        assert stored == 8 * sum(_block_sizes(N, 3)) == 8 * 1663488
        assert peak <= stored + self._ring_bytes(N, 3) + 8 * 2**20

    def test_draw_peaks_at_packed_rows_plus_two_slabs(self):
        # the full tensor is never allocated: beside the stored blocks the
        # draw holds its ring of chunks of first indices and a few pieces
        for p, N in ((2, 400), (3, 200), (4, 40)):
            tracemalloc.start()
            try:
                stored = sample_system(Mixture.pure(p), N, 0).tensors[p].nbytes
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert stored == 8 * sum(_block_sizes(N, p)), (p, N)
            assert peak <= stored + self._ring_bytes(N, p) + 8 * 2**20, (p, N)

    @pytest.mark.parametrize("p, N", [
        (2, 53), (3, 53), (4, 27),
        *((p, N) for N in (1, 18, 25, 32, 51) for p in (2, 3, 4))])
    def test_equals_average_of_full_draw_bit_for_bit(self, p, N):
        # the average of the whole drawn tensor over its transposes, summed
        # in permutation order and then scaled, times the orbit size, at each
        # sorted tuple's slot, and 0.0 at every other position
        seed = 8
        J = np.random.default_rng(seed).standard_normal((N,) * p)
        perms = list(itertools.permutations(range(p)))
        S = sum(J.transpose(np.argsort(sg)) for sg in perms)
        S *= N ** (-(p - 1) / 2.0) / len(perms)
        pos, orbit, is_sorted = _slots(N, p)
        expected = np.zeros(sum(_block_sizes(N, p)))
        expected[pos[is_sorted]] = S.ravel()[is_sorted] * orbit[is_sorted]
        np.testing.assert_array_equal(
            sample_system(Mixture.pure(p), N, seed).tensors[p], expected)

    @pytest.mark.parametrize("p, N", [(p, N) for N in (1, 2, 17, 33) for p in (2, 3, 4)])
    def test_padding_is_zero_after_the_draw_and_after_passes(self, p, N):
        # the positions no sorted tuple owns hold +0.0, and no pass writes
        # the stored tensor
        pos, _, is_sorted = _slots(N, p)
        pad = np.ones(sum(_block_sizes(N, p)), bool)
        pad[pos[is_sorted]] = False
        assert pad.sum() == pad.size - math.comb(N + p - 1, p)
        sys = sample_system(Mixture({2: 0.7, p: 0.4}), N, 3)
        P = sys.tensors[p]
        assert (P[pad] == 0.0).all() and not np.signbit(P[pad]).any()
        drawn = P.copy()
        X = np.random.default_rng(4).standard_normal((2 * N + 3, N))
        sys.gradient_batch(X)
        sys.value_batch(X)
        np.testing.assert_array_equal(sys.tensors[p], drawn)
        assert not np.signbit(sys.tensors[p][pad]).any()


class TestEvalField:
    def test_pure2_quadratic_form(self):
        N = 15
        sys = sample_system(Mixture.pure(2), N, 3)
        J = _unpack(sys.tensors[2], N, 2)
        rng = np.random.default_rng(4)
        x = _random_sphere_point(rng, N)
        assert _value(sys, x) == pytest.approx(x @ J @ x)
        np.testing.assert_allclose(_gradient(sys, x), (J + J.T) @ x, rtol=1e-12)

    def test_gradient_matches_directional_difference(self):
        N = 12
        sys = sample_system(Mixture({2: 1.0, 3: 1.0, 4: 0.5}), N, 5)
        rng = np.random.default_rng(6)
        x = _random_sphere_point(rng, N)
        u = rng.standard_normal(N)
        u /= np.linalg.norm(u)
        eps = 1e-4
        fd = (_value(sys, x + eps * u) - _value(sys, x - eps * u)) / (2 * eps)
        assert _gradient(sys, x) @ u == pytest.approx(fd, rel=1e-5)

    def test_euler_identity_pure_p(self):
        for p in (2, 3, 4):
            N = 10
            sys = sample_system(Mixture.pure(p), N, 7)
            rng = np.random.default_rng(p)
            x = _random_sphere_point(rng, N)
            assert x @ _gradient(sys, x) == pytest.approx(p * _value(sys, x), rel=1e-12)

    def test_batch_consistency(self):
        N = 20
        sys = sample_system(Mixture({2: 0.7, 3: 0.4}), N, 8)
        X = np.random.default_rng(9).standard_normal((5, N))
        np.testing.assert_allclose(sys.gradient_batch(X),
                                   np.stack([_gradient(sys, x) for x in X]),
                                   atol=1e-12)
        np.testing.assert_allclose(sys.value_batch(X),
                                   np.array([_value(sys, x) for x in X]),
                                   atol=1e-12)

    def test_batch_across_row_chunks(self):
        # 2N + 3 rows go through the contraction in three chunks
        N = 9
        sys = sample_system(Mixture({2: 0.7, 3: 0.4, 4: 0.3}), N, 10)
        X = np.random.default_rng(11).standard_normal((2 * N + 3, N))
        rows = np.stack([_gradient(sys, x) for x in X])
        np.testing.assert_allclose(sys.gradient_batch(X), rows, rtol=1e-12,
                                   atol=1e-12 * np.abs(rows).max())
        vals = np.array([_value(sys, x) for x in X])
        np.testing.assert_allclose(sys.value_batch(X), vals, rtol=1e-12,
                                   atol=1e-12 * np.abs(vals).max())

    @pytest.mark.parametrize("N,k,budget_rows", [(9, 21, None), (70, 150, 10),
                                                 (100, 64, None), (40, 41, 40)])
    def test_row_factor_stays_within_its_byte_budget(self, monkeypatch, N, k,
                                                     budget_rows):
        # chunks of N rows of X; where the scratch of the widest block for a
        # chunk is more than budget_rows of X would make, the chunks are
        # smaller, and no block's K, Z or K @ B exceeds _K_BYTES
        sys = sample_system(Mixture({2: 0.7, 3: 0.4}), N, 14)
        X = np.random.default_rng(15).standard_normal((k, N))
        monkeypatch.setattr(hamiltonian, "_K_BYTES", 2**60)
        unbudgeted = sys._contract(X)
        monkeypatch.undo()
        # one row of X in the K of the widest p = 3 block: its rows are the
        # grid [b0, b1) x [0, b1)
        row_bytes = 8 * max((min(b0 + 16, N) - b0) * min(b0 + 16, N) for b0 in range(0, N, 16))
        if budget_rows is not None:
            monkeypatch.setattr(hamiltonian, "_K_BYTES", budget_rows * row_bytes + 7)
        calls = {2: [], 3: []}  # (rows of X, rows of the block, its columns)
        block_gradient = hamiltonian._block_gradient

        def recorded(G, X, B, *rest):
            calls[B.ndim].append((len(X), B.size // B.shape[-1], B.shape[-1]))
            return block_gradient(G, X, B, *rest)

        monkeypatch.setattr(hamiltonian, "_block_gradient", recorded)
        values, grads = sys._contract(X)
        chunk = min(N, k, budget_rows or N)
        assert max(r for r, _, _ in calls[3]) == chunk
        assert max(8 * r * max(m, c) for r, m, c in calls[2] + calls[3]) <= hamiltonian._K_BYTES
        # every row of X meets every stored entry once
        assert sum(r * m * c for r, m, c in calls[2]) == k * sum(_block_sizes(N, 2))
        assert sum(r * m * c for r, m, c in calls[3]) == k * sum(_block_sizes(N, 3))
        assert len(calls[3]) == -(-k // chunk) * -(-N // 16)
        smaller = budget_rows is not None and budget_rows < min(N, k)
        monkeypatch.undo()
        if not smaller:  # the chunks of a pass with no budget
            np.testing.assert_array_equal(values, unbudgeted[0])
            np.testing.assert_array_equal(grads, unbudgeted[1])
        np.testing.assert_allclose(values, unbudgeted[0], rtol=1e-12,
                                   atol=1e-12 * np.abs(unbudgeted[0]).max())
        np.testing.assert_allclose(grads, unbudgeted[1], rtol=1e-12,
                                   atol=1e-12 * np.abs(unbudgeted[1]).max())
        rows = np.stack([_gradient(sys, x) for x in X])
        np.testing.assert_allclose(grads, rows, rtol=1e-12,
                                   atol=1e-12 * np.abs(rows).max())
        vals = np.array([_value(sys, x) for x in X])
        np.testing.assert_allclose(values, vals, rtol=1e-12,
                                   atol=1e-12 * np.abs(vals).max())

    def test_pure_two_pass_stays_within_its_byte_budget(self, monkeypatch):
        # a p = 2 block has 16 rows and N - b0 columns, so the columns size
        # the chunks: 10 rows of X here, where the rows alone would allow 25
        # and make a K @ B of 8000 bytes
        N, k, budget_rows = 40, 41, 10
        sys = sample_system(Mixture.pure(2), N, 16)
        X = np.random.default_rng(17).standard_normal((k, N))
        unbudgeted = sys._contract(X)
        monkeypatch.setattr(hamiltonian, "_K_BYTES", budget_rows * 8 * N + 7)
        calls = []  # (rows of X, rows of the block, its columns)
        block_gradient = hamiltonian._block_gradient

        def recorded(G, X, B, *rest):
            calls.append((len(X), B.size // B.shape[-1], B.shape[-1]))
            return block_gradient(G, X, B, *rest)

        monkeypatch.setattr(hamiltonian, "_block_gradient", recorded)
        values, grads = sys._contract(X)
        assert max(r for r, _, _ in calls) == budget_rows
        assert max(8 * r * max(m, c) for r, m, c in calls) <= hamiltonian._K_BYTES
        assert sum(r * m * c for r, m, c in calls) == k * sum(_block_sizes(N, 2))
        np.testing.assert_allclose(values, unbudgeted[0], rtol=1e-12,
                                   atol=1e-12 * np.abs(unbudgeted[0]).max())
        np.testing.assert_allclose(grads, unbudgeted[1], rtol=1e-12,
                                   atol=1e-12 * np.abs(unbudgeted[1]).max())

    def test_eight_row_pass_is_one_gemm_bit_for_bit(self, monkeypatch):
        # the SDE steps of an 8-path run at N = 400: the scratch of every
        # block fits the budget, so the pass is one chunk, the same bit for
        # bit as a pass with no budget
        N, m = 400, Mixture({2: 1.0, 3: 0.1})
        sys = sample_system(m, N, 0)
        X = np.random.default_rng(1).standard_normal((8, N))
        X *= math.sqrt(N) / np.linalg.norm(X, axis=1)[:, None]
        calls = []
        block_gradient = hamiltonian._block_gradient

        def recorded(G, X, B, *rest):
            calls.append(8 * len(X) * max(B.size // B.shape[-1], B.shape[-1]))
            return block_gradient(G, X, B, *rest)

        monkeypatch.setattr(hamiltonian, "_block_gradient", recorded)
        got = sys._contract(X)
        assert len(calls) == 2 * 25 and max(calls) <= hamiltonian._K_BYTES
        monkeypatch.setattr(hamiltonian, "_K_BYTES", 2**60)
        unbudgeted = sys._contract(X)
        np.testing.assert_array_equal(got[0], unbudgeted[0])
        np.testing.assert_array_equal(got[1], unbudgeted[1])

    def test_radius_guard_covers_every_row(self):
        N = 10
        sys = sample_system(M23, N, 12)
        X = np.random.default_rng(13).standard_normal((3, N))
        X[2] *= 3.99 * math.sqrt(N) / np.linalg.norm(X[2])
        sys.value_batch(X)
        X[2] *= 4.01 / 3.99
        for evaluate in (sys.value_batch, sys.gradient_batch):
            with pytest.raises(DomainError, match="radius guard"):
                evaluate(X)

    @pytest.mark.parametrize("shape", [(2, 29), (2, 31), (30,)],
                             ids=["narrower", "wider", "one_d"])
    def test_batch_of_another_width_is_refused(self, shape):
        # laid out at its own width, a narrower batch would evaluate without error
        sys = sample_system(M23, 30, 1)
        X = np.full(shape, 0.5)
        for evaluate in (sys.value_batch, sys.gradient_batch):
            with pytest.raises(DomainError, match=rf"shape \({shape[0]},.*N = 30"):
                evaluate(X)


class TestPackedProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_batch_matches_einsum_on_unpacked(self, data):
        N = data.draw(st.integers(1, 20), label="N")
        powers = data.draw(st.sets(st.sampled_from([2, 3, 4]), min_size=1),
                           label="powers")
        m = Mixture({p: data.draw(st.floats(0.05, 2.0), label=f"b{p}")
                     for p in sorted(powers)})
        k = data.draw(st.integers(1, 2 * N + 1), label="k")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        sys = sample_system(m, N, seed)
        X = np.random.default_rng(seed).standard_normal((k, N))
        val, grad = np.zeros(k), np.zeros((k, N))
        val_scale, grad_scale = np.zeros(k), np.zeros((k, N))
        for p, b in m.coeffs.items():
            J = _unpack(sys.tensors[p], N, p)
            axes = "abcd"[:p]
            spec = f"{axes},{','.join('n' + a for a in axes[:-1])}->n{axes[-1]}"
            G = np.einsum(spec, J, *[X] * (p - 1))
            G_abs = np.einsum(spec, np.abs(J), *[np.abs(X)] * (p - 1))
            val += math.sqrt(b) * (G * X).sum(axis=1)
            val_scale += math.sqrt(b) * (G_abs * np.abs(X)).sum(axis=1)
            grad += p * math.sqrt(b) * G
            grad_scale += p * math.sqrt(b) * G_abs
        # relative to the magnitude of the summed terms, so cancellation is fair
        assert np.all(np.abs(sys.value_batch(X) - val) <= 1e-12 * val_scale)
        assert np.all(np.abs(sys.gradient_batch(X) - grad) <= 1e-12 * grad_scale)

    @settings(max_examples=25, deadline=None)
    @given(N=st.integers(-50, 0), seed=st.integers(0, 100))
    def test_size_below_one_is_config_error(self, N, seed):
        with pytest.raises(ConfigError, match="N"):
            sample_system(M23, N, seed)

    @settings(max_examples=25, deadline=None)
    @given(N=st.integers(1, 20), seed=st.integers(-2**63, -1))
    def test_negative_seed_is_config_error(self, N, seed):
        with pytest.raises(ConfigError, match="seed"):
            sample_system(M23, N, seed)


BAND_IC = InitCondition(0.7, 0.4, -0.3, 0.25, 0.3)
RS_IC = InitCondition(0.0, 0.3)


class TestBandPoint:
    @pytest.mark.parametrize("ic, N, seed, head, digest", [
        (BAND_IC, 64, 11, [3.428571428571429, 1.423932745762085, 1.282532526461517],
         "11f756093626be23e588cdb46c751e50bfe476005fa8ea87e75d3680f6b2c290"),
        (RS_IC, 16, 5, [-0.7967731100186447, -1.3158402358335184, -0.2467640696130156],
         "4684e22001ab7e29e606c559ee4695221febb702b21de7af378bb430e7a15eed"),
    ], ids=["band", "rs"])
    def test_draw_is_pinned_bit_for_bit(self, ic, N, seed, head, digest):
        # every finite-N result starts from this draw, so its bits are pinned
        x0 = sample_band_point(ic, N, seed)
        assert x0[:3].tolist() == head
        assert hashlib.sha256(x0.tobytes()).hexdigest() == digest

    def test_on_sphere_with_prescribed_overlap(self):
        N = 64
        x0 = sample_band_point(BAND_IC, N, 11)
        assert x0 @ x0 / N == pytest.approx(1.0, abs=1e-10)
        assert 0.7 * x0[0] / math.sqrt(N) == pytest.approx(0.3, abs=1e-10)

    def test_uniform_sphere_mean_vanishes(self):
        N = 16
        mean = np.mean([sample_band_point(RS_IC, N, s) for s in range(400)], axis=0)
        assert np.abs(mean).max() < 4.0 / math.sqrt(400)


@st.composite
def spec_starts(draw):
    """An RS, generic or band-edge start; RS draws meet tiny nonzero q_star."""
    kind = draw(st.sampled_from(["rs", "generic", "edge"]), label="kind")
    if kind == "rs":
        return InitCondition(draw(st.floats(0.0, 1e-12, exclude_max=True),
                                  label="q_star"), 0.3)
    # InitCondition refuses |q_o| within 1e-12 of 1, so |q_o| stops short of it
    q_max = 1.0 - 2e-12
    q_star = draw(st.floats(1e-12, q_max if kind == "edge" else 1.0), label="q_star")
    if kind == "edge":
        q_o = draw(st.sampled_from([-1.0, 1.0]), label="sign") * q_star
    else:
        q_o = draw(st.floats(-min(q_star, q_max), min(q_star, q_max)), label="q_o")
    return InitCondition(q_star, 0.4, -0.3, 0.25, q_o)


class TestBandEdgeIsRelative:
    """The band edge is |alpha| = |q_o| / q_star within _DEGEN_TOL of 1."""

    def test_small_q_star_off_the_edge_keeps_its_overlap(self):
        # |q_star - |q_o|| = 5e-13 but alpha = 0.75: a band, not its edge
        ic = InitCondition(2e-12, 0.3, 0.0, 0.0, 1.5e-12)
        spec = ConditioningSpec(ic, 16, 3)
        assert spec.zhat is not None
        assert spec.x_0 @ spec.x_star / 16 == pytest.approx(1.5e-12, rel=1e-12)
        assert spec.x_0[0] != 4.0

    def test_small_q_star_on_the_edge_sits_on_the_axis(self):
        x0 = sample_band_point(InitCondition(2e-12, 0.3, 0.0, 0.0, -2e-12 * (1 - 1e-13)), 16, 3)
        assert x0.tolist() == [-4.0] + [0.0] * 15

    def test_beyond_the_edge_is_refused(self):
        # the start refuses it, before a point can be drawn
        with pytest.raises(ConfigError, match="q_o"):
            sample_band_point(InitCondition(2e-12, 0.3, 0.0, 0.0, 2.5e-12), 16, 3)


class TestConditioningSpec:
    @settings(max_examples=200, deadline=None)
    @given(spec_starts(), st.integers(1, 20), st.integers(0, 2**32 - 1))
    def test_geometry_matches_the_target(self, ic, N, seed):
        if not (ic.is_rs or ic.is_degenerate) and N < 2:
            with pytest.raises(ConfigError, match="N = 1"):
                ConditioningSpec(ic, N, seed)
            return
        spec = ConditioningSpec(ic, N, seed)
        x_star, x0 = spec.x_star, spec.x_0
        assert x_star @ x_star / N == pytest.approx(ic.q_star**2, rel=1e-12, abs=1e-300)
        assert x0 @ x0 == pytest.approx(N, rel=1e-12)
        # a start within _DEGEN_TOL of the band edge sits on it
        assert x0 @ x_star / N == pytest.approx(ic.q_o, rel=1e-12, abs=2e-12)
        assert x0.tobytes() == sample_band_point(ic, N, seed).tobytes()
        assert (spec.xhat_star is None) == ic.is_rs
        assert (spec.zhat is None) == (ic.is_rs or ic.is_degenerate)

    @pytest.mark.parametrize("q_o", [0.7, -0.7])
    def test_band_edge_start_at_n_one(self, q_o):
        # the edge |q_o| = q_star is the point sign(q_o) sqrt(N) on the axis
        spec = ConditioningSpec(InitCondition(0.7, 0.4, -0.3, 0.25, q_o), 1, 5)
        assert spec.x_0.tolist() == [math.copysign(1.0, q_o)]
        assert spec.x_star.tolist() == [0.7]

    def test_band_start_needs_two_coordinates(self):
        with pytest.raises(ConfigError, match="N = 1"):
            ConditioningSpec(InitCondition(0.7, 0.4, -0.3, 0.25, 0.3), 1, 5)

    @pytest.mark.parametrize("ic", [InitCondition(0.0, 0.3),
                                    InitCondition(0.7, 0.4, -0.3, 0.25, 0.3)])
    def test_negative_seed_is_config_error(self, ic):
        with pytest.raises(ConfigError, match="seed"):
            ConditioningSpec(ic, 8, -1)


# each count or seed of the finite-N boundary, as (field, call of its value)
COUNT_CALLS = [
    ("N", lambda v: sample_system(M23, v, 0).tensors[3]),
    ("seed", lambda v: sample_system(M23, 10, v).tensors[3]),
    ("N", lambda v: check_system_size(M23, v)),
    ("N", lambda v: sample_band_point(BAND_IC, v, 0)),
    ("seed", lambda v: sample_band_point(BAND_IC, 10, v)),
    ("N", lambda v: ConditioningSpec(BAND_IC, v, 0).x_0),
    ("seed", lambda v: ConditioningSpec(BAND_IC, 10, v).x_0),
]


@pytest.mark.parametrize("field, call", COUNT_CALLS, ids=[
    "sample_system-N", "sample_system-seed", "check_system_size-N",
    "sample_band_point-N", "sample_band_point-seed", "ConditioningSpec-N",
    "ConditioningSpec-seed"])
@pytest.mark.parametrize("value, whole", [
    (10.5, False), (2.5, False), (True, False), (-1, False), (np.int64(10), True),
    (10.0, True)], ids=["10.5", "2.5", "True", "-1", "int64", "10.0"])
def test_counts_follow_the_count_rule(field, call, value, whole):
    # a whole number of any type is the same int; anything else names the field
    if whole:
        np.testing.assert_array_equal(call(value), call(10))
    else:
        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
            call(value)


def test_spec_stores_counts_as_ints():
    spec = ConditioningSpec(BAND_IC, np.int64(10), 3.0)
    assert (type(spec.N), type(spec.seed)) == (int, int)
    assert type(check_system_size(M23, 10.0)) is int


def _brute_setup(m, ic, N, seed):
    spec = ConditioningSpec(ic, N, seed)
    return spec.x_star, spec.x_0, spec


def _brute_mean(m, N, x0, x_star, xt, data):
    """Schur-complement conditioning on (H(x0), H(x_star), full grad H(x_star))."""
    def c_hh(x, y):
        return N * m.nu(x @ y / N)

    def c_hg(x, y):
        return m.nu(x @ y / N, 1) * x

    def c_gg(x, y):
        r = x @ y / N
        return m.nu(r, 2) * np.outer(y, x) / N + m.nu(r, 1) * np.eye(N)

    S = np.zeros((N + 2, N + 2))
    S[0, 0] = c_hh(x0, x0)
    S[0, 1] = S[1, 0] = c_hh(x0, x_star)
    S[1, 1] = c_hh(x_star, x_star)
    S[0, 2:] = c_hg(x0, x_star)
    S[2:, 0] = S[0, 2:]
    S[1, 2:] = c_hg(x_star, x_star)
    S[2:, 1] = S[1, 2:]
    S[2:, 2:] = c_gg(x_star, x_star)
    cvec = np.zeros(N + 2)
    cvec[0] = c_hh(xt, x0)
    cvec[1] = c_hh(xt, x_star)
    cvec[2:] = c_hg(xt, x_star)
    return float(cvec @ (np.linalg.pinv(S, rcond=1e-12) @ data))


class TestConditionalMean:
    # pure 2-spin covariance makes the full-gradient data rank deficient
    # (radial derivative determined by the value), handled by the pinv
    IC = InitCondition(0.7, 0.4, -0.3, 2 * (-0.3) / 0.49, 0.3)
    M = Mixture.pure(2)

    def test_matches_brute_force(self):
        N = 8
        x_star, x0, spec = _brute_setup(self.M, self.IC, N, 21)
        ic = self.IC
        data = np.concatenate(([-N * ic.E, -N * ic.E_star], -ic.G_star * x_star))
        Vhat = np.array([ic.E, ic.E_star, ic.G_star, 0.0])
        rng = np.random.default_rng(22)
        for _ in range(20):
            xt = _random_sphere_point(rng, N)
            bm = _brute_mean(self.M, N, x0, x_star, xt, data)
            cm = conditional_mean(spec, self.M, Vhat, None, xt, "value")
            assert cm == pytest.approx(bm, abs=1e-8)

    def test_matches_brute_force_with_perp_gradient(self):
        N = 8
        x_star, x0, spec = _brute_setup(self.M, self.IC, N, 23)
        ic = self.IC
        rng = np.random.default_rng(24)
        u = rng.standard_normal(N)
        u -= (u @ spec.xhat_star) * spec.xhat_star + (u @ spec.zhat) * spec.zhat
        data = np.concatenate(([-N * ic.E, -N * ic.E_star],
                               -ic.G_star * x_star - u))
        Vhat = np.array([ic.E, ic.E_star, ic.G_star, 0.0])
        for _ in range(10):
            xt = _random_sphere_point(rng, N)
            bm = _brute_mean(self.M, N, x0, x_star, xt, data)
            cm = conditional_mean(spec, self.M, Vhat, u, xt, "value")
            assert cm == pytest.approx(bm, abs=1e-8)

    def test_anchor_values(self):
        N = 8
        x_star, x0, spec = _brute_setup(M23, InitCondition(0.7, 0.4, -0.3, 0.25, 0.3),
                                        N, 25)
        ic = spec.target
        Vhat = np.array([ic.E, ic.E_star, ic.G_star, 0.0])
        assert conditional_mean(spec, M23, Vhat, None, x_star, "value") == \
            pytest.approx(-N * ic.E_star, abs=1e-10)
        assert conditional_mean(spec, M23, Vhat, None, x0, "value") == \
            pytest.approx(-N * ic.E, abs=1e-10)
        with pytest.raises(ConfigError, match="unknown what 'hessian'"):
            conditional_mean(spec, M23, Vhat, None, x0, "hessian")

    def test_gradient_and_hessian_match_differences(self, branch_start):
        _, m, ic = branch_start
        N = 8
        x_star, x0, spec = _brute_setup(m, ic, N, 26)
        Vhat = np.array([ic.E, ic.E_star, ic.G_star, 0.0])
        rng = np.random.default_rng(27)
        u = None
        if not ic.is_rs:
            # u is orthogonal to the conditioned directions the spec has
            u = rng.standard_normal(N)
            for d in (spec.xhat_star, spec.zhat):
                if d is not None:
                    u -= (u @ d) * d
        xt = _random_sphere_point(rng, N)
        eps = 1e-5
        eye = np.eye(N)
        g = conditional_mean(spec, m, Vhat, u, xt, "gradient")
        gfd = np.array([
            (conditional_mean(spec, m, Vhat, u, xt + eps * eye[i], "value")
             - conditional_mean(spec, m, Vhat, u, xt - eps * eye[i], "value"))
            / (2 * eps) for i in range(N)])
        np.testing.assert_allclose(g, gfd, rtol=1e-5, atol=1e-5)
        hess = conditional_mean_hessian(spec, m, Vhat, u, xt)
        hfd = np.stack([
            (conditional_mean(spec, m, Vhat, u, xt + eps * eye[i], "gradient")
             - conditional_mean(spec, m, Vhat, u, xt - eps * eye[i], "gradient"))
            / (2 * eps) for i in range(N)])
        np.testing.assert_allclose(hess, hfd, rtol=1e-5, atol=1e-5)

    def test_hessian_matches_basis_form(self):
        """Row/column structure of the Hessian in the adapted basis."""
        N = 8
        ic = InitCondition(0.7, 0.4, -0.3, 0.25, 0.3)
        x_star, x0, spec = _brute_setup(M23, ic, N, 28)
        Vhat = np.array([ic.E, ic.E_star, ic.G_star, 0.0])
        rng = np.random.default_rng(29)
        u = rng.standard_normal(N)
        u -= (u @ spec.xhat_star) * spec.xhat_star + (u @ spec.zhat) * spec.zhat
        xt = _random_sphere_point(rng, N)
        assert _basis_hessian_gap(spec, M23, Vhat, u, xt) <= 1e-8


class TestConditionedField:
    @pytest.mark.parametrize("m, ic", [
        (M23, InitCondition(0.6, 0.5, -0.2, 0.35, 0.2)),
        (M234, InitCondition(0.6, 0.4, -0.2, 0.3, 0.6)),
        (M234, InitCondition(0.6, 0.4, -0.2, 0.3, -0.6)),
        (Mixture.pure(3), InitCondition(0.8, 0.7, -0.4, 3 * -0.4 / 0.8**2, 0.3)),
    ], ids=["generic", "degenerate_plus", "degenerate_minus", "pure3_generic"])
    def test_interpolates_target_exactly(self, m, ic):
        N = 20
        spec = ConditioningSpec(ic, N, 31)
        x_star, x0 = spec.x_star, spec.x_0
        assert (spec.zhat is None) == ic.is_degenerate
        f = conditioned_field(sample_system(m, N, 32), spec)
        assert _value(f, x0) == pytest.approx(-N * ic.E, abs=1e-9)
        assert _value(f, x_star) == pytest.approx(-N * ic.E_star, abs=1e-9)
        np.testing.assert_allclose(_gradient(f, x_star), -ic.G_star * x_star,
                                   atol=1e-9)

    @pytest.mark.parametrize("m, ic", [
        (M23, InitCondition(0.0, 0.9)),
        (M23, InitCondition(0.6, 0.5, -0.2, 0.35, 0.2)),
        (M234, InitCondition(0.6, 0.4, -0.2, 0.3, -0.6)),
        (Mixture.pure(3), InitCondition(0.8, 0.7, -0.4, 3 * -0.4 / 0.8**2, 0.3)),
    ], ids=["rs", "generic", "degenerate", "pure3_generic"])
    def test_mean_is_the_limit_drift_source(self, m, ic):
        # the finite-N mean over -N is v(q, y) of the limit solver, at the
        # overlaps q, y of a point with x_star and x_0
        N = 12
        spec = ConditioningSpec(ic, N, 50)
        x_star, x0 = spec.x_star, spec.x_0
        rng = np.random.default_rng(51)
        X = np.stack([_random_sphere_point(rng, N) for _ in range(6)])
        mean = conditional_mean(spec, m, [ic.E, ic.E_star, ic.G_star, 0.0], None,
                                X, "value")
        vf = solve_w(ic, m)
        v = [vf.v(float(x @ x_star) / N, float(x @ x0) / N) for x in X]
        np.testing.assert_allclose(mean / -N, v, rtol=1e-12, atol=1e-14)

    def test_rs_case_conditions_start_value_only(self):
        N = 20
        ic = InitCondition(0.0, 0.9)
        spec = ConditioningSpec(ic, N, 33)
        x0 = spec.x_0
        f = conditioned_field(sample_system(M23, N, 34), spec)
        assert _value(f, x0) == pytest.approx(-N * ic.E, abs=1e-9)
        # a generic second point keeps a random residual
        other = sample_band_point(ic, N, 35)
        assert abs(_value(f, other) + N * ic.E) > 1e-3

    @pytest.mark.parametrize("ic", [InitCondition(0.0, 0.9),
                                    InitCondition(0.6, 0.5, -0.2, 0.35, 0.2)])
    def test_batch_matches_rows(self, ic):
        # the batched mean swap against one point at a time
        N = 20
        spec = ConditioningSpec(ic, N, 36)
        x_star, x0 = spec.x_star, spec.x_0
        f = conditioned_field(sample_system(M23, N, 37), spec)
        rng = np.random.default_rng(38)
        X = np.stack([x0, x_star] + [_random_sphere_point(rng, N) for _ in range(5)])
        rows = np.stack([_gradient(f, x) for x in X])
        np.testing.assert_allclose(f.gradient_batch(X), rows, rtol=1e-12,
                                   atol=1e-12 * np.abs(rows).max())
        np.testing.assert_allclose(f.value_batch(X),
                                   np.array([_value(f, x) for x in X]), rtol=1e-12)

    def test_spec_shared_by_two_realizations(self):
        # each field observes its own realization; the spec holds no field data
        N = 20
        ic = InitCondition(0.6, 0.5, -0.2, 0.35, 0.2)
        spec = ConditioningSpec(ic, N, 46)
        x_star, x0 = spec.x_star, spec.x_0
        for seed in (47, 48):
            f = conditioned_field(sample_system(M23, N, seed), spec)
            np.testing.assert_allclose(f.value_batch(np.stack([x0, x_star])),
                                       [-N * ic.E, -N * ic.E_star], atol=1e-9)

    def test_spec_of_another_size_is_refused(self):
        spec = ConditioningSpec(InitCondition(0.6, 0.5, -0.2, 0.35, 0.2), 40, 2)
        with pytest.raises(ConfigError, match="spec N = 40 .* N = 50"):
            conditioned_field(sample_system(M23, 50, 1), spec)

    def test_far_point_outside_radius_guard_raises(self):
        # the spec builds x_star and x_0 on the sphere, so the guard is met by
        # an evaluation point: one row at 5 sqrt(N) fails the whole batch
        N = 20
        ic = InitCondition(0.6, 0.5, -0.2, 0.35, 0.2)
        spec = ConditioningSpec(ic, N, 39)
        f = conditioned_field(sample_system(M23, N, 40), spec)
        far = np.zeros(N)
        far[1] = 5.0 * math.sqrt(N)
        with pytest.raises(DomainError, match="radius guard"):
            f.gradient_batch(np.stack([spec.x_0, far]))

    @pytest.mark.parametrize("ic", [InitCondition(0.0, 0.9),
                                    InitCondition(0.6, 0.5, -0.2, 0.35, 0.2)])
    def test_matches_two_evaluation_swap(self, ic):
        N = 20
        sys = sample_system(M23, N, 42)
        spec = ConditioningSpec(ic, N, 41)
        x_star, x0 = spec.x_star, spec.x_0
        f = conditioned_field(sys, spec)
        rng = np.random.default_rng(43)
        X = np.stack([x0, x_star] + [_random_sphere_point(rng, N) for _ in range(5)])
        for what, batch in (("value", f.value_batch), ("gradient", f.gradient_batch)):
            base = sys.value_batch(X) if what == "value" else sys.gradient_batch(X)
            ref = base + _two_evaluation_swap(sys, spec, X, what)
            np.testing.assert_allclose(batch(X), ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())

    def test_one_mean_evaluation_per_batch_call(self, monkeypatch):
        N = 20
        ic = InitCondition(0.6, 0.5, -0.2, 0.35, 0.2)
        spec = ConditioningSpec(ic, N, 44)
        x0 = spec.x_0
        f = conditioned_field(sample_system(M23, N, 45), spec)
        calls, mean_eval = [], hamiltonian._mean_eval

        def counted(*args):
            calls.append(len(args[-1]))
            return mean_eval(*args)

        monkeypatch.setattr(hamiltonian, "_mean_eval", counted)
        f.value_batch(x0[None])
        f.gradient_batch(np.stack([x0, x0]))
        assert calls == [1, 2]


class TestGradientOnly:
    # A call for gradients alone makes the products of the combined value
    # and gradient evaluation and skips the energies, so its gradients equal
    # the combined ones bit for bit.  A call for energies alone makes only
    # the last position's product, so its energies agree with the combined
    # ones (Euler's identity) to 1e-14 of the batch's largest energy.

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_system_matches_the_combined_pass(self, p):
        N = 23  # 2N + 3 rows: three chunks
        sys = sample_system(Mixture.pure(p), N, 60 + p)
        X = np.random.default_rng(p).standard_normal((2 * N + 3, N))
        values, grads = sys._contract(X)
        np.testing.assert_array_equal(sys.gradient_batch(X), grads)
        np.testing.assert_allclose(sys.value_batch(X), values, rtol=0,
                                   atol=1e-14 * np.abs(values).max())

    def test_field_matches_the_combined_evaluation(self, branch_start):
        _, m, ic = branch_start
        N = 20
        spec = ConditioningSpec(ic, N, 61)
        f = conditioned_field(sample_system(m, N, 62), spec)
        rng = np.random.default_rng(63)
        X = np.stack([spec.x_0, spec.x_star] + [_random_sphere_point(rng, N) for _ in range(5)])
        (h, g), (mh, mg) = (f.sys._contract(X),
                            hamiltonian._mean_eval(spec, f._vf, f._u, True, True, X))
        np.testing.assert_array_equal(f.gradient_batch(X), g + mg)
        np.testing.assert_allclose(f.value_batch(X), h + mh, rtol=0,
                                   atol=1e-14 * np.abs(h + mh).max())
        # the combined evaluation is the constructor's observation: it reads
        # -N E at x_0, up to the round-off of the weight solve (1.7e-12 on
        # the degenerate branch)
        assert h[0] + mh[0] == pytest.approx(-N * ic.E, abs=1e-10)
        for values, gradients in ((True, False), (False, True)):
            mean = hamiltonian._mean_eval(spec, f._vf, f._u, values, gradients, X)
            assert (mean[0] is None) != values and (mean[1] is None) != gradients
            np.testing.assert_array_equal(mean[0] if values else mean[1],
                                          mh if values else mg)


def _two_evaluation_swap(sys, spec, X, what):
    """Reference mean swap: the conditional mean at the target data minus the
    conditional mean at the observed data, two evaluations.

    The observation is recomputed from the realization: the energies at x_0
    and x_star and the gradient at x_star, split along (xhat_star, zhat).
    """
    m, ic, N = sys.mixture, spec.target, spec.N
    target = np.array([ic.E, ic.E_star, ic.G_star, 0.0])
    h0 = _value(sys, spec.x_0)
    if ic.is_rs:
        observed, u_obs = np.array([-h0 / N, 0.0, 0.0, 0.0]), None
    else:
        hs, gs = _value(sys, spec.x_star), _gradient(sys, spec.x_star)
        norm_star = np.linalg.norm(spec.x_star)
        g1, g2 = gs @ spec.xhat_star, gs @ spec.zhat
        observed = np.array([-h0 / N, -hs / N, -g1 / norm_star, -g2 / norm_star])
        u_obs = -(gs - g1 * spec.xhat_star - g2 * spec.zhat)
    return (conditional_mean(spec, m, target, None, X, what)
            - conditional_mean(spec, m, observed, u_obs, X, what))


@functools.lru_cache(maxsize=1)
def _drawn(p, N):
    """The stored tensors of {2: 0.7, p: 0.4} (pure 2-spin for p = 2) at N;
    the last ones drawn are kept for the next test, which builds a system
    on them."""
    m = Mixture.pure(2) if p == 2 else Mixture({2: 0.7, p: 0.4})
    return m, sample_system(m, N, 70 + p).tensors


def _system(p, N):
    m, tensors = _drawn(p, N)
    return hamiltonian.SpinSystem(N, m, tensors, 70 + p)


def _serial_pass(sys, X):
    """Values and gradients with every block through the one-thread kernel,
    on this thread, all rows at once."""
    work = np.empty((3, len(X), sys._widest))
    values, grads = np.zeros(len(X)), np.zeros(X.shape)
    for p, b in sys.mixture.coeffs.items():
        G = np.zeros(X.shape)
        for b0, b1, B in hamiltonian._blocks(sys.tensors[p], sys.N, p):
            hamiltonian._block_gradient(G, X, B, b0, b1, True, work)
        G *= math.sqrt(b)
        values += (G * X).sum(axis=1) / p
        grads += G
    return values, grads


class _ProductRecorder:
    """numpy, with each matmul's multiply-adds per product recorded."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        self.sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return np.matmul(a, b, **kwargs)


class TestTwoThreadPass:
    # A pass runs the first half of each power's blocks on the calling
    # thread and the second on the process's worker thread; below
    # _HALF_BYTES in the second half the caller takes all, so these tests
    # set it to 0 to split every size

    @pytest.mark.parametrize("k", [1, 8, 64])
    @pytest.mark.parametrize("p, N", [(p, N) for p in (2, 3) for N in (40, 64, 100, 400)]
                             + [(4, 40), (4, 64)])
    def test_matches_the_serial_reference(self, monkeypatch, p, N, k):
        monkeypatch.setattr(hamiltonian, "_HALF_BYTES", 0)
        sys = _system(p, N)
        assert all(sys._halves[1].values())
        X = np.random.default_rng(k).standard_normal((k, N))
        X *= math.sqrt(N) / np.linalg.norm(X, axis=1)[:, None]
        values, grads = sys._contract(X)
        ref_values, ref_grads = _serial_pass(sys, X)
        np.testing.assert_allclose(values, ref_values, rtol=0,
                                   atol=1e-14 * np.abs(ref_values).max())
        np.testing.assert_allclose(grads, ref_grads, rtol=0,
                                   atol=1e-14 * np.abs(ref_grads).max())

    def test_repeated_calls_are_bit_identical(self):
        sys = _system(3, 400)
        assert all(sys._halves[1].values())  # the worker takes its half
        X = np.random.default_rng(71).standard_normal((8, 400))
        first = sys._contract(X), sys.gradient_batch(X), sys.value_batch(X)
        for _ in range(4):
            again = sys._contract(X), sys.gradient_batch(X), sys.value_batch(X)
            for a, b in zip(first[0] + first[1:], again[0] + again[1:]):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("N, k, mixture", [(400, 8, {2: 1.0, 3: 0.1}),
                                               (64, 64, {2: 1.0, 3: 0.1})])
    def test_no_product_reaches_the_blas_threading_threshold(self, monkeypatch, N, k,
                                                             mixture):
        # OpenBLAS runs a product of fewer than 2^19 multiply-adds on the
        # calling thread, so no BLAS thread competes with the pass's two
        sys = sample_system(Mixture(mixture), N, 0)
        X = np.random.default_rng(72).standard_normal((k, N))
        recorder = _ProductRecorder()
        monkeypatch.setattr(hamiltonian, "np", recorder)
        sys.gradient_batch(X)
        sys.value_batch(X)
        monkeypatch.undo()
        assert recorder.sizes and max(recorder.sizes) <= 2**19

    def test_worker_exception_propagates_and_the_next_call_succeeds(self, monkeypatch):
        sys = _system(3, 400)
        X = np.random.default_rng(73).standard_normal((8, 400))
        expected = sys.gradient_batch(X)
        block_gradient = hamiltonian._block_gradient

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker half failed")
            return block_gradient(*args)

        monkeypatch.setattr(hamiltonian, "_block_gradient", failing)
        with pytest.raises(RuntimeError, match="worker half failed"):
            sys.gradient_batch(X)
        monkeypatch.undo()
        np.testing.assert_array_equal(sys.gradient_batch(X), expected)

    def test_passes_from_more_threads_than_cores(self, monkeypatch):
        # every thread's second half queues on the one worker thread; each
        # system keeps its own scratch, so no pass sees another's
        monkeypatch.setattr(hamiltonian, "_HALF_BYTES", 0)
        systems = [_system(3, 64) for _ in range(4)]
        X = np.random.default_rng(75).standard_normal((8, 64))
        expected = systems[0].gradient_batch(X)
        wrong = []

        def run(sys):
            for _ in range(20):
                if not np.array_equal(sys.gradient_batch(X), expected):
                    wrong.append(sys)

        interval = sys_module.getswitchinterval()
        sys_module.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(s,)) for s in systems]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys_module.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not wrong

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_evaluates_a_pass(self):
        # the child has a copy of the parent's executor but not its thread:
        # work queued there would never run
        sys = _system(3, 400)
        X = np.random.default_rng(74).standard_normal((8, 400))
        expected = sys.gradient_batch(X)
        with warnings.catch_warnings():  # forking a process with threads warns
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 2
            try:
                code = 0 if np.array_equal(sys.gradient_batch(X), expected) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's pass did not finish within 60 s")
        assert os.waitstatus_to_exitcode(done[1]) == 0


def _parent_mean(spec, vf, u, X):
    """The mean and its gradient as the mean swap evaluated them before it
    shared nu'(q) and nu''(q): u is the observed orthogonal gradient itself,
    and nu'(q_star^2) is evaluated on each call."""
    N, m = spec.N, vf.mixture
    R = np.stack([spec.x_star, spec.x_0] + ([] if u is None else [u]))
    P = X @ R.T
    q, y = P[:, 0] / N, P[:, 1] / N
    value, C = -N * vf.v(q, y), np.empty(P.shape)
    C[:, 0], C[:, 1] = -vf.vx(q, y), -vf.vy(q, y)
    if u is not None:
        gam, d1 = m.nu(vf.ic.q_star**2, 1), m.nu(q, 1)
        value -= d1 * P[:, 2] / gam
        C[:, 0] -= m.nu(q, 2) * P[:, 2] / (N * gam)
        C[:, 2] = -d1 / gam
    return value, C @ R


class TestMeanEvaluation:
    def test_matches_the_parent_formula(self, branch_start):
        _, m, ic = branch_start
        N = 20
        spec = ConditioningSpec(ic, N, 75)
        f = conditioned_field(sample_system(m, N, 76), spec)
        u = None
        if not ic.is_rs:  # the observed gradient at x_star, off the conditioned directions
            u = _gradient(f.sys, spec.x_star)
            for d in (spec.xhat_star, spec.zhat):
                if d is not None:
                    u -= (u @ d) * d
        rng = np.random.default_rng(77)
        X = np.stack([spec.x_0, spec.x_star] + [_random_sphere_point(rng, N) for _ in range(6)])
        value, grad = hamiltonian._mean_eval(spec, f._vf, f._u, True, True, X)
        ref_value, ref_grad = _parent_mean(spec, f._vf, u, X)
        np.testing.assert_allclose(value, ref_value, rtol=0,
                                   atol=1e-15 * np.abs(ref_value).max())
        np.testing.assert_allclose(grad, ref_grad, rtol=0,
                                   atol=1e-15 * np.abs(ref_grad).max())

    def test_three_nu_evaluations_per_gradient_call(self, branch_start, monkeypatch):
        # nu'(q) and nu''(q) once, shared with vx and vy, and nu'(y) in vy;
        # nu'(q_star^2) is the field's, evaluated when it is built
        _, m, ic = branch_start
        N = 20
        spec = ConditioningSpec(ic, N, 78)
        f = conditioned_field(sample_system(m, N, 79), spec)
        orders, nu = [], Mixture.nu

        def counted(self, r, order=0):
            orders.append(order)
            return nu(self, r, order)

        monkeypatch.setattr(Mixture, "nu", counted)
        hamiltonian._mean_eval(spec, f._vf, f._u, False, True, spec.x_0[None])
        assert sorted(orders) == [1, 1, 2]
