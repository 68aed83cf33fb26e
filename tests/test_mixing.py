import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amplify_dp.distributions import DiscreteDist
from amplify_dp.divergences import EXP_ARG_MAX, DpGuarantee, hockey_stick, w_inf_optimal_coupling
from amplify_dp.mixing import (
    Coupling,
    DiscreteKernel,
    amplify,
    amplify_with_kernel,
    dobrushin_coeff,
    doeblin_coeff,
    eps_dobrushin_coeff,
    eps_tilde,
    greedy_coupling,
    independent_coupling,
    mixture_decompose,
    pushforward,
    random_joint_coupling,
    transport_operator,
    ultra_coeff,
)
from amplify_dp import mixing
from amplify_dp.verify import _trial_seeds, _trial_sizes, random_instance
import reference_impls
from reference_impls import (
    coupling_pairs,
    dobrushin_coeff_pairs,
    eps_dobrushin_coeff_pairs,
    eps_dobrushin_coeff_row_blocks,
    greedy_coupling_pairs,
    joint_as_matrix,
    pair_marginals,
    sinkhorn_fixed_sweeps,
    sinkhorn_per_pair,
    sinkhorn_per_sweep_buffers,
    transport_operator_pairs,
    ultra_coeff_pairs,
)

K_EXAMPLE = DiscreteKernel.from_matrix([[0.7, 0.3], [0.4, 0.6]])

KERNEL_KINDS = ["dense", "zeros", "zero_column", "ties", "single_row", "shared_support"]


def random_kernels(kind, count):
    """Row-stochastic matrices of one degenerate class, seeded by the class."""
    rng = np.random.default_rng(KERNEL_KINDS.index(kind))
    for _ in range(count):
        n = 1 if kind == "single_row" else int(rng.integers(2, 9))
        m = int(rng.integers(1, 9))
        if kind == "ties":
            k = rng.integers(1, 4, size=(n, m)).astype(float)
        else:
            k = rng.exponential(size=(n, m))
        if kind == "zeros":
            k *= rng.uniform(size=(n, m)) > 0.3
        if kind == "zero_column" and m > 1:
            k[:, rng.integers(0, m)] = 0.0
        if kind == "shared_support":
            # Rows share one of 2-3 supports, the first of them full.
            patterns = rng.uniform(size=(int(rng.integers(2, 4)), m)) > 0.4
            patterns[0] = True
            k *= patterns[rng.integers(0, len(patterns), size=n)]
        k[k.sum(axis=1) == 0.0, 0] = 1.0
        yield k / k.sum(axis=1, keepdims=True)


class TestDiscreteKernel:
    def test_row_sum_validation(self):
        with pytest.raises(ValueError, match="row 1"):
            DiscreteKernel.from_matrix([[0.5, 0.5], [0.5, 0.4]])

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DiscreteKernel.from_matrix([[1.5, -0.5], [0.5, 0.5]])

    def test_nan_entry_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DiscreteKernel.from_matrix([[math.nan, 1.0], [0.5, 0.5]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            DiscreteKernel([[0.5, 0.5]], ["a", "b"], ["y0", "y1"])

    def test_supports_canonical_and_distinct(self):
        # Kernels and couplings hold their supports as DiscreteDist does, so a
        # law built on them needs no check of its own.
        k = DiscreteKernel(np.eye(2), ["a", "b"], [[0, 1], (2, 3.5)])
        assert k.output_points == DiscreteDist([[0, 1], (2, 3.5)], [0.5, 0.5]).points
        assert k.output_points == ((0.0, 1.0), (2.0, 3.5))
        pi = Coupling([[0], [1]], ["u"], [[0.5], [0.5]])
        assert pi.first_points == ((0.0,), (1.0,))
        for build in (lambda: DiscreteKernel(np.eye(2), ["a", "a"], ["y0", "y1"]),
                      lambda: DiscreteKernel(np.eye(2), ["a", "b"], [(0,), (0.0,)])):
            with pytest.raises(ValueError, match="kernel support points must be pairwise distinct"):
                build()
        with pytest.raises(ValueError, match="coupling support points must be pairwise distinct"):
            Coupling(["a", "b"], ["u", "u"], [[0.25, 0.25], [0.25, 0.25]])


class TestPushforward:
    def test_point_mass_selects_row(self):
        mu = DiscreteDist(["x0", "x1"], [1.0, 0.0])
        out = pushforward(mu, K_EXAMPLE)
        np.testing.assert_allclose(out.probs, [0.7, 0.3], atol=1e-15)

    def test_hand_product(self):
        mu = DiscreteDist(["x0", "x1"], [0.5, 0.5])
        out = pushforward(mu, K_EXAMPLE)
        np.testing.assert_allclose(out.probs, [0.55, 0.45], atol=1e-15)

    def test_identity_kernel(self):
        mu = DiscreteDist(["a", "b"], [0.3, 0.7])
        out = pushforward(mu, DiscreteKernel(np.eye(2), ["a", "b"], ["a", "b"]))
        np.testing.assert_array_equal(out.probs, mu.probs)

    def test_support_mismatch(self):
        with pytest.raises(ValueError, match="support"):
            pushforward(DiscreteDist(["a", "b"], [0.5, 0.5]), K_EXAMPLE)


class TestCoefficients:
    def test_dobrushin_example(self):
        assert dobrushin_coeff(K_EXAMPLE) == pytest.approx(0.3, abs=1e-12)

    def test_dobrushin_capped_at_one(self):
        # Disjoint rows whose masses, halved and added, round to 1 + 2^-52.
        rows = [[1.0, 0.0, 0.0, 0.4514326856532339, 0.0], [0.0, 0.375, 0.5, 0.0, 0.5]]
        k = DiscreteKernel.from_matrix([np.asarray(r) / np.sum(r) for r in rows])
        assert 0.5 * np.abs(k.rows[0] - k.rows[1]).sum() > 1.0
        assert dobrushin_coeff(k) == 1.0

    def test_dobrushin_constant_and_identity(self):
        const = DiscreteKernel.from_matrix([[0.2, 0.8], [0.2, 0.8]])
        assert dobrushin_coeff(const) == 0.0
        assert dobrushin_coeff(DiscreteKernel(np.eye(2), ["a", "b"], ["a", "b"])) == 1.0

    def test_eps_dobrushin_at_zero_reduces_to_dobrushin(self):
        assert eps_dobrushin_coeff(K_EXAMPLE, 0.0) == pytest.approx(
            dobrushin_coeff(K_EXAMPLE), abs=1e-12)

    def test_eps_dobrushin_log2_example(self):
        # Both ordered pairs are dominated at e^eps = 2.
        assert eps_dobrushin_coeff(K_EXAMPLE, math.log(2)) == 0.0

    def test_eps_dobrushin_infinite_full_support(self):
        assert eps_dobrushin_coeff(K_EXAMPLE, math.inf) == 0.0

    def test_eps_dobrushin_infinite_with_zeros(self):
        k = DiscreteKernel.from_matrix([[0.5, 0.5, 0.0], [0.0, 0.6, 0.4]])
        assert eps_dobrushin_coeff(k, math.inf) == pytest.approx(0.5, abs=1e-15)

    def test_doeblin_example(self):
        gamma, omega = doeblin_coeff(K_EXAMPLE)
        assert gamma == pytest.approx(0.3, abs=1e-12)
        np.testing.assert_allclose(omega.probs, [4 / 7, 3 / 7], atol=1e-12)

    def test_doeblin_constant(self):
        const = DiscreteKernel.from_matrix([[0.2, 0.8], [0.2, 0.8]])
        gamma, omega = doeblin_coeff(const)
        assert gamma == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(omega.probs, [0.2, 0.8], atol=1e-15)

    def test_doeblin_identity(self):
        gamma, omega = doeblin_coeff(DiscreteKernel(np.eye(2), ["a", "b"], ["a", "b"]))
        assert gamma == 1.0
        assert omega is None

    def test_ultra_example(self):
        assert ultra_coeff(K_EXAMPLE) == pytest.approx(0.5, abs=1e-12)

    def test_ultra_constant(self):
        const = DiscreteKernel.from_matrix([[0.2, 0.8], [0.2, 0.8]])
        assert ultra_coeff(const) == 0.0

    def test_ultra_zero_entry(self):
        k = DiscreteKernel.from_matrix([[0.5, 0.5, 0.0], [0.2, 0.6, 0.2]])
        assert ultra_coeff(k) == 1.0

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_ultra_equals_pair_loop(self, kind):
        # The column formula must reproduce the pairwise loop bit for bit.
        for k in random_kernels(kind, 200):
            assert ultra_coeff(DiscreteKernel.from_matrix(k)) == ultra_coeff_pairs(k)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_dobrushin_equals_pair_array(self, kind):
        # Row blocks make the same contiguous per-pair sums as the full array.
        for k in random_kernels(kind, 100):
            kernel = DiscreteKernel.from_matrix(k)
            assert dobrushin_coeff(kernel) == dobrushin_coeff_pairs(k)
            for eps in (0.0, 0.7, math.inf):
                assert eps_dobrushin_coeff(kernel, eps) == eps_dobrushin_coeff_pairs(k, eps)

    @pytest.mark.parametrize("shape, block_entries, blocks", [
        ((300, 48), mixing.PAIR_BLOCK_ENTRIES, 75),
        ((41, 30), 5000, 11),
    ])
    def test_dobrushin_equals_pair_array_across_blocks(self, shape, block_entries,
                                                       blocks, monkeypatch):
        monkeypatch.setattr(mixing, "PAIR_BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(shape[0])
        k = rng.exponential(size=shape) * (rng.uniform(size=shape) > 0.2)
        k[k.sum(axis=1) == 0.0, 0] = 1.0
        k /= k.sum(axis=1, keepdims=True)
        assert len(list(mixing._row_blocks(k))) == blocks
        kernel = DiscreteKernel.from_matrix(k)
        assert dobrushin_coeff(kernel) == dobrushin_coeff_pairs(k)
        for eps in (0.0, 0.7, math.inf):
            assert eps_dobrushin_coeff(kernel, eps) == eps_dobrushin_coeff_pairs(k, eps)

    @pytest.mark.parametrize("block_entries", [mixing.PAIR_BLOCK_ENTRIES, 300])
    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_stacked_cores_equal_one_kernel_and_pair_loops(self, kind, block_entries, monkeypatch):
        # Kernels of one output size in one stack, each padded to the stack's
        # largest row count by repeating its first row, with eps lists of
        # several lengths that reach +inf and eps past EXP_ARG_MAX.  At 300
        # entries a window holds one kernel, cut into row blocks.
        monkeypatch.setattr(mixing, "PAIR_BLOCK_ENTRIES", block_entries)
        by_m = {}
        for k in random_kernels(kind, 120):
            by_m.setdefault(k.shape[1], []).append(k)
        eps_lists = ([0.0], [0.7, math.inf], [math.inf], [800.0, 0.7, 0.0, math.inf], [])
        for ks in by_m.values():
            n = max(len(k) for k in ks)
            stack = np.stack([np.concatenate([k, np.repeat(k[:1], n - len(k), axis=0)]) for k in ks])
            eps = [eps_lists[i % len(eps_lists)] for i in range(len(ks))]
            dob = mixing._dobrushin_coeffs(stack).tolist()
            doe = mixing._doeblin_coeffs(stack)[0].tolist()
            ultra = mixing._ultra_coeffs(stack).tolist()
            eps_dob = mixing._eps_dobrushin_coeffs(stack, eps)
            for i, k in enumerate(ks):
                kernel = DiscreteKernel.from_matrix(k)
                assert dob[i] == dobrushin_coeff(kernel) == dobrushin_coeff_pairs(k)
                assert doe[i] == doeblin_coeff(kernel)[0]
                assert ultra[i] == ultra_coeff(kernel) == ultra_coeff_pairs(k)
                assert eps_dob[i] == eps_dobrushin_coeff(kernel, eps[i])
                assert eps_dob[i] == [eps_dobrushin_coeff_pairs(k, e) for e in eps[i]]

    def test_stacked_tiles_bound_memory(self):
        # 5,000 kernels of 16 x 16 (10 MiB) in one stack: the pairwise passes
        # work one window of kernels at a time, so past the input stack the
        # peak is a few tiles and the per-kernel results, not 5,000 pairwise
        # arrays (160 MiB for Dobrushin alone).
        rng = np.random.default_rng(5000)
        k = rng.exponential(size=(5000, 16, 16)) * (rng.uniform(size=(5000, 16, 16)) > 0.3)
        k[:, :, 0] += 1.0
        k /= k.sum(axis=2, keepdims=True)
        eps = [[0.0, 0.7, math.inf, 800.0]] * len(k)
        tracemalloc.start()
        try:
            mixing._dobrushin_coeffs(k)
            mixing._eps_dobrushin_coeffs(k, eps)
            mixing._doeblin_coeffs(k)
            mixing._ultra_coeffs(k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_pair_tiles_bound_memory(self):
        # On a 256 x 256 kernel (512 KiB) Dobrushin builds its pairwise arrays
        # in cache-sized tiles, and eps-Dobrushin's screen holds the n^2 pair
        # bounds and a few n x m arrays: the peak stays at a few 512 KiB
        # arrays, not n^2 * m floats.
        rng = np.random.default_rng(256)
        k = rng.exponential(size=(256, 256)) * (rng.uniform(size=(256, 256)) > 0.3)
        k[:, 0] += 1.0
        kernel = DiscreteKernel.from_matrix(k / k.sum(axis=1, keepdims=True))
        tracemalloc.start()
        try:
            dobrushin_coeff(kernel)
            for eps in (0.7, math.inf):
                eps_dobrushin_coeff(kernel, eps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("n", [256, 64, 40])
    def test_stacked_eps_tiles_bound_memory(self, n):
        # At n = 40 (n^3 = 64000 <= PAIR_BLOCK_ENTRIES) four eps are read in
        # one pass of stacked tiles: PAIR_BLOCK_ENTRIES counts all four, so the
        # peak is two tiles and two copies of the 4 x n x m stack (10% over
        # that allowed); a tile that counted one eps would be 2 MiB.  At
        # n = 64 and 256 the kernel is past one tile and each eps is screened,
        # within the same allowance, not 4 x n^2 x m floats (512 MiB at 256).
        rng = np.random.default_rng(n)
        k = rng.exponential(size=(n, n)) * (rng.uniform(size=(n, n)) > 0.3)
        k[:, 0] += 1.0
        kernel = DiscreteKernel.from_matrix(k / k.sum(axis=1, keepdims=True))
        eps_values = [0.0, 0.7, 3.0, 800.0]
        stack = len(eps_values) * k.size
        tracemalloc.start()
        try:
            batch = eps_dobrushin_coeff(kernel, eps_values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 2 * (stack + max(mixing.PAIR_BLOCK_ENTRIES, stack)) * 8
        assert batch == [eps_dobrushin_coeff(kernel, eps) for eps in eps_values]

    @pytest.mark.parametrize("n, m", [(512, 512), (4096, 4)])
    def test_screen_memory_is_linear_in_the_kernel(self, n, m):
        # The screen holds a few n x m arrays (e^eps * q, the reciprocals, the
        # small-entry indicator) and a block of at most max(PAIR_BLOCK_ENTRIES,
        # n m) bounds: on the 512 x 512 kernel all n^2 bounds, on the 4096 x 4
        # kernel 16 rows of them, not the 16.8M floats (128 MiB) of all pairs.
        # At eps = 0 the bound rules out almost no pair, at eps = 6 almost all.
        rng = np.random.default_rng(n)
        k = rng.exponential(size=(n, m)) * (rng.uniform(size=(n, m)) > 0.3)
        k[:, 0] += 1.0
        kernel = DiscreteKernel.from_matrix(k / k.sum(axis=1, keepdims=True))
        for eps in (0.0, 6.0):
            tracemalloc.start()
            try:
                eps_dobrushin_coeff(kernel, eps)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * (max(mixing.PAIR_BLOCK_ENTRIES, n * m) + n * m) * 8

    def test_doeblin_witness_optimality(self):
        # The column-minimum mass dominates the best constant achievable by
        # any alternative witness.
        rng = np.random.default_rng(17)
        for seed in range(25):
            _, _, kernel = random_instance(5, 6, seed)
            mass = kernel.rows.min(axis=0).sum()
            for _ in range(10):
                omega = rng.dirichlet(np.ones(6))
                pos = omega > 0
                best_c = (kernel.rows[:, pos] / omega[pos]).min()
                assert best_c <= mass + 1e-12

    def test_figure1_ordering(self):
        for seed in range(200):
            _, _, kernel = random_instance(4, 5, seed)
            dobrushin = dobrushin_coeff(kernel)
            doeblin, _ = doeblin_coeff(kernel)
            assert dobrushin <= doeblin + 1e-12
            assert doeblin <= ultra_coeff(kernel) + 1e-12
            for eps in (0.0, 0.3, 1.0):
                assert eps_dobrushin_coeff(kernel, eps) <= dobrushin + 1e-12


SCREEN_EPS = (0.0, 1e-9, 1.0, EXP_ARG_MAX - 1.0, EXP_ARG_MAX + 1.0, 800.0, math.inf)

# Kernel entries at and around the screen's trivial-bound threshold.
SCREEN_ENTRIES = (0.0, 5e-324, 1e-310, 2.0**-501, mixing.SCREEN_TINY, 2.0**-499, 1e-150, 1e-9, 0.25, 0.5, 1.0)


def assert_screen_equals_row_blocks(k, eps_values=SCREEN_EPS):
    """eps_dobrushin_coeff of ``k`` at each eps, by one list call and by scalar
    calls, ``.hex()``-equal to the all-pairs row-block loop."""
    kernel = DiscreteKernel.from_matrix(k)
    want = [eps_dobrushin_coeff_row_blocks(kernel.rows, e).hex() for e in eps_values]
    assert [v.hex() for v in eps_dobrushin_coeff(kernel, list(eps_values))] == want
    assert [eps_dobrushin_coeff(kernel, e).hex() for e in eps_values] == want


def normalized_kernel(shape, seed, zeros=0.3):
    rng = np.random.default_rng(seed)
    k = rng.exponential(size=shape) * (rng.uniform(size=shape) > zeros)
    k[:, 0] += 1.0
    return k / k.sum(axis=1, keepdims=True)


class TestScreenedEpsDobrushin:
    # Past PAIR_BLOCK_ENTRIES a bound on every row pair screens the pairs and
    # only the survivors are summed; each value must be the all-pairs loop's.

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_every_kernel_kind(self, kind, monkeypatch):
        # At PAIR_BLOCK_ENTRIES = 0 every kernel takes the screen, in row
        # blocks of m rows: a kernel with more rows than columns is bounded
        # again block by block in the search's order.
        monkeypatch.setattr(mixing, "PAIR_BLOCK_ENTRIES", 0)
        for k in random_kernels(kind, 60):
            assert_screen_equals_row_blocks(k)

    @pytest.mark.parametrize("rows", [
        [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]],  # zero entries
        [[0.5, 0.0, 0.5], [0.2, 0.0, 0.8], [0.9, 0.0, 0.1]],  # an all-zero column
        [[0.25, 0.75]] * 3 + [[0.75, 0.25]] * 2,  # equal rows: tied pairs
        [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]],  # full support
        [[t, 0.5, 0.5] for t in SCREEN_ENTRIES[:7]] + [[0.5, t, 0.5] for t in SCREEN_ENTRIES[:7]],
        [[5e-324, 1.0], [1.0, 5e-324], [0.5, 0.5]],
    ])
    def test_degenerate_kernels(self, rows, monkeypatch):
        monkeypatch.setattr(mixing, "PAIR_BLOCK_ENTRIES", 0)
        assert_screen_equals_row_blocks(np.array(rows))

    def test_full_support_at_infinite_eps_is_zero(self, monkeypatch):
        monkeypatch.setattr(mixing, "PAIR_BLOCK_ENTRIES", 0)
        kernel = DiscreteKernel.from_matrix(normalized_kernel((40, 30), 3, zeros=0.0))
        assert eps_dobrushin_coeff(kernel, math.inf) == 0.0

    @pytest.mark.parametrize("n, m, screened", [
        (32, mixing.PAIR_BLOCK_ENTRIES // 32**2, False),  # n * n * m at the tile size
        (32, mixing.PAIR_BLOCK_ENTRIES // 32**2 + 1, True),  # one column past it
        (2, 20000, True),
        (40, 90, True),
        (90, 40, True),
        (300, 3, True),  # two row blocks of bounds
        (1000, 2, True),  # sixteen
    ])
    def test_sizes_around_one_tile(self, n, m, screened, monkeypatch):
        calls = []
        screen = mixing._screened_worst
        monkeypatch.setattr(mixing, "_screened_worst", lambda p, s: calls.append(p.shape) or screen(p, s))
        assert_screen_equals_row_blocks(normalized_kernel((n, m), n * m))
        assert bool(calls) == screened

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_bounds_cover_every_computed_pair_sum(self, kind):
        # The pruning is sound only if each bound, margin included, is at
        # least the pair's sum as the tiles compute it.
        for k in random_kernels(kind, 60):
            for e in SCREEN_EPS:
                s = (np.where(k > 0.0, math.inf, 0.0) if math.isinf(e)
                     else mixing._exp_times_stack(np.array([[e]]), k[None])[0, 0])
                excess = k[:, None] - s[None]
                sums = np.maximum(excess, 0.0, out=excess).sum(axis=2)
                bounds = mixing._pair_bounds(k, s)
                assert (bounds(slice(None)) >= sums).all()
                assert (bounds(list(range(len(k)))[::-1]) >= sums[::-1]).all()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_screen_property(self, data):
        n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        entry = st.one_of(st.sampled_from(SCREEN_ENTRIES), st.floats(0.0, 1.0))
        k = np.array(data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n)))
        k[k.sum(axis=1) == 0.0, 0] = 1.0
        k /= k.sum(axis=1, keepdims=True)
        eps = data.draw(st.lists(st.one_of(st.sampled_from(SCREEN_EPS), st.floats(0.0, 1000.0)),
                                 min_size=1, max_size=4))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mixing, "PAIR_BLOCK_ENTRIES", 0)
            assert_screen_equals_row_blocks(k, eps)


class TestAmplify:
    def test_doeblin_case_formula(self):
        out = amplify(DpGuarantee(1.0, 0.0), "doeblin", 0.5)
        assert out.epsilon == pytest.approx(math.log(1 + 0.5 * (math.e - 1)), abs=1e-15)
        expected_delta = 0.5 * (1 - (1 + 0.5 * (math.e - 1)) / math.e)
        assert out.delta == pytest.approx(expected_delta, abs=1e-15)

    def test_ultra_delta_zero(self):
        for gamma, eps in ((0.3, 1.0), (0.9, 2.5)):
            out = amplify(DpGuarantee(eps, 0.0), "ultra", gamma)
            assert out.delta == 0.0
            assert out.epsilon == pytest.approx(math.log1p(gamma * math.expm1(eps)), abs=1e-15)

    def test_dobrushin_gamma_one_unchanged(self):
        g = DpGuarantee(1.3, 0.2)
        out = amplify(g, "dobrushin", 1.0)
        assert (out.epsilon, out.delta) == (1.3, 0.2)

    def test_doeblin_gamma_one_unchanged(self):
        g = DpGuarantee(1.3, 0.2)
        out = amplify(g, "doeblin", 1.0)
        assert out.epsilon == pytest.approx(1.3, abs=1e-15)
        assert out.delta == pytest.approx(0.2, abs=1e-15)

    def test_epsilon_never_grows(self):
        for gamma in (0.0, 0.25, 0.7, 1.0):
            for eps in (0.0, 0.5, 5.0):
                out = amplify(DpGuarantee(eps, 0.1), "ultra", gamma)
                assert out.epsilon <= eps + 1e-15

    def test_huge_epsilon_no_overflow(self):
        out = amplify(DpGuarantee(800.0, 0.5), "doeblin", 0.5)
        assert math.isfinite(out.epsilon)
        assert out.epsilon == pytest.approx(800.0 + math.log(0.5), rel=1e-12)
        out2 = amplify(DpGuarantee(800.0, 0.5), "ultra", 0.5)
        assert out2.delta == pytest.approx(0.5 * 0.5 * 0.5, abs=1e-12)

    def test_eps_tilde(self):
        assert eps_tilde(DpGuarantee(1.0, 0.0)) == math.inf
        assert eps_tilde(DpGuarantee(1.0, 0.1)) == pytest.approx(
            math.log(1 + (math.e - 1) / 0.1), abs=1e-12)
        assert eps_tilde(DpGuarantee(0.0, 0.3)) == 0.0

    @pytest.mark.parametrize("eps,delta", [
        (1.0, 0.1), (700.0, 0.5), (700.0, 1e-10), (709.78, 1.0), (800.0, 0.1),
        (1e6, 1e-300), (1e-10, 1e-320), (1.0, 5e-324),
    ])
    def test_eps_tilde_against_mpmath(self, eps, delta):
        # Includes cases where e^eps, or only the quotient (e^eps - 1) / delta,
        # overflows a double.
        with mpmath.workdps(50):
            ref = mpmath.log1p(mpmath.expm1(mpmath.mpf(eps)) / mpmath.mpf(delta))
            assert eps_tilde(DpGuarantee(eps, delta)) == pytest.approx(float(ref), rel=1e-15)

    def test_eps_dobrushin_past_exp_overflow(self):
        tiny = 1e-310
        k = DiscreteKernel.from_matrix([[1.0 - tiny, tiny], [tiny, 1.0 - tiny]])
        # Row 0 over row 1: 1 - e^710 * tiny in the first column, 0 in the second.
        expected = 1.0 - math.exp(710.0 + math.log(tiny))
        assert eps_dobrushin_coeff(k, 710.0) == pytest.approx(expected, abs=1e-15)
        assert eps_dobrushin_coeff(k, 1e6) == 0.0
        assert eps_dobrushin_coeff(K_EXAMPLE, 1e6) == 0.0

    def test_unknown_condition(self):
        with pytest.raises(ValueError, match="condition"):
            amplify(DpGuarantee(1.0, 0.1), "mystery", 0.5)

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError, match="gamma"):
            amplify(DpGuarantee(1.0, 0.1), "doeblin", 1.5)

    def test_amplify_with_kernel_measures_at_eps_tilde(self):
        g = DpGuarantee(1.0, 0.25)
        (results,) = amplify_with_kernel(K_EXAMPLE, [g])
        assert set(results) == {"dobrushin", "eps_dobrushin", "doeblin", "ultra"}
        gamma, out = results["eps_dobrushin"]
        assert gamma == pytest.approx(
            eps_dobrushin_coeff(K_EXAMPLE, eps_tilde(g)), abs=1e-15)
        assert out.delta == pytest.approx(gamma * 0.25, abs=1e-15)

    def test_soundness_against_exact_divergence(self):
        # Every amplified pair must dominate the exact post-processed
        # divergence (small version of the full harness run).
        for seed in range(60):
            mu, nu, kernel = random_instance(4, 4, seed)
            mu_k, nu_k = pushforward(mu, kernel), pushforward(nu, kernel)
            guarantees = [DpGuarantee(eps, hockey_stick(mu, nu, eps)) for eps in (0.0, 0.5, 1.5)]
            for g, results in zip(guarantees, amplify_with_kernel(kernel, guarantees)):
                for cond, (gamma, out) in results.items():
                    post = hockey_stick(mu_k, nu_k, out.epsilon)
                    assert post <= out.delta + 1e-12, (seed, g.epsilon, cond)


class TestTransportOperator:
    def test_independent_coupling_gives_constant_kernel(self):
        mu = DiscreteDist(["a", "b"], [0.3, 0.7])
        nu = DiscreteDist(["u", "v", "w"], [0.2, 0.5, 0.3])
        op = transport_operator(independent_coupling(mu, nu))
        for row in op.rows:
            np.testing.assert_allclose(row, nu.probs, atol=1e-12)

    def test_identity_coupling_gives_identity_kernel(self):
        mu = DiscreteDist(["a", "b", "c"], [0.2, 0.5, 0.3])
        op = transport_operator(Coupling(mu.points, mu.points, np.diag(mu.probs)))
        np.testing.assert_allclose(op.rows, np.eye(3), atol=1e-15)

    def test_winf_coupling_transports_exactly(self):
        mu = DiscreteDist([(0.0,), (1.0,)], [0.5, 0.5])
        nu = DiscreteDist([(0.5,), (1.5,)], [0.4, 0.6])
        _, witness = w_inf_optimal_coupling(mu, nu)
        op = transport_operator(Coupling(*joint_as_matrix(witness)))
        mu_mass, nu_mass = dict(zip(mu.points, mu.probs)), dict(zip(nu.points, nu.probs))
        mu_aligned = DiscreteDist(op.input_points,
                                  [mu_mass.get(p, 0.0) for p in op.input_points])
        pushed = pushforward(mu_aligned, op)
        for point, prob in zip(pushed.points, pushed.probs):
            assert prob == pytest.approx(nu_mass.get(point, 0.0), abs=1e-12)

    def test_zero_mass_rows_omitted(self):
        pi = Coupling(["a", "b"], ["u"], [[1.0], [0.0]])
        op = transport_operator(pi)
        assert op.input_points == ("a",)

    def test_greedy_and_random_couplings_have_right_marginals(self):
        mu = DiscreteDist(["a", "b", "c"], [0.2, 0.5, 0.3])
        nu = DiscreteDist(["u", "v"], [0.6, 0.4])
        for pi in (greedy_coupling(mu, nu), random_joint_coupling(mu, nu, 7)):
            assert (pi.first_points, pi.second_points) == (mu.points, nu.points)
            np.testing.assert_allclose(pi.mass.sum(axis=1), mu.probs, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(pi.mass.sum(axis=0), nu.probs, rtol=0.0, atol=1e-12)

    def test_random_coupling_marginals_within_1e15(self):
        rng = np.random.default_rng(4)
        for n, m in ((2, 2), (3, 7), (16, 2), (16, 16), (64, 48)):
            mu = DiscreteDist.from_probs(rng.dirichlet(np.ones(n)))
            nu = DiscreteDist.from_probs(rng.dirichlet(np.ones(m)))
            pi = random_joint_coupling(mu, nu, n * m).mass
            assert np.abs(pi.sum(axis=1) - mu.probs).max() <= 1e-15
            assert np.abs(pi.sum(axis=0) - nu.probs).max() <= 1e-15

    def test_random_coupling_matches_fixed_sweeps(self):
        # The instances of the harness's transport suite at seed 1.
        seeds, sizes = _trial_seeds(1, 100), _trial_sizes(1, 100, (2, 16))
        for iseed, (n, _) in zip(seeds, sizes):
            mu, nu, _ = random_instance(int(n), 2, int(iseed))
            pi = random_joint_coupling(mu, nu, int(iseed))
            ref = sinkhorn_fixed_sweeps(mu, nu, int(iseed))
            np.testing.assert_allclose(pi.mass, ref, rtol=0.0, atol=1e-14)

    def test_random_coupling_equals_per_sweep_buffers(self):
        # The 200 instances of the harness's transport suite at seed 1, and
        # zero-mass atoms on either side: hoisting the masks and buffers out of
        # the loop must not change a bit.
        seeds, sizes = _trial_seeds(1, 200), _trial_sizes(1, 200, (2, 16))
        pairs = [random_instance(int(n), 2, int(iseed))[:2] + (int(iseed),)
                 for iseed, (n, _) in zip(seeds, sizes)]
        mu = DiscreteDist(["a", "b", "c"], [0.5, 0.5, 0.0])
        nu = DiscreteDist(["a", "b", "c", "d"], [0.0, 0.3, 0.0, 0.7])
        pairs += [(mu, nu, 1), (nu, mu, 2), (mu, mu, 3)]
        for mu, nu, seed in pairs:
            mass = random_joint_coupling(mu, nu, seed).mass
            assert np.array_equal(mass, sinkhorn_per_sweep_buffers(mu, nu, seed))

    def test_sinkhorn_stack_trials_converge_at_different_sweeps(self, monkeypatch):
        # Trials leave the stack as they converge and the others sweep on:
        # each coupling is == its own solve.  Near-uniform marginals converge
        # in a few sweeps, skewed ones take many more.
        rng = np.random.default_rng(9)
        concentration = [50.0, 5.0, 0.3, 0.1, 1.0, 0.05]
        p = np.array([rng.dirichlet(np.full(6, c)) for c in concentration])
        q = np.array([rng.dirichlet(np.full(5, c)) for c in concentration])
        start = -np.log(rng.uniform(size=(len(p), 6, 5)))
        mass = start.copy()
        mixing._sinkhorn_stack(p, q, mass)
        solved = [sinkhorn_per_pair(p[i], q[i], start[i].copy()) for i in range(len(p))]
        assert all(np.array_equal(mass[i], solved[i]) for i in range(len(p)))
        # The sweeps after which each trial's own solve stops changing.
        sweeps = []
        for i in range(len(p)):
            for s in range(mixing.SINKHORN_MAX_SWEEPS + 1):
                monkeypatch.setattr(reference_impls, "SINKHORN_MAX_SWEEPS", s)
                if np.array_equal(sinkhorn_per_pair(p[i], q[i], start[i].copy()), solved[i]):
                    break
            sweeps.append(s)
        assert len(set(sweeps)) == len(sweeps), sweeps

    def test_malformed_coupling_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Coupling(["a", "b"], ["u"], [[0.5, 0.5]])
        with pytest.raises(ValueError, match="non-negative"):
            Coupling(["a", "b"], ["u", "v"], [[0.6, 0.5], [-0.1, 0.0]])
        with pytest.raises(ValueError, match="non-negative"):
            Coupling(["a", "b"], ["u"], [[math.nan], [1.0]])
        with pytest.raises(ValueError, match="sum to"):
            Coupling(["a", "b"], ["u"], [[0.5], [0.4]])

    def test_mass_is_a_read_only_copy(self):
        mass = np.array([[0.25, 0.25], [0.5, 0.0]])
        pi = Coupling(["a", "b"], ["u", "v"], mass)
        mass[0, 0] = 0.0
        assert pi.mass[0, 0] == 0.25
        with pytest.raises(ValueError):
            pi.mass[0, 0] = 0.0

    def test_random_coupling_with_a_subnormal_atom(self):
        # The column of the 5e-324 atom scales to 0, after which its sum is 0:
        # dividing by it gave NaN masses and numpy warnings.
        mu = DiscreteDist(["a", "b", "c"], [0.0, 0.5, 0.5])
        nu = DiscreteDist(["a", "b", "c"], [1.0, 5e-324, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pi = random_joint_coupling(mu, nu, 282)
        assert np.array_equal(pi.mass, [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])

    def test_random_coupling_with_zero_mass_atoms(self):
        mu = DiscreteDist(["a", "b", "c"], [0.5, 0.5, 0.0])
        nu = DiscreteDist(["a", "b"], [0.3, 0.7])
        pi = random_joint_coupling(mu, nu, 1)
        assert np.all(pi.mass[2] == 0.0)
        assert np.abs(pi.mass.sum(axis=1) - mu.probs).max() <= 1e-15
        assert np.abs(pi.mass.sum(axis=0) - nu.probs).max() <= 1e-15
        assert transport_operator(pi).input_points == ("a", "b")
        # A zero-mass atom on the second side gives a zero column.
        pi = random_joint_coupling(nu, mu, 1)
        assert np.all(pi.mass[:, 2] == 0.0)
        assert np.abs(pi.mass.sum(axis=0) - mu.probs).max() <= 1e-15

    def test_summation_classes_keep_numpy_sums(self):
        # The padding that Sinkhorn class stacks rely on: zero-padded
        # contiguous row sums of a (k, rows, width) stack are == the unpadded
        # ones for every n < 128 and width up to _summation_width(n), and
        # trailing zero rows leave the strided column sums ==.  Just past a
        # class top the row sums differ, so the boundary is numpy's, and a
        # change to its pairwise sum fails here.
        rng = np.random.default_rng(26)
        for n in range(1, 128):
            top = mixing._summation_width(n)
            assert top == n | 7
            values = np.exp(rng.uniform(math.log(1e-8), math.log(1e8), size=(4, n, n)))
            rows, cols = values.sum(axis=2), values.sum(axis=1)
            for width in range(n, top + 1):
                padded = np.zeros((4, width, width))
                padded[:, :n, :n] = values
                assert np.array_equal(padded[:, :n].sum(axis=2), rows), (n, width)
                assert np.array_equal(padded[:, :, :n].sum(axis=1), cols), (n, width)
        assert [mixing._summation_width(n) for n in (128, 129, 500)] == [128, 129, 500]
        for n, width in ((7, 8), (9, 16)):
            values = np.exp(rng.uniform(math.log(1e-8), math.log(1e8), size=(64, n)))
            padded = np.zeros((64, width))
            padded[:, :n] = values
            assert not np.array_equal(padded.sum(axis=1), values.sum(axis=1)), (n, width)


def _labeled(rows, cols, matrix) -> dict:
    return {(x, y): float(v) for x, row in zip(rows, matrix) for y, v in zip(cols, row)}


def _assert_equal_labeled(got: dict, ref: dict):
    # Labels one side omits (zero-mass rows and columns) must carry 0 on the other.
    for key in set(got) | set(ref):
        assert got.get(key, 0.0) == ref.get(key, 0.0), key


def _assert_matches_pair_path(pi: Coupling, pairs: DiscreteDist):
    """The transport operator and the marginals of ``pi`` equal, with ==,
    those the pair-tuple path computes from ``pairs``."""
    op, ref_op = transport_operator(pi), transport_operator_pairs(pairs)
    _assert_equal_labeled(_labeled(op.input_points, op.output_points, op.rows),
                          _labeled(ref_op.input_points, ref_op.output_points, ref_op.rows))
    first, second = pi.marginals()
    ref_first, ref_second = pair_marginals(pairs)
    _assert_equal_labeled(dict(zip(pi.first_points, first)),
                          dict(zip(ref_first.points, ref_first.probs)))
    _assert_equal_labeled(dict(zip(pi.second_points, second)),
                          dict(zip(ref_second.points, ref_second.probs)))


DEGENERATE_PAIRS = [
    (["a", "b", "c"], [0.5, 0.0, 0.5], ["u", "v"], [0.3, 0.7]),
    (["a", "b"], [0.4, 0.6], ["u", "v", "w"], [0.0, 0.6, 0.4]),
    (["a", "b", "c"], [0.0, 0.3, 0.7], ["u", "v", "w"], [0.3, 0.0, 0.7]),
    (["a", "b", "c"], [0.2, 0.3, 0.5], ["u", "v", "w"], [0.2, 0.3, 0.5]),
    (["a"], [1.0], ["u", "v"], [0.25, 0.75]),
    (["a", "b"], [0.25, 0.75], ["u"], [1.0]),
    (["a"], [1.0], ["u"], [1.0]),
]


class TestAgainstPairPath:
    """The matrix path against the pair-tuple path it replaced."""

    def test_harness_instances(self):
        # The instances of the harness's transport suite at seed 1.
        seeds, sizes = _trial_seeds(1, 200), _trial_sizes(1, 200, (2, 16))
        for iseed, (n, _) in zip(seeds, sizes):
            mu, nu, _ = random_instance(int(n), 2, int(iseed))
            for pi in (independent_coupling(mu, nu),
                       random_joint_coupling(mu, nu, int(iseed))):
                _assert_matches_pair_path(pi, coupling_pairs(pi))
            _assert_matches_pair_path(greedy_coupling(mu, nu), greedy_coupling_pairs(mu, nu))

    @pytest.mark.parametrize("xs,p,ys,q", DEGENERATE_PAIRS)
    def test_degenerate_inputs(self, xs, p, ys, q):
        mu, nu = DiscreteDist(xs, p), DiscreteDist(ys, q)
        for pi in (independent_coupling(mu, nu), random_joint_coupling(mu, nu, 3),
                   Coupling(mu.points, mu.points, np.diag(mu.probs))):
            _assert_matches_pair_path(pi, coupling_pairs(pi))
        greedy, pairs = greedy_coupling(mu, nu), greedy_coupling_pairs(mu, nu)
        _assert_equal_labeled(_labeled(greedy.first_points, greedy.second_points, greedy.mass),
                              dict(zip(pairs.points, pairs.probs)))
        _assert_matches_pair_path(greedy, pairs)


class TestMixtureDecompose:
    def test_two_atom_example(self):
        mu = DiscreteDist(["a", "b"], [0.5, 0.5])
        nu = DiscreteDist(["a", "b"], [0.9, 0.1])
        dec = mixture_decompose(mu, nu, 0.0)
        assert dec.theta == pytest.approx(0.4, abs=1e-15)
        np.testing.assert_allclose(dec.omega.probs, [5 / 6, 1 / 6], atol=1e-12)
        np.testing.assert_allclose(dec.mu_prime.probs, [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(dec.nu_prime.probs, [1.0, 0.0], atol=1e-15)

    def test_identical_gives_theta_zero(self):
        mu = DiscreteDist(["a", "b"], [0.5, 0.5])
        dec = mixture_decompose(mu, mu, 0.0)
        assert dec.theta == 0.0
        assert dec.omega is None and dec.mu_prime is None and dec.nu_prime is None

    def test_disjoint_gives_theta_one(self):
        mu = DiscreteDist(["a", "b"], [1.0, 0.0])
        nu = DiscreteDist(["a", "b"], [0.0, 1.0])
        dec = mixture_decompose(mu, nu, 0.0)
        assert dec.theta == 1.0
        assert dec.omega is None
        np.testing.assert_array_equal(dec.mu_prime.probs, mu.probs)
        np.testing.assert_array_equal(dec.nu_prime.probs, nu.probs)

    def test_identities_and_disjointness_random(self):
        rng = np.random.default_rng(9)
        for trial in range(100):
            n = int(rng.integers(2, 10))
            mu = DiscreteDist.from_probs(rng.dirichlet(np.ones(n)))
            nu = DiscreteDist.from_probs(rng.dirichlet(np.ones(n)))
            eps = float(rng.uniform(0.0, 2.0))
            dec = mixture_decompose(mu, nu, eps)
            assert dec.theta == pytest.approx(hockey_stick(mu, nu, eps), abs=1e-12)
            if dec.theta == 0.0:
                continue
            omega = dec.omega.probs if dec.omega is not None else np.zeros(n)
            recon_mu = (1 - dec.theta) * omega + dec.theta * dec.mu_prime.probs
            w_nu = 1 - (1 - dec.theta) * math.exp(-eps)
            recon_nu = (1 - dec.theta) * math.exp(-eps) * omega + w_nu * dec.nu_prime.probs
            np.testing.assert_allclose(recon_mu, mu.probs, atol=1e-12)
            np.testing.assert_allclose(recon_nu, nu.probs, atol=1e-12)
            # Support disjointness is exact, not approximate.
            assert float(np.minimum(dec.mu_prime.probs, dec.nu_prime.probs).sum()) == 0.0

    def test_eps_past_exp_overflow(self):
        mu = DiscreteDist(["a", "b", "c"], [0.2, 0.5, 0.3])
        nu = DiscreteDist(["a", "b", "c"], [0.7, 0.3, 0.0])
        dec = mixture_decompose(mu, nu, 1000.0)
        assert dec.theta == pytest.approx(0.3, abs=1e-15)
        np.testing.assert_allclose(dec.mu_prime.probs, [0.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(dec.nu_prime.probs, nu.probs, atol=1e-15)
        # A subnormal mass times e^710 is 0.0223: it still caps the overlap.
        mu = DiscreteDist(["a", "b"], [0.5, 0.5])
        nu = DiscreteDist(["a", "b"], [1.0 - 1e-310, 1e-310])
        dec = mixture_decompose(mu, nu, 710.0)
        assert dec.theta == pytest.approx(0.5 - math.exp(710.0 + math.log(1e-310)), abs=1e-15)
        assert dec.theta == pytest.approx(hockey_stick(mu, nu, 710.0), abs=1e-15)

    def test_near_equal_laws_have_no_nu_prime(self):
        # No atom has p < e^eps * q, so nu's residual has no mass: nu_prime is
        # None, as omega is where the overlap is empty, with no 0/0 on the way.
        mu = DiscreteDist(["a", "b"], [0.6, 0.4])
        nu = DiscreteDist(["a", "b"], [0.6 - 1e-13, 0.4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = mixture_decompose(mu, nu, 0.0)
        assert dec.theta == pytest.approx(hockey_stick(mu, nu, 0.0), abs=1e-15)
        assert dec.nu_prime is None
        np.testing.assert_array_equal(dec.mu_prime.probs, [1.0, 0.0])
        np.testing.assert_allclose(dec.omega.probs, mu.probs, atol=1e-15)

    def test_subnormal_residual_rounds_to_zero_not_below(self):
        # Past EXP_ARG_MAX, p * e^-eps may round one spacing above a subnormal
        # q with p < e^eps * q; nu's residual there is 0, never -5e-324.
        eps, q_a, p_a = 712.8857212616125, 6.326693742485e-311, 0.253228034163217
        mu = DiscreteDist(["a", "b", "c"], [p_a, 0.0, 1.0 - p_a])
        nu = DiscreteDist(["a", "b", "c"], [q_a, 1.0 - q_a, 0.0])
        dec = mixture_decompose(mu, nu, eps)
        assert dec.nu_prime.probs.tolist() == [0.0, 1.0, 0.0]
        assert dec.theta == pytest.approx(hockey_stick(mu, nu, eps), abs=1e-15)

    def test_infinite_eps_rejected(self):
        mu = DiscreteDist(["a", "b"], [0.5, 0.5])
        with pytest.raises(ValueError):
            mixture_decompose(mu, mu, math.inf)
