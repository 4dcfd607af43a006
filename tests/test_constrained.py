"""Constant-modulus designs: DFT selection, PE, PE-AM, fixed and dynamic subarrays."""

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from jsdmsim import (
    AmTraces,
    GroupSpec,
    GroupStatistics,
    Scenario,
    build_covariances,
    compute_geb,
    dft_beamformer,
    dynamic_connection,
    dynamic_subarray,
    expected_sinr,
    fixed_subarray,
    group_statistics,
    interlaced_mask,
    ordered_mask,
    pe_am,
    phase_extraction,
)
from jsdmsim.constrained import (DEFAULT_MAX_ITER, DEFAULT_TOL, CandidateExhaustionError,
                                 ConstrainedBeamformer, MaskError, _converged)
from jsdmsim.linalg import svd

from conftest import (random_orthonormal, random_unitary, table1_scenario, two_group_toy,
                      with_reduced)


def geb_for(scn, g=0, d=None):
    cov = build_covariances(scn)
    stats = group_statistics(cov, g)
    return compute_geb(stats, cov.factors(g), d or scn.groups[g].n_chains), stats


def column_indices(s_c):
    """Recover the codebook index of each DFT column from its phase step."""
    m = s_c.shape[0]
    steps = np.angle(s_c[1, :] / s_c[0, :])
    return np.round(steps * m / (2 * np.pi)).astype(int) % m


def alone(made):
    """The one member's result and trace of a design's stack of one."""
    (result,), (trace,) = made
    return result, trace


class TestDftBeamformer:
    def test_broadside_single_cluster_picks_column_zero(self):
        scn = Scenario(16, 1, 1.0, (
            GroupSpec(1, 1, 1.0, (0,), np.array([[0.0]]), 2.0, 1.0),
        ))
        [cb] = dft_beamformer(scn, 0, [scn.phi])
        assert_allclose(cb.s_c[:, 0], np.full(16, 1 / 4.0, dtype=complex), atol=1e-12)

    def test_columns_orthonormal(self):
        [cb] = dft_beamformer(table1_scenario(m=64), 0, [0.0])
        assert np.linalg.norm(cb.s_c.conj().T @ cb.s_c - np.eye(4)) <= 1e-10

    def test_table1_group2_exhaustive_oracle(self):
        scn = table1_scenario(m=128)
        [cb] = dft_beamformer(scn, 1, [scn.phi])  # clusters near 41 and 21 degrees
        m = 128
        # independent exhaustive search over all codebook indices
        def wrap(x):
            return np.abs((x + np.pi) % (2 * np.pi) - np.pi)

        picked = set()
        base = []
        for mu in scn.effective_aoa(1).mean(axis=0):
            target = np.pi * np.sin(np.deg2rad(mu))
            dists = wrap(2 * np.pi * np.arange(m) / m - target)
            base.append(int(np.argmin(dists)))
            picked.add(base[-1])
        # adjacent fill, one per cluster round-robin (+1 then -1)
        offsets = {c: 0 for c in range(len(base))}
        expect = list(base)
        while len(expect) < 4:
            for c, k0 in enumerate(base):
                while True:
                    offsets[c] += 1
                    step = (offsets[c] + 1) // 2 * (1 if offsets[c] % 2 else -1)
                    k = (k0 + step) % m
                    if k not in expect:
                        expect.append(k)
                        break
                if len(expect) == 4:
                    break
        assert column_indices(cb.s_c).tolist() == expect

    def test_beam_points_at_cluster(self):
        from jsdmsim import beampattern, steering_matrix
        scn = table1_scenario(m=64)
        [cb] = dft_beamformer(scn, 1, [scn.phi])
        own = beampattern(cb.effective(), steering_matrix([41.0, 21.0], 64))
        assert np.all(own > 0.5)

    def test_fewer_chains_than_clusters(self):
        scn = table1_scenario(m=32, chains=2)  # group 0 has 3 clusters
        [cb] = dft_beamformer(scn, 0, [scn.phi])
        assert cb.s_c.shape == (32, 2)
        assert len(set(column_indices(cb.s_c))) == 2

    def test_no_duplicate_columns(self):
        scn = table1_scenario(m=32)
        [cb] = dft_beamformer(scn, 3, [scn.phi])  # single cluster, 4 chains -> adjacent fill
        idx = column_indices(cb.s_c)
        assert len(set(idx.tolist())) == 4

    @pytest.mark.parametrize("m, chains, g", [(16, 4, 0), (32, 2, 0), (64, 4, 1), (128, 4, 3),
                                              (128, 6, 2)])
    def test_one_design_per_angle_equals_each_lone_design(self, m, chains, g):
        # a mobile group's columns move with the angles; a fixed group's stay put
        scn = table1_scenario(m=m, chains=chains)
        phis = np.random.default_rng(m + g).uniform(-60.0, 60.0, 25).round(2)
        stack = dft_beamformer(scn, g, phis)
        assert len(stack) == len(phis)
        for phi, cb in zip(phis, stack):
            [lone] = dft_beamformer(scn, g, [float(phi)])
            assert np.array_equal(cb.s_c, lone.s_c)
            assert np.array_equal(cb.effective(), lone.effective())


class TestPhaseExtraction:
    def test_fixed_point(self):
        rng = np.random.default_rng(1)
        m, d = 16, 3
        s = np.exp(1j * rng.uniform(0, 2 * np.pi, (m, d))) / np.sqrt(m)
        (cb,) = phase_extraction(s[None])
        assert_allclose(cb.s_c, s, atol=1e-14)

    def test_modulus(self):
        scn = two_group_toy()
        geb, _ = geb_for(scn)
        (cb,) = phase_extraction(geb.s[None])
        assert_allclose(np.abs(cb.s_c), 1 / np.sqrt(scn.n_antennas), rtol=1e-12)

    def test_beats_random_unit_modulus(self):
        scn = two_group_toy()
        geb, _ = geb_for(scn)
        (cb,) = phase_extraction(geb.s[None])
        base = np.linalg.norm(geb.s - cb.s_c)
        rng = np.random.default_rng(2)
        m, d = geb.s.shape
        phases = rng.uniform(0, 2 * np.pi, (1000, m, d))
        cands = np.exp(1j * phases) / np.sqrt(m)
        dists = np.linalg.norm(geb.s[None] - cands, axis=(1, 2))
        assert np.all(base <= dists + 1e-12)

    def test_zero_entry_convention(self):
        s = np.array([[0.0 + 0.0j], [1.0 + 0.0j]])
        (cb,) = phase_extraction(s[None])
        assert cb.s_c[0, 0] == pytest.approx(1 / np.sqrt(2))


class TestPeAm:
    def test_exactly_representable_converges_first_iteration(self):
        rng = np.random.default_rng(3)
        m, d = 16, 3
        s = np.exp(1j * rng.uniform(0, 2 * np.pi, (m, d))) / np.sqrt(m)
        (cb,), (trace,) = pe_am(s[None])
        assert trace.iterations == 1
        assert trace.residuals[-1] <= 1e-12
        assert np.linalg.norm(cb.s_cm.conj().T @ cb.s_cm - np.eye(d)) <= 1e-10

    def test_no_worse_than_phase_extraction(self):
        for seed in range(5):
            scn = two_group_toy(phi=3.0 * seed)
            geb, _ = geb_for(scn)
            (pe,) = phase_extraction(geb.s[None])
            pe_resid = np.linalg.norm(geb.s - pe.s_c)
            (cb,), (trace,) = pe_am(geb.s[None])
            assert trace.residuals[-1] <= pe_resid + 1e-12

    def test_residuals_monotone_and_unitary(self):
        scn = two_group_toy()
        geb, _ = geb_for(scn)
        (cb,), (trace,) = pe_am(geb.s[None])
        assert np.all(np.diff(trace.residuals) <= 1e-12)
        assert np.linalg.norm(cb.s_cm.conj().T @ cb.s_cm - np.eye(4)) <= 1e-10

    def test_procrustes_step_beats_random_unitaries(self):
        rng = np.random.default_rng(4)
        m, d = 8, 2
        s_geb = random_orthonormal(rng, m, d)
        (cb,), _ = pe_am(s_geb[None])
        base = np.linalg.norm(s_geb @ cb.s_cm.conj().T - cb.s_c)
        for _ in range(10000):
            a = random_unitary(rng, d)
            assert base <= np.linalg.norm(s_geb @ a.conj().T - cb.s_c) + 1e-12

    def test_upper_bound_relation(self):
        # with unitary compensation the bound holds (with equality) at the output
        scn = two_group_toy()
        geb, _ = geb_for(scn)
        (cb,), _ = pe_am(geb.s[None])
        lhs = np.linalg.norm(geb.s - cb.s_c @ cb.s_cm)
        rhs = np.linalg.norm(geb.s @ cb.s_cm.conj().T - cb.s_c)
        assert lhs <= rhs + 1e-12


class TestMasks:
    def test_ordered_rows(self):
        mask = ordered_mask(4, 2)
        assert np.argmax(mask, axis=1).tolist() == [0, 0, 1, 1]

    def test_interlaced_rows(self):
        mask = interlaced_mask(4, 2)
        assert np.argmax(mask, axis=1).tolist() == [0, 1, 0, 1]

    @pytest.mark.parametrize("m,d", [(8, 2), (16, 4), (32, 8), (12, 3)])
    def test_constraints_hold(self, m, d):
        for mask in (ordered_mask(m, d), interlaced_mask(m, d)):
            assert np.all(mask.sum(axis=1) == 1)
            assert np.all(mask.sum(axis=0) >= 1)

    def test_divisibility(self):
        with pytest.raises(ValueError):
            ordered_mask(10, 3)
        with pytest.raises(ValueError):
            interlaced_mask(10, 3)


class TestFixedSubarray:
    def test_single_chain_closed_form(self):
        rng = np.random.default_rng(5)
        m = 12
        s = rng.standard_normal((m, 1)) + 1j * rng.standard_normal((m, 1))
        (cb,), (trace,) = fixed_subarray(s[None], np.ones((1, m, 1), dtype=int), seed=[1])
        # analytic optimum: ||s||^2 - (sum|s_i| / sqrt(M))^2
        best = np.sqrt(np.linalg.norm(s) ** 2 - (np.abs(s).sum() / np.sqrt(m)) ** 2)
        assert_allclose(trace.residuals[-1], best, rtol=1e-9)

    def test_gram_is_antenna_count_diagonal(self):
        scn = two_group_toy()
        geb, _ = geb_for(scn)
        mask = ordered_mask(scn.n_antennas, 4)
        (cb,), _ = fixed_subarray(geb.s[None], mask[None], seed=[2])
        gram = cb.s_c.conj().T @ cb.s_c
        counts = mask.sum(axis=0) / scn.n_antennas
        assert_allclose(gram, np.diag(counts).astype(complex), atol=1e-12)

    def test_residual_monotone(self):
        rng = np.random.default_rng(6)
        s = random_orthonormal(rng, 16, 4)
        _, (trace,) = fixed_subarray(s[None], ordered_mask(16, 4)[None], seed=[3])
        assert np.all(np.diff(trace.residuals) <= 1e-12)

    def test_empty_chain_rejected(self):
        mask = np.zeros((8, 2), dtype=int)
        mask[:, 0] = 1
        with pytest.raises(MaskError, match="chain"):
            fixed_subarray(np.eye(8, 2)[None], mask[None], seed=[0])

    def test_init_phases_respected(self):
        rng = np.random.default_rng(7)
        s = random_orthonormal(rng, 8, 2)
        mask = interlaced_mask(8, 2)
        phases = rng.uniform(0, 2 * np.pi, 8)
        (cb1,), _ = fixed_subarray(s[None], mask[None], init_phases=phases[None])
        (cb2,), _ = fixed_subarray(s[None], mask[None], init_phases=phases[None])
        assert np.array_equal(cb1.s_c, cb2.s_c)


class TestDynamicConnection:
    def test_disjoint_support_recovery(self):
        rng = np.random.default_rng(8)
        m, d = 8, 2
        s = np.zeros((m, d), dtype=complex)
        support = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        mags = rng.uniform(0.5, 1.5, m)
        s[np.arange(m), support] = mags * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        (cand,), (trace,) = dynamic_connection(s[None], [9])
        assert np.array_equal(np.argmax(np.abs(cand), axis=1), support)
        # residual settles to the sum of (|entry| - 1)^2 over the support
        assert_allclose(trace.residuals[-1], np.sqrt(np.sum((mags - 1.0) ** 2)), rtol=1e-8)

    def test_residual_monotone(self):
        rng = np.random.default_rng(10)
        s = random_orthonormal(rng, 16, 4)
        _, (trace,) = dynamic_connection(s[None], [11])
        assert np.all(np.diff(trace.residuals) <= 1e-12)

    def test_seed_determinism(self):
        rng = np.random.default_rng(12)
        s = random_orthonormal(rng, 16, 4)
        (c1,), _ = dynamic_connection(s[None], [42])
        (c2,), _ = dynamic_connection(s[None], [42])
        assert np.array_equal(c1, c2)

    def test_unit_modulus_entries(self):
        rng = np.random.default_rng(13)
        s = random_orthonormal(rng, 12, 3)
        (cand,), _ = dynamic_connection(s[None], [14])
        mags = np.abs(cand)
        on = mags > 0
        assert np.all(on.sum(axis=1) == 1)
        assert_allclose(mags[on], 1.0, rtol=1e-12)

    def test_procrustes_step_beats_random_unitaries(self):
        rng = np.random.default_rng(15)
        m, d = 12, 3
        s = random_orthonormal(rng, m, d)
        (cand,), _ = dynamic_connection(s[None], [16])
        u, _, v = svd(s.conj().T @ cand)
        rot = u @ v.conj().T
        base = np.linalg.norm(s @ rot - cand)
        for _ in range(2000):
            a = random_unitary(rng, d)
            assert base <= np.linalg.norm(s @ a - cand) + 1e-12


def stalled(residuals, tol, scale):
    """The AM stopping rule: an exact fit, or a relative change of at most ``tol``."""
    r = residuals[-1]
    return r <= 1e-14 * scale or (len(residuals) > 1 and abs(residuals[-2] - r)
                                  <= tol * max(residuals[-2], 1e-300))


def loop_pe_am(s, tol=1e-8, max_iter=500):
    """PE-AM written out as its own loop: the reference for :func:`pe_am`."""
    m, d = s.shape
    scale = max(np.linalg.norm(s), 1e-300)
    s_c = np.exp(1j * np.angle(s)) / np.sqrt(m)
    s_cm = np.eye(d, dtype=complex)
    residuals = []
    for _ in range(max_iter):
        u, _, v = svd(s.conj().T @ s_c)
        s_cm = v @ u.conj().T
        s_c = np.exp(1j * np.angle(s @ s_cm.conj().T)) / np.sqrt(m)
        residuals.append(float(np.linalg.norm(s @ s_cm.conj().T - s_c)))
        if stalled(residuals, tol, scale):
            return s_c, s_cm, residuals, True
    return s_c, s_cm, residuals, False


def loop_fixed_subarray(s, mask, seed, tol=1e-8, max_iter=500):
    """The fixed-subarray design written out as its own loop: the reference for
    :func:`fixed_subarray`."""
    m, d = s.shape
    chain_of = np.argmax(mask, axis=1)
    rows = np.arange(m)

    def build(beta):
        s_c = np.zeros((m, d), dtype=complex)
        s_c[rows, chain_of] = np.exp(1j * beta) / np.sqrt(m)
        return s_c

    scale = max(np.linalg.norm(s), 1e-300)
    s_c = build(np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, m))
    s_cm = np.eye(d, dtype=complex)
    residuals = []
    for _ in range(max_iter):
        gram = s_c.conj().T @ s_c
        s_cm = np.linalg.solve(gram, s_c.conj().T @ s)
        inner = (s @ s_cm.conj().T)[rows, chain_of]
        s_c = build(np.angle(inner))
        residuals.append(float(np.linalg.norm(s - s_c @ s_cm)))
        if stalled(residuals, tol, scale):
            return s_c, s_cm, residuals, True
    return s_c, s_cm, residuals, False


def loop_connection(s, seed, tol=1e-8, max_iter=500):
    """The connection search as one restart's own loop: the reference for the stack."""
    m, d = s.shape
    rng = np.random.default_rng(seed)
    rows = np.arange(m)
    s_t = np.zeros((m, d), dtype=complex)
    s_t[rows, rng.integers(0, d, m)] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m))
    scale = max(np.linalg.norm(s), 1e-300)
    residuals = []
    for _ in range(max_iter):
        u, _, v = svd(s.conj().T @ s_t)
        p = s @ (u @ v.conj().T)
        best = np.argmax(np.abs(p), axis=1)
        s_t = np.zeros((m, d), dtype=complex)
        s_t[rows, best] = np.exp(1j * np.angle(p[rows, best]))
        residuals.append(float(np.linalg.norm(p - s_t)))
        if stalled(residuals, tol, scale):
            return s_t, residuals, True
    return s_t, residuals, False


def assert_stack_matches_each_restart(s, seeds, max_iter):
    """Bit equality of every stacked restart with its stack of one and its own search."""
    candidates, traces = dynamic_connection(np.repeat(s[None], len(seeds), axis=0), seeds,
                                            1e-8, max_iter)
    assert candidates.shape == (len(seeds), *s.shape)
    for cand, trace, sd in zip(candidates, traces, seeds):
        (one,), (one_trace,) = dynamic_connection(s[None], [sd], max_iter=max_iter)
        ref, ref_residuals, ref_converged = loop_connection(s, sd, max_iter=max_iter)
        for got, got_trace in ((cand, trace), (one, one_trace)):
            assert np.array_equal(got, ref)
            assert np.array_equal(got_trace.residuals, np.array(ref_residuals))
            assert got_trace.iterations == len(ref_residuals)
            assert got_trace.converged == ref_converged
    return traces


class TestStackedRestarts:
    def test_mixed_convergence_and_cap(self):
        s = random_orthonormal(np.random.default_rng(32), 16, 4)
        traces = assert_stack_matches_each_restart(s, list(range(1, 9)), max_iter=10)
        assert len({t.iterations for t in traces if t.converged}) >= 3
        capped = [t for t in traces if not t.converged]
        assert capped and all(t.iterations == 10 for t in capped)

    @hypothesis.seed(20260518)
    @settings(max_examples=60, deadline=None, database=None)
    @given(m=st.integers(1, 12), d=st.integers(1, 4), restarts=st.integers(1, 6),
           max_iter=st.integers(1, 25), first=st.integers(0, 2**31), draw=st.integers(0, 2**31),
           orthonormal=st.booleans())
    def test_every_restart_equals_its_own_search(self, m, d, restarts, max_iter, first, draw,
                                                 orthonormal):
        d = min(d, m)
        rng = np.random.default_rng(draw)
        if orthonormal:
            s = random_orthonormal(rng, m, d)
        else:
            s = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
        assert_stack_matches_each_restart(s, [first + t for t in range(restarts)], max_iter)

    def test_non_finite_beamformer_rejected(self):
        s = np.ones((6, 2), dtype=complex)
        s[3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            dynamic_connection(np.stack([s, s]), [1, 2], 1e-8, 5)

    def test_dynamic_subarray_runs_one_stacked_search(self, monkeypatch):
        import jsdmsim.constrained as module
        calls = []

        def recorded(s, seeds, tol, max_iter):
            calls.append(list(seeds))
            return dynamic_connection(s, seeds, tol, max_iter)

        monkeypatch.setattr(module, "dynamic_connection", recorded)
        geb, stats = geb_for(two_group_toy())
        dynamic_subarray(geb.s[None], [stats], [3], n_restarts=4)
        assert calls == [[4, 5, 6, 7]]


def random_mask(rng, m, d):
    """A subarray mask with every chain connected: antenna i on a shuffled chain i mod D."""
    mask = np.zeros((m, d), dtype=int)
    mask[np.arange(m), rng.permutation(np.arange(m) % d)] = 1
    return mask


class TestSharedLoop:
    @hypothesis.seed(20261019)
    @settings(max_examples=100, deadline=None, database=None)
    @given(half=st.integers(1, 64), odd=st.booleans(), d=st.integers(1, 6),
           max_iter=st.integers(1, 12) | st.just(DEFAULT_MAX_ITER), seed=st.integers(0, 2**31),
           draw=st.integers(0, 2**31), orthonormal=st.booleans())
    def test_lone_designs_equal_their_own_loops(self, half, odd, d, max_iter, seed, draw,
                                                orthonormal):
        m = 2 * half - odd
        d = min(d, m)
        rng = np.random.default_rng(draw)
        if orthonormal:
            s = random_orthonormal(rng, m, d)
        else:
            s = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
        mask = random_mask(rng, m, d)
        for ((cb,), (trace,)), (s_c, s_cm, residuals, converged) in (
                (pe_am(s[None], max_iter=max_iter), loop_pe_am(s, max_iter=max_iter)),
                (fixed_subarray(s[None], mask[None], seed=[seed], max_iter=max_iter),
                 loop_fixed_subarray(s, mask, seed, max_iter=max_iter))):
            assert np.array_equal(cb.s_c, s_c)
            assert np.array_equal(cb.s_cm, s_cm)
            assert np.array_equal(trace.residuals, np.array(residuals))
            assert trace.iterations == len(residuals)
            assert trace.converged == converged

    @pytest.mark.parametrize("tol, max_iter", [(0.0, 500), (-1e-8, 500), (float("nan"), 500),
                                               (1e-8, 0), (1e-8, -3)])
    def test_every_am_design_rejects_bad_settings_with_one_message(self, tol, max_iter):
        geb, stats = geb_for(two_group_toy())
        s = geb.s[None]
        mask = ordered_mask(*geb.s.shape)[None]
        message = r"alternating minimization needs tol > 0 and max_iter >= 1"
        with pytest.raises(ValueError, match=message):
            pe_am(s, tol=tol, max_iter=max_iter)
        with pytest.raises(ValueError, match=message):
            fixed_subarray(s, mask, tol=tol, max_iter=max_iter, seed=[0])
        with pytest.raises(ValueError, match=message):
            dynamic_connection(s, [1], tol=tol, max_iter=max_iter)
        with pytest.raises(ValueError, match=message):
            dynamic_subarray(s, [stats], [0], tol=tol, max_iter=max_iter)


class TestAmTraceProperties:
    @hypothesis.seed(20261020)
    @settings(max_examples=25, deadline=None, database=None)
    @given(phi=st.floats(-45.0, 45.0), seed=st.integers(0, 2**31),
           max_iter=st.integers(2, 40) | st.just(DEFAULT_MAX_ITER))
    def test_traces_at_128_antennas(self, phi, seed, max_iter):
        """Every AM design's residuals are non-increasing, its ``converged`` is the stopping
        rule on its last two residuals, and its last residual is its result's own gap."""
        geb, stats = geb_for(table1_scenario(m=128, phi=phi))
        s = geb.s
        m, d = s.shape
        designs = {name: alone(made) for name, made in {
            "pe-am": pe_am(s[None], max_iter=max_iter),
            "fixed-ordered": fixed_subarray(s[None], ordered_mask(m, d)[None], seed=[seed],
                                            max_iter=max_iter),
            "fixed-interlaced": fixed_subarray(s[None], interlaced_mask(m, d)[None],
                                               seed=[seed], max_iter=max_iter),
            "dynamic": dynamic_subarray(s[None], [stats], [seed], max_iter=max_iter),
        }.items()}
        cand, connection = alone(dynamic_connection(s[None], [seed], max_iter=max_iter))
        u, _, v = svd(s.conj().T @ cand)
        fit = np.linalg.norm(s @ (u @ v.conj().T) - cand)  # best rotation of S to the candidate
        for name, (cb, trace) in designs.items():
            gap = s @ cb.s_cm.conj().T - cb.s_c if name == "pe-am" else s - cb.effective()
            assert_allclose(trace.residuals[-1], np.linalg.norm(gap), rtol=1e-12, err_msg=name)
        assert fit <= connection.residuals[-1] + 1e-12
        for name, trace in [*((n, tr) for n, (_, tr) in designs.items()),
                            ("connection", connection)]:
            residuals = trace.residuals
            assert np.all(np.diff(residuals) <= 1e-12), name
            assert trace.iterations == len(residuals) <= max_iter, name
            assert trace.converged == _converged(list(residuals[-2:]), DEFAULT_TOL,
                                                 np.linalg.norm(s)), name
            assert trace.converged or trace.iterations == max_iter, name


class TestMaskRule:
    @pytest.mark.parametrize("mask, message", [
        (np.array([[1, 0], [0, 2], [1, 0], [0, 1]]), "binary"),
        (np.array([[1, 1], [0, 1], [1, 0], [0, 1]]), "exactly one RF chain"),
        (np.array([[1, 0], [1, 0], [1, 0], [1, 0]]), r"RF chain\(s\) \[1\] have no antennas"),
        (np.ones((4, 3), dtype=int), "does not match"),
    ])
    def test_both_entry_points_apply_one_rule(self, mask, message):
        s_c = np.full((4, 2), 0.5, dtype=complex)
        with pytest.raises(MaskError, match=message):
            fixed_subarray(s_c[None], mask[None], seed=[0])
        with pytest.raises(MaskError, match=message):
            ConstrainedBeamformer(s_c, np.eye(2, dtype=complex), mask)

    def test_fully_connected_only_for_constrained_beamformer(self):
        s_c = np.full((4, 2), 0.5, dtype=complex)
        ConstrainedBeamformer(s_c, np.eye(2, dtype=complex), np.ones((4, 2), dtype=int))
        with pytest.raises(MaskError, match="exactly one RF chain"):
            fixed_subarray(s_c[None], np.ones((1, 4, 2), dtype=int), seed=[0])

    @pytest.mark.parametrize("entry, ok", [(0.5 * (1 + 9e-10), True), (0.5 * (1 - 9e-10), True),
                                           (0.5 * (1 + 2e-9), False), (0.5j * (1 - 2e-9), False),
                                           (np.nan, False), (np.inf, False)])
    def test_connected_entries_have_modulus_one_over_sqrt_m_to_1e_9(self, entry, ok):
        s_c = np.full((4, 2), 0.5, dtype=complex)
        s_c[2, 1] = entry
        if ok:
            ConstrainedBeamformer(s_c, np.eye(2, dtype=complex), np.ones((4, 2), dtype=int))
        else:
            with pytest.raises(ValueError, match="modulus 1/sqrt"):
                ConstrainedBeamformer(s_c, np.eye(2, dtype=complex), np.ones((4, 2), dtype=int))


class TestDynamicSubarray:
    def test_single_restart_equals_fixed_refinement(self):
        scn = two_group_toy()
        geb, stats = geb_for(scn)
        seed = 21
        (cand,), _ = dynamic_connection(geb.s[None], [seed + 1])
        assert np.all(np.abs(cand).sum(axis=0) >= 0.5), "pick a seed with a valid candidate"
        mask = (np.abs(cand) > 0.5).astype(int)
        phases = np.angle(cand[np.arange(scn.n_antennas), np.argmax(mask, axis=1)])
        (direct,), _ = fixed_subarray(geb.s[None], mask[None], init_phases=phases[None])
        (via_search,), (trace,) = dynamic_subarray(geb.s[None], [stats], [seed], n_restarts=1)
        assert np.array_equal(direct.s_c, via_search.s_c)
        assert_allclose(direct.s_cm, via_search.s_cm, atol=1e-12)
        assert trace.raw_score is not None and trace.refined_score is not None

    def test_chosen_candidate_has_max_score(self):
        scn = two_group_toy()
        geb, stats = geb_for(scn)
        seed, n = 5, 8
        scores = []
        for t in range(1, n + 1):
            (cand,), _ = dynamic_connection(geb.s[None], [seed + t])
            if np.all(np.abs(cand).sum(axis=0) >= 0.5):
                scores.append(expected_sinr(stats, cand))
            else:
                scores.append(0.0)
        _, (trace,) = dynamic_subarray(geb.s[None], [stats], [seed], n_restarts=n)
        assert trace.raw_score == pytest.approx(max(scores), rel=1e-12)

    def test_beats_fixed_structures(self):
        # Fig-8 style comparison: the searched connection yields the best mean
        # capacity over shifting angles, and the best fit to the eigenbeamformer.
        # (The raw trace-ratio score is not a reliable proxy for this ordering;
        # capacity is the quantity the claim is about.)
        from jsdmsim import linksim
        from conftest import merged_group_scenario
        phis = [-30.0, -10.0, 10.0, 30.0, 40.0]
        caps = {"dynamic": [], "ordered": [], "interlaced": []}
        fits = {"dynamic": [], "ordered": [], "interlaced": []}
        m, d = 32, 4
        for i, phi in enumerate(phis):
            scn = merged_group_scenario(m=m, chains=d, phi=phi)
            cov = build_covariances(scn)
            stats = group_statistics(cov, 0)
            geb = compute_geb(stats, cov.factors(0), d)
            (dyn,), (tr_d,) = dynamic_subarray(geb.s[None], [stats], [50 + i], n_restarts=15)
            (cb_o,), (tr_o,) = fixed_subarray(geb.s[None], ordered_mask(m, d)[None],
                                              seed=[50 + i])
            (cb_i,), (tr_i,) = fixed_subarray(geb.s[None], interlaced_mask(m, d)[None],
                                              seed=[50 + i])
            for name, cb, tr in (("dynamic", dyn, tr_d), ("ordered", cb_o, tr_o),
                                 ("interlaced", cb_i, tr_i)):
                fits[name].append(tr.residuals[-1])
                link = linksim.ergodic_capacity(
                    [cov], [with_reduced(stats, {name: cb.effective()})], 0, ("lmmse",), n=32,
                    trials=25, seeds=[60 + i])
                assert link.failures == ({},), link.failures
                caps[name].append(link.means()[0, 0, 0].mean())
        assert np.mean(caps["dynamic"]) >= np.mean(caps["ordered"])
        assert np.mean(caps["dynamic"]) >= np.mean(caps["interlaced"])
        assert np.mean(fits["dynamic"]) <= np.mean(fits["ordered"])
        assert np.mean(fits["dynamic"]) <= np.mean(fits["interlaced"])

    def test_exhaustion_error(self):
        # one chain can never be left unconnected when D=1, so force D=2 with a
        # beamformer whose second column is tiny: every row prefers column 0.
        s = np.zeros((6, 2), dtype=complex)
        s[:, 0] = 1.0
        s[:, 1] = 1e-12
        stats_m = np.eye(2, dtype=complex)
        from jsdmsim import GroupStatistics
        stats = GroupStatistics(np.eye(6, dtype=complex), np.eye(6, dtype=complex))
        with pytest.raises(CandidateExhaustionError, match="restart"):
            dynamic_subarray(s[None], [stats], [1], n_restarts=3)



def am_designs(s, stats, mask, shared, seed, n_restarts, max_iter):
    """Each AM design of a stack of members: (beamformers, traces), or the error the call
    raised.  ``mask`` holds each member's own mask, ``shared`` is every member's mask."""
    calls = {
        "pe-am": lambda: pe_am(s, max_iter=max_iter),
        "fixed": lambda: fixed_subarray(s, mask, seed=seed, max_iter=max_iter),
        "fixed-shared": lambda: fixed_subarray(s, [shared] * len(s), seed=seed,
                                               max_iter=max_iter),
        "dynamic": lambda: dynamic_subarray(s, stats, seed, n_restarts=n_restarts,
                                            max_iter=max_iter),
    }
    out = {}
    for name, call in calls.items():
        try:
            out[name] = call()
        except CandidateExhaustionError as exc:
            out[name] = exc
    return out


class TestLockstep:
    """A stack of members, each with its own GEB, seed and mask, is bit for bit each member's
    stack of one."""

    @hypothesis.seed(20261021)
    @settings(max_examples=12, deadline=None, database=None)
    @given(m=st.sampled_from([15, 16, 31, 32, 127, 128]),
           phis=st.lists(st.floats(-45.0, 45.0), min_size=1, max_size=3),
           seed=st.integers(0, 2**31), n_restarts=st.integers(1, 5),
           max_iter=st.integers(1, 30) | st.just(DEFAULT_MAX_ITER))
    def test_members_equal_their_lone_calls(self, m, phis, seed, n_restarts, max_iter):
        designs = [geb_for(table1_scenario(m=m, phi=phi)) for phi in phis]
        rng = np.random.default_rng(seed)
        masks = np.array([random_mask(rng, m, 4) for _ in phis])
        seeds = [seed + 7 * k for k in range(len(phis))]
        stacked = am_designs(np.stack([geb.s for geb, _ in designs]),
                             [stats for _, stats in designs], masks, masks[0], seeds,
                             n_restarts, max_iter)
        failed = set()
        for k, (geb, stats) in enumerate(designs):
            lone = am_designs(geb.s[None], [stats], masks[k][None], masks[0], [seeds[k]],
                              n_restarts, max_iter)
            for name, got in lone.items():
                if isinstance(got, Exception):  # a stack fails when any member fails
                    failed.add(name)
                    assert isinstance(stacked[name], type(got)), name
                    assert str(stacked[name]) == str(got), name
                elif name not in failed:
                    cb, trace = alone(got)
                    beamformers, traces = stacked[name]
                    assert np.array_equal(beamformers[k].effective(), cb.effective()), name
                    assert np.array_equal(beamformers[k].connection, cb.connection), name
                    assert np.array_equal(traces[k].residuals, trace.residuals), name
                    assert traces[k].iterations == trace.iterations, name
                    assert traces[k].converged == trace.converged, name
                    assert ((traces[k].raw_score, traces[k].refined_score)
                            == (trace.raw_score, trace.refined_score)), name
        for name, got in stacked.items():
            if name not in failed:
                assert got[1].iterations == sum(trace.iterations for trace in got[1])

    def test_a_failing_member_fails_the_stack_with_its_lone_message(self):
        # every row of ``bad`` prefers chain 0, so no restart connects chain 1
        bad = np.zeros((6, 2), dtype=complex)
        bad[:, 0] = 1.0
        bad[:, 1] = 1e-12
        good = random_orthonormal(np.random.default_rng(3), 6, 2)
        stats = GroupStatistics(np.eye(6, dtype=complex), np.eye(6, dtype=complex))
        dynamic_subarray(good[None], [stats], [5], n_restarts=3)
        with pytest.raises(CandidateExhaustionError) as lone:
            dynamic_subarray(bad[None], [stats], [1], n_restarts=3)
        with pytest.raises(CandidateExhaustionError) as stacked:
            dynamic_subarray(np.stack([good, bad]), [stats, stats], [5, 1], n_restarts=3)
        assert str(stacked.value) == str(lone.value)

    def test_a_stack_needs_one_argument_per_member(self):
        s = random_orthonormal(np.random.default_rng(4), 8, 2)[None].repeat(3, axis=0)
        stats = GroupStatistics(np.eye(8, dtype=complex), np.eye(8, dtype=complex))
        mask = np.zeros((8, 2), dtype=int)
        mask[:4, 0] = mask[4:, 1] = 1
        masks = np.stack([mask] * 3)
        cases = [
            ("seed", lambda: fixed_subarray(s, masks)),
            ("seed", lambda: fixed_subarray(s, masks, seed=[0, 1])),
            ("init_phases", lambda: fixed_subarray(s, masks, init_phases=np.zeros((2, 8)))),
            ("connection", lambda: fixed_subarray(s, np.stack([mask, mask]), seed=[0, 1, 2])),
            ("connection", lambda: fixed_subarray(s, mask, seed=[0, 1, 2])),  # one shared mask
            ("stats", lambda: dynamic_subarray(s, [stats, stats], [0, 1, 2])),
            ("stats", lambda: dynamic_subarray(s, stats, [0, 1, 2])),
            ("seed", lambda: dynamic_subarray(s, [stats] * 3, [0, 1])),
            ("seed", lambda: dynamic_subarray(s, [stats] * 3, 0)),
            ("seed", lambda: dynamic_connection(s, [0, 1])),
        ]
        for name, call in cases:
            with pytest.raises(ValueError, match=f"needs one {name} per member"):
                call()


class TestStacksOnly:
    """Each design takes only an (n, M, D) stack; a lone beamformer is refused with one
    message, whatever its form."""

    SHAPE = r"take an \(n, M, D\) stack of unconstrained beamformers"

    @pytest.mark.parametrize("form", ["matrix", "geb", "empty"])
    def test_every_design_refuses_anything_but_a_stack(self, form):
        geb, stats = geb_for(two_group_toy())
        m, d = geb.s.shape
        lone = {"matrix": geb.s, "geb": geb, "empty": np.empty((0, m, d), dtype=complex)}[form]
        calls = {
            "phase_extraction": lambda: phase_extraction(lone),
            "pe_am": lambda: pe_am(lone),
            "fixed_subarray": lambda: fixed_subarray(lone, [ordered_mask(m, d)], seed=[1]),
            "dynamic_connection": lambda: dynamic_connection(lone, [1]),
            "dynamic_subarray": lambda: dynamic_subarray(lone, [stats], [1]),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match=self.SHAPE):
                call()

    def test_a_stack_of_one_is_one_design(self):
        geb, stats = geb_for(two_group_toy())
        m, d = geb.s.shape
        (pe,) = phase_extraction(geb.s[None])
        (cb,), traces = pe_am(geb.s[None])
        assert isinstance(pe, ConstrainedBeamformer) and isinstance(cb, ConstrainedBeamformer)
        assert isinstance(traces, AmTraces) and traces.iterations == traces[0].iterations
        candidates, traces = dynamic_connection(geb.s[None], [1])
        assert candidates.shape == (1, m, d) and isinstance(traces, AmTraces)

    def test_one_mask_is_not_a_mask_per_member(self):
        geb, _ = geb_for(two_group_toy())
        m, d = geb.s.shape
        for n in (1, 2, m):  # n == M: the mask's rows must not pass for n masks
            with pytest.raises(ValueError, match="needs one connection per member"):
                fixed_subarray(np.repeat(geb.s[None], n, axis=0), ordered_mask(m, d),
                               seed=list(range(n)))
