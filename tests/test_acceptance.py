"""Acceptance suite: one test per exit criterion, at desk scale.

Desk scale means a 32-antenna array, 64-sample blocks and >= 200 Monte Carlo
trials where trials apply.  Every test prints a PASS line on success (run
with ``pytest tests/test_acceptance.py -v -s`` to see them); a failure shows
up as an ordinary pytest failure.
"""

import numpy as np
import pytest

from jsdmsim import (
    GroupStatistics,
    beampattern,
    build_covariances,
    compute_geb,
    dynamic_connection,
    dynamic_subarray,
    expected_sinr,
    fixed_subarray,
    group_statistics,
    interlaced_mask,
    ordered_mask,
    pe_am,
    phase_extraction,
    reduce,
    reduced_mutual_info,
    sample_channels,
    steering_matrix,
)
from jsdmsim import chanest, linksim
from jsdmsim.config import parse_config
from jsdmsim.digital import effective_channel, lmmse_combiners, zf_combiners
from jsdmsim.linalg import svd
from jsdmsim.metrics import SweepSettings, _derived_seed, build_beamformer
from jsdmsim.runner import run

import oracles
from conftest import (
    merged_group_scenario,
    random_orthonormal,
    random_unitary,
    table1_scenario,
    with_reduced,
)


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def random_desk_scenario(rng):
    """Randomized Table-1-like desk scenario: 32 antennas, 4 groups."""
    from jsdmsim import GroupSpec, Scenario
    groups = []
    centers = rng.permutation(np.linspace(-50, 50, 4) + rng.uniform(-5, 5, 4))
    for g in range(4):
        n_mpc = int(rng.integers(1, 4))
        delays = tuple(sorted(rng.choice(32, size=n_mpc, replace=False).tolist()))
        aoa = centers[g] + rng.uniform(-20, 20, n_mpc)
        aoa = np.vstack([aoa, aoa + 1.0])
        groups.append(GroupSpec(2, 4, 10 ** (rng.uniform(15, 35) / 10), delays, aoa,
                                2.0, 1.0, mobile=(g == 0)))
    return Scenario(32, 32, 1.0, tuple(groups))


def test_criterion_01_geb_optimality():
    rng = np.random.default_rng(1001)
    for _ in range(10):
        scn = random_desk_scenario(rng)
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        d = 4
        geb = compute_geb(stats, cov.factors(0), d)
        best = reduced_mutual_info(stats, geb.s)
        for _ in range(1000):
            s = random_orthonormal(rng, scn.n_antennas, d)
            assert reduced_mutual_info(stats, s) <= best + 1e-9
    report(1, "GEB maximizes reduced mutual information over 10x1000 random beamformers")


def test_criterion_02_cost_and_beampattern_invariance():
    scn = table1_scenario(m=32, phi=10.0)
    cov = build_covariances(scn)
    stats = group_statistics(cov, 0)
    geb = compute_geb(stats, cov.factors(0), 4)
    base_cost = reduced_mutual_info(stats, geb.s)
    grid = steering_matrix(np.arange(-90.0, 90.01, 0.5), 32)
    base_pattern = beampattern(geb.s, grid)
    rng = np.random.default_rng(1002)
    for _ in range(100):
        # invertible factor with condition number <= 1e4
        u = random_unitary(rng, 4)
        v = random_unitary(rng, 4)
        sv = 10.0 ** rng.uniform(-2, 2, 4)
        a = (u * sv) @ v.conj().T
        cost = reduced_mutual_info(stats, geb.s @ a)
        assert abs(cost - base_cost) <= 1e-6 * base_cost
        pattern = beampattern(geb.s @ a, grid)
        assert np.max(np.abs(pattern - base_pattern)) <= 1e-8
    report(2, "cost and beampattern invariant under 100 right-factors (cond <= 1e4)")


def test_criterion_03_reduced_covariance_matches_model():
    scn = table1_scenario(m=32, phi=10.0)
    cov = build_covariances(scn)
    stats = group_statistics(cov, 0)
    geb = compute_geb(stats, cov.factors(0), 4)
    spec = scn.groups[0]
    model = geb.s.conj().T @ stats.r_s @ geb.s

    n, n_blocks = 64, 20000
    bins = np.array([0, 7, 13, 22, 31, 40, 51, 60])
    dft_rows = np.exp(-2j * np.pi * np.outer(bins, np.arange(n)) / n) / np.sqrt(n)
    amp = np.sqrt(spec.symbol_energy / spec.n_users)
    acc = np.zeros((len(bins), 4, 4), dtype=complex)
    rng = np.random.default_rng(1003)
    factors = [[cov.factors(0)[i, k] for i in range(len(spec.delays))] for k in range(2)]
    phase_l = np.exp(-2j * np.pi * np.outer(bins, spec.delays) / n)
    for _ in range(n_blocks):
        taps_eff = np.empty((len(spec.delays), 4, 2), dtype=complex)
        for li in range(len(spec.delays)):
            for k in range(2):
                # a tap is L z with L the M x r pivoted-Cholesky factor of its CCM
                r = factors[k][li].shape[1]
                z = (rng.standard_normal(r) + 1j * rng.standard_normal(r)) / np.sqrt(2)
                taps_eff[li, :, k] = geb.s.conj().T @ (factors[k][li] @ z)
        x = amp * np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, (2, n))))
        x_f = x @ dft_rows.T  # (2, bins)
        lam = np.einsum("bl,ldk->bdk", phase_l, taps_eff)
        s_f = np.einsum("bdk,kb->bd", lam, x_f)
        acc += np.einsum("bd,be->bde", s_f, s_f.conj())
    acc /= n_blocks
    for b in range(len(bins)):
        err = np.linalg.norm(acc[b] - model)
        assert err <= 0.05 * np.linalg.norm(model), f"bin {bins[b]}: {err:.3e}"
    report(3, "per-bin reduced signal covariance matches S^H R_s S within 5% on 8 bins")


def test_criterion_04_am_monotonicity_and_unitarity():
    rng = np.random.default_rng(1004)
    for _ in range(100):
        m = int(rng.choice([16, 24, 32]))
        d = int(rng.integers(2, 7))
        s = random_orthonormal(rng, m, d)
        _, (tr1,) = pe_am(s[None])
        assert np.all(np.diff(tr1.residuals) <= 1e-12)
        mask = ordered_mask(m, d) if m % d == 0 else None
        if mask is None:
            chain = rng.integers(0, d, m)
            chain[:d] = np.arange(d)  # keep every chain populated
            mask = np.zeros((m, d), dtype=int)
            mask[np.arange(m), chain] = 1
        _, (tr2,) = fixed_subarray(s[None], mask[None], seed=[int(rng.integers(0, 2**31))])
        assert np.all(np.diff(tr2.residuals) <= 1e-12)
        _, (tr3,) = dynamic_connection(s[None], seed=[int(rng.integers(0, 2**31))])
        assert np.all(np.diff(tr3.residuals) <= 1e-12)
    # unitary invariant at every iteration, via truncated reruns
    for inst in range(5):
        s = random_orthonormal(rng, 24, 4)
        for k in range(1, 13):
            (cb,), _ = pe_am(s[None], max_iter=k)
            assert np.linalg.norm(cb.s_cm.conj().T @ cb.s_cm - np.eye(4)) <= 1e-10
    report(4, "residuals of algorithms 1-3 non-increasing on 100 instances; "
              "compensation unitary every iteration")


def test_criterion_05_phase_extraction_optimality():
    rng = np.random.default_rng(1005)
    for _ in range(20):
        m = int(rng.choice([8, 16, 32]))
        d = int(rng.integers(1, 5))
        s = random_orthonormal(rng, m, d)
        (cb,) = phase_extraction(s[None])
        base = np.linalg.norm(s - cb.s_c)
        phases = rng.uniform(0, 2 * np.pi, (10000, m, d))
        cands = np.exp(1j * phases) / np.sqrt(m)
        dists = np.linalg.norm(s[None] - cands, axis=(1, 2))
        assert np.all(base <= dists + 1e-12)
    report(5, "phase extraction beats 1e4 random unit-modulus matrices on 20 instances")


def test_criterion_06_procrustes_step_optimality():
    rng = np.random.default_rng(1006)
    for inst in range(5):
        m, d = 16, 3
        s = random_orthonormal(rng, m, d)
        # compensation step of the fully connected loop
        (cb,), _ = pe_am(s[None])
        base_cm = np.linalg.norm(s @ cb.s_cm.conj().T - cb.s_c)
        # rotation step of the connection search
        (cand,), _ = dynamic_connection(s[None], seed=[inst])
        u, _, v = svd(s.conj().T @ cand)
        rot = u @ v.conj().T
        base_rot = np.linalg.norm(s @ rot - cand)
        for _ in range(10000):
            a = random_unitary(rng, d)
            assert base_cm <= np.linalg.norm(s @ a.conj().T - cb.s_c) + 1e-12
            assert base_rot <= np.linalg.norm(s @ a - cand) + 1e-12
    report(6, "both Procrustes-type steps beat 1e4 random unitaries per instance")


def test_criterion_07_zf_contract_and_lmmse_limit():
    scn = table1_scenario(m=32, phi=10.0)
    cov = build_covariances(scn)
    stats = group_statistics(cov, 0)
    geb = compute_geb(stats, cov.factors(0), 4)
    for t in range(20):
        real = sample_channels(cov, [1007, t], groups=[0])
        eff = effective_channel(geb.s, real, 0, 64)
        bank = zf_combiners(eff)
        for k in range(64):
            assert np.max(np.abs(bank.w[..., k].conj().T @ eff.freq[..., k] - np.eye(2))) <= 1e-10
    # LMMSE -> ZF when interference is absent and E_s/N_0 = 1e6
    real = sample_channels(cov, 77, groups=[0])
    eff = effective_channel(geb.s, real, 0, 64)
    bank = lmmse_combiners(eff, np.eye(4, dtype=complex), symbol_energy=2 * 1e6, n_users=2)
    for k in range(64):
        assert np.max(np.abs(bank.w[..., k].conj().T @ eff.freq[..., k] - np.eye(2))) <= 1e-3
    report(7, "ZF unbiased to 1e-10 on all bins/trials; LMMSE within 1e-3 of ZF at SNR 1e6")


def test_criterion_08_lmmse_at_least_zf():
    scn = table1_scenario(m=32, phi=10.0)
    cov = build_covariances(scn)
    stats = group_statistics(cov, 0)
    geb = compute_geb(stats, cov.factors(0), 4)
    s_eff = phase_extraction(geb.s[None])[0].effective()  # leaves residual interference
    rd = reduce(stats, s_eff)
    spec = scn.groups[0]
    for t in range(50):
        real = sample_channels(cov, [1008, t], groups=[0])
        eff = effective_channel(s_eff, real, 0, 64)
        zf = zf_combiners(eff)
        lm = lmmse_combiners(eff, rd, spec.symbol_energy, spec.n_users)
        for user in range(spec.n_users):
            r_zf = linksim.bussgang_report(eff, zf, rd, spec.symbol_energy, spec.n_users, user)
            r_lm = linksim.bussgang_report(eff, lm, rd, spec.symbol_energy, spec.n_users, user)
            assert r_lm.sinr >= r_zf.sinr - 1e-9
    report(8, "LMMSE per-user SINR >= ZF on every of 50 realizations under interference")


def test_criterion_09_fully_connected_capacity_ordering():
    names = ("geb", "pe-am", "pe", "dft")
    phis = (-30.0, -10.0, 10.0, 30.0)
    samples = {n: [] for n in names}
    for i, phi in enumerate(phis):
        scn = table1_scenario(m=32, mobile_db=40.0, interferer_db=20.0, chains=6, phi=phi)
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, cov.factors(0), 6)
        cfg = SweepSettings(group=0)
        for n in names:
            s = build_beamformer(n, scn, stats, 0, cfg, _derived_seed(3, i, 1), geb)
            link = linksim.ergodic_capacity([cov], [with_reduced(stats, {n: s})], 0, ("lmmse",),
                                            n=64, trials=200, seeds=[_derived_seed(3, i, 2)])
            assert link.failures == ({},), link.failures
            samples[n].append(link.samples[:, 0, 0].mean(axis=1))
    arr = {n: np.concatenate(v) for n, v in samples.items()}
    means = {n: arr[n].mean() for n in names}
    stderr = {n: arr[n].std(ddof=1) / np.sqrt(arr[n].size) for n in names}
    print("  mean capacity (bits/s/Hz): "
          + ", ".join(f"{n}={means[n]:.3f}+-{stderr[n]:.3f}" for n in names))
    for hi, lo in zip(names[:-1], names[1:]):
        diff = arr[hi] - arr[lo]
        margin = diff.mean() - diff.std(ddof=1) / np.sqrt(diff.size)
        assert margin > 0, f"{hi} >= {lo} fails beyond 1 SE (margin {margin:.4f})"
    rel_gap = (means["geb"] - means["pe-am"]) / means["geb"]
    assert rel_gap <= 0.05, f"GEB - PE-AM gap {rel_gap:.2%} exceeds 5%"
    report(9, f"capacity ordering geb >= pe-am >= pe >= dft beyond 1 SE; "
              f"GEB-PEAM gap {rel_gap:.2%} <= 5%")


def test_criterion_10_subarray_capacity_ordering():
    m, d = 32, 8
    phis = np.arange(-40.0, 41.0, 10.0)
    caps = {(n, c): [] for n in ("dynamic", "ordered", "interlaced") for c in ("zf", "lmmse")}
    for i, phi in enumerate(phis):
        scn = merged_group_scenario(m=m, chains=d, phi=float(phi))
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, cov.factors(0), d)
        seed = _derived_seed(3, i, 1)
        (dyn,), _ = dynamic_subarray(geb.s[None], [stats], [seed], n_restarts=20)
        (cb_o,), _ = fixed_subarray(geb.s[None], ordered_mask(m, d)[None], seed=[seed])
        (cb_i,), _ = fixed_subarray(geb.s[None], interlaced_mask(m, d)[None], seed=[seed])
        for name, cb in (("dynamic", dyn), ("ordered", cb_o), ("interlaced", cb_i)):
            for comb in ("zf", "lmmse"):
                link = linksim.ergodic_capacity(
                    [cov], [with_reduced(stats, {name: cb.effective()})], 0, (comb,), n=64,
                    trials=200, seeds=[_derived_seed(3, i, 2)])
                assert link.failures == ({},), link.failures
                caps[(name, comb)].append(link.samples[:, 0, 0].mean(axis=1))
    arr = {k: np.concatenate(v) for k, v in caps.items()}
    for comb in ("zf", "lmmse"):
        for hi, lo in (("dynamic", "ordered"), ("ordered", "interlaced")):
            diff = arr[(hi, comb)] - arr[(lo, comb)]
            margin = diff.mean() - diff.std(ddof=1) / np.sqrt(diff.size)
            assert margin > 0, f"{hi} >= {lo} ({comb}) fails beyond 1 SE"
    gap_dyn = arr[("dynamic", "lmmse")].mean() - arr[("dynamic", "zf")].mean()
    gap_ord = arr[("ordered", "lmmse")].mean() - arr[("ordered", "zf")].mean()
    assert gap_dyn <= gap_ord, f"dynamic gap {gap_dyn:.3f} > ordered gap {gap_ord:.3f}"
    report(10, f"dynamic >= ordered >= interlaced beyond 1 SE (both combiners); "
               f"LMMSE-ZF gap {gap_dyn:.3f} <= {gap_ord:.3f}")


def test_criterion_11_geb_nulls_below_dft():
    scn = table1_scenario(m=32, mobile_db=40.0, interferer_db=40.0, phi=10.0)
    cov = build_covariances(scn)
    stats = group_statistics(cov, 0)
    cfg = SweepSettings(group=0)
    geb = compute_geb(stats, cov.factors(0), 4)
    s_geb = build_beamformer("geb", scn, stats, 0, cfg, 0, geb)
    s_dft = build_beamformer("dft", scn, stats, 0, cfg, 0, geb)
    own = scn.effective_aoa(0).ravel()
    interferers = np.concatenate([scn.effective_aoa(g).ravel() for g in (1, 2, 3)])
    own_peak = beampattern(s_geb, steering_matrix(own, 32)).max()
    geb_int = beampattern(s_geb, steering_matrix(interferers, 32))
    dft_int = beampattern(s_dft, steering_matrix(interferers, 32))
    assert np.all(geb_int <= 0.01 * own_peak), "null not 20 dB below own-cluster peak"
    assert np.all(geb_int < dft_int)
    depth_db = 10 * np.log10(geb_int.max() / own_peak)
    report(11, f"GEB nulls at interferer angles: worst {depth_db:.1f} dB below own peak, "
               "all strictly below the DFT beamformer")


def test_criterion_12_nmse_grid():
    scn = table1_scenario(m=32, phi=10.0)
    cov = build_covariances(scn)
    stats = group_statistics(cov, 0)
    geb = compute_geb(stats, cov.factors(0), 4)
    rd = reduce(stats, geb.s)
    r_h = chanest.effective_covariance(cov.stacks[0], geb.s)
    t_grid = (8, 12, 16, 24)
    e_grid = (0.5, 2.0, 8.0, 32.0)
    lm = np.zeros((4, 4))
    ls = np.zeros((4, 4))
    for a, t_len in enumerate(t_grid):
        for b, energy in enumerate(e_grid):
            pilots = chanest.build_pilots(scn, 0, t_len, seed=[5, t_len], energy=energy)
            pc = chanest.pilot_covariances(pilots, scn.groups[0].delays, r_h, rd)
            lm[a, b] = chanest.nmse(chanest.lmmse_estimator(pc), pc)
            ls[a, b] = chanest.nmse(chanest.ls_estimator(pilots, scn.groups[0].delays, 4), pc)
    assert np.all(lm <= ls), "LMMSE must not lose to LS anywhere on the grid"
    assert np.all(np.diff(lm, axis=0) <= 0), "LMMSE nMSE must not grow with T"
    assert np.all(np.diff(ls, axis=0) <= 0), "LS nMSE must not grow with T"

    # closed form against Monte Carlo at one grid point
    pilots = chanest.build_pilots(scn, 0, 8, seed=[5, 8], energy=2.0)
    pc = chanest.pilot_covariances(pilots, scn.groups[0].delays, r_h, rd)
    z = chanest.lmmse_estimator(pc)
    closed = chanest.nmse(z, pc)
    err = ref = 0.0
    for t in range(5000):
        real = sample_channels(cov, [1012, t])
        ybar = oracles.receive_pilots(pilots, real, geb.s, seed=[1013, t])
        truth = oracles.stack_effective(real, geb.s, 0)
        err += np.sum(np.abs(z.conj().T @ ybar - truth) ** 2)
        ref += np.sum(np.abs(truth) ** 2)
    mc = err / ref
    assert abs(mc - closed) <= 0.03 * closed
    report(12, f"LMMSE <= LS on 4x4 grid, both non-increasing in T; "
               f"closed form {closed:.4f} vs MC {mc:.4f} within 3%")


def test_criterion_13_bussgang_cross_validation():
    rng = np.random.default_rng(1013)
    from jsdmsim import GroupSpec, Scenario
    for case in range(10):
        m = int(rng.choice([8, 12, 16]))
        k = int(rng.integers(1, 3))
        d = int(rng.integers(max(k, 2), 5))
        taps = 4
        n_groups = int(rng.integers(1, 3))
        groups = []
        for g in range(n_groups):
            n_mpc = int(rng.integers(1, 3))
            delays = tuple(sorted(rng.choice(taps, size=n_mpc, replace=False).tolist()))
            aoa = rng.uniform(-60, 60) + rng.uniform(-15, 15, n_mpc)
            aoa = np.vstack([aoa + 1.2 * u for u in range(k)])
            groups.append(GroupSpec(k, d, 10 ** (rng.uniform(10, 25) / 10), delays,
                                    aoa, 2.0, 1.0))
        scn = Scenario(m, taps, 1.0, tuple(groups))
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, cov.factors(0), d)
        rd = reduce(stats, geb.s)
        real = sample_channels(cov, [1014, case], groups=[0])
        n = 128
        eff = effective_channel(geb.s, real, 0, n)
        spec = scn.groups[0]
        if case % 2 == 0:
            bank = zf_combiners(eff)
        else:
            bank = lmmse_combiners(eff, rd, spec.symbol_energy, spec.n_users)
        user = int(rng.integers(0, k))
        rep = linksim.bussgang_report(eff, bank, rd, spec.symbol_energy, spec.n_users, user)
        others = [g for g in range(scn.n_groups) if g != 0]
        resid = 0.0
        count = 0
        for t in range(782):  # ~1e5 symbols
            # the analytic residual treats interferer channels as random, so the
            # empirical path redraws them per block (intended channel stays fixed)
            block_real = real
            if others:
                fresh = sample_channels(cov, [1016, case, t], groups=others)
                merged = [real.taps[0]] + [fresh.taps[g] for g in others]
                block_real = type(real)(scn, merged)
            res = oracles.simulate_block(block_real, {0: geb.s}, {0: bank}, n,
                                         seed=[1015, case, t])
            x = res.symbols[0][user]
            xh = res.estimates[0][user]
            resid += np.sum(np.abs(xh - rep.a * x) ** 2)
            count += x.size
        e_sym = spec.symbol_energy / spec.n_users
        sinr_emp = e_sym * abs(rep.a) ** 2 / (resid / count)
        assert abs(sinr_emp - rep.sinr) <= 0.05 * rep.sinr, (
            f"case {case}: empirical {sinr_emp:.4f} vs analytic {rep.sinr:.4f}")
    report(13, "semi-analytic SINR within 5% of symbol-level SINR on 10 random configs")


def test_criterion_14_expected_sinr_hand_values():
    # pencil 1: diagonal, identity-column beamformer
    stats = GroupStatistics(np.diag([4.0, 2.0, 1.0]).astype(complex),
                            np.diag([1.0, 0.5, 2.0]).astype(complex))
    s = np.eye(3, 2, dtype=complex)
    assert abs(expected_sinr(stats, s) - (4.0 + 2.0) / (1.0 + 0.5)) <= 1e-12
    # pencil 2: scaled identity pair
    stats = GroupStatistics(3.0 * np.eye(4, dtype=complex), 0.25 * np.eye(4, dtype=complex))
    rng = np.random.default_rng(1014)
    s = random_orthonormal(rng, 4, 2)
    assert abs(expected_sinr(stats, s) - 12.0) <= 1e-12 * 12.0
    # pencil 3: orthogonal steering directions (broadside vs endfire, M=4)
    from jsdmsim import steering_matrix
    u0 = steering_matrix([0.0], 4)[:, 0]
    u90 = steering_matrix([90.0], 4)[:, 0]
    stats = GroupStatistics(8.0 * np.outer(u0, u0.conj()),
                            16.0 * np.outer(u90, u90.conj()) + 0.5 * np.eye(4))
    assert abs(expected_sinr(stats, u0[:, None]) - 16.0) <= 1e-12 * 16.0
    report(14, "expected SINR matches hand-computed trace ratios on 3 pencils to 1e-12")


def test_criterion_15_byte_identical_runs(tmp_path):
    text = """
[scenario]
antennas = 16
taps = 32
noise_power = 1.0
block_length = 32

[group 1]
mobile = true
users = 2
chains = 4
symbol_energy_db = 30
spread = 2.0
gain = 1.0
mpc 0 = -15.5 -14.5
mpc 5 = -2.5 -1.5
mpc 11 = 16.5 17.5

[group 2]
users = 2
chains = 4
symbol_energy_db = 20
spread = 2.0
gain = 1.0
mpc 3 = 40.5 41.5
mpc 9 = 20.5 21.5

[run]
beamformers = geb pe dynamic
combiners = zf lmmse
estimator = lmmse

[estimation]
pilot_length = 8

[sweep]
phi_start = -2.0
phi_stop = 2.0
phi_step = 2.0

[mc]
trials = 5
seed = 11

[numerics]
n_restarts = 5

[output]
beampattern_step = 1.0
"""
    cfg = parse_config(text)
    run(cfg, tmp_path / "a")
    run(cfg, tmp_path / "b")
    for name in ("results.csv", "cdf.csv", "beampattern.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    report(15, "identical config and seeds produce byte-identical CSV outputs")
