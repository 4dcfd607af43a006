"""Independent reference model of the jsdmsim scenario, numpy/scipy only.

Nothing here imports jsdmsim.  The config text is parsed by a small parser of
its own, covariances come from Gauss-Legendre quadrature and the Hermitian
Toeplitz structure of a half-wavelength ULA (the package uses a midpoint rule
and an M x M outer product), the GEB span comes straight from
``scipy.linalg.eigh(R_s, R_eta)``, and the ZF SC-FDE capacity is evaluated in
closed form over the reference model's own channel draws:

    C_u = log2(1 + (E_s/K) / mean_k[(W_k^H S^H R_eta S W_k)_uu]),
    W_k = Lambda_k (Lambda_k^H Lambda_k)^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

GL_NODES = 64


@dataclass(frozen=True)
class Group:
    users: int
    chains: int
    energy: float          # total symbol energy E_s of the group
    gain: float
    spread: float
    mobile: bool
    mpcs: dict             # delay -> list of per-user mean AoAs (degrees)


@dataclass(frozen=True)
class Model:
    antennas: int
    taps: int
    noise: float
    block_length: int
    groups: list
    evaluated: int         # 0-based index of the evaluated group
    phis: np.ndarray
    beamformers: tuple
    combiners: tuple
    estimator: str
    trials: int
    beampattern_phi: float


def parse(text: str) -> Model:
    """Read the handful of config entries the reference model needs."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            current = sections.setdefault(" ".join(line[1:-1].split()), {})
        else:
            key, value = line.split("=", 1)
            current[" ".join(key.split())] = value.strip()

    scn = sections["scenario"]
    group_ids = sorted(int(name.split()[1]) for name in sections if name.startswith("group "))
    groups = []
    for gid in group_ids:
        sec = sections[f"group {gid}"]
        energy = (float(sec["symbol_energy"]) if "symbol_energy" in sec
                  else 10.0 ** (float(sec["symbol_energy_db"]) / 10.0))
        mpcs = {int(key.split()[1]): [float(v) for v in value.split()]
                for key, value in sec.items() if key.startswith("mpc ")}
        groups.append(Group(int(sec["users"]), int(sec["chains"]), energy,
                            float(sec["gain"]), float(sec["spread"]),
                            sec.get("mobile", "false").lower() == "true", mpcs))
    run = sections["run"]
    if "group" in run:
        evaluated = int(run["group"]) - 1
    else:
        evaluated = next(i for i, g in enumerate(groups) if g.mobile)
    sweep = sections["sweep"]
    start, stop, step = (float(sweep[k]) for k in ("phi_start", "phi_stop", "phi_step"))
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return Model(
        antennas=int(scn["antennas"]), taps=int(scn["taps"]),
        noise=float(scn["noise_power"]), block_length=int(scn.get("block_length", 64)),
        groups=groups, evaluated=evaluated, phis=start + step * np.arange(count),
        beamformers=tuple(run["beamformers"].split()),
        combiners=tuple(run["combiners"].split()),
        estimator=run.get("estimator", "none"), trials=int(sections["mc"]["trials"]),
        beampattern_phi=float(sections.get("output", {}).get("beampattern_phi", 10.0)))


def cluster_covariance(mu: float, spread: float, power: float, m: int) -> np.ndarray:
    """Covariance of a uniform angular cluster, E[a a^H] with |a|^2 = 1, trace = power.

    Entry (k, l) depends on k - l only, so one column from Gauss-Legendre
    quadrature of E[exp(j pi n sin(theta))] fills the Toeplitz matrix.
    """
    x, w = np.polynomial.legendre.leggauss(GL_NODES)
    theta = np.deg2rad(mu + 0.5 * spread * x)
    lags = np.arange(m)[:, None]
    col = (np.exp(1j * np.pi * lags * np.sin(theta)[None, :]) @ (0.5 * w)) / m
    return power * sla.toeplitz(col, col.conj()) / (m * col[0].real)


def user_covariances(model: Model, g: int, phi: float) -> dict:
    """(user, delay) -> covariance of group g at shifting angle ``phi``."""
    grp = model.groups[g]
    shift = phi if grp.mobile else 0.0
    per_mpc = grp.gain / len(grp.mpcs)
    return {(k, delay): cluster_covariance(aoas[k] + shift, grp.spread, per_mpc, model.antennas)
            for delay, aoas in grp.mpcs.items() for k in range(grp.users)}


def pencil(model: Model, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """(R_s, R_eta) of the evaluated group at shifting angle ``phi``."""
    m = model.antennas
    r_s = np.zeros((m, m), dtype=complex)
    r_eta = model.noise * np.eye(m, dtype=complex)
    for g, grp in enumerate(model.groups):
        total = sum(user_covariances(model, g, phi).values())
        if g == model.evaluated:
            r_s += grp.energy / grp.users * total
        else:
            r_eta += grp.energy / grp.users * total
    return r_s, r_eta


def largest_generalized_eigenvalue(model: Model, phi: float) -> float:
    r_s, r_eta = pencil(model, phi)
    m = model.antennas
    return float(sla.eigh(r_s, r_eta, eigvals_only=True, subset_by_index=[m - 1, m - 1])[0])


def geb_zf_capacity_samples(model: Model, phi: float, trials: int, seed) -> np.ndarray:
    """Per-trial ZF capacity of each user under the GEB span, shape (trials, K)."""
    g = model.evaluated
    grp = model.groups[g]
    r_s, r_eta = pencil(model, phi)
    _, vecs = sla.eigh(r_s, r_eta)
    s = vecs[:, -grp.chains:]
    r_eta_rd = s.conj().T @ r_eta @ s

    rng = np.random.default_rng(seed)
    d, k, n = grp.chains, grp.users, model.block_length
    taps = np.zeros((trials, model.taps, d, k), dtype=complex)
    for (user, delay), r in sorted(user_covariances(model, g, phi).items()):
        vals, u = np.linalg.eigh(r)
        factor = u * np.sqrt(np.clip(vals, 0.0, None))
        z = (rng.standard_normal((model.antennas, trials))
             + 1j * rng.standard_normal((model.antennas, trials))) / np.sqrt(2.0)
        taps[:, delay, :, user] = (s.conj().T @ factor @ z).T
    lam = np.fft.fft(taps, n=n, axis=1)                       # (trials, bins, D, K)
    gram_inv = np.linalg.inv(np.swapaxes(lam.conj(), -1, -2) @ lam)
    w = lam @ gram_inv
    noise = np.einsum("tndk,de,tnek->tnk", w.conj(), r_eta_rd, w).real.mean(axis=1)
    return np.log2(1.0 + grp.energy / grp.users / noise)
