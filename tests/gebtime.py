"""Time the GEB per angle at growing array size: the M x M pencil oracle against the
factor path of ``jsdmsim.geb.compute_geb``.

For each antenna count, ``jsdmsim scenario table1 --scale M`` is built at the angles
phi = 10.0, 10.1, ... (one angle at a time, as a unit of one), and each angle's GEB of
the mobile group is solved three ways, each timed as the best of ``--repeats`` calls on one
OpenBLAS thread:

    pencil   tests/oracles.pencil_geb (eigvalsh, Cholesky, inverse and eigh of M x M)
    factors  compute_geb given the CCM factors (what a sweep pays: it needs them anyway)
    psd      the pivoted-Cholesky factor call those factors come from

The medians over the angles are printed in milliseconds with the factor stack's width
and the largest projector difference between the two GEBs:

    python tests/gebtime.py [--scales 128 256 512] [--angles 5] [--repeats 5]
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def best_of(repeats: int, call) -> float:
    """The shortest of ``repeats`` timed calls, in milliseconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def main(argv=None) -> int:
    from jsdmsim import build_covariances, cli, compute_geb, group_statistics
    from jsdmsim.config import load_config
    from jsdmsim.linalg import one_blas_thread, psd_factor
    import oracles

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scales", type=int, nargs="+", default=[128, 256, 512])
    parser.add_argument("--angles", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    print(f"{'M':>5} {'width':>6} {'pencil_ms':>10} {'factors_ms':>11} {'psd_ms':>7}"
          f" {'ratio':>6} {'projector_diff':>15}")
    with tempfile.TemporaryDirectory() as work, one_blas_thread():
        for m in args.scales:
            path = Path(work) / f"table1-{m}.cfg"
            with contextlib.redirect_stdout(sys.stderr):
                cli.main(["scenario", "table1", "--scale", str(m), "-o", str(path)])
            scn = load_config(path).scenario
            d = scn.groups[0].n_chains
            rows = []
            for phi in 10.0 + 0.1 * np.arange(args.angles):
                cov = build_covariances(scn.with_phi(float(phi)))
                stats, factors = group_statistics(cov, 0), cov.factors(0)
                pencil = best_of(args.repeats, lambda: oracles.pencil_geb(stats, d))
                new = best_of(args.repeats, lambda: compute_geb(stats, factors, d))
                psd = best_of(args.repeats, lambda: psd_factor(cov.stacks[0]))
                a, b = compute_geb(stats, factors, d).s, oracles.pencil_geb(stats, d).s
                diff = np.linalg.norm(a @ a.conj().T - b @ b.conj().T)
                rows.append((pencil, new, psd, diff))
            pencil, new, psd, _ = np.median(rows, axis=0)
            width = np.prod(factors.shape[:-2]) * factors.shape[-1]
            print(f"{m:>5} {width:>6} {pencil:>10.2f} {new:>11.2f} {psd:>7.2f}"
                  f" {pencil / new:>6.1f} {max(r[3] for r in rows):>15.1e}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    sys.exit(main())
