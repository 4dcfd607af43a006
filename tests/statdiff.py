"""Statistical comparison of two jsdmsim run directories whose channel draws differ.

A declared statistical change (another sampler of the same CN(0, R) law, another
seed) moves every capacity of ``results.csv`` and ``cdf.csv``, so
``outputdiff.py`` flags them all.  This gate asks instead whether both runs
could come from the same law.  It pairs the rows of ``results.csv`` by
(phi, beamformer, combiner, user) as ``outputdiff.py`` does, and checks:

- per (design, combiner, user): the paired t statistic of the per-angle
  capacity differences stays below 5 in absolute value (five standard errors);
- per (design, combiner): the two-sample Kolmogorov-Smirnov distance of the
  per-angle capacities (averaged over users, the ``cdf.csv`` population)
  stays under its critical value at alpha = 1e-3;
- the paper's orderings agree on both runs: mean capacity geb >= pe-am >=
  pe >= dft for each combiner, among the designs present, and lmmse >= zf
  for each design.  An ordering that holds on one run and not on the other
  fails the gate.  One that neither run holds is reported but passes: the
  paper's orderings are claims about a whole sweep, and a short angle range
  can break one on any sampler (pe < dft at phi 10..11 at full scale).

The t check needs several angles: with n angles, |t| exceeds 5 by chance with
the probability of a Student t with n - 1 degrees of freedom, about 0.13 at 2
angles, 0.0075 at 5 and 0.0005 at 11, per (design, combiner, user).

    python tests/statdiff.py PARENT_DIR CHANGE_DIR
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from outputdiff import OutputMismatch, keyed_rows

T_LIMIT = 5.0
KS_ALPHA = 1e-3
# the designs whose mean capacities the paper orders, best first
ORDER = ("geb", "pe-am", "pe", "dft")


def capacities(run_dir) -> dict[tuple, float]:
    """(phi, beamformer, combiner, user) -> capacity of a run's ``results.csv``."""
    header, rows = keyed_rows(Path(run_dir) / "results.csv")
    column = [h for h in header if h not in ("phi", "beamformer", "combiner", "user")].index(
        "capacity")
    return {key: float(values[column]) for key, values in rows.items()}


def paired_t(differences) -> tuple[float, float]:
    """(mean over its standard error, standard error); t is 0 for all-zero differences
    and NaN below two."""
    d = np.asarray(differences, dtype=float)
    if len(d) < 2:
        return math.nan, math.nan
    stderr = d.std(ddof=1) / math.sqrt(len(d))
    if not d.any():
        return 0.0, stderr
    return (math.copysign(math.inf, d.mean()) if stderr == 0 else d.mean() / stderr), stderr


def ks_distance(x, y) -> float:
    """Largest gap between the empirical CDFs of two samples."""
    x, y = np.sort(x), np.sort(y)
    grid = np.concatenate([x, y])
    return float(np.abs(np.searchsorted(x, grid, side="right") / len(x)
                        - np.searchsorted(y, grid, side="right") / len(y)).max())


def ks_critical(n: int, m: int, alpha: float = KS_ALPHA) -> float:
    """The asymptotic two-sample critical distance c(alpha) sqrt((n + m) / (n m))."""
    return math.sqrt(-math.log(alpha / 2) / 2) * math.sqrt((n + m) / (n * m))


def broken_orderings(caps: dict[tuple, float]) -> list[str]:
    """The paper's orderings of mean capacity that one run breaks."""
    pooled = defaultdict(list)
    for (_, design, comb, _), value in caps.items():
        pooled[(design, comb)].append(value)
    means = {pair: float(np.mean(values)) for pair, values in pooled.items()}
    failures = []
    for comb in sorted({comb for _, comb in means}):
        present = [d for d in ORDER if (d, comb) in means]
        for better, worse in zip(present, present[1:]):
            if not means[(better, comb)] >= means[(worse, comb)]:
                failures.append(f"{comb}: {better} >= {worse}")
    for design in sorted({design for design, _ in means}):
        if ((design, "lmmse") in means and (design, "zf") in means
                and not means[(design, "lmmse")] >= means[(design, "zf")]):
            failures.append(f"{design}: lmmse >= zf")
    return failures


def compare(parent, change) -> tuple[list[str], list[str]]:
    """(report lines, failures) of the three checks on two run directories."""
    a, b = capacities(parent), capacities(change)
    if a.keys() != b.keys():
        raise OutputMismatch(f"results.csv: rows only in {parent}: "
                             f"{sorted(a.keys() - b.keys())[:3]}, only in {change}: "
                             f"{sorted(b.keys() - a.keys())[:3]}")
    lines, failures = [], []

    differences = defaultdict(list)
    per_angle = defaultdict(lambda: (defaultdict(list), defaultdict(list)))
    for key in sorted(a, key=lambda k: (k[1], k[2], int(k[3]), float(k[0]))):
        phi, design, comb, user = key
        differences[(design, comb, user)].append(b[key] - a[key])
        per_angle[(design, comb)][0][phi].append(a[key])
        per_angle[(design, comb)][1][phi].append(b[key])
    for (design, comb, user), d in differences.items():
        t, stderr = paired_t(d)
        mean = np.mean([a[key] for key in a if key[1:] == (design, comb, user)])
        # the smallest mean shift this check can catch, T_LIMIT standard errors
        lines.append(f"t {design} {comb} user {user}: {t:+.2f} over {len(d)} angles,"
                     f" resolves {100 * T_LIMIT * stderr / mean:.2g}% of the mean")
        if not abs(t) < T_LIMIT and not math.isnan(t):
            failures.append(f"paired t of {design} {comb} user {user} is {t:+.2f}")

    for (design, comb), (before, after) in per_angle.items():
        x = [np.mean(v) for v in before.values()]
        y = [np.mean(v) for v in after.values()]
        dist, limit = ks_distance(x, y), ks_critical(len(x), len(y))
        lines.append(f"ks {design} {comb}: D {dist:.3f} (critical {limit:.3f})")
        if dist > limit:
            failures.append(f"KS distance of {design} {comb} is {dist:.3f} > {limit:.3f}")

    before, after = broken_orderings(a), broken_orderings(b)
    for ordering in sorted(set(before) & set(after)):
        lines.append(f"ordering {ordering} broken on both runs")
    failures.extend(f"ordering {ordering} broken on the parent only"
                    for ordering in before if ordering not in after)
    failures.extend(f"ordering {ordering} broken on the change only"
                    for ordering in after if ordering not in before)
    lines.append(f"orderings: {len(before)} broken on the parent, {len(after)} on the change")
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    lines, failures = compare(args.parent, args.change)
    print("\n".join(lines))
    print("\n".join(f"FAIL {f}" for f in failures) or "PASS")
    return int(bool(failures))


if __name__ == "__main__":
    sys.exit(main())
