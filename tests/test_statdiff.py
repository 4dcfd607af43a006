"""The statistical gate passes two samples of one law and fails each planted fault."""

import numpy as np
import pytest

from outputdiff import OutputMismatch
from statdiff import compare, ks_critical, ks_distance, main, paired_t

# mean capacity of each design, in the paper's order
MEANS = {"geb": 7.3, "pe-am": 7.2, "pe": 7.0, "dft": 6.5}
PHIS = np.round(np.arange(10.0, 11.05, 0.1), 1)


def write_run(path, seed, bias=1.0, swap=None, noise=0.02):
    """A results.csv of 11 angles whose per-angle capacities scatter by ``noise`` about
    a curve of the angle; ``swap`` exchanges two designs' rows."""
    rng = np.random.default_rng(seed)
    names = {name: name for name in MEANS}
    if swap:
        a, b = swap
        names[a], names[b] = b, a
    lines = ["phi,beamformer,combiner,user,capacity,expected_sinr,nmse"]
    for phi in PHIS:
        for name, mean in MEANS.items():
            # both combiners see one draw, so LMMSE stays above ZF
            draws = noise * rng.standard_normal(2)
            for comb, gain in (("zf", 0.0), ("lmmse", 0.01)):
                for user, draw in zip((1, 2), draws):
                    value = bias * (mean + gain + 0.3 * np.sin(phi) + 0.1 * user + draw)
                    lines.append(f"{phi:g},{names[name]},{comb},{user},{value:.9g},1,")
    path.mkdir(parents=True, exist_ok=True)
    (path / "results.csv").write_text("\n".join(lines) + "\n")
    return path


def test_two_draws_of_one_law_pass(tmp_path, capsys):
    a, b = write_run(tmp_path / "a", 1), write_run(tmp_path / "b", 2)
    lines, failures = compare(a, b)
    assert failures == []
    assert sum(line.startswith("t ") for line in lines) == 16
    assert sum(line.startswith("ks ") for line in lines) == 8
    assert main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.endswith("PASS\n")


def test_bias_fails_the_t_check(tmp_path):
    a, b = write_run(tmp_path / "a", 1), write_run(tmp_path / "b", 2, bias=1.01)
    _, failures = compare(a, b)
    assert len(failures) == 16 and all(f.startswith("paired t") for f in failures)
    assert main([str(a), str(b)]) == 1


def test_swapped_designs_fail_the_orderings(tmp_path):
    a, b = write_run(tmp_path / "a", 1), write_run(tmp_path / "b", 2, swap=("geb", "pe-am"))
    _, failures = compare(a, b)
    assert "ordering zf: geb >= pe-am broken on the change only" in failures
    assert "ordering lmmse: geb >= pe-am broken on the change only" in failures


def test_an_ordering_broken_on_both_runs_passes(tmp_path):
    a = write_run(tmp_path / "a", 1, swap=("pe", "dft"))
    b = write_run(tmp_path / "b", 2, swap=("pe", "dft"))
    lines, failures = compare(a, b)
    assert failures == []
    assert "ordering zf: pe >= dft broken on both runs" in lines


def test_missing_row_raises(tmp_path):
    a, b = write_run(tmp_path / "a", 1), write_run(tmp_path / "b", 2)
    text = (b / "results.csv").read_text().splitlines()
    (b / "results.csv").write_text("\n".join(text[:-1]) + "\n")
    with pytest.raises(OutputMismatch, match="rows only in"):
        compare(a, b)


def test_statistics():
    assert paired_t([0.0, 0.0, 0.0]) == (0.0, 0.0)
    t, stderr = paired_t([1.0, 2.0, 3.0])
    assert stderr == pytest.approx(1 / np.sqrt(3)) and t == pytest.approx(2 * np.sqrt(3))
    assert np.isnan(paired_t([1.0])[0])
    assert ks_distance([1, 2, 3], [1, 2, 3]) == 0.0
    assert ks_distance([1, 2, 3], [4, 5, 6]) == 1.0
    # c(1e-3) = sqrt(ln(2000) / 2) = 1.9495
    assert ks_critical(11, 11) == pytest.approx(1.9495 * np.sqrt(2 / 11), rel=1e-4)
    # samples far apart fail the KS check
    assert ks_distance(np.arange(11.0), np.arange(11.0) + 20) > ks_critical(11, 11)
