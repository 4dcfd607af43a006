"""jsdmsim benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the program is imported from ``src``.  A
run is a closed loop of child processes (``child.py``), one at a time, each
one whole sweep of the workload's config, until ``--seconds`` have passed
(and at least MIN_CHILDREN children ran).  With ``--trace 0`` the children
are untraced and the run reports the end-to-end metrics; with ``--trace 1``
they are traced and the run reports the per-layer metrics.  Values are medians over the run's children.  After the loop the
outputs are checked (``checks.py``); the last line of standard output is
the JSON result, and a failed check exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "angles_per_s": "1/s", "peak_rss_mb": "MB"}
COUNTS = ("constrained.am_iterations", "digital.bins", "linksim.trials")
PER_LAYER = (
    "config.load_config.s",
    "channel.sample_channels.calls", "channel.sample_channels.s",
    "channel.psd_sqrt.calls", "channel.psd_sqrt.s",
    "channel.build_covariances.calls", "channel.build_covariances.s",
    "channel.ccm_one_ring.calls",
    "statistics.group_statistics.calls", "statistics.group_statistics.s",
    "statistics.reduce.calls", "statistics.expected_sinr.s",
    "geb.compute_geb.calls", "geb.compute_geb.s",
    "constrained.s", "constrained.dft_beamformer.s",
    "constrained.phase_extraction.calls", "constrained.pe_am.calls",
    "constrained.fixed_subarray.calls", "constrained.dynamic_subarray.calls",
    "constrained.dynamic_connection.calls", "constrained.am_iterations",
    "digital.effective_channel.s", "digital.combiners.s",
    "digital.zf_combiners.calls", "digital.zf_combiners.s", "digital.lmmse_combiners.calls",
    "digital.bins",
    "linksim.ergodic_capacity.calls", "linksim.ergodic_capacity.s",
    "linksim.ergodic_capacity.self_s", "linksim.bussgang_report.calls",
    "linksim.bussgang_report.s", "linksim.trials",
    "chanest.nmse.calls",
    "metrics.phi_sweep.s", "metrics.phi_sweep.self_s", "metrics.design_s",
    "metrics.build_beamformer.calls", "metrics.beampattern.calls", "metrics.beampattern.s",
    "runner.run.s", "runner.run.self_s", "runner.output_s",
    "process.cpu_s", "trace.overhead_s",
)


def per_layer_unit(name: str) -> str:
    return "count" if name.endswith(".calls") or name in COUNTS else "s"


class ChildError(RuntimeError):
    pass


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def spawn(mode: str, config: Path, out_dir: Path, report: Path) -> dict:
    """Run one child to completion; returns its report plus spawn-to-exit wall time."""
    spawn_time = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(config), str(out_dir), str(report), mode,
         repr(spawn_time)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    wall_s = time.monotonic() - spawn_time
    if proc.returncode != 0:
        raise ChildError(f"child exited with {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(report.read_text())
    result["wall_s"] = wall_s
    return result


def run_children(config: Path, work: Path, seconds: float, mode: str) -> tuple[list, Path]:
    """Closed loop of children; returns their reports and the first one's output dir.

    Every child after the first must write byte-identical CSVs; its output
    directory is compared and removed.
    """
    import checks

    reports = []
    first_dir = work / "child0"
    first_csvs = None
    start = time.monotonic()
    while len(reports) < MIN_CHILDREN or time.monotonic() - start < seconds:
        index = len(reports)
        out_dir = work / f"child{index}"
        reports.append(spawn(mode, config, out_dir, work / f"report{index}.json"))
        csvs = {name: (out_dir / name).read_bytes() for name in checks.CSV_FILES}
        if first_csvs is None:
            first_csvs = csvs
        else:
            checks.check_repeatable(first_csvs, csvs)
            shutil.rmtree(out_dir)
    return reports, first_dir


def end_to_end_metrics(reports: list) -> dict:
    values = {
        "setup_s": [r["setup_s"] for r in reports],
        "wall_s": [r["wall_s"] for r in reports],
        "angles_per_s": [r["angles"] / (r["wall_s"] - r["setup_s"]) for r in reports],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reports],
    }
    return {name: statistics.median(v) for name, v in values.items()}


def per_layer_metrics(reports: list) -> dict:
    spans = [r["trace"] for r in reports]
    for s in spans:
        s["digital.combiners.s"] = s["digital.zf_combiners.s"] + s["digital.lmmse_combiners.s"]
        s["metrics.design_s"] = s["metrics.phi_sweep.s"] - s["linksim.ergodic_capacity.s"]
        s["runner.output_s"] = s["runner.run.s"] - s["metrics.phi_sweep.s"]
    out = {name: statistics.median(s[name] for s in spans) for name in PER_LAYER if name in spans[0]}
    out["process.cpu_s"] = statistics.median(r["cpu_s"] for r in reports)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> int:
    import checks
    import workloads

    config = work / "workload.cfg"
    text = workloads.write_config(workload, seed, config)
    try:
        reports, first_dir = run_children(config, work, seconds, "traced" if trace else "plain")
        ctx = checks.Context.build(text, seed)
        checks.run_all(checks.read_outputs(first_dir), ctx)
    except checks.CheckFailure as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return 1
    if trace:
        values, units = per_layer_metrics(reports), per_layer_unit
    else:
        values, units = end_to_end_metrics(reports), END_TO_END.get
    print("# " + json.dumps({"workload": workload, "seed": seed, "children": len(reports),
                             "machine": machine_facts(),
                             "wall_s": [round(r["wall_s"], 4) for r in reports]}))
    print(json.dumps({
        "correct": True,
        "attempted": checks.attempted_operations(ctx.model) * len(reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {name: {"value": values[name], "unit": units(name)} for name in values},
    }))
    return 0


def self_test(work: Path) -> int:
    """Show that every check passes on real outputs and fires on its planted fault."""
    import checks
    import workloads

    config = work / "workload.cfg"
    seed = 1
    text = workloads.write_config("desk-sweep", seed, config)
    reports, first_dir = run_children(config, work, 0.0, "plain")
    ctx = checks.Context.build(text, seed)
    clean = checks.read_outputs(first_dir)
    ok = True
    for name, check in checks.CHECKS.items():
        try:
            check(clean, ctx)
            print(f"pass on clean outputs: {name}")
        except checks.CheckFailure as exc:
            print(f"FAIL on clean outputs: {name}: {exc}")
            ok = False
    for name, fault, faulty in checks.planted_faults(clean, ctx):
        try:
            checks.CHECKS[name](faulty, ctx)
            print(f"MISSED planted fault: {name}: {fault}")
            ok = False
        except checks.CheckFailure as exc:
            print(f"fires on planted fault: {name}: {fault}: {exc}")
    csvs = {n: (first_dir / n).read_bytes() for n in checks.CSV_FILES}
    altered = dict(csvs, **{"results.csv": csvs["results.csv"].replace(b"1", b"2", 1)})
    try:
        checks.check_repeatable(csvs, altered)
        print("MISSED planted fault: repeatable: one digit of results.csv changed")
        ok = False
    except checks.CheckFailure as exc:
        print(f"fires on planted fault: repeatable: one digit of results.csv changed: {exc}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, names, units in (("end_to_end", list(END_TO_END), END_TO_END.get),
                              ("per_layer", list(PER_LAYER), per_layer_unit)):
        if [(m["name"], m["unit"]) for m in declared[key]] != [(n, units(n)) for n in names]:
            print(f"FAIL: BENCHMARK.json {key} does not list the metrics run.py reports")
            ok = False
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "jsdmsim" / "__init__.py").is_file():
        print(f"perfbench: no jsdmsim sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if not args.self_test and args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    work = ROOT / ".perfbench_work" / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.self_test:
            return self_test(work)
        return measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
