"""One benchmark child: a single jsdmsim run through the public path.

    python3 child.py CONFIG OUT_DIR REPORT {plain|traced} SPAWN_TIME

Imports jsdmsim from the checkout's ``src``, loads CONFIG with
``config.load_config``, runs ``runner.run`` into OUT_DIR and writes a JSON
report to REPORT.  SPAWN_TIME is the parent's ``time.monotonic()`` just
before it started this process; the monotonic clock is system-wide, so the
difference to the moment the config is parsed is the run's set-up time.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(config: str, out_dir: str, report: str, mode: str, spawn_time: str) -> int:
    tracer = None
    if mode == "traced":
        import tracing
        tracer = tracing.Tracer()
    sys.path.insert(0, str(ROOT / "src"))
    import jsdmsim
    from jsdmsim import config as jconfig, runner

    if Path(jsdmsim.__file__).resolve().parent != ROOT / "src" / "jsdmsim":
        print(f"child: imported jsdmsim from {jsdmsim.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    if tracer is not None:
        tracer.install()
    cfg = jconfig.load_config(config)
    setup_end = time.monotonic()
    start = time.monotonic()
    manifest = runner.run(cfg, out_dir)
    run_s = time.monotonic() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    Path(report).write_text(json.dumps({
        "setup_s": setup_end - float(spawn_time),
        "run_s": run_s,
        "angles": manifest["phi"]["count"],
        "failed": len(manifest["failures"]),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "trace": tracer.summary() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
