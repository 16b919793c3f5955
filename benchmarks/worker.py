"""One pass of a benchmark workload in a fresh Python process.

Usage (from the repository root; ``run.py`` starts it):

    python3 benchmarks/worker.py SPEC_JSON

Set-up and run times are process CPU times scaled to a reference CPU speed
(``speed.py``); set-up time counts from the start of the process, so it
includes interpreter start-up.  ``SPEC_JSON``
holds ``files`` (system files to load during set-up), ``commands`` (argv
lists for ``mcfhom.cli.main``), ``setup_only`` and ``trace`` (a path for the
span file, or null for an untraced pass).  The last line of standard output
is one JSON object with the timings, the peak RSS, each command's exit code
and report text and, for a traced pass, the per-layer metrics, whose times
are scaled to the reference CPU like the run time.
"""
import contextlib
import io
import json
import os
import resource
import sys
import time

from speed import Meter

SETUP_PERIOD_S = 0.01   # calibration period during set-up (about 0.3 s)
RUN_PERIOD_S = 0.02     # and during the commands
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    meter = Meter()
    meter.start(SETUP_PERIOD_S)
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(_ROOT, "src"))
    import mcfhom
    from mcfhom import cli

    tracer = None
    if spec["trace"]:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install(mcfhom)
    for path in spec["files"]:
        cli.load_system(path)
    out = {"setup_s": meter.lap(RUN_PERIOD_S)["ref_s"]}
    if not spec["setup_only"]:
        results = []
        start = time.perf_counter()
        for argv in spec["commands"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            results.append({"code": code, "report": buf.getvalue()})
        run_wall_s = time.perf_counter() - start
        run = meter.lap()
        out.update(run_s=run["ref_s"], run_wall_s=run_wall_s,
                   run_cpu_s=run["cpu_s"], cal_us=run["cal_s"] * 1e6,
                   results=results)
        if tracer is not None:
            tracer.write(spec["trace"])
            out["layers"] = {
                name: (value * run["factor"] if unit in ("s", "us")
                       else value, unit)
                for name, (value, unit) in tracer.layer_metrics().items()}
    meter.stop()
    out["peak_rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
