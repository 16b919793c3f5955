"""Benchmark of the mcfhom command line on three workloads.

Usage, from the repository root:

    python3 benchmarks/run.py --workload {connections,certificate,cubical}
        --seed N --seconds S --trace {0,1}

Each pass runs the workload's commands through ``mcfhom.cli.main`` in a
fresh Python process (``worker.py``), because every ``mcfhom`` invocation
pays for the imports and for expression compilation.  Every pass of one run
uses the same seed, so the reports of all passes must be byte-identical.

``--trace 0`` runs untraced passes, at least two and more while another fits
in ``--seconds``, plus set-up-only processes, and reports the end-to-end
metrics ``run_s``, ``setup_s`` and ``peak_rss_mib`` as medians.  The two
times are process CPU seconds scaled to a reference CPU speed that each pass
measures as it runs (``speed.py``); wall seconds are printed beside them.
``--trace 1`` runs three passes, one untraced and then two traced, and
reports the per-layer metrics: times as medians over the traced passes,
counts after checking that both traced passes gave the same counts, and the
tracing overhead as the median traced minus the untraced ``run_s``.
Span files go to ``.bench_out/``.

Every report is checked against facts worked out apart from the program (see
README.md); a command whose report fails a check counts as failed.  The last
line of standard output is the JSON result.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SYSTEMS = "benchmarks/systems"
WORKER = os.path.join(ROOT, "benchmarks", "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_PASSES = 2        # two passes with one seed: the determinism check
SETUP_PROBES = 2      # extra set-up-only processes per untraced run
DEADLINE_S = 170.0    # a run ends well within three minutes
EPSILON = 1e-3        # default Morse perturbation size (config.Tolerances)
# Children run single-threaded: no BLAS thread pools.
CHILD_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")


# ---------------------------------------------------------------------------
# independent correctness checks


def _homology(rep, key, betti, errs):
    table = rep[key]
    trimmed = list(table["betti"])
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    if trimmed != betti or table["torsion"]:
        errs.append(f"{key} has Betti numbers {table['betti']} and torsion "
                    f"{table['torsion']}, expected {betti} and none")


def check_connections(argv, rep):
    """Product double well: H_0 = Z, crits at {-1,0,1}^2, straight
    heteroclinics between lattice neighbours, d_1 d_2 = 0."""
    errs = []
    _homology(rep, "hi", [1], errs)
    _homology(rep, "relative_cubical", [1], errs)
    lattice = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    crits = rep["critical_points"]
    points = []
    for c in crits:
        near = [p for p in lattice if math.dist(p, c["coords"]) <= 1e-2]
        if len(near) != 1:
            errs.append(f"critical point {c['coords']} is not within 1e-2 "
                        f"of a point of {{-1,0,1}}^2")
            return errs
        p = near[0]
        points.append(p)
        if c["index"] != p.count(0):
            errs.append(f"critical point near {p} has index {c['index']}")
    if sorted(points) != lattice:
        errs.append(f"critical points {points} do not match {{-1,0,1}}^2")
        return errs
    index = [c["index"] for c in crits]
    expected = {(s, t) for s in range(9) for t in range(9)
                if index[s] == index[t] + 1}
    seen = set()
    d = {1: {}, 2: {}}
    for cc in rep["connection_counts"]:
        s, t, n = cc["source"], cc["target"], cc["n"]
        if (s, t) not in expected or (s, t) in seen:
            errs.append(f"unexpected connection entry {s} -> {t}")
            continue
        seen.add((s, t))
        steps = sorted(abs(a - b) for a, b in zip(points[s], points[t]))
        want = 1 if steps == [0, 1] else 0
        if abs(n) != want:
            errs.append(f"|n({points[s]} -> {points[t]})| = {abs(n)}, "
                        f"expected {want}")
        d[index[s]][(t, s)] = n
    if seen != expected:
        errs.append(f"missing connection entries {sorted(expected - seen)}")
    # (d_1 d_2)[a][c] = sum_b d_1[a][b] d_2[b][c], from the reported counts
    for a in (i for i in range(9) if index[i] == 0):
        for c in (i for i in range(9) if index[i] == 2):
            v = sum(d[1].get((a, b), 0) * d[2].get((b, c), 0)
                    for b in range(9) if index[b] == 1)
            if v:
                errs.append(f"(d_1 d_2)[{a}][{c}] = {v}")
    return errs


def check_certificate(argv, rep):
    """Hyperbolic saddle with two unstable directions: H_2 = Z, one
    critical point of index 2 within 10 eps of the origin."""
    errs = []
    _homology(rep, "hi", [0, 0, 1], errs)
    _homology(rep, "relative_cubical", [0, 0, 1], errs)
    crits = rep["critical_points"]
    if len(crits) != 1:
        errs.append(f"{len(crits)} critical points, expected 1")
    elif crits[0]["index"] != 2 or \
            math.hypot(*crits[0]["coords"]) > 10 * EPSILON:
        errs.append(f"critical point {crits[0]} is not an index-2 point "
                    f"within {10 * EPSILON} of the origin")
    if rep["connection_counts"]:
        errs.append("connections reported for a single critical point")
    return errs


def check_cubical(argv, rep):
    """Saddle with one unstable axis on a 6x6x6 box: H_1 = Z, and the exit
    set is the closure of the two faces normal to x1."""
    errs = []
    _homology(rep, "relative_cubical", [0, 1], errs)
    n = 6
    cells = 2 * ((n + 1) ** 2 + 2 * n * (n + 1) + n ** 2)
    if rep["exit_cells"] != cells:
        errs.append(f"exit_cells = {rep['exit_cells']}, expected {cells}")
    if rep["coeff"] != argv[argv.index("--coeff") + 1]:
        errs.append(f"report coefficient {rep['coeff']}")
    return errs


def _system(name):
    return f"{SYSTEMS}/{name}.json"


WORKLOADS = {
    "connections": {
        "files": [_system("connections")],
        "commands": [["hi", _system("connections")]],
        "check": check_connections,
    },
    "certificate": {
        "files": [_system("certificate")],
        "commands": [["hi", _system("certificate")]],
        "check": check_certificate,
    },
    "cubical": {
        "files": [_system("cubical")],
        "commands": [["cubical", _system("cubical"), "--coeff", "Z"],
                     ["cubical", _system("cubical"), "--coeff", "Z2"]],
        "check": check_cubical,
    },
}


def check_report(workload, argv, seed, result):
    """Errors in one command's result; an empty list means it passed."""
    if result["code"] != 0:
        return [f"exit code {result['code']}"]
    try:
        rep = json.loads(result["report"])
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    errs = []
    if rep.get("verdict") is not True:
        errs.append("verdict is not true")
    if argv[0] == "hi" and rep.get("exit_theorem") is not True:
        errs.append("exit-set theorem check failed")
    if rep.get("seed") != seed:
        errs.append(f"report seed {rep.get('seed')}, expected {seed}")
    try:
        errs.extend(WORKLOADS[workload]["check"](argv, rep))
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        errs.append(f"malformed report: {exc!r}")
    return errs


# ---------------------------------------------------------------------------
# passes


class PassFailed(Exception):
    pass


def run_pass(spec, deadline):
    """Run one worker process and return its parsed result."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)],
            cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass exceeded the {DEADLINE_S:.0f} s deadline") \
            from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise PassFailed(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise PassFailed("worker printed no result") from exc


class Run:
    """The passes of one benchmark run and the tallies of their commands."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        wl = WORKLOADS[workload]
        self.files = wl["files"]
        self.commands = [argv + ["--seed", str(seed)]
                         for argv in wl["commands"]]
        self.start = time.monotonic()
        self.deadline = self.start + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.first_reports = None
        self.passes = []      # (traced, worker result) of passes that ran
        self.counts_repeat = True

    def spec(self, trace_path=None, setup_only=False):
        return {"files": self.files, "commands": self.commands,
                "setup_only": setup_only, "trace": trace_path}

    def one_pass(self, trace_path=None):
        """Run and check one pass; returns False if the pass failed."""
        try:
            res = run_pass(self.spec(trace_path), self.deadline)
        except PassFailed as exc:
            print(f"{self.workload}: {exc}", file=sys.stderr)
            self.attempted += len(self.commands)
            self.failed += len(self.commands)
            return False
        self.check(res)
        self.passes.append((trace_path is not None, res))
        return True

    def check(self, res):
        if self.first_reports is None:
            self.first_reports = [r["report"] for r in res["results"]]
        for argv, r, first in zip(self.commands, res["results"],
                                  self.first_reports):
            errs = check_report(self.workload, argv, self.seed, r)
            if r["report"] != first:
                errs.append("report differs from the first pass with the "
                            "same seed")
            self.attempted += 1
            if errs:
                self.failed += 1
                print(f"{self.workload}: {' '.join(argv)}: "
                      + "; ".join(errs), file=sys.stderr)

    def another_fits(self):
        """At least MIN_PASSES, then more while one fits in --seconds."""
        if len(self.passes) < MIN_PASSES:
            return True
        _, last = self.passes[-1]
        return (time.monotonic() + last["setup_s"] + last["run_s"]
                - self.start <= self.seconds)

    def untraced(self):
        while self.another_fits() and self.one_pass():
            pass
        if not self.passes:
            return None
        setups = [r["setup_s"] for _, r in self.passes]
        for _ in range(SETUP_PROBES):
            try:
                setups.append(run_pass(self.spec(setup_only=True),
                                       self.deadline)["setup_s"])
            except PassFailed as exc:
                print(f"{self.workload}: set-up probe: {exc}",
                      file=sys.stderr)
                return None
        for key, unit in (("run_wall_s", "s"), ("run_cpu_s", "s"),
                          ("cal_us", "us")):
            print(f"{self.workload} {key} (median, not a metric) = "
                  f"{statistics.median(r[key] for _, r in self.passes)} "
                  f"{unit}")
        return {
            "run_s": _median([r["run_s"] for _, r in self.passes], "s"),
            "setup_s": _median(setups, "s"),
            "peak_rss_mib": _median(
                [r["peak_rss_mib"] for _, r in self.passes], "MiB"),
        }

    def traced(self):
        """One untraced pass, then two traced passes."""
        os.makedirs(OUT_DIR, exist_ok=True)
        order = [None] + [
            os.path.join(OUT_DIR, f"{self.workload}-trace{i}.tsv")
            for i in (1, 2)]
        for path in order:
            if not self.one_pass(path):
                return None
        layers = [r["layers"] for traced, r in self.passes if traced]
        metrics = {}
        for name, (_, unit) in layers[0].items():
            values = [lay[name][0] for lay in layers]
            if unit == "count":
                if len(set(values)) != 1:
                    print(f"{self.workload}: count {name} differs between "
                          f"traced passes: {values}", file=sys.stderr)
                    self.counts_repeat = False
                metrics[name] = {"value": values[0], "unit": unit}
            else:
                metrics[name] = _median(values, unit)
        run_s = {kind: statistics.median(r["run_s"] for traced, r
                                         in self.passes if traced == kind)
                 for kind in (False, True)}
        metrics["trace.overhead_s"] = {"value": run_s[True] - run_s[False],
                                       "unit": "s"}
        return metrics


def _median(values, unit):
    return {"value": statistics.median(values), "unit": unit}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    missing = [f for f in ["src/mcfhom/cli.py"] + WORKLOADS[args.workload]
               ["files"] if not os.path.isfile(os.path.join(ROOT, f))]
    if missing:
        print(f"cannot run: missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds)
    metrics = run.traced() if args.trace else run.untraced()
    if metrics is None:
        return 1
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    print(f"{args.workload} passes = {len(run.passes)}, commands attempted = "
          f"{run.attempted}, failed = {run.failed}")
    print(json.dumps({"correct": run.failed == 0 and run.counts_repeat,
                      "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
