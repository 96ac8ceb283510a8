"""Benchmark of the axokit pipeline.

    python3 axobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run is one process that pins BLAS to
one thread, imports axokit from ``src/``, makes its inputs from ``--seed``
and then repeats one operation, driven through ``axokit.cli.main`` at
``--threads 1``, until ``--seconds`` have passed (at least twice).  After
the timed loop the outputs of the first operation go through the
independent checks in ``checks.py`` and every later operation must have
written byte-identical artifacts.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
run's operations).  With ``--trace 1`` operations alternate between
untraced and traced (``tracer.py``), and the metrics are the per-layer
ones per traced operation, plus the CPU overhead of tracing.

Artifacts and a provenance record go to ``axobench_out/<workload>/``.
"""

import time

T_START = time.perf_counter()

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pinning above)

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "axobench_out")

SETUP_REPEATS = 3

# Sizes of the inputs.  mul:s8 samples are drawn by the program from the
# seed; 256 exhaustive configs make a characterization of a few seconds.
MUL8_SAMPLE = 256
# Forest and GA sizes follow the README flow; the GA runs at the run-config
# defaults (population 100, 250 generations).
CLF_TREES, CLF_DEPTH, REG_TREES = 16, 10, 16
SS_FACTOR, DSE_FACTOR = 0.6, 0.7
N_NOISE = 4  # run-config default
ACTIVITY_CYCLES = 2048  # run-config default
BEHAV, PPA = "avg_abs_rel_err", "pdplut"  # run-config defaults
# mul:s8 configs re-simulated by the independent interpreter per dataset.
INTERPRET_SAMPLE = 8


def _char(op, seed, out, *extra):
    return ["characterize", "--op", op, "--seed", str(seed), "--threads", "1", *extra, "-o", out]


class Characterize:
    """One ``characterize`` call per operation; set-up builds the netlist."""

    def __init__(self, token, extra, every):
        self.kinds = (token,)
        self.extra = extra
        self.every = every

    def prepare(self, seed, inputs):
        pass

    def operation(self, seed, inputs, out):
        return [_char(self.kinds[0], seed, os.path.join(out, "dataset.csv"), *self.extra)]

    def check(self, seed, inputs, out):
        check_char(os.path.join(out, "dataset.csv"), self.kinds[0], seed, self.every)


class ConssMul8:
    """The ConSS flow from mul:s4 to mul:s8: analyze, match, train,
    supersample, estimator-driven GA with validation, report."""

    kinds = ("mul:s4", "mul:s8")

    def prepare(self, seed, inputs):
        for argv in (
            _char("mul:s4", seed, os.path.join(inputs, "l.csv"), "--exclude-all-zeros"),
            _char("mul:s8", seed, os.path.join(inputs, "h.csv"), "--sample", str(MUL8_SAMPLE)),
        ):
            run_cli(argv)

    def operation(self, seed, inputs, out):
        s = ["--seed", str(seed)]
        l, h = os.path.join(inputs, "l.csv"), os.path.join(inputs, "h.csv")

        def o(name):
            return os.path.join(out, name)

        est = f"{o('be.fmodel')},{o('pe.fmodel')}"
        return [
            ["analyze", "--dataset", h, "--low", l, *s, "--out-dir", o("analysis")],
            ["match", "--low", l, "--high", h, *s, "-o", o("train.csv")],
            ["train", "--training", o("train.csv"), "--n-trees", str(CLF_TREES),
             "--max-depth", str(CLF_DEPTH), *s, "--threads", "1", "-o", o("clf.fmodel")],
            ["train", "--dataset", h, "--target", BEHAV, "--n-trees", str(REG_TREES),
             *s, "--threads", "1", "-o", o("be.fmodel")],
            ["train", "--dataset", h, "--target", PPA, "--n-trees", str(REG_TREES),
             *s, "--threads", "1", "-o", o("pe.fmodel")],
            ["supersample", "--model", o("clf.fmodel"), "--low", l, "--factor", str(SS_FACTOR),
             "--estimators", est, *s, "-o", o("pool.csv")],
            ["dse", "--train", h, "--factor", str(DSE_FACTOR), "--init", o("pool.csv"),
             "--estimators", est, "--validate", "--known", h, *s, "--threads", "1",
             "--out-dir", o("run")],
            ["report", "--train", h, "--run", f"conss={o('run')}", "--factors", str(DSE_FACTOR),
             "-o", o("report.csv")],
        ]

    def check(self, seed, inputs, out):
        low = check_char(os.path.join(inputs, "l.csv"), "mul:s4", seed, every=True)
        high = check_char(os.path.join(inputs, "h.csv"), "mul:s8", seed, every=False)
        checks.check_analyze(os.path.join(out, "analysis"), high, low, BEHAV, PPA)
        checks.check_match(os.path.join(out, "train.csv"), low, high, N_NOISE, BEHAV, PPA)
        clf, be, pe = (checks.TextModel(os.path.join(out, f))
                       for f in ("clf.fmodel", "be.fmodel", "pe.fmodel"))
        checks.check_pool(os.path.join(out, "pool.csv"), clf, be, pe, low,
                          SS_FACTOR, N_NOISE, BEHAV, PPA)
        run = os.path.join(out, "run")
        checks.check_dse(run, high, be, pe, DSE_FACTOR, BEHAV, PPA)
        vpf = check_char(os.path.join(run, "vpf.csv"), "mul:s8", seed, every=False,
                         skip=set(high.uints))
        report = os.path.join(out, "report.csv")
        checks.check_report(report, run, high, DSE_FACTOR, "conss", BEHAV, PPA)
        man = checks.read_manifest(os.path.join(run, "manifest.txt"))
        rows = {r[1]: r for r in checks.read_table(report)[2]}
        return {
            "pool": len(checks.read_table(os.path.join(out, "pool.csv"))[2]),
            "ppf_size": int(man["front_size"]),
            "ppf_hypervolume": float(man["final_hypervolume"]),
            "vpf_records": len(vpf),
            "vpf_validated": int(rows["conss"][4]),
            "vpf_hypervolume": float(rows["conss"][2]),
            "train_hypervolume": float(rows["train"][2]),
            "ratio_to_train": float(rows["conss"][3]),
        }


WORKLOADS = {
    # all 1023 non-zero mul:s4 configs: many tiny batches
    "char_mul4": Characterize("mul:s4", ["--exclude-all-zeros"], every=True),
    # a seeded sample of mul:s8 configs: few large batches
    "char_mul8": Characterize("mul:s8", ["--sample", str(MUL8_SAMPLE)], every=False),
    "conss_mul8": ConssMul8(),
}


def check_char(path, token, seed, every, skip=frozenset()):
    """Identities on every record; the netlist interpreter on every record
    (``every``) or on a seeded sample of the records not in ``skip``."""
    from axokit import build_netlist, parse_kind

    t = checks.CharTable(path)
    checks.check_identities(t)
    net = build_netlist(parse_kind(token))
    if every:
        rows = range(len(t))
        checks.require(t.uints == list(range(1, 1 << net.config_len)),
                       f"{path}: not every non-zero config in order")
    else:
        pool = [i for i, u in enumerate(t.uints) if u not in skip]
        rng = np.random.default_rng(seed)
        rows = sorted(rng.choice(pool, size=min(INTERPRET_SAMPLE, len(pool)), replace=False))
    checks.check_all_ones_exact(net)
    checks.check_behaviour(t, net, seed, ACTIVITY_CYCLES, rows)
    return t


class OperationFailed(Exception):
    pass


def run_cli(argv):
    from axokit.cli import main

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        rc = main(argv)
    if rc != 0:
        raise OperationFailed(f"axokit {argv[0]} exited {rc}: {sink.getvalue().strip()}")


def provenance(extra):
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_threads": {k: os.environ.get(k) for k in THREAD_ENV},
        **extra,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "axokit", "cli.py")):
        print(f"axobench: no axokit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    load_start = os.getloadavg()

    from axokit import cli  # noqa: F401  (import time belongs to setup)
    from axokit.operators import OperatorNetlist, build_netlist, parse_kind

    t_import = time.perf_counter() - T_START
    wl = WORKLOADS[args.workload]
    run_dir = os.path.join(OUT, args.workload, f"seed{args.seed}" + ("-trace" if args.trace else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    # Set-up: build the netlists and make the inputs, several times.
    setup_reps, input_digests = [], []
    for rep in range(SETUP_REPEATS):
        inputs = os.path.join(run_dir, f"inputs{rep}")
        os.makedirs(inputs)
        t0 = time.perf_counter()
        for token in wl.kinds:
            OperatorNetlist(parse_kind(token))
            build_netlist(parse_kind(token))
        wl.prepare(args.seed, inputs)
        setup_reps.append(time.perf_counter() - t0)
        input_digests.append(checks.digests(inputs))
    inputs = os.path.join(run_dir, "inputs0")
    setup_s = t_import + statistics.median(setup_reps)

    tracer = tracing.Tracer()
    cpu, wall, traced_cpu = [], [], []
    attempted = failed = 0
    errors = []
    first_digests = None
    t_loop = time.perf_counter()
    while True:
        traced = bool(args.trace) and attempted % 2 == 1
        out = os.path.join(run_dir, f"op{attempted}")
        os.makedirs(out)
        argvs = wl.operation(args.seed, inputs, out)
        if traced:
            tracing.install(tracer)
        ok = True
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            for argv in argvs:
                run_cli(argv)
        except Exception:
            ok = False
            errors.append(traceback.format_exc())
        w1, c1 = time.perf_counter(), time.process_time()
        if traced:
            tracer.restore()
        attempted += 1
        d = checks.digests(out)
        if first_digests is None:
            first_digests = d
            first_out = out
        else:
            try:
                checks.check_same(first_digests, d, f"operation {attempted}")
            except checks.CheckError as e:
                ok = False
                errors.append(str(e))
            shutil.rmtree(out)
        if ok:
            (traced_cpu if traced else cpu).append(c1 - c0)
            if not traced:
                wall.append(w1 - w0)
        else:
            failed += 1
        # At least two operations: the traced run needs an untraced and a
        # traced one, and peak memory settles only from the second on.
        if time.perf_counter() - t_loop >= args.seconds and attempted >= 2:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct, figures = True, None
    try:
        for rep, d in enumerate(input_digests[1:], start=1):
            checks.check_same(input_digests[0], d, f"set-up repeat {rep}")
        figures = wl.check(args.seed, inputs, first_out)
    except Exception:
        correct = False
        errors.append(traceback.format_exc())
    if not correct:
        failed = attempted
    for rep in range(1, SETUP_REPEATS):
        shutil.rmtree(os.path.join(run_dir, f"inputs{rep}"))

    if args.trace:
        overhead = (statistics.median(traced_cpu) - statistics.median(cpu)
                    if traced_cpu and cpu else 0.0)
        values = tracing.per_layer(tracer, max(1, len(traced_cpu)), overhead)
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]} for k, v in values.items()}
    else:
        metrics = {
            "cpu_s": {"value": statistics.median(cpu) if cpu else 0.0, "unit": "s"},
            "wall_s": {"value": statistics.median(wall) if wall else 0.0, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record = provenance({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "import_s": t_import, "setup_repeats_s": setup_reps,
        "op_cpu_s": cpu, "op_wall_s": wall, "op_traced_cpu_s": traced_cpu,
        "figures": figures,
        "inputs_sha256": input_digests[0], "artifacts_sha256": first_digests,
        "errors": errors,
    })
    with open(os.path.join(run_dir, "provenance.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for e in errors:
        print(e, file=sys.stderr)
    print(f"provenance: {os.path.relpath(os.path.join(run_dir, 'provenance.json'), ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
