#!/usr/bin/env python3
"""sparsemsvm benchmark: time to solution, set-up time and peak memory of
real CLI command sequences, with per-layer numbers from a traced run.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload leukemia-l1inf --seed 0 --seconds 40 --trace 0

The workload's inputs are generated from --seed and written before any
timing starts. Then passes of the workload's commands run back to back
(a closed loop with one client) until --seconds is used up; each command
runs in a fresh `python3 perfbench/launch.py` process against the
checkout's `src/`, with the BLAS thread count pinned. Every command's
outputs are checked (checks.py); a failed check is counted, never fatal.

--trace 0 reports the end-to-end metrics, each a median over passes.
total_s and setup_s are times at a fixed reference speed: each untraced
command samples the host's speed while it runs (calibrate.py), and a
pass's time, less the sampling, is multiplied by its mean speed, the
reference kernel time over each sample's kernel time. --trace 1
alternates untraced and traced passes and reports the per-layer metrics
of the median traced pass plus the tracing overhead. The metric names
and units are BENCHMARK.json's.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
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
import threading
import time
from collections import defaultdict
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
from spans import ROOT, self_times  # noqa: E402
from workloads import WORKLOADS, commands, write_inputs  # noqa: E402

BLAS_THREADS = 1           # at most nproc; 1 keeps runs on a shared 2-core host steady
COMMAND_TIMEOUT_S = 150
WORK_DIR = ".perfbench_work"
REFERENCES = os.path.join(HERE, "references.json")
# the metric names and units are those BENCHMARK.json lists
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Each layer's metrics; the first is its self time. The self times of all
# layers add up to a traced pass's wall time. A wrapped name that is missing
# (launch.py) leaves every metric of its layer without data.
LAYERS = {
    "linop.T": ("linop.T.s", "linop.T.calls", "linop.T.gflops"),
    "linop.Tadj": ("linop.Tadj.s", "linop.T.gflops"),
    "linop.norm": ("linop.norm.s", "linop.norm.iters", "linop.norm.unconverged"),
    "prox.reg": ("prox.reg.s", "prox.reg.calls"),
    "prox.simplex": ("prox.simplex.s",),
    "prox.epigraph": ("prox.epigraph.s",),
    "prox.halfspace": ("prox.halfspace.s",),
    "prox.regval": ("prox.regval.s",),
    "data.load": ("data.load_s", "data.load_mb"),
    "solvers": ("solvers.self_s", "solvers.iters", "solvers.solve_s", "solvers.iter_us"),
    "evaluate": ("evaluate.s",),
    "persist.save": ("persist.save_s",),
    "cli": ("cli.self_s",),
}


def metric_units():
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer")}


# ---------------------------------------------------------------------------
# one command, one pass

def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_command(cli_args, env, work, traced):
    """Run one CLI command in a fresh process; return its timings, output
    and the launcher's record."""
    rec_path = os.path.join(work, "launch.json")
    if os.path.exists(rec_path):
        os.remove(rec_path)
    out_path, err_path = os.path.join(work, "stdout.txt"), os.path.join(work, "stderr.txt")
    cmd = [sys.executable, os.path.join(HERE, "launch.py"), rec_path,
           "1" if traced else "0", "--", *cli_args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    rec = None
    if os.path.exists(rec_path):
        with open(rec_path) as fh:
            rec = json.load(fh)
    return {"code": proc.returncode, "wall": t1 - t0,
            "rss_mb": usage.ru_maxrss * 1024 / 1e6, "stdout": stdout,
            "stderr": stderr, "rec": rec}


def check_command(workload, cli_args, res, work, data, reference):
    """Failure messages for one finished command (empty list: passed)."""
    sub = cli_args[0]
    # train exits 2 for a solve stopped at --max-iter, which every pass does
    ok_codes = (0,) if sub == "eval" else (0, 2)
    if res["code"] not in ok_codes:
        tail = res["stderr"].strip().splitlines()[-1:] or [""]
        return [f"{sub} exited {res['code']}: {tail[0]}"]
    if res["rec"] is None:
        return [f"{sub}: launcher wrote no record"]
    model = os.path.join(work, "model.txt")
    try:
        if sub == "train":
            return checks.check_train(workload, res["stdout"], model, data["train"], reference)
        return checks.check_eval(workload, res["stdout"], model, data["test"])
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return [f"{sub}: output could not be checked: {exc!r}"]


def run_pass(workload, env, work, data, reference, traced):
    p = {"total": 0.0, "setup": None, "rss": 0.0, "attempted": 0, "failed": 0,
         "solves": [], "missing": set(), "traces": [], "cal": []}
    for cli_args in commands(workload, work):
        res = run_command(cli_args, env, work, traced)
        p["attempted"] += 1
        fails = check_command(workload, cli_args, res, work, data, reference)
        if fails:
            p["failed"] += 1
            for msg in fails:
                print(f"check failed: {msg}", file=sys.stderr)
        rec = res["rec"] or {}
        cal = rec.get("calibration", [])
        p["cal"] += [secs for _, secs in cal]
        p["total"] += res["wall"] - sum(secs for _, secs in cal)
        p["rss"] = max(p["rss"], res["rss_mb"])
        p["missing"].update(tuple(m) for m in rec.get("missing", []))
        if rec.get("first_iter") and p["setup"] is None:
            first = rec["first_iter"][0]
            p["setup"] = first - rec["main_start"] - sum(
                secs for start, secs in cal if start < first)
        p["solves"] += rec.get("solves", [])
        if traced and rec.get("trace"):
            p["traces"].append((rec["trace"], res["wall"]))
    # the pass's mean speed relative to the reference (samples are evenly
    # spaced in time, so the mean of the speeds); 1 if nothing was sampled
    p["speed"] = statistics.mean(REFERENCE_S / secs for secs in p["cal"]) if p["cal"] else 1.0
    return p


# ---------------------------------------------------------------------------
# per-layer numbers from the traces of one pass

def layer_metrics(traces):
    """Per-layer metrics of one traced pass: a list of (trace, wall) for
    its commands. The self times of all layers, cli's included, add up to
    the pass's traced wall time."""
    selfs = defaultdict(float)
    m = defaultdict(float)
    flops = 0.0
    total = 0.0
    for trace, wall in traces:
        spans, counters = trace["spans"], trace["counters"]
        total += wall
        covered = 0.0
        for s, own in zip(spans, self_times(spans, counters)):
            selfs[s[0]] += own
            if s[3] == ROOT:
                covered += s[2] - s[1]
            notes = s[4] or {}
            if s[0] == "linop.norm":
                m["linop.norm.iters"] += notes.get("iters", 0)
                m["linop.norm.unconverged"] += not notes.get("converged", True)
                if s[3] != ROOT and spans[s[3]][0] == "solvers":
                    m["solvers.solve_s"] -= s[2] - s[1]  # train's set-up norm is not solve time
            elif s[0] == "solvers":
                m["solvers.solve_s"] += s[2] - s[1]
                m["solvers.iters"] += notes.get("iters", 0)
            elif s[0] == "data.load":
                m["data.load_mb"] += notes.get("load_mb", 0.0)
        for layer, parent, calls, secs, fl in counters:
            if parent == ROOT:
                covered += secs
            if parent != ROOT and spans[parent][0] == "linop.norm":
                selfs["linop.norm"] += secs  # T inside the norm counts toward the norm
                continue
            selfs[layer] += secs
            if layer == "linop.T":
                m["linop.T.calls"] += calls
            if layer == "prox.reg":
                m["prox.reg.calls"] += calls
            if layer in ("linop.T", "linop.Tadj"):
                flops += fl
        selfs["cli"] += wall - covered  # interpreter start, imports, exit
    for layer, names in LAYERS.items():
        m[names[0]] = selfs[layer]
    gemm_s = selfs["linop.T"] + selfs["linop.Tadj"]
    m["linop.T.gflops"] = flops / gemm_s / 1e9 if gemm_s > 0 else 0.0
    m["solvers.iter_us"] = 1e6 * m["solvers.solve_s"] / m["solvers.iters"] if m["solvers.iters"] else 0.0
    m["trace.total_s"] = total
    negative = {k: v for k, v in selfs.items() if v < -1e-6}
    if negative or abs(sum(selfs.values()) - total) > 1e-6 * max(total, 1.0):
        print(f"warning: layer self times do not add up to {total}: {dict(selfs)}", file=sys.stderr)
    return dict(m)


# ---------------------------------------------------------------------------

def environment():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "cpu": cpu,
            "measurement": "in-process only: perf_counter and getrusage, "
                           "no system-wide tracing; host speed sampled by a "
                           "SIGALRM kernel in each untraced command",
            "reference_kernel_s": REFERENCE_S}


def load_reference(workload, seed):
    with open(REFERENCES) as fh:
        refs = json.load(fh)
    entry = refs.get(workload.name, {}).get(str(seed))
    return None if entry is None else entry["objective"]


def measure(workload, seconds, traced, env, work, data, reference):
    """Run passes until `seconds` is used up; traced runs alternate an
    untraced and a traced pass."""
    passes = {False: [], True: []}
    durations = {False: [], True: []}
    start = time.perf_counter()
    while True:
        kind = traced and len(passes[True]) < len(passes[False])
        t0 = time.perf_counter()
        passes[kind].append(run_pass(workload, env, work, data, reference, kind))
        durations[kind].append(time.perf_counter() - t0)
        if traced and not passes[True]:
            continue
        expected = max(statistics.median(d) for d in durations.values() if d)
        if time.perf_counter() - start + expected > seconds:
            return passes


def summarize(passes, traced, units):
    """The result object; `units` maps the metric names to report to their units."""
    plain = passes[False]
    attempted = sum(p["attempted"] for ps in passes.values() for p in ps)
    failed = sum(p["failed"] for ps in passes.values() for p in ps)
    missing = set().union(*(p["missing"] for ps in passes.values() for p in ps))
    if missing:
        print(f"warning: names not found, their layers are absent: {sorted(missing)}",
              file=sys.stderr)
    missing = {layer for _, layer in missing}
    if not traced:
        solves = [s for p in plain for s in p["solves"]]
        setups = [p["setup"] * p["speed"] for p in plain if p["setup"] is not None]
        values = {
            "total_s": statistics.median(p["total"] * p["speed"] for p in plain),
            "peak_rss_mb": statistics.median(p["rss"] for p in plain),
            "pass_rate": 1.0 - failed / attempted,
            "unconverged_frac": (sum(not conv and it >= cap for it, conv, cap in solves)
                                 / len(solves)) if solves else None,
            "setup_s": statistics.median(setups) if setups else None,
        }
    else:
        # the traced pass with the median wall time, whose layer self times
        # add up to its trace.total_s
        per_pass = sorted((layer_metrics(p["traces"]) for p in passes[True]),
                          key=lambda m: m["trace.total_s"])
        mid = per_pass[(len(per_pass) - 1) // 2]
        values = {k: mid.get(k, 0.0) for k in units}
        values["trace.overhead_frac"] = (
            statistics.mean(p["total"] for p in passes[True])
            / statistics.mean(p["total"] for p in plain) - 1.0)
        for layer in missing:
            for name in LAYERS.get(layer, ()):
                values[name] = None
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()
               if values.get(k) is not None}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sparsemsvm", "cli.py")):
        print("error: no src/sparsemsvm here; run from the root of a sparsemsvm checkout",
              file=sys.stderr)
        return 2
    units = metric_units()["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    reference = load_reference(workload, args.seed)
    env = child_env(src)
    work = os.path.join(root, WORK_DIR, f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        data = write_inputs(workload, args.seed, work)
        # compile the package and load numpy/scipy once before timing
        warm = subprocess.run([sys.executable, "-c", "import sparsemsvm.cli"],
                              env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
        if warm.returncode != 0:
            print(f"error: sparsemsvm does not import:\n{warm.stderr}", file=sys.stderr)
            return 2
        passes = measure(workload, args.seconds, bool(args.trace), env, work, data, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass
    result = summarize(passes, bool(args.trace), units)
    print("env " + json.dumps(environment(), sort_keys=True))
    n_plain, n_traced = len(passes[False]), len(passes[True])
    print(f"workload {workload.name} seed {args.seed}: {n_plain} untraced and "
          f"{n_traced} traced passes; the end-to-end metrics are medians over "
          f"untraced passes, per-layer values are those of the median traced pass")
    for kind, ps in passes.items():
        if ps:
            print(f"{'traced' if kind else 'untraced'} pass wall times less sampling (s): "
                  + json.dumps([p["total"] for p in ps]))
    plain = passes[False]
    print("untraced pass speeds (mean of reference kernel time over kernel time): "
          + json.dumps([p["speed"] for p in plain]))
    if plain and plain[0]["setup"] is not None:
        print("untraced pass set-ups less sampling (s): " + json.dumps([p["setup"] for p in plain]))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
