"""clustopt benchmark: one workload per process, closed loop, one caller.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload campaign|spectrum|rewire \
        --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout.  Ops run back to
back until the workload's ``min_ops`` ops are done and ``--seconds`` of wall
time have passed since the first op started; every op is checked after the
loop.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` every public function of the program's
layers is wrapped in a span and the last line carries the per-layer metrics.
Spans and a result file with the machine facts go to ``perfbench/out/``.
See WORKLOADS.md for why each workload exists and what it should show.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD_IMPORT = ("import sys, time\nt = time.process_time()\n"
                f"sys.path.insert(0, {SRC!r})\nimport clustopt, clustopt.cli\n"
                "print(time.process_time() - t)\n")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def single_blas_thread() -> None:
    """BLAS on the calling thread only, so the process's CPU time is the
    program's work and no idle worker thread spins."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def openblas_call(what: str, *args) -> dict:
    """Call ``openblas_<what>`` in each loaded OpenBLAS library."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in (f"scipy_openblas_{what}64_", f"scipy_openblas_{what}",
                    f"openblas_{what}64_", f"openblas_{what}"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                found[os.path.basename(path)] = fn(*args)
                break
    return found


def machine_facts(nproc: int) -> dict:
    import numpy as np
    import scipy

    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": openblas_call("get_num_threads"),
            "blas_env": {v: os.environ[v] for v in BLAS_VARS},
            "loadavg_at_start": os.getloadavg()}


def child_import_seconds() -> float:
    """CPU time to import the program in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", CHILD_IMPORT], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "spectrum", "rewire"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "clustopt", "__init__.py")):
        print(f"error: no program source at {SRC}/clustopt", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    single_blas_thread()
    sys.path.insert(0, SRC)
    t = time.process_time()
    import clustopt  # noqa: F401
    import clustopt.cli  # noqa: F401
    import_samples = [time.process_time() - t]
    if not os.path.abspath(clustopt.__file__).startswith(SRC + os.sep):
        print(f"error: imported clustopt from {clustopt.__file__}",
              file=sys.stderr)
        return 2

    import bench_trace
    import bench_workloads

    os.makedirs(OUT, exist_ok=True)
    facts = machine_facts(nproc)
    import_samples += [child_import_seconds() for _ in range(2)]
    workload = bench_workloads.WORKLOADS[args.workload](args.seed, OUT)
    build_samples = []
    for _ in range(3):
        t = time.process_time()
        first = workload.prepare(0)
        build_samples.append(time.process_time() - t)
    tracer = bench_trace.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    ops = []  # (op index, inputs, output or None, wall s, CPU s, error)
    t_loop = time.perf_counter()
    while len(ops) < workload.min_ops or time.perf_counter() - t_loop < args.seconds:
        k = len(ops)
        inp = first if k == 0 else workload.prepare(k)
        if tracer:
            tracer.op = k
        out, err = None, None
        t, c = time.perf_counter(), time.process_time()
        try:
            out = workload.run(inp)
        except Exception:  # an op failure is counted, not fatal
            err = traceback.format_exc()
        ops.append((k, inp, out, time.perf_counter() - t,
                    time.process_time() - c, err))
        # import samples spread over the run are steadier than a burst
        import_samples.append(child_import_seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    # Op 0 again, untraced: its CPU time against the traced op 0 is the
    # tracing overhead, and its output must equal op 0's (determinism).
    rerun = None
    if tracer:
        again, out = workload.prepare(0, tag="-again"), None
        c = time.process_time()
        try:
            out = workload.run(again)
        except Exception:
            traceback.print_exc()
        rerun = (again, out, time.process_time() - c)

    # nothing below is timed: let the dense oracles use every CPU
    openblas_call("set_num_threads", nproc)
    problems: dict[int, list[str]] = {}
    for k, inp, out, _, _, err in ops:
        try:
            found = [err] if err else workload.check(inp, out)
        except Exception:
            found = [traceback.format_exc()]
        if found:
            problems[k] = found
    if rerun and 0 not in problems:
        try:
            same = rerun[1] is not None and workload.same_output(
                ops[0][1], ops[0][2], rerun[0], rerun[1])
        except Exception:
            traceback.print_exc()
            same = False
        if not same:
            problems[0] = ["rerun of op 0 gave a different output"]
    for k, found in sorted(problems.items()):
        for text in found:
            print(f"op {k} FAILED: {text}", file=sys.stderr)

    attempted, failed = len(ops), len(problems)
    setup_s = statistics.median(import_samples) + statistics.median(build_samples)
    walls = [w for _, _, _, w, _, _ in ops]
    cpus = [c for _, _, _, _, c, _ in ops]
    passed = [i for i, op in enumerate(ops) if op[0] not in problems] \
        or range(len(ops))
    passes = attempted - failed
    # Gated metrics are CPU seconds: on a shared virtual machine the wall
    # clock also counts time the host gives to other tenants.
    e2e = {
        "setup_s": (setup_s, "s"),
        "op_cpu_p50_s": (statistics.median(cpus[i] for i in passed), "s"),
        "ops_per_cpu_s": (passes / sum(cpus), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall = {
        "op_p50_s": (statistics.median(walls[i] for i in passed), "s"),
        "ops_per_s": (passes / sum(walls), "1/s"),
    }
    if tracer:
        layer = bench_trace.layer_metrics(
            tracer.spans, dict(enumerate(cpus)), set(range(workload.min_ops)),
            workload.trials_per_op)
        overhead = cpus[0] - rerun[2]
        layer["trace.overhead_s"] = (overhead, "s")
        layer["trace.overhead_frac"] = (overhead / rerun[2], "ratio")
        layer["trace.span_cost_s"] = (layer["trace.spans_per_op"][0]
                                      * bench_trace.span_cost_s(), "s")
        tracer.write(os.path.join(OUT, f"spans_{args.workload}.jsonl"))
        metrics = layer
    else:
        metrics = e2e

    print(f"machine {json.dumps(facts, sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops attempted, {failed} failed, "
          f"failed_frac {failed / attempted} (frac), "
          f"op walls {[round(w, 3) for w in walls]} s, "
          f"op CPU {[round(c, 3) for c in cpus]} s")
    for name, (value, unit) in list(e2e.items()) + list(wall.items()) + (
            list(metrics.items()) if tracer else []):
        print(f"  {name:36s} {value:.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(os.path.join(OUT, f"result_{args.workload}_trace{args.trace}"
                                f".json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "machine": facts, "result": result,
                   "end_to_end": e2e, "wall": wall, "op_walls_s": walls,
                   "op_cpu_s": cpus}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
