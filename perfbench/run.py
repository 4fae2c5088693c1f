"""Benchmark of the ethbath pipeline, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of an ethbath checkout; it imports ethbath from the
checkout's src/ and exits with a non-zero code, printing no result, when
there is none. Everything it writes goes under .perfbench/ in the checkout.

One run of a workload:
  1. writes the workload's JSON configs, generated from --seed;
  2. times the set-up three times, each in a fresh process: import of
     ethbath plus the workload's preparation (for bath-eth, filling the
     eigensystem cache);
  3. runs the operations in one fresh process, one `ethbath.cli.main` call
     each, one after another, in whole rounds for about --seconds (at least
     one round; no round that would end past --seconds);
  4. checks every operation's outputs (checks.py), and reruns some of them
     on the warm cache to compare the CSV hashes in their run manifests.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs one
untraced round, traced rounds for about --seconds, and one round traced with
tracemalloc for the allocation peaks, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See README.md for what the metrics mean.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0
MB = 1e6

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cache_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def set_blas_threads():
    """At most one BLAS thread per usable core; set before numpy loads.

    A smaller OPENBLAS_NUM_THREADS in the environment is kept, which is how
    the single-thread baseline is run."""
    nproc = len(os.sched_getaffinity(0))
    try:
        asked = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        asked = nproc
    threads = max(1, min(asked, nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


def machine_facts(nproc, threads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "nproc": nproc,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                facts["ram_gb"] = round(int(line.split()[1]) * 1024 / 1e9, 2)
    return facts


class Runner:
    """Starts worker processes for one workload and waits for each to end."""

    def __init__(self, work, deadline):
        self.work = work
        self.cache = os.path.join(work, "cache")
        self.deadline = deadline

    def worker(self, name, ops, cold_cache, seconds=0.0, max_rounds=1, trace=()):
        out_root = os.path.join(self.work, name)
        plan = {
            "src": SRC,
            "cache_dir": self.cache,
            "out_root": out_root,
            "cold_cache": cold_cache,
            "ops": [{k: op[k] for k in ("name", "kind", "config_path", "stray_file")}
                    for op in ops],
        }
        plan_path = os.path.join(self.work, f"{name}.plan.json")
        result_path = os.path.join(self.work, f"{name}.result.json")
        log_path = os.path.join(self.work, f"{name}.log")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        cmd = [sys.executable, WORKER, "--plan", plan_path, "--result", result_path,
               "--seconds", str(seconds), "--max-rounds", str(max_rounds)]
        cmd += list(trace)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"no time left for {name}")
        env = dict(os.environ, PYTHONPATH=SRC)
        with open(log_path, "w") as log:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                      cwd=ROOT, timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{name} did not finish in time; see {log_path}") from None
        if proc.returncode != 0:
            raise BenchError(f"{name} exited with {proc.returncode}; see {log_path}")
        with open(result_path) as fh:
            result = json.load(fh)
        for r in result["rounds"]:
            r["ops"] = [dict(op, out=os.path.join(r["out_root"], op["name"]), record=rec)
                        for op, rec in zip(ops, r["ops"])]
        return result


def judge(checks, ctx, op, round_ops):
    """None when the operation passed, else why it failed."""
    rec = op["record"]
    if rec["error"] is not None:
        return f"raised out of main(): {rec['error']}"
    if rec["code"] not in op["expect"]:
        return f"exit code {rec['code']}, expected {op['expect']}"
    try:
        checks.CHECKS[op["check"]](ctx, op, round_ops)
    except checks.CheckFailed as exc:
        return str(exc)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        return f"outputs unreadable: {type(exc).__name__}: {exc}"
    return None


def csv_hashes(out):
    with open(os.path.join(out, "run_manifest.json")) as fh:
        files = json.load(fh)["files"]
    return {name: sha for name, sha in files.items() if name.endswith(".csv")}


def run_workload(name, seed, seconds, trace):
    import checks
    import tracing
    import workloads
    from worker import dir_bytes

    deadline = time.monotonic() + TIME_LIMIT_S
    plan = workloads.WORKLOADS[name](seed)
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "configs"))
    for op in plan["ops"] + plan["prepare"]:
        op["config_path"] = os.path.join(work, "configs", f"{op['name']}.json")
        with open(op["config_path"], "w") as fh:
            json.dump(op["config"], fh, indent=1)
    ops, cold = plan["ops"], plan["cold_cache"]
    runner = Runner(work, deadline)

    setups = [
        runner.worker(f"setup{i}", plan["prepare"], cold_cache=True)["elapsed_s"]
        for i in range(SETUP_REPEATS if not trace else 1)
    ]
    if trace:
        untraced = runner.worker("untraced", ops, cold)
        measured = runner.worker("traced", ops, cold, seconds, 10**6, trace=["--trace"])
        memory = runner.worker("memory", ops, cold, trace=["--trace", "--memory"])
        judged = untraced["rounds"] + measured["rounds"] + memory["rounds"]
    else:
        measured = runner.worker("timed", ops, cold, seconds, 10**6)
        judged = measured["rounds"]
    cache_mb = dir_bytes(runner.cache) / MB
    last = measured["rounds"][-1]["ops"]
    rerun = runner.worker("rerun", [op for op in ops if op["rerun"]], cold_cache=False)

    ctx = checks.Context()
    for r in judged:
        for op in r["ops"]:
            op["failure"] = judge(checks, ctx, op, r["ops"])
    by_name = {op["name"]: op for op in last}
    for again in rerun["rounds"][0]["ops"]:
        first = by_name[again["name"]]
        if first["failure"] is None:
            try:
                same = csv_hashes(again["out"]) == csv_hashes(first["out"]) != {}
            except (OSError, KeyError, ValueError):
                same = False
            if not same:
                first["failure"] = "a rerun on the warm cache gave other CSV hashes"
    shutil.rmtree(runner.cache, ignore_errors=True)

    all_ops = [op for r in judged for op in r["ops"]]
    failed = [op for op in all_ops if op["failure"] is not None]
    unexpected = [op for op in failed if not op["known_fault"]]
    walls = [r["wall_s"] for r in measured["rounds"]]
    if trace:
        metrics = dict(measured["per_layer"])
        for m in metrics:
            if m.endswith(".peak_alloc_mb"):
                metrics[m] = memory["per_layer"][m]
        metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - untraced["rounds"][0]["wall_s"]
        units = {m: u for m, (u, _) in tracing.METRICS.items()}
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": measured["peak_rss_mb"],
            "cache_mb": cache_mb,
        }
        units = END_TO_END
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "setup_s": setups, "round_wall_s": walls,
        "ops": [{"name": op["name"], "seconds": op["record"]["seconds"],
                 "code": op["record"]["code"], "failure": op["failure"]} for op in all_ops],
        "hook_errors": measured.get("hook_errors", 0),
        "metrics": metrics,
    }
    return {
        "correct": not unexpected,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }, details, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc, threads = set_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "ethbath", "cli.py")):
        print(f"perfbench: no ethbath sources under {SRC}", file=sys.stderr)
        return 2
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    facts = machine_facts(nproc, threads)
    print(json.dumps({"machine": facts}))
    results = {}
    for name in names:
        try:
            result, details, failed = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        details["machine"] = facts
        with open(os.path.join(WORK, name, "result.json"), "w") as fh:
            json.dump(details, fh, indent=1)
        for op in failed:
            print(f"perfbench: {name}: {op['name']} failed: {op['failure']}", file=sys.stderr)
        shown = "  ".join(f"{m} {v['value']:.4g} {v['unit']}" for m, v in result["metrics"].items()
                          if not args.trace or m.startswith(("trace.", "cli.")))
        print(f"{name}: {shown}  attempted {result['attempted']} failed {result['failed']}")
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
