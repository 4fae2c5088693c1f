"""Runs a plan of ethbath CLI operations in one process, as one closed-loop client.

    python3 worker.py --plan PLAN.json --result RESULT.json [--seconds S]
                      [--max-rounds N] [--trace [--memory]]

Each operation is one `ethbath.cli.main([...])` call with a fresh --out
directory. A round runs every operation of the plan once. After the first
round, another one starts only while it would end within `--seconds` of the
first round's start, at the mean round time so far, and at most
`--max-rounds` rounds run. With a cold-cache plan the eigensystem cache is emptied before each
round, outside the timed operations. The result file records each
operation's exit code, exception, time and warnings, the process's peak RSS,
and the time from the start of this script to the end of the last round,
which is the set-up time when the plan holds only preparation operations.
With --trace the calls into ethbath's modules are traced (see tracing.py),
and --memory adds tracemalloc peaks to the spans.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import warnings  # noqa: E402

STRAY_FILE = "notes.txt"


def dir_bytes(path, skip=()):
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            if name not in skip:
                total += os.path.getsize(os.path.join(root, name))
    return total


def run_op(cli, op, out_root, cache_dir):
    out = os.path.join(out_root, op["name"])
    if op["stray_file"]:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, STRAY_FILE), "w") as fh:
            fh.write("a file this run did not write\n")
    argv = [op["kind"], "--config", op["config_path"], "--out", out, "--cache-dir", cache_dir]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code, error = cli.main(argv), None
        except SystemExit as exc:
            code, error = exc.code, f"SystemExit: {exc.code}"
        except Exception as exc:  # an exception out of main() is a failed operation
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return {
        "name": op["name"],
        "kind": op["kind"],
        "code": code,
        "error": error,
        "seconds": seconds,
        "runtime_warnings": [
            str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)
        ],
        "output_bytes": dir_bytes(out, skip=(STRAY_FILE,)) if os.path.isdir(out) else 0,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--max-rounds", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--memory", action="store_true")
    args = parser.parse_args()
    with open(args.plan) as fh:
        plan = json.load(fh)

    from ethbath import cli

    if not os.path.abspath(cli.__file__).startswith(plan["src"] + os.sep):
        raise SystemExit(f"ethbath imported from {cli.__file__}, not from {plan['src']}")

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(memory=args.memory)
        tracer.install()

    cache_dir = plan["cache_dir"]
    rounds = []
    start = time.perf_counter()
    while True:
        if plan["cold_cache"]:
            shutil.rmtree(cache_dir, ignore_errors=True)
        out_root = os.path.join(plan["out_root"], f"round{len(rounds)}")
        if tracer is not None:
            tracer.begin_round()
        ops = [run_op(cli, op, out_root, cache_dir) for op in plan["ops"]]
        rounds.append({"out_root": out_root, "wall_s": sum(o["seconds"] for o in ops), "ops": ops})
        spent = time.perf_counter() - start
        if len(rounds) >= args.max_rounds or spent * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    elapsed = time.perf_counter() - T0

    result = {
        "elapsed_s": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "rounds": rounds,
    }
    if tracer is not None:
        tracer.stop()
        result["per_layer"] = tracer.metrics(rounds)
        result["hook_errors"] = tracer.hook_errors
        tracer.write_spans(os.path.join(plan["out_root"], "spans.json"))
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
