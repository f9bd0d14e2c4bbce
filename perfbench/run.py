"""Cold-start benchmark of torelli3: one fresh interpreter per sample.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root (any directory works; paths are resolved
from this file).  This script starts ``sample.py`` once per sample, one
process at a time and no threads, so at most two processes (this one
and one sample) run at once.  Workloads and metrics are declared in ``BENCHMARK.json``;
``README.md`` beside this file says why each workload exists and what
each metric should move.

``--trace 0`` makes rounds of set-up probes and one untraced sample for
``--seconds`` and reports every end-to-end metric.  ``--trace 1`` alternates untraced and traced
samples of the same inputs and reports every per-layer metric, the
tracing overhead and the span coverage; the spans are written to
``perfbench/out/`` when the run ends.  Every time reported is a median
of times scaled to the speed of a quiet host (see ``scaled``).

Every metric is printed as ``name = value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``
(exact checks made), ``failed`` (checks that failed) and ``metrics``.
The exit code is 1 when any check failed, 2 when the checkout holds no
``src/torelli3`` package.

``--smoke`` is the harness self-test: every workload at tiny sizes,
traced and untraced, the seed argument, the golden report, and a
deliberately wrong expected value that must give ``failed == 1`` and
exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLE = os.path.join(HERE, "sample.py")
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

MIN_ROUNDS = {0: 3, 1: 1}
# An untraced run makes one set-up probe per this many seconds of the run
# (a probe takes about 0.2 s), so every workload gets about as many
# probes, spread over the whole run, whatever the length of its samples.
SETUP_EVERY_S = 3.0
# Seconds the calibration loop of sample.py takes when the host is quiet:
# its fastest time on the 2.0 GHz Xeon the benchmark was tuned on.  Every
# time reported is scaled to that speed (see scaled).
CALIBRATION_NOMINAL_S = 0.0016
# Every run must end within 180 s; no sample starts after this.
HARD_LIMIT_S = 150.0

EXIT_FAILED = 1
EXIT_NO_PROGRAM = 2


def _child(args, timeout):
    """Run sample.py with args; its last stdout line parsed, or an error."""
    try:
        proc = subprocess.run(
            [sys.executable, SAMPLE, *args],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return None, f"sample {args[0]} exceeded {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"sample {args[0]} exited with code {proc.returncode}"
    return json.loads(lines[-1]), None


def _crash(spec, rounds, error):
    return {"failures": [f"{spec['workload']}/sample {rounds}: {error}"],
            "checks": 1, "crashed": True}


def run_samples(spec, seconds, trace, deadline):
    """Rounds of samples until the next round would pass `seconds`.

    An untraced run starts each round with set-up probes, one per
    SETUP_EVERY_S of the run so far (at least one), so that the set-up
    times and the samples span the same stretch of the run, then makes
    one sample; a first, untimed probe compiles the bytecode.  A traced
    run makes an untraced and a traced sample of the same inputs per
    round.  A smoke run makes one round.  Returns the samples and the
    set-up times.
    """
    min_rounds = 1 if spec["size"] == "smoke" else MIN_ROUNDS[trace]
    samples = []
    setups = []
    started = time.monotonic()
    rounds = 0
    if not trace:
        _, error = _child(["setup"], deadline - time.monotonic())
        if error:
            return [_crash(spec, rounds, error)], setups
    while True:
        while not trace:
            result, error = _child(["setup"], deadline - time.monotonic())
            if error:
                samples.append(_crash(spec, rounds, error))
                return samples, setups
            setups.append(result)
            if len(setups) * SETUP_EVERY_S >= time.monotonic() - started:
                break
        for traced in (False, True)[: trace + 1]:
            result, error = _child(
                ["sample", json.dumps({**spec, "index": rounds, "trace": traced})],
                deadline - time.monotonic(),
            )
            if error:
                samples.append(_crash(spec, rounds, error))
                return samples, setups
            result["traced"] = traced
            samples.append(result)
        rounds += 1
        elapsed = time.monotonic() - started
        if time.monotonic() > deadline:
            break
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            break
    return samples, setups


def _self_times(sample):
    """Self time per span name, summed over the spans of one sample, with
    the calibrations that ran inside a span taken out of it."""
    calibrations = sample["calibrations"]

    def net(span):
        inside = sum(max(0.0, min(span["end"], b) - max(span["start"], a))
                     for a, b in calibrations)
        return span["end"] - span["start"] - inside

    child = {}
    for span in sample["spans"]:
        if span["parent"] is not None:
            child[span["parent"]] = child.get(span["parent"], 0.0) + net(span)
    out = {}
    for span in sample["spans"]:
        own = net(span) - child.get(span["id"], 0.0)
        out[span["name"]] = out.get(span["name"], 0.0) + own
    return out, sum(net(span) for span in sample["spans"] if span["parent"] is None)


def scaled(seconds, calibration_s):
    """seconds scaled to the speed of a quiet host.

    The shared host runs the same code up to 1.8x slower for stretches of
    seconds to minutes, longer than a run.  The calibration loop, timed
    in the same interpreter all through the measured part, slows with
    it, and the program under test cannot change its time (see README).
    """
    return seconds * CALIBRATION_NOMINAL_S / calibration_s


def end_to_end(declared, samples, setups):
    values = {
        "setup_s": statistics.median(scaled(p["setup_s"], p["calibration_s"]) for p in setups),
        "verdict_s": statistics.median(
            scaled(s["verdict_s"], s["calibration_s"]) for s in samples
        ),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "checks": statistics.median_low(s["checks"] for s in samples),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def per_layer(declared, samples):
    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    selfs, covered = [], []
    for s in traced:
        own, top = _self_times(s)
        selfs.append({name: scaled(t, s["calibration_s"]) for name, t in own.items()})
        covered.append(top / s["verdict_s"])

    def verdict(group):
        return statistics.median(scaled(s["verdict_s"], s["calibration_s"]) for s in group)

    special = {
        "checks_failed": sum(len(s["failures"]) for s in samples),
        "trace.overhead_s": verdict(traced) - verdict(plain),
        "trace.coverage": statistics.median(covered),
    }
    out = {}
    for m in declared:
        name = m["name"]
        if name in special:
            value = special[name]
        elif m["unit"] == "s":
            value = statistics.median(t.get(name[: -len("_s")], 0.0) for t in selfs)
        else:
            value = statistics.median_low(s["counts"].get(name, 0) for s in traced)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def run(workload, seed, seconds, trace, size="full", wrong_expected=False):
    """One benchmark run: prints every metric and returns the result."""
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    with open(SPEC, encoding="utf-8") as handle:
        bench = json.load(handle)
    if workload not in {w["name"] for w in bench["workloads"]}:
        raise SystemExit(f"run.py: unknown workload {workload!r}")
    spec = {"workload": workload, "seed": seed, "size": size,
            "wrong_expected": wrong_expected}
    samples, setups = run_samples(spec, seconds, trace, deadline)
    if any(s.get("crashed") for s in samples):
        metrics = {}
    elif trace:
        metrics = per_layer(bench["per_layer"], samples)
    else:
        metrics = end_to_end(bench["end_to_end"], samples, setups)
    failures = [f for s in samples for f in s["failures"]]
    result = {
        "correct": not failures,
        "attempted": sum(s["checks"] for s in samples),
        "failed": len(failures),
        "metrics": metrics,
    }
    _report(workload, seed, trace, size, samples, setups, result, time.monotonic() - started)
    return result


def _report(workload, seed, trace, size, samples, setups, result, wall):
    measured = [s for s in samples if not s.get("crashed")]
    print(f"workload {workload}, seed {seed}, trace {trace}, size {size}, "
          f"{len(samples)} samples in {wall:.1f} s")
    plain = [s for s in measured if not s["traced"]]
    for name, group, key in (
        ("setup", setups, "setup_s"),
        ("verdict untraced", plain, "verdict_s"),
    ):
        for kind, times in (
            ("wall", sorted(p[key] for p in group)),
            ("calibration", sorted(p["calibration_s"] for p in group)),
            ("scaled", sorted(scaled(p[key], p["calibration_s"]) for p in group)),
        ):
            if times:
                print(f"{name} {kind}: min {times[0]:.4f} s, "
                      f"median {statistics.median(times):.4f} s, "
                      f"max {times[-1]:.4f} s, {len(times)} values")
    if measured:
        last = measured[-1]
        print("inputs: " + json.dumps(last["inputs"], sort_keys=True))
        for name in sorted(last["counts"]):
            if name.startswith("specseq.") and name.endswith(".rows"):
                d = name[: -len(".rows")]
                c = last["counts"]
                print(f"shape {d}: {c[d + '.rows']} x {c[d + '.cols']}, "
                      f"nnz {c[d + '.nnz']}, dense_entries {c[d + '.dense_entries']} (computed)")
    for failure in [f for s in samples for f in s["failures"]]:
        print(f"FAILED {failure}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"attempted = {result['attempted']} checks over all samples, failed = {result['failed']}")
    os.makedirs(OUT, exist_ok=True)
    prefix = "smoke-" if size == "smoke" else ""
    path = os.path.join(OUT, f"{prefix}{workload}-seed{seed}-trace{trace}.json")
    record = {"workload": workload, "seed": seed, "trace": trace, "size": size,
              "result": result, "setups": setups, "samples": samples}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(f"record written to {os.path.relpath(path, ROOT)}")


def exit_code(result):
    return 0 if result["correct"] else EXIT_FAILED


def smoke():
    """Harness self-test at tiny sizes; returns the exit code."""
    with open(SPEC, encoding="utf-8") as handle:
        names = [w["name"] for w in json.load(handle)["workloads"]]
    problems = []

    def expect(what, ok):
        print(f"smoke {'ok' if ok else 'FAILED'}: {what}")
        if not ok:
            problems.append(what)

    def smoke_run(workload, seed, trace, wrong_expected=False):
        return run(workload, seed, 0.1, trace, "smoke", wrong_expected)

    for name in names:
        result = smoke_run(name, 3, 1)
        expect(f"{name}: traced run correct", result["correct"])
        path = os.path.join(OUT, f"smoke-{name}-seed3-trace1.json")
        with open(path, encoding="utf-8") as handle:
            spans = [s["spans"] for s in json.load(handle)["samples"] if s["traced"]]
        expect(f"{name}: trace output holds spans", bool(spans and spans[0]))
    result = smoke_run("report-default", 11, 0)
    expect("report-default: golden report matches at another seed", result["correct"])

    def ladder_inputs(seed):
        smoke_run("ladder-deep", seed, 0)
        path = os.path.join(OUT, f"smoke-ladder-deep-seed{seed}-trace0.json")
        with open(path, encoding="utf-8") as handle:
            return [s["inputs"] for s in json.load(handle)["samples"]]

    first, again, other = ladder_inputs(5), ladder_inputs(5), ladder_inputs(6)
    expect("the same seed gives the same inputs", first == again)
    expect("another seed gives other inputs", first != other)

    result = smoke_run("twist-window", 3, 0, wrong_expected=True)
    expect("a wrong expected value gives failed == 1", result["failed"] == 1)
    expect("a wrong expected value gives exit code 1", exit_code(result) == EXIT_FAILED)
    print(f"smoke: {len(problems)} problem(s)")
    return EXIT_FAILED if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the harness self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "torelli3", "__init__.py")):
        print(f"run.py: no src/torelli3 package under {ROOT}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return exit_code(result)


if __name__ == "__main__":
    sys.exit(main())
