#!/usr/bin/env python3
"""The repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the `perfbench` crate (its own
Cargo workspace, built into `$CARGO_TARGET_DIR`, default
`perfbench/target`), then starts a fresh process for every pass:

* serve workloads: five `setup_s` probes (cluster start in a fresh
  process each), then the measured passes (five on serve-read-mostly,
  three on serve-write-durable). Each rate is reported from its best
  pass (highest), each time from its best pass (lowest), memory and
  counts as the median over the passes; `setup_s` is the median over
  probes and passes;
* `--trace 0`: the measured passes with the plain binary; the last
  stdout line carries the end-to-end metrics of BENCHMARK.json;
* `--trace 1`: one untraced pass, then one traced pass with the
  counting-allocator binary; on serve-read-mostly also one pass with
  telemetry off and one traced serve-write-durable pass for the WAL
  layer (`wal.*`, `durable.*`). The last stdout line carries the
  per-layer metrics.

serve-write-durable is not a workload of BENCHMARK.json (its figures
swing with the shared disk; see README.md), but it runs on its own the
same way.

Every pass checks its own correctness gates and exits nonzero when one
fails; this script then exits nonzero without printing a result. A
human-readable table of every metric goes to stderr, and the whole run
is kept under perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(BENCH, "out")
SETUP_PROBES = 5
# Measured passes per run. A traced run makes TRACED_PASSES untraced
# passes: its extra passes must fit the same time budget.
PASSES = {"serve-read-mostly": 5, "serve-write-durable": 3, "sim-zipf-100k": 1}
TRACED_PASSES = 1
# Durable-pass figures the traced serve-read-mostly run reports, under
# these names, next to the durable pass's own `wal.*` figures.
DURABLE = {"throughput_ops_s": "durable.throughput_ops_s",
           "serve.put_p50_us": "durable.put_p50_us",
           "serve.put_p99_us": "durable.put_p99_us"}
# Every process of one run must end within this many seconds.
RUN_BUDGET_S = 170.0


class Failed(Exception):
    """A build, pass or correctness gate failed."""


def build():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(BENCH, "target"))
    target = os.path.join(ROOT, target)  # a relative target dir is relative to ROOT
    cmd = ["cargo", "build", "--release", "--quiet", "--offline",
           "--manifest-path", os.path.join(BENCH, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        raise Failed("cargo build failed")
    release = os.path.join(target, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "perfbench-traced")


def run_pass(binary, deadline, *args):
    """Run one pass in a fresh process; return its parsed pass line."""
    cmd = [binary, *args, "--out", OUT]
    left = deadline - time.monotonic()
    if left <= 0:
        raise Failed("out of time before " + " ".join(args[:3]))
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise Failed("pass timed out: " + " ".join(args[:3]))
    if done.returncode != 0:
        raise Failed(f"pass exited {done.returncode}: {' '.join(args)}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1])


def value(p, name):
    return p["metrics"][name]["value"]


def best_of(passes):
    """Fold passes of one kind into one. Interference from outside the
    program (other tenants, hypervisor steal) only ever slows a pass, so
    rates take their highest pass and times their lowest; memory and
    counts take the median. attempted/failed are summed."""
    pick = {"ops/s": max, "us": min, "ms": min, "s": min}
    first = passes[0]
    metrics = {n: {"value": pick.get(m["unit"], statistics.median)(value(p, n) for p in passes),
                   "unit": m["unit"]} for n, m in first["metrics"].items()}
    return dict(first, attempted=sum(p["attempted"] for p in passes),
                failed=sum(p["failed"] for p in passes),
                digests=[p["digest"] for p in passes], all_passes=passes, metrics=metrics)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in PASSES:
        raise Failed(f"unknown workload {a.workload}")
    os.makedirs(OUT, exist_ok=True)
    plain, traced = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    serve = a.workload.startswith("serve-")

    probes = []
    if serve:
        for _ in range(SETUP_PROBES):
            probes.append(value(run_pass(plain, deadline, "probe", *common), "setup_s"))
    count = min(PASSES[a.workload], TRACED_PASSES) if a.trace else PASSES[a.workload]
    runs = [run_pass(plain, deadline, "run", *common) for _ in range(count)]
    base = best_of(runs)
    passes = {"untraced": base}
    derived = {}
    if a.trace:
        per_pass = statistics.median(r["attempted"] for r in runs)
        passes["traced"] = run_pass(traced, deadline, "run", *common, "--trace", "1",
                                    "--expect-ops", str(int(per_pass)))
        thr = value(base, "throughput_ops_s")
        derived["trace.overhead_pct"] = (
            (thr - value(passes["traced"], "throughput_ops_s")) / thr * 100, "%")
        if a.workload == "serve-read-mostly":
            off = best_of([run_pass(plain, deadline, "run", *common, "--telemetry", "off")
                             for _ in range(count)])
            passes["telemetry_off"] = off
            off_thr = value(off, "throughput_ops_s")
            derived["telemetry.overhead_pct"] = ((off_thr - thr) / off_thr * 100, "%")
            durable = run_pass(traced, deadline, "run", "--workload", "serve-write-durable",
                               *common[2:], "--trace", "1",
                               "--expect-ops", str(int(a.seconds * 8000)))
            passes["write_durable"] = durable
            for name, m in durable["metrics"].items():
                if name.startswith("wal.") or name in DURABLE:
                    derived[DURABLE.get(name, name)] = (m["value"], m["unit"])
    setup_samples = probes + [value(r, "setup_s") for r in runs]
    derived["setup_s"] = (statistics.median(setup_samples), "s")

    def lookup(name, unit):
        """A derived value, else the untraced pass's, else the traced
        pass's; 0 when the run does not exercise that layer."""
        found = [derived[name]] if name in derived else [
            (p["metrics"][name]["value"], p["metrics"][name]["unit"])
            for p in passes.values() if name in p["metrics"]]
        if not found:
            return 0.0
        if found[0][1] != unit:
            raise Failed(f"{name} measured in {found[0][1]}, BENCHMARK.json says {unit}")
        return found[0][0]

    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": lookup(m["name"], m["unit"]), "unit": m["unit"]} for m in wanted}
    result = {
        "correct": True,
        "attempted": sum(p["attempted"] for p in passes.values()),
        "failed": sum(p["failed"] for p in passes.values()),
        "metrics": metrics,
    }

    # Everything measured, for people: stderr table and a result file.
    print(f"\n{a.workload} seed {a.seed} trace {a.trace}  host_cpus {base['host_cpus']}  "
          f"digests {' '.join(base['digests'])}", file=sys.stderr)
    if serve:
        print(f"  setup probes (s): {', '.join(f'{s:.4f}' for s in setup_samples)}", file=sys.stderr)
    print(f"  {'failed_op_frac':<40} {result['failed'] / result['attempted']:>14.6g} fraction",
          file=sys.stderr)
    shown = set()
    for label, p in passes.items():
        for name, m in p["metrics"].items():
            key = name if label == "untraced" else f"{label}:{name}"
            if name in derived or key in shown:
                continue
            shown.add(key)
            print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    for name, (v, unit) in derived.items():
        print(f"  {name:<40} {v:>14.6g} {unit}", file=sys.stderr)
    record = dict(result, workload=a.workload, seed=a.seed, seconds=a.seconds,
                  host_cpus=base["host_cpus"], setup_samples=setup_samples, passes=passes,
                  derived={k: {"value": v, "unit": u} for k, (v, u) in derived.items()})
    path = os.path.join(OUT, f"result-{a.workload}-seed{a.seed}-trace{a.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (Failed, OSError, ValueError, KeyError) as e:
        print(f"perfbench: FAILED: {e}", file=sys.stderr)
        sys.exit(1)
