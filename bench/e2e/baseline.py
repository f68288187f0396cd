#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric's spread.

    python3 bench/e2e/baseline.py [--runs 10] [--first-seed 1]
                                  [--workloads a,b] [--out FILE]
                                  [--compare FILE]

For every workload in BENCHMARK.json (or those given) this runs
`python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0`
for seeds first-seed .. first-seed + runs - 1, with T = run_seconds, and
reads each run's final JSON line. Per end-to-end metric it reports the
median over runs, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound. --out writes that
summary, with host metadata, as JSON (bench/e2e/baseline_seed.json is
one). --compare also prints each median's change against such a file.
Exits 1 if any run fails or reports incorrect outputs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode or not result or not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return result


def summarise(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "bound": bound, "values": values}


def host_metadata():
    meta = {"nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    meta["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in range(8):
        base = "/sys/devices/system/cpu/cpu0/cache/index%d/" % index
        try:
            fields = {}
            for name in ("level", "type", "size"):
                with open(base + name) as f:
                    fields[name] = f.read().strip()
        except OSError:
            break
        suffix = {"Data": "d", "Instruction": "i"}.get(fields["type"], "")
        meta["l%s%s" % (fields["level"], suffix)] = fields["size"]
    try:
        with open(os.path.join(ROOT, "BENCH_E2E.json")) as f:
            meta.update(json.load(f)["host"])
    except (OSError, KeyError, ValueError):
        pass
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    meta["git_sha"] = sha.stdout.strip() if sha.returncode == 0 else None
    return meta


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads")
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["workloads"]

    ok = True
    summary = {}
    for name in names:
        values = {m: [] for m in bounds}
        for seed in seeds:
            result = run_once(name, seed, bench["run_seconds"])
            if result is None:
                print("%s seed %d: run failed" % (name, seed))
                ok = False
                continue
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        if len(values["setup_s"]) < 2:
            continue
        summary[name] = {m: summarise(v, bounds[m])
                         for m, v in values.items()}
        for metric, s in summary[name].items():
            line = ("%-18s %-12s median %12.6g  q1 %12.6g  q3 %12.6g  "
                    "spread %6.2f%% (bound %g%%)" % (
                        name, metric, s["median"], s["q1"], s["q3"],
                        100 * s["spread"], 100 * s["bound"]))
            old = earlier.get(name, {}).get(metric)
            if old:
                line += "  vs earlier %+6.2f%%" % (
                    100 * (s["median"] / old["median"] - 1))
            print(line)
        sys.stdout.flush()

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"about": "pimbench_e2e runs, one per seed; spread "
                                "is (q3 - q1) / median over the runs",
                       "host": host_metadata(),
                       "run_seconds": bench["run_seconds"],
                       "seeds": seeds,
                       "workloads": summary}, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
