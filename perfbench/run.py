#!/usr/bin/env python3
"""The repo benchmark: builds perfbench/ from source, then runs a workload.

One run (the form every caller uses):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Other modes:
  --all                 every workload once (untraced) and a table of
                        wall_s, cpu_s, setup_s, peak_rss_mb, failed_frac
  --steadiness N        N runs of every workload, interleaved across
                        workloads, seeds 1..N; prints median, quartiles and
                        spread of each end-to-end metric against its bound
                        and saves them (--out FILE)
  --compare A B         compares two --steadiness files; refuses when their
                        host/build fingerprints differ
  --self-test           passivity and fidelity test of the sim cells

Builds go to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
work files to $CARGO_TARGET_DIR/work. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["enterprise_conga", "datamining_asym_conga", "campaign_cold",
             "campaign_warm"]
# Fingerprint fields that must match for two results to be comparable. The
# source digest is what a comparison is between, so it may differ.
COMPARABLE_KEYS = ["compiler", "build_type", "ndebug", "telemetry", "nproc",
                   "campaign_jobs", "cpu"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds conga_bench and conga_serve."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "scheduler.cpp")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    bdir = os.path.join(target_dir(), "perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "conga_bench", "conga_serve"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return bdir


def benchmark_json():
    """BENCHMARK.json: the one list of metric names and units."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at " + ROOT)
    with open(path) as f:
        return json.load(f)


def unique_keys(pairs):
    """json object hook that refuses a repeated key (a metric twice)."""
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        fail("repeated key in conga_bench output: %s" % sorted(keys))
    return dict(pairs)


def run_once(bdir, workload, seed, seconds, trace):
    """Runs one workload; returns (human lines, result dict, fingerprint)."""
    work = os.path.join(target_dir(), "work")
    cmd = [os.path.join(bdir, "conga_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work,
           "--serve", os.path.join(bdir, "conga_serve")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=175)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("conga_bench did not finish: %s" % e)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(r.stdout)
        fail("conga_bench exited %d without a result" % r.returncode)
    result = conform(json.loads(lines[-1], object_pairs_hook=unique_keys),
                     trace)
    fingerprint = {}
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    return lines[:-1], result, fingerprint


def conform(result, trace):
    """Puts the metrics in BENCHMARK.json's order and units. A metric it does
    not name, or names with another unit, is an error, and so is a missing
    end-to-end metric; a missing per-layer metric is a layer the workload
    does not exercise and reads 0."""
    want = benchmark_json()["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in want}
    have = result["metrics"]
    for name, m in have.items():
        if units.get(name) != m["unit"]:
            fail("metric %s [%s] is not in BENCHMARK.json as such" %
                 (name, m["unit"]))
    metrics = {}
    for name, unit in units.items():
        if name not in have and not trace:
            fail("conga_bench did not report " + name)
        metrics[name] = have.get(name, {"value": 0, "unit": unit})
    result["metrics"] = metrics
    return result


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as the acceptance check takes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def cmd_single(args):
    bdir = build()
    lines, result, _ = run_once(bdir, args.workload, args.seed, args.seconds,
                                args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))


def cmd_all(args):
    bdir = build()
    rows = []
    for w in WORKLOADS:
        _, result, fp = run_once(bdir, w, args.seed, args.seconds, 0)
        rows.append((w, result))
    print("fingerprint " + json.dumps(fp))
    print("%-22s %12s %12s %12s %12s %12s" %
          ("workload", "wall_s [s]", "cpu_s [s]", "setup_s [s]",
           "peak_rss [MB]", "failed_frac"))
    for w, r in rows:
        m = r["metrics"]
        print("%-22s %12.6g %12.6g %12.6g %12.6g %12.4f   (%d units)" %
              (w, m["wall_s"]["value"], m["cpu_s"]["value"],
               m["setup_s"]["value"], m["peak_rss_mb"]["value"],
               r["failed"] / r["attempted"], r["attempted"]))
    if any(not r["correct"] or r["failed"] for _, r in rows):
        fail("some workload failed its output checks")


def cmd_steadiness(args):
    bdir = build()
    bounds = {m["name"]: m["bound"] for m in benchmark_json()["end_to_end"]}
    values = {w: {} for w in WORKLOADS}
    failed = {w: [0, 0] for w in WORKLOADS}
    fingerprint = None
    for rep in range(1, args.steadiness + 1):
        for w in WORKLOADS:  # interleaved: every workload once per round
            seed = args.seed + rep - 1
            t = time.time()
            _, result, fp = run_once(bdir, w, seed, args.seconds, 0)
            if fingerprint is None:
                fingerprint = fp
            elif any(fp.get(k) != fingerprint.get(k) for k in COMPARABLE_KEYS):
                fail("fingerprint changed during the steadiness runs")
            failed[w][0] += result["attempted"]
            failed[w][1] += result["failed"] + (0 if result["correct"] else 1)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("round %d %-22s seed %d: %s (%.1f s)" %
                  (rep, w, seed, " ".join(
                      "%s=%.6g" % (k, v["value"])
                      for k, v in result["metrics"].items()),
                   time.time() - t), flush=True)
    out = {"fingerprint": fingerprint, "seconds": args.seconds,
           "runs": args.steadiness, "workloads": {}}
    print("\n%-22s %-12s %12s %12s %12s %8s %6s  %s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound",
           "verdict"))
    within = True
    for w in WORKLOADS:
        out["workloads"][w] = {"failed": failed[w][1],
                               "attempted": failed[w][0], "metrics": {}}
        for name, vals in values[w].items():
            med, q1, q3, sp = spread(vals)
            bound = bounds.get(name)
            if bound is None:
                verdict = "no bound"
            elif sp <= bound / 3:
                verdict = "ok (< bound/3)"
            elif sp <= bound:
                verdict = "within bound, not below bound/3"
            else:
                verdict = "OVER BOUND"
                within = False
            print("%-22s %-12s %12.6g %12.6g %12.6g %8.4f %6s  %s" %
                  (w, name, med, q1, q3, sp,
                   "-" if bound is None else "%.2f" % bound, verdict))
            out["workloads"][w]["metrics"][name] = {
                "values": vals, "median": med, "q1": q1, "q3": q3,
                "spread": sp}
        print("%-22s failed_frac %.4f (%d of %d units)" %
              (w, failed[w][1] / max(failed[w][0], 1), failed[w][1],
               failed[w][0]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")
    if not within:
        fail("a spread is over its bound")


def load_steadiness(path):
    """A --steadiness file, or the first set of baseline.json."""
    with open(path) as f:
        doc = json.load(f)
    if "sets" in doc:
        doc = {"fingerprint": doc["fingerprint"], "workloads": doc["sets"][0]}
    return doc


def cmd_compare(args):
    a = load_steadiness(args.compare[0])
    b = load_steadiness(args.compare[1])
    diff = [k for k in COMPARABLE_KEYS
            if a["fingerprint"].get(k) != b["fingerprint"].get(k)]
    if diff:
        fail("refusing to compare: fingerprints differ in %s" % diff)
    metrics = {m["name"]: m for m in benchmark_json()["end_to_end"]}
    print("%-22s %-12s %12s %12s %8s %6s" %
          ("workload", "metric", "median A", "median B", "B/A-1", "bound"))
    worse = False
    for w, wa in a["workloads"].items():
        wb = b["workloads"].get(w)
        if wb is None:
            continue
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"].get(name)
            if mb is None:
                continue
            rel = mb["median"] / ma["median"] - 1
            m = metrics.get(name, {})
            bound = m.get("bound")
            lower = m.get("better", "lower") == "lower"
            over = bound is not None and (rel > bound if lower
                                          else -rel > bound)
            worse = worse or over
            print("%-22s %-12s %12.6g %12.6g %+8.4f %6s %s" %
                  (w, name, ma["median"], mb["median"], rel,
                   "-" if bound is None else "%.2f" % bound,
                   "WORSE THAN BOUND" if over else ""))
    if worse:
        sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--steadiness", type=int, metavar="N")
    p.add_argument("--out", help="--steadiness result file")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.seed < 1:
        p.error("--seed must be at least 1")
    if args.compare:
        cmd_compare(args)
    elif args.self_test:
        bdir = build()
        sys.exit(subprocess.run([os.path.join(bdir, "conga_bench"),
                                 "--self-test"], cwd=ROOT,
                                timeout=175).returncode)
    elif args.all:
        cmd_all(args)
    elif args.steadiness:
        cmd_steadiness(args)
    elif args.workload:
        cmd_single(args)
    else:
        p.error("give --workload, --all, --steadiness, --compare or "
                "--self-test")


if __name__ == "__main__":
    main()
