#!/usr/bin/env python3
"""Build the AsymNVM library and the benchmark binary, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload tatp --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The benchmark's last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Spans of traced runs go
to `.bench_out/`. The build lives in `.bench_build/`; both directories sit in
the directory the command is run from.

`--selftest` runs every workload (the three gated ones plus `failover`) at a
tiny size and checks that each metric of BENCHMARK.json is emitted with its
unit and direction, that the correctness gate ran, that virtual metrics
repeat exactly across runs of one seed and across traced and untraced runs,
and that a different seed changes the generated inputs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
SPANS = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170

GATED = ["tatp", "ingest", "ycsb_pipelined"]
EXTRA = ["failover"]
# Host-time metrics: they vary from run to run by design.
HOST_METRICS = {"setup_s", "peak_rss_mb"}
SPAN_NAMES = {
    "tatp": {"apps.tx", "frontend.flush", "check.audit"},
    "ingest": {"ds.op", "frontend.flush", "check.audit"},
    "ycsb_pipelined": {"ds.op", "frontend.window", "frontend.flush",
                       "check.audit"},
    "failover": {"ds.op", "frontend.window", "frontend.flush",
                 "cluster.failover", "check.audit"},
}


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            return False
    return os.path.exists(BINARY)


def drive(args):
    """Run the benchmark binary; returns (exit code, stdout lines)."""
    os.makedirs(SPANS, exist_ok=True)
    try:
        res = subprocess.run([BINARY, "--spans-dir", SPANS] + args,
                             stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 1, []
    return res.returncode, res.stdout.splitlines()


def result_of(lines):
    """The JSON result line, or None."""
    if not lines:
        return None
    try:
        out = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return out if isinstance(out, dict) and set(out) == keys else None


def metric_lines(lines):
    """name -> value string of every human-readable `metric` line."""
    out = {}
    for ln in lines:
        parts = ln.split()
        if len(parts) >= 3 and parts[0] == "metric":
            out[parts[1]] = parts[2]
    return out


def field(lines, prefix):
    for ln in lines:
        if ln.startswith(prefix):
            return ln[len(prefix):].strip()
    return None


class SelfTest:
    def __init__(self):
        self.failures = []

    def check(self, cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            self.failures.append(what)

    def run(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        listing = subprocess.run([BINARY, "--list-metrics"],
                                 stdout=subprocess.PIPE,
                                 text=True).stdout.split("\n")
        defs = {}
        for ln in listing:
            if ln.strip():
                name, unit, better, kind = ln.split()
                defs[name] = (unit, better, kind)
        for kind in ("end_to_end", "per_layer"):
            declared = {m["name"]: (m["unit"], m["better"], kind)
                        for m in bench[kind]}
            produced = {n: d for n, d in defs.items() if d[2] == kind}
            self.check(declared == produced,
                       "BENCHMARK.json %s matches the benchmark's metrics "
                       "(name, unit, direction)" % kind)
        self.check([w["name"] for w in bench["workloads"]] == GATED,
                   "BENCHMARK.json workloads are %s" % ", ".join(GATED))

        for w in GATED + EXTRA:
            self.workload(w, bench)
        print("selftest: %d failure(s)" % len(self.failures))
        return not self.failures

    def workload(self, w, bench):
        runs = {}
        for seed, trace in ((1, 0), (1, 0), (1, 1), (2, 0)):
            code, lines = drive(["--workload", w, "--seed", str(seed),
                                 "--seconds", "0", "--trace", str(trace),
                                 "--tiny"])
            res = result_of(lines)
            runs.setdefault((seed, trace), []).append((code, lines, res))
            self.check(code == 0 and res is not None,
                       "%s seed %d trace %d prints a result" %
                       (w, seed, trace))
            if res is None:
                return
            kind = "per_layer" if trace else "end_to_end"
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = {n: v["unit"] for n, v in res["metrics"].items()}
            self.check(got == want, "%s trace %d emits every %s metric "
                       "with its unit" % (w, trace, kind))
            self.check(field(lines, "audit: ran=") is not None and
                       field(lines, "audit: ran=").startswith("1"),
                       "%s seed %d trace %d: durability audit ran" %
                       (w, seed, trace))
        (_, l1, r1), (_, _, r2) = runs[(1, 0)]
        _, lt, rt = runs[(1, 1)][0]
        _, ls, _ = runs[(2, 0)][0]
        self.check(r1["correct"] and rt["correct"],
                   "%s: correctness gate passes" % w)
        m = rt["metrics"]
        self.check(m["check.audit_keys"]["value"] > 0,
                   "%s: the audit read keys back" % w)
        if w in GATED:
            self.check(m["check.op_fail_ratio"]["value"] == 0,
                       "%s: op_fail_ratio is 0" % w)
        else:
            self.check(m["cluster.promotions"]["value"] >= 1 and
                       m["cluster.failovers"]["value"] >= 1,
                       "%s: a mirror was promoted and sessions failed over"
                       % w)
            self.check(m["rdma.retries_per_op"]["value"] > 0,
                       "%s: transient faults were retried" % w)
        virt = [n for n in r1["metrics"] if n not in HOST_METRICS]
        self.check(all(r1["metrics"][n] == r2["metrics"][n] for n in virt),
                   "%s: virtual end-to-end metrics repeat exactly for one "
                   "seed" % w)
        traced = metric_lines(lt)
        plain = metric_lines(l1)
        self.check(all(traced.get(n) == plain.get(n) for n in virt),
                   "%s: the traced run's virtual metrics equal the "
                   "untraced run's" % w)
        self.check(field(l1, "input_digest=") !=
                   field(ls, "input_digest="),
                   "%s: another seed changes the generated inputs" % w)
        spans = field(lt, "spans:")
        names = set()
        if spans and os.path.exists(spans):
            with open(spans) as f:
                names = {json.loads(ln)["name"] for ln in f if ln.strip()}
        self.check(SPAN_NAMES[w] <= names,
                   "%s: spans cover %s" % (w, ", ".join(sorted(
                       SPAN_NAMES[w]))))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload or --selftest is required")
    if not build():
        print("build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return 0 if SelfTest().run() else 1
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, lines = drive(cmd)
    for ln in lines[:-1]:
        print(ln)
    res = result_of(lines)
    if code != 0 or res is None:
        print("benchmark failed (exit %d)" % code, file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
