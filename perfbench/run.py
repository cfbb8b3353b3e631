#!/usr/bin/env python3
"""The repository's benchmark: campaign throughput and trial latency.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 20 --trace 0

builds perfbench/ (CMake, into $CARGO_TARGET_DIR or .bench_build), runs the
workload through the campaign API for --seconds, checks its outputs and
prints every metric by name with its unit and sample count, then, as the
last line, one JSON object with the keys correct/attempted/failed/metrics.
--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics (from the same untraced window plus traced replicas).

Output check: the digest of the set-up's fixed-seed warm-up report must
equal perfbench/expected_digests.json on every run, and with the default
seed so must the digest of the window's first report; trial 0 of every
scenario, replayed with run_trial on one thread, must equal the campaign's
result; journaled read-backs must equal what run() returned; and the
traced run's replicas must reproduce run_trial's results. A failed check
exits non-zero and prints no timings.

Other modes:

    python3 perfbench/run.py compare --parent DIR --change DIR [--pairs 10]
    python3 perfbench/run.py selftest

compare runs the benchmark of two checkouts in alternating pairs and
applies the gain/regression rule described in perfbench/README.md.
selftest runs each workload at a tiny size and checks the output contract
and the digest checks.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table2", "population", "catalogue-mt")
DEFAULT_SEED = 1
DIGESTS = HERE / "expected_digests.json"
# Fields of the host stamp that must agree before two run sets are compared.
HOST_IDENTITY = ("nproc", "cpu_model", "compiler", "build_type", "obs")
BINARY_TIMEOUT_S = 170
MIN_PAIRS = 10


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds perfbench; returns the binary path."""
    if not (ROOT / "src").is_dir():
        raise BenchError(f"no simulator sources at {ROOT / 'src'}")
    bdir = build_dir()
    cache = bdir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        shutil.rmtree(bdir)  # configured for another checkout
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(len(os.sched_getaffinity(0)), 4))
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return bdir / "perfbench"


# --- host stamp ----------------------------------------------------------------

def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest():
    """SHA-256 over src/ and perfbench/ sources; identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".h", ".py", ".txt", ".json"):
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()


def host_stamp(result):
    b = result["build"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": b["compiler"],
        "build_type": b["build_type"],
        "obs": b["obs"],
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": result["seed"],
    }


# --- one run -------------------------------------------------------------------

def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_digests(path, scale, workload, seed):
    """The digests the run's reports must have: (warm-up, window report).
    The window report's is None when the seed is not the one whose digests
    are kept."""
    data = json.loads(Path(path).read_text())
    try:
        warmup = data["warmup"][scale][workload]
        report = data["report"][scale][workload] if seed == data["report_seed"] else None
    except KeyError:
        raise BenchError(f"{path} has no digests for {scale}/{workload}")
    return warmup, report


def run_binary(binary, args):
    work = build_dir() / "work" / args.workload
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--work-dir", str(work)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"perfbench did not finish within {BINARY_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        raise BenchError(f"perfbench exited with {r.returncode}")
    return json.loads(r.stdout)


def bench(args):
    spec = load_benchmark()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    binary = build()
    result = run_binary(binary, args)

    if not result["correct"]:
        raise BenchError("output check failed: " + "; ".join(result["problems"]))
    warmup, expected = expected_digests(args.digests, args.scale, args.workload, args.seed)
    if result["warmup_digest"] != warmup:
        raise BenchError(f"output check failed: warm-up digest {result['warmup_digest']} "
                         f"!= expected {warmup} ({args.scale}/{args.workload})")
    if expected is not None and result["report_digest"] != expected:
        raise BenchError(f"output check failed: report digest {result['report_digest']} "
                         f"!= expected {expected} ({args.scale}/{args.workload}, "
                         f"seed {args.seed})")
    metrics = result["metrics"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise BenchError(f"metric {m['name']} [{m['unit']}] missing or has another unit")

    host = host_stamp(result)
    check = "matches expected digest" if expected else "not checked (not the default seed)"
    print("host " + json.dumps(host, sort_keys=True))
    print(f"workload {args.workload} scale {args.scale} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} trials in {result['rounds']} rounds of "
          f"{result['trials_per_round']} ({result['scenarios']} scenarios, "
          f"{result['threads']} threads)")
    print(f"warm-up {result['warmup_digest']}: matches expected digest")
    print(f"report {result['report_digest']} ({result['report_bytes']} bytes): {check}")
    for name, m in metrics.items():
        samples = f" (n={m['samples']})" if m["samples"] else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{samples}")

    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "scale": args.scale, "host": host,
                  "attempted": result["attempted"], "failed": result["failed"],
                  "report_digest": result["report_digest"], "metrics": metrics}
        with open(args.record, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))


# --- compare -------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(parent, change, bound, lower_is_better):
    """The verdict for one metric on one workload. `parent` and `change` are
    per-pair values, index i of both from pair i."""
    n = len(parent)
    better = (lambda c, p: c < p) if lower_is_better else (lambda c, p: c > p)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    p_iqr = p_q3 - p_q1
    spread = max(p_iqr / p_med if p_med else 0.0,
                 (c_q3 - c_q1) / c_med if c_med else 0.0)
    worse = (c_med - p_med) / p_med if p_med else 0.0
    if not lower_is_better:
        worse = -worse
    row = {"pairs": n, "wins": wins, "parent": [p_q1, p_med, p_q3],
           "change": [c_q1, c_med, c_q3], "spread": spread, "worse_by": worse}
    if n < MIN_PAIRS:
        row["verdict"] = f"insufficient pairs ({n} < {MIN_PAIRS})"
    elif wins >= 0.9 * n and better(c_med, p_med) and abs(c_med - p_med) > p_iqr:
        row["verdict"] = "gain"
    elif spread > bound:
        if all(better(c, p) for c in change for p in parent):
            row["verdict"] = "no regression (every change run better)"
        else:
            row["verdict"] = f"unresolved (spread {spread:.3f} > bound {bound})"
    elif worse > bound:
        row["verdict"] = "regression"
    else:
        row["verdict"] = "no regression"
    return row


def evaluate(records, spec):
    """Applies the rule to every (workload, end-to-end metric); returns rows."""
    rows = []
    for workload in sorted({r["workload"] for r in records}):
        sides = {}
        for r in records:
            if r["workload"] == workload and not r["trace"]:
                sides.setdefault(r["side"], {})[r["pair"]] = r
        parent, change = sides.get("parent", {}), sides.get("change", {})
        pairs = sorted(set(parent) & set(change))
        hosts = {tuple(r["host"][k] for k in HOST_IDENTITY)
                 for r in list(parent.values()) + list(change.values())}
        differ = [i for i in pairs
                  if parent[i]["report_digest"] != change[i]["report_digest"]]
        rows.append({"workload": workload, "metric": "report", "pairs": len(pairs),
                     "verdict": f"reports DIFFER in pairs {differ}" if differ
                                else "reports identical"})
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [parent[i]["metrics"][name]["value"] for i in pairs]
            c = [change[i]["metrics"][name]["value"] for i in pairs]
            if not pairs:
                row = {"pairs": 0, "verdict": "no pairs"}
            else:
                row = judge(p, c, m["bound"], m["better"] == "lower")
                if len(hosts) > 1:
                    row["verdict"] = "no call: host stamps differ"
            row.update(workload=workload, metric=name, unit=m["unit"], bound=m["bound"])
            rows.append(row)
    return rows


def print_rows(rows):
    print(f"{'workload':<13} {'metric':<14} {'parent q1/med/q3':<28} "
          f"{'change q1/med/q3':<28} {'wins':>6}  verdict")
    for r in rows:
        if "parent" not in r:
            print(f"{r['workload']:<13} {r['metric']:<14} {'':<28} {'':<28} {'':>6}  {r['verdict']}")
            continue
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
        print(f"{r['workload']:<13} {r['metric']:<14} {fmt(r['parent']):<28} "
              f"{fmt(r['change']):<28} {r['wins']:>3}/{r['pairs']:<2}  {r['verdict']}")


def compare(args):
    """Runs both checkouts' benchmarks on every workload for run_seconds, in
    alternating order, seed DEFAULT_SEED + i for pair i; each checkout
    builds into its own .bench_build. Records go to
    <build dir>/compare/records.jsonl."""
    spec = load_benchmark()
    out_dir = build_dir() / "compare"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "records.jsonl"
    out.write_text("")
    last = out_dir / "last.jsonl"
    records = []
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in WORKLOADS:
            for side in order:
                checkout = Path(getattr(args, side)).resolve()
                last.unlink(missing_ok=True)
                cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
                       "--workload", workload, "--seed", str(DEFAULT_SEED + i),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0",
                       "--record", str(last)]
                log(f"pair {i} {side} {workload}")
                r = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.DEVNULL)
                if r.returncode != 0:
                    raise BenchError(f"{side} run failed: {' '.join(cmd)}")
                record = json.loads(last.read_text().splitlines()[-1])
                record.update(side=side, pair=i)
                records.append(record)
                with open(out, "a") as f:
                    f.write(json.dumps(record, sort_keys=True) + "\n")
    log(f"records written to {out}")
    rows = evaluate(records, spec)
    print_rows(rows)
    bad = any(r["verdict"] == "regression" or "DIFFER" in r["verdict"] for r in rows)
    return 1 if bad else 0


# --- self-test -----------------------------------------------------------------

def selftest(args):
    spec = load_benchmark()
    me = [sys.executable, str(Path(__file__).resolve())]
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)
        log(("ok    " if ok else "FAIL  ") + what)

    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = me + ["--workload", workload, "--seed", str(DEFAULT_SEED),
                        "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
            r = subprocess.run(cmd, capture_output=True, text=True)
            what = f"{workload} trace {trace}"
            expect(r.returncode == 0, f"{what}: exits 0")
            if r.returncode != 0:
                log(r.stderr[-2000:])
                continue
            lines = r.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            expect(sorted(last) == ["attempted", "correct", "failed", "metrics"],
                   f"{what}: result has exactly correct/attempted/failed/metrics")
            expect(last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1,
                   f"{what}: correct, no failed trials")
            names = spec["per_layer"] if trace else spec["end_to_end"]
            for m in names:
                got = last["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"]
                       and isinstance(got["value"], (int, float)),
                       f"{what}: {m['name']} emitted with unit {m['unit']}")
                expect(any(l.startswith(f"  {m['name']} = ") and f" {m['unit']}" in l
                           for l in lines),
                       f"{what}: {m['name']} printed by name with its unit")
            expect(len(last["metrics"]) == len(names), f"{what}: no extra metrics")

    # A doctored digest must fail the output check and print no timings:
    # the window report's at the default seed, the warm-up's at any seed.
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    for kind, seed in (("report", DEFAULT_SEED), ("warmup", DEFAULT_SEED + 1)):
        digests = json.loads(DIGESTS.read_text())
        real = digests[kind]["tiny"]["table2"]
        digests[kind]["tiny"]["table2"] = real[:-1] + ("0" if real[-1] != "0" else "1")
        doctored = bdir / "doctored_digests.json"
        doctored.write_text(json.dumps(digests))
        r = subprocess.run(me + ["--workload", "table2", "--seed", str(seed),
                                 "--seconds", "1", "--trace", "0", "--scale", "tiny",
                                 "--digests", str(doctored)],
                           capture_output=True, text=True)
        what = f"doctored {kind} digest, seed {seed}"
        expect(r.returncode != 0, f"{what}: exits non-zero")
        expect(" = " not in r.stdout and "{" not in r.stdout, f"{what}: prints no timings")

    # The comparison rule on synthetic run sets.
    def records(side, values, host="h"):
        out = []
        for i, v in enumerate(values):
            metrics = {m["name"]: {"value": v, "unit": m["unit"]} for m in spec["end_to_end"]}
            h = {k: host for k in HOST_IDENTITY}
            out.append({"workload": "w", "trace": 0, "side": side, "pair": i,
                        "host": h, "metrics": metrics, "report_digest": "d"})
        return out

    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.5 for v in base]

    def verdict(parent, change, metric="trial_ms_mean", **kw):
        rows = evaluate(records("parent", parent) + records("change", change, **kw), spec)
        return next(r["verdict"] for r in rows if r["metric"] == metric)

    expect(verdict(base, faster) == "gain", "compare: 10/10 faster pairs is a gain")
    expect(verdict(base, slower) == "regression", "compare: 1.5x slower is a regression")
    expect(verdict(base, base) == "no regression", "compare: identical sets: no regression")
    expect(verdict(base[:9], faster[:9]).startswith("insufficient"),
           "compare: 9 pairs are insufficient")
    expect(verdict(base, slower, host="other").startswith("no call"),
           "compare: different host stamps: no call")
    noisy = [100.0, 160.0, 70.0, 130.0, 90.0, 150.0, 60.0, 140.0, 80.0, 120.0]
    expect(verdict(base, noisy).startswith("unresolved"),
           "compare: spread above the bound is unresolved")

    if failures:
        log(f"selftest: {len(failures)} check(s) failed")
        return 1
    log("selftest: all checks passed")
    return 0


# --- entry -----------------------------------------------------------------------

def main(argv):
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("--parent", required=True, help="checkout of the parent commit")
        p.add_argument("--change", required=True, help="checkout of the change")
        p.add_argument("--pairs", type=int, default=MIN_PAIRS)
        return compare(p.parse_args(argv[1:]))
    if argv and argv[0] == "selftest":
        return selftest(argparse.ArgumentParser(prog="run.py selftest").parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--digests", default=str(DIGESTS), help="expected report digests")
    p.add_argument("--record", help="append the full run record (JSON line) to this file")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    bench(args)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
