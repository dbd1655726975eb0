"""finsemi benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its src/.
Workloads: corpus_sweep, word_pairs, omega_pairs, fresh_tables (see
workloads.py and BENCHMARK.json for why each exists).

Every measurement happens in a fresh child interpreter (worker.py), one
at a time, so that memos start cold as they do for a CLI user.  With
--trace 0, TIMED_CHILDREN children each set up and measure an equal share
of the seconds, each on inputs of its own seed derived from the run's;
their decisions are pooled for the end-to-end metrics,
and setup_s is the median of their set-up times, so that set-up and the
timed phase sample the same stretch of the machine's time.  Every time
is scaled to a fixed reference speed of the machine, measured between
inputs by a reference burst (see worker.py), because the machine's own
speed drifts by up to two-fold over a run.  With
--trace 1 an untraced child and a traced child each measure half of the
seconds; the traced child's per-layer metrics (set-up included) are
printed with trace.overhead_frac, and its spans are written under
.bench_out/.

Each decision is checked against an independent oracle, and the verdict
tally of the first inputs is compared with tallies.json when that file
records the workload and seed.  The metric names and units are those of
BENCHMARK.json.  The last line of output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  The exit code is 0 when the run is
correct, 1 when it is not, and 2 when it cannot run.
"""

import argparse
import base64
import json
import os
import platform
import statistics
import subprocess
import sys
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
TIMED_CHILDREN = 4
CHILD_SEED_STRIDE = 100_000
CHILD_TIMEOUT_S = 75


def run_child(workload, seed, seconds, *flags):
    """One worker interpreter; returns its JSON result or raises."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class ChildFailed(Exception):
    pass


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def git_sha():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def context():
    """Run context, recorded and never gated on."""
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "git_sha": git_sha(),
            "src_lines": src_lines()}


def recorded_tally(workload, seed):
    """The recorded tally for this workload and seed, or None.  A tally
    recorded under "*" holds for every seed (the seed only reorders)."""
    try:
        recorded = json.loads((BENCH / "tallies.json").read_text())
    except FileNotFoundError:
        return None
    per_seed = recorded.get(workload, {})
    return per_seed.get(str(seed), per_seed.get("*"))


def check(result):
    """Print a run's correctness lines; True when it is correct."""
    name, seed = result["workload"], result["seed"]
    ok = result["failed"] == 0
    print(f"{name} seed {seed}: failed_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']}), unknown_frac "
          f"{result['unknown'] / result['attempted']:.6g}")
    for message, count in result["errors"].items():
        print(f"  error x{count}: {message}")
    expected = recorded_tally(name, seed)
    if expected is None:
        print("  tally: none recorded for this seed")
    elif expected == result["tally"]:
        print("  tally: matches the recorded one")
    else:
        print(f"  tally {json.dumps(result['tally'], sort_keys=True)}")
        print(f"  tally: DIFFERS from the recorded {json.dumps(expected, sort_keys=True)}")
        ok = False
    return ok


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def pooled(children):
    """Throughput and latency percentiles over the decisions of the given
    children.  Throughput counts only the time spent inside the library."""
    lat = array("d")
    for child in children:
        lat.frombytes(base64.b64decode(child["latencies"]))
    lat = sorted(lat)
    return {"throughput_ops_s": len(lat) / sum(lat),
            "op_p50_ms": 1000 * percentile(lat, 50),
            "op_p99_ms": 1000 * percentile(lat, 99),
            "samples": len(lat), "busy_s": sum(lat)}


def end_to_end(workload, seed, seconds):
    # Child k draws its inputs from seed + k * CHILD_SEED_STRIDE, so that a
    # run measures four times as many distinct inputs; the tally is
    # recorded for the first child's seed.
    children = [run_child(workload, seed + k * CHILD_SEED_STRIDE, seconds / TIMED_CHILDREN)
                for k in range(TIMED_CHILDREN)]
    ok = all([check(child) for child in children])
    values = pooled(children)
    opened = sum(c["open_attempted"] for c in children)
    values["decided_frac"] = 1 - sum(c["open_unknown"] for c in children) / opened
    values["peak_rss_mb"] = max(c["peak_rss_mb"] for c in children)
    values["setup_s"] = statistics.median(c["setup_s"] for c in children)
    print(f"  {len(children)} children: {sum(c['inputs'] for c in children)} inputs, "
          f"{values['samples']} decisions in {sum(c['wall_s'] for c in children):.2f} s "
          f"of which {sum(c['busy_raw_s'] for c in children):.2f} s inside the library, "
          f"{values['busy_s']:.2f} s at the reference speed")
    print("  machine speed / reference speed by child: "
          + " ".join(f"{c['speed']:.3f}" for c in children)
          + "; raw set-up s: " + " ".join(f"{c['setup_raw_s']:.3f}" for c in children))
    print(f"  latency samples {values['samples']}, {values['samples'] // 100} beyond p99; "
          f"decided_frac over {opened} decisions; setup samples {len(children)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    attempted = sum(c["attempted"] for c in children)
    return ok, attempted, sum(c["failed"] for c in children), metrics


def per_layer(workload, seed, seconds):
    plain = run_child(workload, seed, seconds / 2)
    traced = run_child(workload, seed, seconds / 2, "--trace")
    ok = check(plain) & check(traced)
    values = dict(traced["per_layer"])
    values["trace.overhead_frac"] = (
        1 - pooled([traced])["throughput_ops_s"] / pooled([plain])["throughput_ops_s"])
    print(f"  spans written to .bench_out/spans-{workload}-{seed}.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in SPEC["per_layer"]}
    return (ok, plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"], metrics)


def main(argv=None):
    ap = argparse.ArgumentParser(description="finsemi benchmark: one run of one workload")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "finsemi" / "__init__.py").is_file():
        print(f"no finsemi sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("--seconds must be in (0, 60]", file=sys.stderr)
        return 2
    print("context " + json.dumps(context()))
    measure = per_layer if args.trace else end_to_end
    try:
        ok, attempted, failed, metrics = measure(args.workload, args.seed, args.seconds)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 2
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
