"""One run of one workload in a fresh interpreter, so that the library's
memos start cold and no state carries over between runs.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace]

Set-up (import, corpus enumeration, input generation, warm-up of the lazy
banks) is timed from the start of this script.  The timed phase is a
closed loop: one caller issues each decision after the previous one
returned.  It runs for S seconds, then on to the end of the current
granule of inputs (five products and a regex on fresh_tables), and
always over at least the workload's tally inputs, whose verdicts are
tallied for comparison with the recorded tallies.  With --seconds 0 it
runs only those.  A traced run writes its kept spans to
.bench_out/spans-NAME-N.json.  The last line of output is a JSON object.

Times are reported at a fixed reference speed.  The host this benchmark
was written on changed speed by up to two-fold in phases lasting seconds
to minutes, and the library's times moved with those of a fixed piece of
pure-Python work, the reference burst, timed between inputs every
REF_EVERY_S.  Each decision's latency, and the set-up time, is scaled by
REF_S over the burst time measured nearest to it, so a time reads as it
would on a machine where the burst takes REF_S.  The burst is frozen in
this file and calls nothing in the library, so a change to the library
moves the scaled times as much as the raw ones.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import base64  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from bisect import bisect_left  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

REF_S = 0.001  # the reference burst's time at the reference speed
REF_EVERY_S = 0.25
REF_NEAREST = 5  # bursts whose median scales a time
_REF_RNG = random.Random(1)
_REF_TABLE = [[_REF_RNG.randrange(12) for _ in range(12)] for _ in range(12)]


def reference_burst():
    """Time a fixed piece of list, set and dict work, alike in kind to the
    library's: the elements reachable from each element of a fixed table
    of order 12, six times over.  About 1 ms on a 2-vCPU Xeon VM."""
    tab, n = _REF_TABLE, len(_REF_TABLE)
    t0 = time.perf_counter()
    for _ in range(6):
        reach_of = {}
        for a in range(n):
            frontier, reach = [a], {a}
            while frontier:
                x = frontier.pop()
                for b in range(n):
                    y = tab[x][b]
                    if y not in reach:
                        reach.add(y)
                        frontier.append(y)
            reach_of[a] = frozenset(reach)
        sorted(map(len, reach_of.values()))
    return time.perf_counter() - t0


class Speedometer:
    """Reference bursts over a run, and the scale each time is given."""

    def __init__(self):
        self.at = array("d")
        self.burst = array("d")
        self.due = 0.0
        for _ in range(REF_NEAREST):
            self.sample()

    def sample(self):
        now = time.perf_counter()
        self.at.append(now)
        self.burst.append(reference_burst())
        self.due = now + REF_EVERY_S

    def tick(self):
        """Take a burst when one is due; called between inputs."""
        if time.perf_counter() >= self.due:
            self.sample()

    def scales(self):
        """REF_S over the median of the REF_NEAREST bursts nearest to each
        burst, one per burst."""
        n = len(self.burst)
        out = array("d")
        for i in range(n):
            lo = max(0, min(i - REF_NEAREST // 2, n - REF_NEAREST))
            out.append(REF_S / statistics.median(self.burst[lo:lo + REF_NEAREST]))
        return out

    def scaled(self, scales, starts, latencies):
        """Each latency scaled by the scale of the burst nearest after its
        start (the last burst for the decisions after it)."""
        at, last = self.at, len(self.at) - 1
        return array("d", (lat * scales[min(bisect_left(at, t), last)]
                           for t, lat in zip(starts, latencies)))


def import_library():
    """Import finsemi from this checkout's src/, and nowhere else."""
    if not (SRC / "finsemi" / "__init__.py").is_file():
        raise SystemExit(f"no finsemi sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import finsemi
    if Path(finsemi.__file__).resolve().parent != SRC / "finsemi":
        raise SystemExit(f"finsemi imported from {finsemi.__file__}, not {SRC}")


def label(res):
    """Verdict label for the tally: true/false, a three-valued status, or
    a factorization outcome."""
    if isinstance(res, bool):
        return "true" if res else "false"
    for attr in ("status", "outcome"):
        value = getattr(res, attr, None)
        if isinstance(value, str):
            return value
    return "done"


class Loop:
    """Issues decisions one at a time and keeps their accounting."""

    def __init__(self, tracer=None):
        from finsemi.errors import UnsupportedShape
        self.unsupported = UnsupportedShape
        self.tracer = tracer
        self.starts = array("d")
        self.latencies = array("d")
        self.attempted = 0
        self.failed = 0
        self.by_kind = Counter()  # kind -> decisions attempted
        self.unknown_by_kind = Counter()
        self.errors = Counter()
        self.tally = None

    def decide(self, kind, fn, *args, **kwargs):
        """Time one call into the library and return its result, or None
        when it raised.  UnsupportedShape is an unknown verdict; any other
        exception counts the decision as failed."""
        self.attempted += 1
        self.by_kind[kind] += 1
        with self.tracer.span("decision." + kind) if self.tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
                tag = label(res)
            except self.unsupported:
                res, tag = None, "unsupported"
            except Exception as exc:  # a failed decision must not stop the run
                res, tag = None, "error"
                self.failed += 1
                self.errors[f"{kind}: {type(exc).__name__}: {exc}"] += 1
            finally:
                elapsed = time.perf_counter() - t0
        self.starts.append(t0)
        self.latencies.append(elapsed)
        if tag in ("unknown", "unsupported"):
            self.unknown_by_kind[kind] += 1
        if self.tally is not None:
            self.tally[f"{kind}:{tag}"] += 1
        return res

    def aside(self, fn, *args):
        """Call the library outside the timed decisions and untraced: for
        oracle checks and for input selection."""
        if self.tracer:
            self.tracer.active = False
        try:
            return fn(*args)
        finally:
            if self.tracer:
                self.tracer.active = True

    def verify(self, check):
        """Run an oracle check aside; a disagreement counts the decision as
        failed."""
        try:
            ok = bool(self.aside(check))
        except Exception as exc:  # an oracle that raises is a disagreement
            ok = False
            self.errors[f"oracle: {type(exc).__name__}: {exc}"] += 1
        if not ok:
            self.failed += 1
            if self.tally is not None:
                self.tally["oracle:disagree"] += 1


def setup(name, seed):
    """Corpus enumeration, input generation and warm-up."""
    import workloads
    tables = workloads.corpus_tables()
    workload = workloads.WORKLOADS[name](seed, tables)
    workloads.warm_up()
    return workload


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, loop, seconds, speed):
    """The timed phase; returns (inputs visited, wall seconds, tally, peak
    RSS in MB).  The tally and the peak RSS are taken after the tally
    inputs, a fixed amount of work, so that neither depends on how many
    inputs the machine's speed allowed.  Reference bursts are taken
    between inputs."""
    inputs = workload.inputs(loop)
    loop.tally = Counter()
    tally = rss = None
    n = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        if n == workload.tally_inputs:
            tally, loop.tally = dict(loop.tally), None
            rss = peak_rss_mb()
        if (n >= workload.tally_inputs and n % workload.granule == 0
                and time.perf_counter() >= deadline):
            break
        item = next(inputs)
        speed.tick()
        workload.visit(loop, item)
        n += 1
    wall_s = time.perf_counter() - start
    speed.sample()
    return n, wall_s, tally, rss


def run(name, seed, seconds, tracer=None):
    """Set up and measure one workload in this process; returns a dict."""
    import_library()
    if tracer is not None:
        tracer.install()
    workload = setup(name, seed)
    setup_s = time.perf_counter() - _START
    speed = Speedometer()
    loop = Loop(tracer)
    inputs, wall_s, tally, rss = measure(workload, loop, seconds, speed)
    scales = speed.scales()
    latencies = speed.scaled(scales, loop.starts, loop.latencies)
    # decided_frac counts the kinds of decision that may come back unknown
    open_kinds = workload.open_kinds or list(loop.by_kind)
    out = {
        "workload": name, "seed": seed,
        "setup_s": setup_s * scales[0], "setup_raw_s": setup_s,
        "inputs": inputs, "wall_s": wall_s,
        "busy_raw_s": sum(loop.latencies),
        "speed": REF_S / statistics.median(speed.burst),
        "attempted": loop.attempted, "failed": loop.failed,
        "unknown": sum(loop.unknown_by_kind.values()),
        "open_attempted": sum(loop.by_kind[k] for k in open_kinds),
        "open_unknown": sum(loop.unknown_by_kind[k] for k in open_kinds),
        # seconds inside the library per decision, scaled to the
        # reference speed; the oracle checks between decisions are not
        # counted
        "latencies": base64.b64encode(latencies.tobytes()).decode(),
        "peak_rss_mb": rss,
        "tally": tally, "errors": dict(loop.errors),
    }
    if tracer is not None:
        import tracing
        out["per_layer"] = {m: tracer.value(m) for m in tracing.PER_LAYER
                            if m != "trace.overhead_frac"}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    out = run(args.workload, args.seed, args.seconds, tracer)
    if tracer is not None:
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json"
        spans.parent.mkdir(exist_ok=True)
        tracer.write_spans(spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
