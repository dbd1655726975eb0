"""Record the verdict tallies that bench/run.py compares against.

    python3 bench/record_tallies.py

For every workload and seed 0..TALLY_SEEDS-1, a fresh worker visits only
the tally inputs (--seconds 0) and its tally of verdicts (proved/refuted/
unknown, true/false, per decision kind) is written to bench/tallies.json.  The
seed only reorders corpus_sweep's full pass, so its tally is recorded once
under "*" after checking that two seeds agree.  Re-record only when a
change is meant to alter verdicts, and say so where the change is
described.
"""

import json

from run import BENCH, WORKLOADS, run_child

TALLY_SEEDS = 32


def main():
    out = {}
    for workload in WORKLOADS:
        if workload == "corpus_sweep":
            first, second = (run_child(workload, seed, 0)["tally"] for seed in (0, 1))
            if first != second:
                raise SystemExit(f"corpus_sweep tallies depend on the seed: {first} {second}")
            out[workload] = {"*": first}
        else:
            out[workload] = {str(seed): run_child(workload, seed, 0)["tally"]
                             for seed in range(TALLY_SEEDS)}
        print(workload, "recorded")
    (BENCH / "tallies.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
