"""Tests of the benchmark itself (not part of the library's tier-1 suite):

    python3 -m pytest -q bench

They check that the oracles catch a wrong decision, that times are scaled
by the reference bursts nearest to them, that tracing patches
every binding, that each per-layer metric is non-zero on the workload it
is mapped to, that each workload has the property it was chosen for, and
that BENCHMARK.json names the workloads that workloads.py defines.
"""

import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import run
import tracing
import worker

worker.import_library()

from finsemi import dk  # noqa: E402
from finsemi import factorization as fz  # noqa: E402
from finsemi import malcev as mv  # noqa: E402
from finsemi import pseudovarieties as pv  # noqa: E402

BENCH = Path(__file__).resolve().parent


def _flip_bool(fn):
    return lambda *args, **kwargs: not fn(*args, **kwargs)


def _flip_verdict(fn):
    def wrong(*args, **kwargs):
        v = fn(*args, **kwargs)
        return pv.refuted("stub") if v.proved else pv.PROVED
    return wrong


STUBS = {
    "corpus_sweep": (mv, "malcev_member", _flip_bool),
    "word_pairs": (dk, "vdk_satisfies", _flip_verdict),
    "omega_pairs": (fz, "r_equal", lambda fn: lambda *a, **k: pv.refuted("stub")),
    "fresh_tables": (mv, "malcev_member", _flip_bool),
}


@pytest.mark.parametrize("workload", sorted(STUBS))
def test_stubbed_wrong_decision_makes_failed_frac_positive(monkeypatch, workload):
    module, attr, make = STUBS[workload]
    monkeypatch.setattr(module, attr, make(getattr(module, attr)))
    out = worker.run(workload, 0, 0)
    assert out["failed"] / out["attempted"] > 0
    assert out["tally"]["oracle:disagree"] > 0


def test_unstubbed_run_has_no_failures():
    out = worker.run("fresh_tables", 0, 0)
    assert out["failed"] == 0 and out["attempted"] > 0


def test_times_are_scaled_by_the_nearest_bursts():
    speed = worker.Speedometer()
    # the first five bursts ran at the reference speed, the last five at half of it
    speed.at = array("d", range(10))
    speed.burst = array("d", [worker.REF_S] * 5 + [2 * worker.REF_S] * 5)
    scaled = speed.scaled(speed.scales(), [0.5, 9.0, 12.0], [1.0, 1.0, 1.0])
    assert list(scaled) == [1.0, 0.5, 0.5]


def test_tracer_patches_every_binding():
    tracer = tracing.Tracer()
    modules = tracing._finsemi_modules()
    originals = {(m, a): getattr(sys.modules[f"finsemi.{m}"], a)
                 for m, a, _, _ in tracing.TARGETS}
    tracer.install()
    try:
        for fn in originals.values():
            holders = [mod.__name__ for mod in modules
                       if any(v is fn for v in vars(mod).values())]
            assert holders == [], f"{fn.__name__} still bound in {holders}"
        # the copies made by `from .x import f` are covered too
        assert fz.canon is not originals[("pseudovarieties", "canon")]
        assert fz.proves_equal_over_S is not originals[
            ("pseudovarieties", "proves_equal_over_S")]
        assert dk.word_problem_equal is not originals[
            ("pseudovarieties", "word_problem_equal")]
        assert mv.member is not originals[("pseudovarieties", "member")]
    finally:
        tracer.uninstall()
    for (m, a), fn in originals.items():
        assert getattr(sys.modules[f"finsemi.{m}"], a) is fn


# Each per-layer metric and the workloads on which it must be non-zero.
BOTH_TABLES = ("corpus_sweep", "fresh_tables")
MAPPED = {
    "semigroups.": BOTH_TABLES,
    "malcev.": BOTH_TABLES,
    "terms.satisfies.": BOTH_TABLES + ("omega_pairs",),
    "terms.evaluate.": BOTH_TABLES + ("omega_pairs",),
    "terms.prefix_word.": ("word_pairs",),
    "dk.": ("word_pairs",),
    "pseudovarieties.word_problem_equal.": ("word_pairs",),
    "pseudovarieties.member.": BOTH_TABLES,
    "pseudovarieties.": ("omega_pairs",),
    "factorization.": ("omega_pairs",),
    "corpus.": tuple(run.WORKLOADS),
    "languages.": ("fresh_tables",),
    "trace.": tuple(run.WORKLOADS),
}
# No generated omega pair needs more factorization steps than the cap, so
# this share reads 0 at the baseline; it must still be reported.
MAY_BE_ZERO = {"factorization.ilbf_term.unknown_frac"}


def mapped_workloads(metric):
    prefix = max((p for p in MAPPED if metric.startswith(p)), key=len)
    return MAPPED[prefix]


@pytest.fixture(scope="module")
def traced():
    """Per-layer metrics of short traced runs, on the default seed and
    one other, each in a fresh interpreter."""
    out = {}
    for workload in run.WORKLOADS:
        for seed in (0, 1):
            res = run.run_child(workload, seed, 2, "--trace")
            assert res["failed"] == 0
            out[workload, seed] = res["per_layer"]
    return out


def test_every_per_layer_metric_is_nonzero_where_mapped(traced):
    for (workload, seed), metrics in traced.items():
        assert set(metrics) == set(tracing.PER_LAYER) - {"trace.overhead_frac"}
        for name, value in metrics.items():
            if workload in mapped_workloads(name) and name not in MAY_BE_ZERO:
                assert value > 0, (workload, seed, name)


def self_time_share(metrics, layers):
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    part = sum(v for k, v in metrics.items()
               if k.endswith(".self_s") and k.split(".")[0] in layers)
    return part / total


def green_per_table(metrics):
    return metrics["semigroups.green.calls"] / metrics["semigroups.green.distinct_tables"]


@pytest.mark.parametrize("seed", (0, 1))
def test_workload_properties(traced, seed):
    # tables are reused on corpus_sweep, seen about once on fresh_tables
    assert green_per_table(traced["corpus_sweep", seed]) > 20
    assert green_per_table(traced["fresh_tables", seed]) < 10
    # the table kernel idles on word_pairs, the window path on corpus_sweep
    assert self_time_share(traced["word_pairs", seed], {"semigroups", "malcev"}) < 0.05
    assert self_time_share(traced["corpus_sweep", seed], {"dk", "factorization"}) < 0.05


def test_benchmark_json_names_the_workloads():
    import workloads
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "word_pairs", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
