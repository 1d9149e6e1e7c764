"""Tests of the benchmark itself: generators, checker, tracer, contract.

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import (  # noqa: E402
    DIGEST_PASSES,
    ORACLE_MAX_LETTERS,
    TL_MAX_STRANDS,
    WORKLOADS,
    load_digests,
)

CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# Counts that must repeat exactly across traced runs of one seed.
EXACT = [
    "tl.compose_calls",
    "tl.pairing_init_calls",
    "tl.element_mul_calls",
    "laurent.mul_calls",
    "laurent.mul_term_pairs",
    "bracket.states_visited",
    "fibrep.tl_generator_matrix_calls",
    "fibrep.matmul_flops_computed",
]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_seeded_and_capped(name):
    workload = WORKLOADS[name]
    for seed in range(40):
        for k in range(3):
            items = workload.pass_items(seed, k)
            assert items == workload.pass_items(seed, k)
            for item in items:
                if item["kind"] in ("jones", "cli"):
                    assert item["n"] <= TL_MAX_STRANDS
                if item["kind"] == "cli":
                    assert len(item["word"]) <= ORACLE_MAX_LETTERS
    assert workload.pass_items(1, 0) != workload.pass_items(2, 0) or name == "fib_verify"


def test_caps_are_enforced():
    from workloads import cli_item, jones_item

    with pytest.raises(ValueError):
        jones_item(TL_MAX_STRANDS + 1, [1])
    with pytest.raises(ValueError):
        cli_item(3, [1] * (ORACLE_MAX_LETTERS + 1))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checker_flags_negative_controls(name):
    workload = WORKLOADS[name]
    items = workload.pass_items(7, 0)[:3]
    with run.Child(workload.warmup) as child:
        replies = [(item, child.call({"op": "item", "id": i, "item": item}))
                   for i, item in enumerate(items)]
        child.stop()
    for item, reply in replies:
        assert workload.check(item, reply["out"]) is None
        assert workload.check(item, workload.corrupt(reply["out"])) is not None
    assert run.controls_flagged(workload, replies)


def test_digests_cover_the_first_passes():
    digests = load_digests()
    for name, workload in WORKLOADS.items():
        assert len(digests[name]) == DIGEST_PASSES * len(workload.pass_items(0, 0))


def test_tail_percentile_leaves_ten_beyond():
    for n in range(20, 400):
        p = run.tail_percentile(n)
        assert n - math.ceil(p * n / 100) >= run.TAIL_BEYOND
        assert p == 99 or n - math.ceil((p + 1) * n / 100) < run.TAIL_BEYOND


def test_missing_sources_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", BENCH / "no-such-dir")
    assert run.main(["--workload", "tl_long", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    workload = WORKLOADS[name]
    first, second = (run.measure_traced(workload, 3, 0.0) for _ in range(2))
    assert first.correct and second.correct
    assert set(first.metrics) == {m["name"] for m in CONTRACT["per_layer"]}
    for metric in EXACT:
        assert first.metrics[metric] == second.metrics[metric], metric
