"""The benchmark's own checks, on the smallest run that reaches every phase.

* the span wrappers leave every record byte-identical (traced vs untraced
  run, same seed);
* the seed changes the schedule (job order, step/back/seek mix, config-grid
  order) but never a per-program result;
* every metric ``BENCHMARK.json`` names is computed, and nothing else.
"""

from __future__ import annotations

import json
from collections import defaultdict

import pytest

from perfbench import run as bench
from perfbench.programs import ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def runs():
    """(seed, traced) -> report of a smoke-sized ``distinct`` run."""
    return {key: bench.run("distinct", key[0], 0.0, key[1],
                           plan=bench.SMOKE)
            for key in ((1, False), (1, True), (2, False))}


def results(report) -> dict:
    """Everything a run computed, by program / grid label (bytes)."""
    golden = {name: json.dumps(record, sort_keys=True)
              for one in report["passes"]
              for name, record in one["records"].items()}
    fleet = {label: json.dumps({k: v for k, v in record.items()
                                if k != "index"}, sort_keys=True)
             for label, record in report["fleetRecords"].items()}
    return {"golden": golden, "fleet": fleet}


def schedule(report) -> dict:
    """Per program, the requests its sessions sent, in order."""
    out = defaultdict(list)
    for program, kind, argument in report["interactive"]["schedule"]:
        out[program].append((kind, argument))
    return dict(out)


def test_every_output_checked_and_correct(runs):
    for report in runs.values():
        tally = report["tally"]
        assert tally.attempted > 0
        assert tally.failed == 0, tally.problems
        assert report["fleetRecords"]
        assert len(results(report)["golden"]) == 11


def test_tracing_leaves_records_identical(runs):
    untraced, traced = runs[(1, False)], runs[(1, True)]
    assert results(traced) == results(untraced)
    assert schedule(traced) == schedule(untraced)
    assert traced["orders"] == untraced["orders"]


def test_seed_moves_schedule_not_results(runs):
    one, two = runs[(1, False)], runs[(2, False)]
    assert one["orders"] != two["orders"]
    assert schedule(one) != schedule(two)
    assert results(one)["golden"] == results(two)["golden"]
    shared = set(results(one)["fleet"]) & set(results(two)["fleet"])
    for label in shared:
        assert results(one)["fleet"][label] == results(two)["fleet"][label]


def test_every_named_metric_emitted(runs):
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"] for m in BENCHMARK[section]}
        values = bench.metric_values(runs[(1, traced)], traced)
        assert set(values) == declared
        for name, value in values.items():
            assert isinstance(value, (int, float)), name
