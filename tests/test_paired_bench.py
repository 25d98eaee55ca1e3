"""The summary of ``tests/paired_bench.py``, on canned ``bench/run.py`` lines:
no process is started and nothing is timed."""
from __future__ import annotations

import json

import pytest

import paired_bench
from cuspidal.rationals import Rat

DIRECTIONS = {"requests_per_kref": "higher", "latency_ref.p50": "lower",
              "correct_frac": "higher"}


def _run_line(rate: float, p50: float, correct: float = 1.0, ok: bool = True) -> str:
    """The stdout of one run: notes, then its JSON object on the last line."""
    metrics = {"requests_per_kref": {"value": rate, "unit": "req/kref"},
               "latency_ref.p50": {"value": p50, "unit": "ref"},
               "correct_frac": {"value": correct, "unit": "fraction"}}
    result = {"correct": ok, "attempted": 720, "failed": 0 if ok else 3, "metrics": metrics}
    return "# bs-roots: 720 requests, 72 beyond p90\n" + json.dumps(result) + "\n"


BASE = [(7000, 0.130), (7200, 0.128), (6800, 0.133), (7100, 0.129), (6900, 0.131)]
CHANGE = [(9000, 0.100), (8800, 0.104), (6800, 0.134), (9100, 0.099), (8900, 0.101)]


def test_read_run_takes_the_last_line_and_refuses_a_wrong_answer():
    assert paired_bench.read_run(_run_line(7000, 0.13)) == {
        "requests_per_kref": 7000, "latency_ref.p50": 0.13, "correct_frac": 1.0}
    with pytest.raises(RuntimeError, match="3 of 720 requests failed"):
        paired_bench.read_run(_run_line(7000, 0.13, ok=False))


def test_parse_seeds():
    assert paired_bench.parse_seeds("80-89") == list(range(80, 90))
    assert paired_bench.parse_seeds("80,83,85-86") == [80, 83, 85, 86]


def test_summary_of_canned_runs():
    """Medians of both sides, the base's quartiles (inclusive method) and
    range, whether the change's median clears that range, and the pairs
    that the change wins, each in its metric's direction; a tie wins
    nothing."""
    base = [paired_bench.read_run(_run_line(*run)) for run in BASE]
    change = [paired_bench.read_run(_run_line(*run)) for run in CHANGE]
    summary = paired_bench.summarize(DIRECTIONS, base, change)
    rate = summary["requests_per_kref"]
    assert rate["base"] == {"median": 7000, "q1": 6900, "q3": 7100}
    assert rate["change"] == {"median": 8900}
    assert rate["base_iqr"] == 200 and rate["beyond_iqr"]
    assert (rate["change_wins"], rate["pairs"]) == (4, 5)
    p50 = summary["latency_ref.p50"]
    assert p50["base"]["median"] == 0.130 and p50["change"]["median"] == 0.101
    assert p50["beyond_iqr"] and p50["change_wins"] == 4
    correct = summary["correct_frac"]
    assert correct["base_iqr"] == 0 and not correct["beyond_iqr"]
    assert correct["change_wins"] == 0
    lines = paired_bench.render(summary)
    assert lines[0] == ("requests_per_kref (higher is better): base 7000 (IQR 6900..7100), "
                        "change 8900, change/base 1.271, beyond the base IQR: yes, "
                        "change wins 4/5")
    assert len(lines) == 3


def test_skeleton_names_the_host_and_keeps_every_run():
    base = [paired_bench.read_run(_run_line(*run)) for run in BASE]
    change = [paired_bench.read_run(_run_line(*run)) for run in CHANGE]
    summary = paired_bench.summarize(DIRECTIONS, base, change)
    data = paired_bench.skeleton("bs-roots", [80, 81, 82, 83, 84], 12, base, change, summary)
    assert set(data["host"]) == {"rat_backend", "python", "cores"}
    assert data["host"]["rat_backend"] == f"{Rat.__module__}.{Rat.__qualname__}"
    runs = data["end_to_end"]
    assert (runs["base"], runs["change"], runs["summary"]) == (base, change, summary)
    assert "--seconds 12 " in runs["how"]
    json.dumps(data)
