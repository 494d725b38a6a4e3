"""BENCHMARK.json names exactly the metrics the benchmark prints."""

import json
import re
from pathlib import Path

from perfbench import layers
from perfbench.run import END_TO_END, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metrics_match_what_the_runs_print():
    bench = _bench()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(layers.METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_names_units_and_bounds_are_well_formed():
    bench = _bench()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])


def test_the_per_layer_experiments_are_the_ones_repro_all_runs():
    from perfbench.study import experiment_names

    assert experiment_names() == list(layers.EXPERIMENTS)
