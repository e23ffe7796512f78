"""tools/bench_pairs.py's comparison of parent and change runs."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(**metrics):
    """Run dicts as perfbench/run.py writes them, one per position of each list."""
    count = len(next(iter(metrics.values())))
    return [{"metrics": {k: {"value": v[i], "unit": "us"} for k, v in metrics.items()}}
            for i in range(count)]


def test_compare_marks_a_metric_unresolved_when_a_spread_exceeds_its_bound(bench_pairs):
    spec = {"end_to_end": [{"name": name, "unit": "us", "better": better, "bound": 0.25}
                           for name, better in (("tight", "lower"), ("noisy", "lower"),
                                                ("apart", "lower"), ("rate", "higher"))]}
    parent = _runs(tight=[10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0],
                   noisy=[10.0, 14.0, 7.0, 10.0, 13.0, 8.0, 10.0, 15.0, 6.0, 10.0],
                   apart=[10.0, 14.0, 7.0, 10.0, 13.0, 8.0, 10.0, 15.0, 6.0, 10.0],
                   rate=[1.0, 1.4, 0.7, 1.0, 1.3, 0.8, 1.0, 1.5, 0.6, 1.0])
    change = _runs(tight=[10.3, 10.4, 10.2, 10.3, 10.5, 10.1, 10.3, 10.4, 10.2, 10.3],
                   noisy=[9.8, 13.0, 7.5, 9.9, 12.0, 8.5, 10.1, 14.0, 6.5, 9.7],
                   apart=[4.0, 5.5, 3.0, 4.0, 5.2, 3.2, 4.0, 5.9, 2.5, 4.0],
                   rate=[1.6, 2.2, 1.55, 1.6, 2.0, 1.7, 1.6, 2.4, 1.52, 1.6])
    table = bench_pairs.compare(spec, parent, change)
    # spreads within the bound: resolved, and a 3% loss is within it
    assert table["tight"]["parent"]["spread"] < 0.25 and table["tight"]["change"]["spread"] < 0.25
    assert not table["tight"]["unresolved"] and table["tight"]["within_bound"]
    # wide spreads and runs that interleave: a median within the bound is unresolved
    assert table["noisy"]["parent"]["spread"] > 0.25
    assert table["noisy"]["within_bound"] and table["noisy"]["unresolved"]
    # wide spreads, but every change run beats every parent run, either direction
    for name in ("apart", "rate"):
        assert table[name]["parent"]["spread"] > 0.25 and table[name]["change"]["spread"] > 0.25
        assert not table[name]["unresolved"] and table[name]["gain"]
    line = bench_pairs.verdict("w", table, {"src_lines": {"parent": 2, "change": 1}})
    assert line == ("w: gain in apart, rate; out of bound: none; unresolved: noisy; "
                    "src_lines 2 -> 1")
