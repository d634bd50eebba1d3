"""Schema checks of the substrate bench history (``repro.bench``)."""

from repro.bench import validate_history


def entry(**extra):
    base = {
        "label": "x",
        "python": "3.11.7",
        "commit": "abc1234",
        "results": {"lan_flow_churn": {"min_s": 0.02, "median_s": 0.03, "rounds": 5}},
    }
    base.update(extra)
    return base


def test_entry_with_core_count_validates():
    assert validate_history({"schema": 1, "entries": [entry(nproc=2)]}) == []


def test_entry_without_core_count_still_validates():
    assert validate_history({"schema": 1, "entries": [entry()]}) == []


def test_non_integer_core_count_is_rejected():
    problems = validate_history({"schema": 1, "entries": [entry(nproc="2")]})
    assert problems == ["entries[0].nproc must be an integer"]
