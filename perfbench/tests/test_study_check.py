"""The study's artifact check: cold, warm and reference digests must agree."""

from perfbench import check

NAMES = ["fig1", "table2"]


def _output(fig1="curve\nof coverage", table2="| a | b |"):
    rule = check.SEPARATOR
    return f"{rule}\n{fig1}\n{rule}\n{table2}\n"


def test_output_splits_into_one_artifact_per_experiment():
    artifacts = check.split_artifacts(_output(), NAMES)
    assert artifacts == {"fig1": "curve\nof coverage", "table2": "| a | b |"}
    assert check.split_artifacts(_output(), NAMES + ["fig2"]) is None


def test_matching_runs_pass():
    cold = check.digests(check.split_artifacts(_output(), NAMES))
    warm = check.digests(check.split_artifacts(_output(), NAMES))
    assert check.artifact_failures(NAMES, cold, [warm], reference=dict(cold)) == {}


def test_a_tampered_artifact_fails_against_the_reference():
    reference = check.digests(check.split_artifacts(_output(), NAMES))
    tampered = check.digests(check.split_artifacts(_output(table2="| a | c |"), NAMES))
    failures = check.artifact_failures(NAMES, tampered, [tampered], reference)
    assert list(failures) == ["table2"]


def test_a_warm_restart_that_prints_something_else_fails():
    cold = check.digests(check.split_artifacts(_output(), NAMES))
    warm = check.digests(check.split_artifacts(_output(fig1="curve"), NAMES))
    assert list(check.artifact_failures(NAMES, cold, [cold, warm], None)) == ["fig1"]


def test_a_missing_cold_run_fails_every_experiment():
    assert sorted(check.artifact_failures(NAMES, None, [], None)) == NAMES
