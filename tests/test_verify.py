import tracemalloc

import pytest

from gammagenus import cli, verify
from gammagenus.verify import SUITES, run_suite


def test_suite_names():
    assert SUITES == ("symbolic", "words", "numeric")
    # the CLI spells them out so that parsing does not import the checks
    assert cli.SUITES == SUITES


@pytest.mark.parametrize("name", SUITES)
def test_each_suite_passes(name):
    report = run_suite(name)
    assert report.suite == name
    assert report.passed
    assert len(report.checks) >= 8
    failing = [c.id for c in report.checks if not c.passed]
    assert failing == []


def test_all_concatenates():
    combined = run_suite("all")
    assert combined.suite == "all"
    total = sum(len(run_suite(n).checks) for n in SUITES)
    assert len(combined.checks) == total


def test_report_json_shape():
    report = run_suite("words")
    data = report.to_json()
    assert data["suite"] == "words"
    assert data["overall"] == "pass"
    for check in data["checks"]:
        assert {"id", "description", "status"} <= set(check)
        assert check["status"] in ("pass", "fail")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_crashed_check_is_a_failed_check(monkeypatch):
    def crash(cid, desc):
        raise RuntimeError("boom")

    monkeypatch.setattr(
        verify, "CHECKS", (("words", "words.crash", "always raises", crash),)
    )
    report = run_suite("words")
    assert [(c.id, c.status) for c in report.checks] == [("words.crash", "fail")]
    assert "boom" in report.checks[0].actual
    assert run_suite("numeric").checks == []


@pytest.mark.parametrize(
    "error, code",
    [
        (MemoryError, cli.EXIT_INTERNAL),
        (RecursionError, cli.EXIT_INTERNAL),
        (ZeroDivisionError, cli.EXIT_VERIFY_FAILED),
        (AssertionError, cli.EXIT_VERIFY_FAILED),
    ],
)
def test_out_of_resources_is_an_internal_error(monkeypatch, capsys, error, code):
    # a check that runs out of memory or stack has not failed: the process has
    def crash(cid, desc):
        raise error("boom")

    monkeypatch.setattr(
        verify, "CHECKS", (("words", "words.crash", "always raises", crash),)
    )
    assert cli.main(["verify", "--suite", "words"]) == code
    out, err = capsys.readouterr()
    if code == cli.EXIT_INTERNAL:
        assert err.count("\n") == 1
        assert error.__name__ in err
    else:
        assert err == ""
        assert "[FAIL] words.crash: always raises" in out


def test_check_ids_unique():
    report = run_suite("all")
    ids = [c.id for c in report.checks]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("name", ["_check_gamma_limit", "_check_pi2_series"])
def test_constant_checks_sum_in_fixed_memory(name):
    # tracemalloc sees numpy buffers; load numpy first so its import is not
    # counted against the check
    import numpy  # noqa: F401

    tracemalloc.start()
    try:
        check = getattr(verify, name)(name, "")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.passed
    assert peak < 4_000_000
