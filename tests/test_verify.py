import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from gammagenus import cli, verify, words
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
    def crash():
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
        (ModuleNotFoundError, cli.EXIT_INTERNAL),
        (ZeroDivisionError, cli.EXIT_VERIFY_FAILED),
        (AssertionError, cli.EXIT_VERIFY_FAILED),
    ],
)
def test_out_of_resources_is_an_internal_error(monkeypatch, capsys, error, code):
    # a check that runs out of memory or stack, or misses a module, has not
    # failed: the process or the install has
    def crash():
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


def test_commutative_check_sees_a_bug_both_orders_share(monkeypatch):
    # once the longer word has more than three letters, every word that
    # fused two letters comes out one heavier: the table runs its rows over
    # the longer word in either order, so (u, v) and (v, u) agree on it
    real = words._stuffle_words

    def heavy_fusions(u, v):
        found, coeffs = real(u, v)
        if max(len(u), len(v)) > 3:
            n = len(u) + len(v)
            found = tuple(w if len(w) == n else w[:-1] + (w[-1] + 1,) for w in found)
        return found, coeffs

    monkeypatch.setattr(words, "_stuffle_words", heavy_fusions)
    pairs = list(product(verify._small_words(4), repeat=2))
    pair = verify.stuffle_word_pair
    assert all(pair(u, v) == pair(v, u) for u, v in pairs)
    ok, _, actual, _ = verify._check_commutative()
    assert not ok
    assert actual == "[((1,), (1, 1, 1, 1)), ((1, 1), (1, 1, 1, 1)), ((2,), (1, 1, 1, 1))]"


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
        ok = getattr(verify, name)()[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 4_000_000


@pytest.mark.parametrize("check_id", ["num.zeta2", "num.zeta22", "num.zeta62"])
def test_printed_bound_holds_the_summed_bounds(monkeypatch, check_id):
    # the bound a numeric check prints is at least the allowance it compared
    # against, the two values' summed bounds, read exactly
    allowed = []
    real_agree = verify._agree

    def agree(got, want):
        allowed.append(got.bound + want.bound)
        return real_agree(got, want)

    monkeypatch.setattr(verify, "_agree", agree)
    (check,) = [row[3] for row in verify.CHECKS if row[1] == check_id]
    ok, _, _, bound = check()
    assert ok and len(allowed) == 1
    assert Fraction(bound) >= Fraction(allowed[0])


def test_failed_checks_report_expected_actual_and_bound(monkeypatch, capsys):
    # break the inputs of one check of each kind, and crash one more
    real_zeta_even, real_zeta_gen = verify.zeta_even, verify.zeta_gen
    monkeypatch.setattr(verify, "zeta_even", lambda k: real_zeta_even(k).scaled(2))
    monkeypatch.setattr(
        verify, "zeta_gen", lambda k: real_zeta_gen(k).scaled(1 + (k == 5))
    )
    monkeypatch.setattr(
        verify, "stuffle_word_pair", lambda u, v: verify.QsymPoly.from_word(u + v)
    )

    def crash(*args):
        raise RuntimeError("boom")

    picked = ("sym.leading", "sym.m22", "words.commutative", "num.zeta22")
    checks = tuple(row for row in verify.CHECKS if row[1] in picked)
    monkeypatch.setattr(
        verify, "CHECKS", checks + (("numeric", "num.crash", "always raises", crash),)
    )
    pairs = "[((1,), (1,)), ((1,), (1, 1)), ((1,), (2,))]"
    zeta22 = (
        "1.6234848505667072 +/- 3.65e-14",
        "0.8117424254460314 +/- 2.15e-07",
        "2.15e-07",
    )
    records = [
        (c.id, c.status, c.expected, c.actual, c.bound)
        for c in run_suite("all").checks
    ]
    assert records == [
        ("sym.leading", "fail", "none", "mismatches at [5]", ""),
        ("sym.m22", "fail", "1/60 π^4", "1/120 π^4", ""),
        ("words.commutative", "fail", "none", pairs, ""),
        ("num.zeta22", "fail", *zeta22),
        ("num.crash", "fail", "", "raised RuntimeError('boom')", ""),
    ]

    assert cli.main(["verify", "--suite", "all"]) == cli.EXIT_VERIFY_FAILED
    out, err = capsys.readouterr()
    assert err == ""
    detail = [line.strip() for line in out.splitlines() if line.startswith(" ")]
    assert detail == [
        "expected: none",
        "actual:   mismatches at [5]",
        "expected: 1/60 π^4",
        "actual:   1/120 π^4",
        "expected: none",
        f"actual:   {pairs}",
        f"expected: {zeta22[0]}",
        f"actual:   {zeta22[1]}",
        f"bound:    {zeta22[2]}",
        "actual:   raised RuntimeError('boom')",
    ]
    assert out.splitlines()[-1] == "0/5 checks passed"
