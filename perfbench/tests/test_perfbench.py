"""Self-tests for the benchmark's own code (not for gammagenus).

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stream  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

mpmath = pytest.importorskip("mpmath")


def close(a, b):
    return abs(a - b) <= mpmath.mpf(10) ** -35


# --- references ------------------------------------------------------------------


def test_euler_formula_small_cases():
    pi = mpmath.pi
    assert close(stream.reference("euler", (2, 1)), mpmath.zeta(3))
    assert close(stream.reference("euler", (3, 1)), pi**4 / 360)
    # zeta(4,1) = 2 zeta(5) - zeta(2) zeta(3)
    assert close(stream.reference("euler", (4, 1)), 2 * mpmath.zeta(5) - mpmath.zeta(2) * mpmath.zeta(3))


def test_duality_twos_and_pairs():
    pi = mpmath.pi
    assert close(stream.reference("dual", (2, 1, 1)), mpmath.zeta(4))
    assert close(stream.reference("twos", (2, 2, 2)), pi**6 / mpmath.factorial(7))
    assert close(stream.reference("pair", (2, 2)), pi**4 / 120)  # (3/4) zeta(4)


def test_hoffman_sum_matches_independent_values():
    pi = mpmath.pi
    # zeta(2,2) alone, and zeta({2}^3) alone: one rearrangement each.
    assert close(stream.reference("cy", (2, 2)), pi**4 / 120)
    assert close(stream.reference("cy", (2, 2, 2)), pi**6 / mpmath.factorial(7))
    # zeta(3,2) + zeta(2,3) = zeta(2) zeta(3) - zeta(5)
    want = mpmath.zeta(2) * mpmath.zeta(3) - mpmath.zeta(5)
    assert close(stream.reference("cy", (3, 2)), want)
    # zeta(2,2,2,2) = pi^8 / 9!
    assert close(stream.reference("cy", (2, 2, 2, 2)), pi**8 / mpmath.factorial(9))


def test_contains_is_an_interval_check():
    ref = mpmath.zeta(2)
    v = float(ref)
    assert stream.contains(v, 1e-15, ref)
    assert not stream.contains(v + 1e-6, 1e-7, ref)


# --- stream ----------------------------------------------------------------------


def _take(seed, n):
    out = []
    for item in stream.requests(seed):
        if len(out) == n:
            break
        out.append(item)
    return out


def test_seeded_stream_is_identical_on_every_run():
    assert _take(7, 500) == _take(7, 500)
    assert _take(7, 500) != _take(8, 500)


def test_stream_requests_are_distinct_and_cover_every_family():
    items = _take(3, 2000)
    keys = {(family, args, tol) for _, family, args, tol in items}
    assert len(keys) == len(items)
    assert {family for _, family, _, _ in items} == {f for f, _ in stream.FAMILIES}
    assert all(1e-11 <= tol <= 1e-3 for *_, tol in items)


# --- statistics ----------------------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([4.0, 1.0, 3.0, 2.0]) == (3.0, "p75")
    assert run.tail_percentile(list(range(1, 100))) == (75, "p75")
    assert run.tail_percentile(list(range(1, 101))) == (90, "p90")
    assert run.tail_percentile(list(range(1, 1001))) == (990, "p99")
    assert run.tail_percentile(list(range(1, 15001))) == (14985, "p99.9")


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["op", 0.0, 10.0, -1], ["a.s", 1.0, 4.0, 0], ["b.s", 4.0, 5.0, 1], ["a.s", 6.0, 7.0, 0]]
    assert self_times(tracer.spans) == {"op": 6.0, "a.s": 3.0, "b.s": 1.0}
    off = Tracer(enabled=False)
    with off.span("x"):
        off.count("n", 3)
    assert off.spans == [] and off.counts == {}


# --- failures are counted ----------------------------------------------------------


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def test_wrong_stdout_fails_the_golden_check(out_dir):
    op = run.check_digest(run.spawn(["-c", "print('Q_1 = wrong')"], "import", "t"), "qgenus-10")
    assert op.failure.startswith("stdout sha256")


def test_nonzero_exit_memory_cap_and_timeout_fail(out_dir, monkeypatch):
    op = run.spawn(["-c", "raise SystemExit(3)"], "import", "t")
    assert op.failure.startswith("exit 3")
    op = run.spawn(["-c", "bytearray(4 * 2**30)"], "import", "t")
    assert "memory cap" in op.failure
    monkeypatch.setitem(run.CAPS, "import", (1024, 0.5))
    op = run.spawn(["-c", "import time; time.sleep(30)"], "import", "t")
    assert op.timed_out and op.failure.startswith("timeout")


def test_wrong_mzv_value_is_a_defect_and_refusal_is_not():
    items = _take(5, 4)
    records = []
    for index, family, args, tol in items:
        ref = float(stream.reference(family, args))
        records.append([index, "ok", ref, tol])
    records[1] = [items[1][0], "refused", None, None]
    records[2][2] += 10 * records[2][3]  # ten bounds away from the truth
    records[3][1] = "relaxed"
    relaxed, refused, defects = run.check_stream_records(5, records)
    assert relaxed == {items[3][0]}
    assert refused == {items[1][0]}
    assert list(defects) == [items[2][0]]


def test_refused_request_is_asked_again_tenfold_looser():
    assert list(stream.tolerances(2e-5)) == pytest.approx([2e-5, 2e-4, 2e-3])
    assert list(stream.tolerances(0.5)) == []
    gammagenus = pytest.importorskip("gammagenus")
    import child

    def ask(family, args, tol):
        if tol < 1e-4:
            raise gammagenus.CutoffBudgetError("over budget")
        return gammagenus.BoundedValue(1.0, tol / 2)

    assert child._answer("zeta", (2,), 3e-4, ask)[0] == "ok"
    status, _, bound = child._answer("zeta", (2,), 3e-6, ask)
    assert status == "relaxed" and bound == pytest.approx(1.5e-4)
    never = lambda family, args, tol: ask(family, args, 0.0)  # noqa: E731
    assert child._answer("zeta", (2,), 3e-6, never)[0] == "refused"


def test_relaxed_requests_complete_but_are_not_as_asked():
    values, notes = run.end_to_end(0.2, [1.0, 2.0, 3.0], 2, 4, 2.0, 10.0)
    assert values["ops_per_s"] == 1.5
    assert values["ok_ratio"] == 0.5
    assert notes["fail_ratio"] == 0.25


# --- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    values, _ = run.end_to_end(0.2, [1.0, 2.0], 2, 2, 3.0, 10.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(values)
    workloads = {w["name"] for w in spec["workloads"]}
    assert all(set(m["on"]) <= workloads for m in layers.values())
