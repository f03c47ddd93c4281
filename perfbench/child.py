"""Code that runs inside the benchmark's child processes.

    python3 perfbench/child.py TASK OUT_JSON [--seed S] [--seconds T]

TASK is one of:

  stream        closed loop over the seeded MZV stream for T seconds,
                through the public `mzv` / `eval_mzv_terms` calls; a refused
                request is asked again at a tenfold looser tolerance
  stream-trace  traced passes over the first STREAM_PREFIX requests (via
                `mzv_info`, so the cutoff is seen) until T seconds have gone;
                the first pass also times each request untraced
  qgenus-trace  Q_1..Q_10 replayed stage by stage, stdout as `qgenus --max 10`
  verify-trace  `run_suite` once per suite, stdout as `verify --suite all`
  verify-probe  the layer calls the verify suites make, each timed cold

The parent sets PYTHONPATH to the checkout's `src`, so `gammagenus` is the
code under test; this file only calls its public functions.  Results go to
OUT_JSON; traced tasks add their spans and counters there.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from stream import requests, tolerances
from tracing import Tracer

QGENUS_MAX = 10
STREAM_PREFIX = 1000


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- mzv-stream ------------------------------------------------------------------


def _answer_once(family, args, tol):
    from gammagenus import eval_mzv_terms, mzv, mzv_expansion

    if family == "cy":
        return eval_mzv_terms(mzv_expansion(args), tol)
    return mzv(args, tol)


def _answer(family, args, tol, ask=_answer_once):
    """(status, value, bound) for one request, relaxing its tolerance on refusal.

    The status is "ok" when the value is certified at the tolerance asked for,
    "relaxed" when only a looser one of `stream.tolerances` was certified, and
    "refused" when every one of them was refused.
    """
    from gammagenus import CutoffBudgetError

    for attempt, t in enumerate(tolerances(tol)):
        try:
            bv = ask(family, args, t)
        except CutoffBudgetError:
            continue
        return ("relaxed" if attempt else "ok"), bv.value, bv.bound
    return "refused", None, None


def _answer_traced(tracer, family, args, tol):
    """Same arithmetic as `_answer`, with each MZV summed by `mzv_info`.

    `mzv_expansion` is the words of `sym_to_words(m_lam)` in word order, each
    with coefficient 1, and `eval_mzv_terms` adds them up in that order, so the
    value and bound come out bit-identical to the untraced call.
    """
    from gammagenus import BoundedValue, SymPoly, mzv_info, sym_to_words
    from gammagenus.words import word_key

    if family == "cy":
        with tracer.span("words.sym_to_words_s"):
            q = sym_to_words(SymPoly.basis_element("m", args))
        terms = [(w, q.terms[w]) for w in sorted(q.terms, key=word_key)]
    else:
        terms = [(args, None)]

    def ask(family, args, t):
        acc = BoundedValue.exact(0.0)
        for word, coeff in terms:
            with tracer.span("numeric.mzv_s"):
                bv, cutoff = mzv_info(word, t)
            tracer.count("numeric.terms_summed", cutoff)
            tracer.sample("numeric.bound_over_tol", bv.bound / t)
            acc = bv if coeff is None else acc + bv.scale_fraction(coeff)
        return acc

    status, value, bound = _answer(family, args, tol, ask)
    if status != "ok":
        tracer.count("numeric.refused")
    return status, value, bound


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def task_stream(opts) -> dict:
    records = []
    deadline = time.perf_counter() + opts.seconds
    start = time.perf_counter()
    for index, family, args, tol in requests(opts.seed):
        t0 = time.perf_counter()
        status, value, bound = _answer(family, args, tol)
        t1 = time.perf_counter()
        records.append([index, status, value, bound, t1 - t0])
        if t1 >= deadline:
            break
    return {"records": records, "wall_s": time.perf_counter() - start}


def task_stream_trace(opts) -> dict:
    prefix = []
    for item in requests(opts.seed):
        if len(prefix) == STREAM_PREFIX:
            break
        prefix.append(item)
    # A pass with tracing off first, discarded, so lazy set-up inside the
    # package (numpy, cached majorants) is paid before anything is timed.
    for _, family, args, tol in prefix:
        _answer_traced(Tracer(enabled=False), family, args, tol)
    # The first traced pass times each request both ways, back to back and in
    # alternating order, for the tracing overhead: the untraced call goes
    # through `mzv`, whose cache a second untraced pass would hit.
    untraced = 0.0
    passes = []
    deadline = time.perf_counter() + opts.seconds
    while not passes or time.perf_counter() < deadline:
        tracer = Tracer()
        records = []
        wall = 0.0
        for index, family, args, tol in prefix:
            if not passes and index % 2 == 0:
                untraced += _timed(_answer, family, args, tol)
            t0 = time.perf_counter()
            with tracer.span("op"):
                records.append([index, *_answer_traced(tracer, family, args, tol)])
            wall += time.perf_counter() - t0
            if not passes and index % 2 == 1:
                untraced += _timed(_answer, family, args, tol)
        passes.append(
            {"wall_s": wall, "spans": tracer.spans, "counts": tracer.counts,
             "samples": tracer.samples, "records": records}
        )
    return {"untraced_wall_s": untraced, "passes": passes}


# --- qgenus-cold -------------------------------------------------------------------


def task_qgenus_trace(opts) -> dict:
    from gammagenus.cli import build_parser
    from gammagenus.genus import genus_to_json, q_genus
    from gammagenus.partitions import partitions_of
    from gammagenus.render import format_genus_line
    from gammagenus.symfunc import SymPoly, to_basis
    from gammagenus.zetaring import zeta_hom

    tracer = Tracer()
    lines = []
    with tracer.span("op"):
        with tracer.span("cli.s"):
            build_parser().parse_args(["qgenus", "--max", str(QGENUS_MAX)])
        for i in range(1, QGENUS_MAX + 1):
            with tracer.span("partitions.s"):
                parts = partitions_of(i)
            tracer.count("partitions.count", len(parts))
            basis = [SymPoly.basis_element("m", lam) for lam in parts]
            for f in basis:
                with tracer.span("symfunc.s"):
                    to_basis(f, "p")
                tracer.count("symfunc.calls")
            tracer.counts["symfunc.rss_mb"] = _rss_mb()
            for f in basis:
                with tracer.span("zetaring.s"):
                    z = zeta_hom(f)
                tracer.count("zetaring.terms", len(z.terms))
            with tracer.span("genus.s"):
                gp = q_genus(i)
            with tracer.span("render.text_s"):
                lines.append(format_genus_line(gp))
            with tracer.span("render.json_s"):
                json.dumps(genus_to_json(gp), indent=2, sort_keys=True)
        text = "".join(line + "\n" for line in lines)
        tracer.count("render.bytes", len(text.encode()))
        with tracer.span("cli.s"):
            sys.stdout.write(text)
            sys.stdout.flush()
    return {"spans": tracer.spans, "counts": tracer.counts}


# --- verify-all --------------------------------------------------------------------


def task_verify_trace(opts) -> dict:
    from gammagenus.cli import build_parser
    from gammagenus.verify import SUITES, run_suite

    tracer = Tracer()
    checks = []
    with tracer.span("op"):
        with tracer.span("cli.s"):
            build_parser().parse_args(["verify", "--suite", "all"])
        for suite in SUITES:
            with tracer.span(f"verify.{suite}_s"):
                checks.extend(run_suite(suite).checks)
        passed = sum(1 for c in checks if c.passed)
        tracer.count("verify.checks_passed", passed)
        with tracer.span("cli.s"):
            # The text `verify` prints for a passing run; a failing check
            # changes the output, which the golden digest then rejects.
            print("suite: all")
            for check in checks:
                print(f"[{'PASS' if check.passed else 'FAIL'}] {check.id}: {check.description}")
            print(f"{passed}/{len(checks)} checks passed")
            sys.stdout.flush()
    return {"spans": tracer.spans, "counts": tracer.counts}


def task_verify_probe(opts) -> dict:
    """Each layer the verify suites use, on the suites' own inputs, cold.

    `run_suite` hides these calls, so they are repeated here in a fresh process:
    symmetric functions to weight 8, the brute-force oracle to degree 4, the
    stuffle sweep over words of weight <= 4, the Lyndon sweep to weight 6, the
    validated Taylor series and the suites' fixed-tolerance MZVs.
    """
    from gammagenus import (
        QsymPoly, SymPoly, gamma_recip_coeffs, lyndon_decompose, lyndon_factorize,
        lyndon_recompose, lyndon_words, mzv_info, partitions_of, q_genus,
        q_genus_oracle, stuffle, sym_to_words, to_basis, words_of_weight, zeta_hom,
    )
    from gammagenus.genus import genus_to_json
    from gammagenus.render import format_genus_line
    from stream import contains, reference

    tracer = Tracer()
    failures = []
    with tracer.span("op"):
        basis = []  # (weight, m_lam)
        for n in range(1, 9):
            with tracer.span("partitions.s"):
                parts = partitions_of(n)
            tracer.count("partitions.count", len(parts))
            basis.extend((n, SymPoly.basis_element("m", lam)) for lam in parts)
        for _, f in basis:
            with tracer.span("symfunc.s"):
                to_basis(f, "p")
            tracer.count("symfunc.calls")
        tracer.counts["symfunc.rss_mb"] = _rss_mb()
        for _, f in basis:
            with tracer.span("zetaring.s"):
                z = zeta_hom(f)
            tracer.count("zetaring.terms", len(z.terms))
        text = []
        for i in range(1, 9):
            with tracer.span("genus.s"):
                gp = q_genus(i)
            with tracer.span("render.text_s"):
                text.append(format_genus_line(gp))
            with tracer.span("render.json_s"):
                json.dumps(genus_to_json(gp), indent=2, sort_keys=True)
        tracer.count("render.bytes", sum(len(t.encode()) + 1 for t in text))
        for i in range(1, 5):
            with tracer.span("genus.oracle_s"):
                oracle = q_genus_oracle(i)
            if oracle != q_genus(i):
                failures.append(f"oracle differs at degree {i}")

        words = [w for n in range(1, 5) for w in words_of_weight(n)]
        for u in words:
            for v in words:
                with tracer.span("words.stuffle_s"):
                    product = stuffle(QsymPoly.from_word(u), QsymPoly.from_word(v))
                tracer.count("words.stuffle_terms", len(product.terms))
        with tracer.span("words.lyndon_s"):
            for n in range(1, 7):
                lyndon_words(n)
            for n in range(1, 6):
                for w in words_of_weight(n):
                    lyndon_factorize(w)
            q = QsymPoly.from_word((1, 2))
            roundtrip = lyndon_recompose(lyndon_decompose(q))
        if roundtrip != q:
            failures.append("Lyndon decomposition of z_1z_2 does not round-trip")
        for n, f in basis:
            if n <= 6:
                with tracer.span("words.sym_to_words_s"):
                    sym_to_words(f)

        with tracer.span("numeric.taylor_s"):
            gamma_recip_coeffs(8)
        for family, args, tol in (
            ("zeta", (2,), 1e-8), ("pair", (2, 2), 1e-8), ("zeta", (3,), 1e-6),
            ("euler", (2, 1), 1e-6), ("pair", (3, 3), 1e-6), ("twos", (2, 2, 2), 1e-6),
        ):
            with tracer.span("numeric.mzv_s"):
                bv, cutoff = mzv_info(args, tol)
            tracer.count("numeric.terms_summed", cutoff)
            tracer.sample("numeric.bound_over_tol", bv.bound / tol)
            if not contains(bv.value, bv.bound, reference(family, args)):
                failures.append(f"zeta{args} at {tol:g} misses its reference")
    return {
        "spans": tracer.spans, "counts": tracer.counts,
        "samples": tracer.samples, "failures": failures,
    }


TASKS = {
    "stream": task_stream,
    "stream-trace": task_stream_trace,
    "qgenus-trace": task_qgenus_trace,
    "verify-trace": task_verify_trace,
    "verify-probe": task_verify_probe,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("task", choices=sorted(TASKS))
    parser.add_argument("out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    opts = parser.parse_args()
    result = TASKS[opts.task](opts)
    with open(opts.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
