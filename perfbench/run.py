"""The gammagenus benchmark: one command, three workloads, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the root of a checkout; it measures the package in `src/`.

Workloads (why each was chosen is recorded in BENCHMARK.json):

  qgenus-cold  fresh `gammagenus qgenus --max 10` processes, text output
  mzv-stream   one long-lived process answering a seeded stream of distinct
               MZV requests in a closed loop, one caller
  verify-all   fresh `gammagenus verify --suite all` processes

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json,
measured with no tracing.  With --trace 1 it runs the traced replay of the
workload's op next to the untraced op and reports the per-layer metrics plus
the tracing overhead; spans are written under `.perfbench_out/`.

Every op's output is checked: stdout digests against goldens recorded at the
seed commit, and every certified MZV against an mpmath reference.  Children
run one at a time under a memory cap and a wall-time limit set in the child
only.  The last stdout line is the JSON result; the exit code is 0 when no
output is wrong, 1 on any correctness defect and 2 when the checkout holds no
`src/gammagenus`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SPAWNS = 9
# Caps for each child: address space (MB) and wall time (s).  The stream
# worker runs for the whole measured window, so its wall cap is that plus 60 s.
CAPS = {
    "import": (1024, 30),
    "qgenus": (2048, 60),
    "verify": (1024, 30),
    "stream": (1024, 60),
}

QGENUS_ARGV = ["-m", "gammagenus", "qgenus", "--max", "10"]
VERIFY_ARGV = ["-m", "gammagenus", "verify", "--suite", "all"]


# --- child processes ---------------------------------------------------------------


@dataclass
class Op:
    """One child process: its wall time, exit, peak RSS and verdict."""

    wall_s: float
    returncode: int
    peak_rss_mb: float
    timed_out: bool
    stdout: bytes
    stderr: bytes
    failure: str = ""  # empty when the op succeeded


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args, cap: str, out_name: str, extra_wall_s: float = 0.0) -> Op:
    """Run `python3 ARGS` to completion under the cap, timed from spawn to exit.

    The memory cap is RLIMIT_AS, set in the child between fork and exec; the
    wall-time limit kills the child from a timer thread.  Peak RSS comes from
    the child's own rusage, returned by wait4.
    """
    mem_mb, wall_limit = CAPS[cap]
    wall_limit += extra_wall_s

    def limit_child():
        cap_bytes = mem_mb * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

    stdout_path = OUT / f"{out_name}.stdout"
    stderr_path = OUT / f"{out_name}.stderr"
    exited = threading.Event()
    timed_out = threading.Event()
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
            stdout=out, stderr=err, preexec_fn=limit_child,
        )

        def kill():
            if not exited.is_set():
                timed_out.set()
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(wall_limit, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            exited.set()
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = Op(
        wall_s=wall,
        returncode=proc.returncode,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        timed_out=timed_out.is_set(),
        stdout=stdout_path.read_bytes(),
        stderr=stderr_path.read_bytes(),
    )
    if op.timed_out:
        op.failure = f"timeout after {wall_limit} s"
    elif b"MemoryError" in op.stderr or op.peak_rss_mb >= mem_mb:
        op.failure = f"over the {mem_mb} MB memory cap"
    elif op.returncode != 0:
        last = op.stderr.decode(errors="replace").strip().splitlines()[-1:]
        op.failure = f"exit {op.returncode}: {last[0] if last else ''}"
    return op


def check_digest(op: Op, golden_key: str) -> Op:
    if not op.failure:
        digest = hashlib.sha256(op.stdout).hexdigest()
        if digest != json.loads((HERE / "goldens.json").read_text())[golden_key]:
            op.failure = f"stdout sha256 {digest[:16]}... does not match the golden"
    return op


def run_child(task: str, cap: str, seed: int = 0, seconds: float = 1.0) -> tuple:
    """Run a perfbench/child.py task; returns (Op, its JSON result or None)."""
    result_path = OUT / f"{task}.json"
    result_path.unlink(missing_ok=True)
    op = spawn(
        [str(HERE / "child.py"), task, str(result_path),
         "--seed", str(seed), "--seconds", str(seconds)],
        cap, task, extra_wall_s=seconds,
    )
    data = None
    if not op.failure:
        data = json.loads(result_path.read_text())
    return op, data


def measure_setup() -> tuple:
    """Median wall time of a fresh interpreter running `import gammagenus.cli`.

    One spawn first, untimed, so compiled bytecode is in place as it is for an
    installed package; then SETUP_SPAWNS timed ones.
    """
    argv = ["-c", "import gammagenus.cli"]
    ops = [spawn(argv, "import", "setup") for _ in range(SETUP_SPAWNS + 1)][1:]
    failures = [op.failure for op in ops if op.failure]
    return statistics.median(op.wall_s for op in ops), failures


# --- statistics ----------------------------------------------------------------------


def tail_percentile(samples) -> tuple:
    """(value, label) at the highest listed percentile with >= 10 samples beyond it.

    Below 100 samples no listed percentile qualifies; the upper quartile is
    reported then, labelled "p75", since a maximum of a few fresh-process ops
    swings with every slow op.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for per_10k in (9999, 9990, 9900, 9000):
        rank = -(-per_10k * n // 10000)  # nearest rank, in exact integers
        if n - rank >= 10:
            return ordered[rank - 1], f"p{per_10k / 100:g}"
    return ordered[-(-3 * n // 4) - 1], "p75"


def end_to_end(setup_s, latencies, as_asked, attempted, wall_s, peak_rss_mb) -> tuple:
    """The end-to-end metric values and a note on how the tail was taken.

    Latencies are those of the ops that completed correctly; ops_per_s counts
    them.  ok_ratio counts the ops answered as asked (for an MZV request: at
    the tolerance it asked for, not a relaxed one).  With no completed op at
    all, the latencies read the whole window.
    """
    completed = len(latencies)
    if not latencies:
        latencies = [wall_s]
    tail, label = tail_percentile(latencies)
    values = {
        "setup_s": setup_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "ops_per_s": completed / wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": as_asked / attempted,
    }
    notes = {
        "samples": completed,
        "tail_percentile": label,
        "fail_ratio": (attempted - completed) / attempted,
    }
    return values, notes


# --- workloads: untraced ----------------------------------------------------------------


def fresh_process_run(argv, cap, golden_key, seconds, setup_s) -> dict:
    """Closed loop of fresh CLI processes; every failure is a defect."""
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(check_digest(spawn(argv, cap, "op"), golden_key))
    wall = time.perf_counter() - start
    good = [op for op in ops if not op.failure]
    values, notes = end_to_end(
        setup_s, [op.wall_s for op in good], len(good), len(ops), wall,
        max(op.peak_rss_mb for op in ops),
    )
    notes["op_walls_s"] = [op.wall_s for op in ops]
    defects = [op.failure for op in ops if op.failure]
    return {"values": values, "notes": notes, "attempted": len(ops),
            "failed": len(defects), "defects": defects}


def check_stream_records(seed, records) -> tuple:
    """(relaxed, refused, defects) by request index.

    Every certified value, at the tolerance asked for or a relaxed one, must
    hold its reference; one that does not is a defect.
    """
    from stream import contains, reference, requests

    relaxed, refused, defects = set(), set(), {}
    pending = iter(records)
    record = next(pending, None)
    for index, family, args, tol in requests(seed):
        if record is None:
            break
        if record[0] != index:
            continue
        status, value, bound = record[1:4]
        if status == "refused":
            refused.add(index)
        elif status not in ("ok", "relaxed") or not contains(value, bound, reference(family, args)):
            defects[index] = (f"request {index} {family}{args} tol={tol:.3e}: "
                              f"{status} {value!r} +/- {bound!r} misses the reference")
        if status == "relaxed":
            relaxed.add(index)
        record = next(pending, None)
    return relaxed, refused, defects


def _worker_failed(op) -> dict:
    return {"values": None, "notes": {}, "attempted": 1, "failed": 1,
            "defects": [f"stream worker failed: {op.failure}"], "spans": []}


def mzv_stream_run(seed, seconds, setup_s) -> dict:
    """The seeded stream in one worker.

    A request certified only at a relaxed tolerance completes but is not
    answered as asked; one refused at every tolerance fails; a bound that
    misses its reference is a defect.
    """
    op, data = run_child("stream", "stream", seed, seconds)
    if op.failure:
        return _worker_failed(op)
    records = data["records"]
    relaxed, refused, defects = check_stream_records(seed, records)
    latencies = [r[4] for r in records if r[0] not in refused and r[0] not in defects]
    values, notes = end_to_end(
        setup_s, latencies, len(latencies) - len(relaxed), len(records), data["wall_s"],
        op.peak_rss_mb,
    )
    notes["relaxed"] = len(relaxed)
    notes["refused"] = len(refused)
    return {"values": values, "notes": notes, "attempted": len(records),
            "failed": len(refused) + len(defects), "defects": list(defects.values())}


# --- workloads: traced -------------------------------------------------------------------


def layer_values(traced: list) -> dict:
    """Per-layer metrics from traced ops: the median over ops of each op's value.

    Each traced op is a list of child results (spans, counts, samples); a
    layer's value in one op is its spans' summed self time, or its counter.
    """
    from tracing import self_times

    per_op = []
    for parts in traced:
        values: dict = {}
        samples: dict = {}
        for part in parts:
            for name, t in self_times(part["spans"]).items():
                values[name] = values.get(name, 0.0) + t
            for name, c in part["counts"].items():
                if name.endswith("rss_mb"):
                    values[name] = max(values.get(name, 0), c)
                else:
                    values[name] = values.get(name, 0) + c
            for name, xs in part.get("samples", {}).items():
                samples.setdefault(name, []).extend(xs)
        values.update({name: statistics.median(xs) for name, xs in samples.items()})
        if values.get("numeric.mzv_s"):
            values["numeric.terms_per_s"] = values.get("numeric.terms_summed", 0) / values["numeric.mzv_s"]
        per_op.append(values)
    names = {name for values in per_op for name in values}
    return {name: statistics.median(v.get(name, 0) for v in per_op) for name in names}


def traced_result(traced, untraced_walls, traced_walls, attempted, defects) -> dict:
    values = None
    if traced:
        values = layer_values(traced)
        untraced = statistics.median(untraced_walls)
        values["trace.overhead_s"] = statistics.median(traced_walls) - untraced
        values["trace.overhead_ratio"] = values["trace.overhead_s"] / untraced
    notes = {"traced_ops": len(traced), "untraced_op_s": untraced_walls,
             "traced_op_s": traced_walls}
    return {"values": values, "notes": notes, "attempted": attempted,
            "failed": len(defects), "defects": defects,
            "spans": [[part["spans"] for part in parts] for parts in traced]}


def fresh_process_trace(seconds, argv, cap, traced_tasks, golden_key) -> dict:
    """Alternate the untraced CLI op with its traced replay until time is up.

    The first traced task replays the CLI op and must print the same golden
    stdout; the others probe layers the op hides, each in a fresh process.
    """
    untraced_walls, traced_walls, traced, defects = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        ops = [check_digest(spawn(argv, cap, "op"), golden_key)]
        untraced_walls.append(ops[0].wall_s)
        parts = []
        for task in traced_tasks:
            op, data = run_child(task, cap)
            if not parts:
                check_digest(op, golden_key)
                traced_walls.append(op.wall_s)
            if data and data.get("failures"):
                op.failure = "; ".join(data["failures"])
            ops.append(op)
            parts.append(data or {"spans": [], "counts": {}})
        defects += [op.failure for op in ops if op.failure]
        traced.append(parts)
    return traced_result(traced, untraced_walls, traced_walls, len(traced) * (1 + len(traced_tasks)), defects)


def mzv_stream_trace(seed, seconds) -> dict:
    """Traced passes over a fixed prefix of the stream; the first also times it untraced."""
    op, data = run_child("stream-trace", "stream", seed, seconds)
    if op.failure:
        return _worker_failed(op)
    passes = data["passes"]
    *_, defects = check_stream_records(seed, passes[0]["records"])
    defects = list(defects.values())
    if any(p["counts"] != passes[0]["counts"] for p in passes):
        defects.append("counters differ between passes over the same requests")
    return traced_result([[p] for p in passes], [data["untraced_wall_s"]],
                         [p["wall_s"] for p in passes], len(passes) + 1, defects)


# --- report ----------------------------------------------------------------------------


def environment(seed: int) -> dict:
    rev = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        rev = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            rev = (ROOT / ".git" / ref[5:]).read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "gammagenus").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception as exc:  # recorded, never fatal
        numpy_version = f"unknown ({exc.__class__.__name__})"
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {opts.workload!r}")
    if not (SRC / "gammagenus" / "__init__.py").is_file():
        print(f"perfbench: no package to measure at {SRC / 'gammagenus'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(HERE))

    setup_s, setup_failures = measure_setup()
    if setup_failures:
        print(f"perfbench: importing gammagenus.cli failed: {setup_failures[0]}", file=sys.stderr)
        return 1

    report = {"workload": opts.workload, "trace": opts.trace, "env": environment(opts.seed)}
    if opts.trace == 0:
        if opts.workload == "qgenus-cold":
            run = fresh_process_run(QGENUS_ARGV, "qgenus", "qgenus-10", opts.seconds, setup_s)
        elif opts.workload == "verify-all":
            run = fresh_process_run(VERIFY_ARGV, "verify", "verify-all", opts.seconds, setup_s)
        else:
            run = mzv_stream_run(opts.seed, opts.seconds, setup_s)
        wanted = spec["end_to_end"]
    else:
        if opts.workload == "qgenus-cold":
            run = fresh_process_trace(opts.seconds, QGENUS_ARGV, "qgenus", ["qgenus-trace"], "qgenus-10")
        elif opts.workload == "verify-all":
            run = fresh_process_trace(
                opts.seconds, VERIFY_ARGV, "verify", ["verify-trace", "verify-probe"], "verify-all")
        else:
            run = mzv_stream_trace(opts.seed, opts.seconds)
        wanted = spec["per_layer"]
        spans_path = OUT / f"spans-{opts.workload}-seed{opts.seed}.json"
        spans_path.write_text(json.dumps(run.pop("spans")))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    values, defects = run["values"], run["defects"]
    report["notes"] = run["notes"]
    report["setup_s"] = setup_s
    report["defects"] = defects[:20]

    metrics = {}
    if values is not None:
        for m in wanted:
            metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    correct = not defects and values is not None

    print(f"perfbench {opts.workload} seed={opts.seed} seconds={opts.seconds:g} trace={opts.trace}")
    for name, m in metrics.items():
        print(f"  {name:<24} {m['value']:.6g} {m['unit']}")
    for key, value in report.get("notes", {}).items():
        print(f"  ({key}: {value})")
    for defect in defects[:20]:
        print(f"  DEFECT: {defect}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
