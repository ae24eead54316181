"""Benchmark of the ``epwcalc`` calculator, driven from outside through its
public entry points.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ``cold-cli`` (each request a fresh ``python -m epwcalc.cli``),
``report-all`` (warm in-process ``cli.run(["report-all", "--json"])``) and
``param-sweep`` (warm in-process ``cli.run`` over seeded arguments); ``all``
runs the three in turn, each in its own process.  One client sends its next
request only after the last one returned (a closed loop, no threads).

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` the per-layer metrics, from a separate run under
``layers.Tracer``.  Every response is checked by ``checks.check``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable table and the run record.  Run from any directory; the
checkout is the parent of this file's directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import layers
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fresh starts per run behind ``setup_s``; also the repetitions behind each
#: traced-run timing that is not a batch
STARTS = 7
#: requests in one traced batch; ``.calls`` are counted over one batch
TRACE_BATCH = {"cold-cli": 26, "report-all": 20, "param-sweep": 200}
#: requests whose argv are hashed into the run record
DIGEST_REQUESTS = 1000
CHILD_TIMEOUT_S = 60.0

END_TO_END = {"setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "throughput_per_s": "1/s", "peak_rss_mb": "MB"}


class Tally:
    """Requests attempted and failed, with the first few failure reasons."""

    def __init__(self, golden: checks.Golden):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, argv, code, out: str, err: str) -> None:
        self.attempted += 1
        reason = checks.check(self.golden, argv, code, out, err)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(argv)[:100]}: {reason}")


# ---------------------------------------------------------------------------
# clients: one request in, (exit code, stdout, stderr, seconds) out
# ---------------------------------------------------------------------------

def _drain(proc: subprocess.Popen, deadline: float) -> tuple[bytes, bytes]:
    """Read stdout and stderr to EOF; kill the child past the deadline."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            ready = sel.select(timeout=max(0.0, deadline - time.perf_counter()))
            if not ready:
                proc.kill()
                deadline = float("inf")
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    proc.stdout.close()
    proc.stderr.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


class Processes:
    """Runs interpreters with the checkout's ``src`` on the path, and keeps
    the largest resident set any of them reached."""

    def __init__(self):
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.peak_rss_kb = 0

    def spawn(self, args: list[str], pass_fds=()):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, pass_fds=pass_fds)
        for fd in pass_fds:
            os.close(fd)
        out, err = _drain(proc, start + CHILD_TIMEOUT_S)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out.decode(), err.decode(), seconds

    def cli(self, argv):
        return self.spawn(["-m", "epwcalc.cli", *argv])

    def traced_cli(self, argv):
        """One CLI request under the tracer; also returns its span totals."""
        read_fd, write_fd = os.pipe()
        with os.fdopen(read_fd) as source:
            result = self.spawn([str(HERE / "layers.py"), str(write_fd), *argv],
                                pass_fds=(write_fd,))
            totals = json.loads(source.read() or "{}")
        return result, totals


def in_process(run, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def _requests(client, argvs, tally: Tally | None, gauge: speed.Gauge) -> list[float]:
    """Send each argv through ``client`` and check the response; returns the
    wall seconds of each request, to be scaled by ``gauge``."""
    raw = []
    for argv in argvs:
        code, out, err, seconds = client(argv)
        gauge.mark()
        raw.append(seconds)
        if tally is not None:
            tally.record(argv, code, out, err)
    return raw


def _repeated(client, argv, tally: Tally | None) -> list[float]:
    """Reference-speed seconds of STARTS requests, after one unmeasured
    request that writes the bytecode cache or warms the process."""
    _requests(client, [argv], tally, speed.Gauge())
    gauge = speed.Gauge()
    return gauge.scale(_requests(client, [argv] * STARTS, tally, gauge))


def _until(stream, seconds: float):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        yield next(stream)


def measure(workload: str, seed: int, seconds: int, procs: Processes, tally: Tally):
    """End-to-end metrics; tracing off."""
    from epwcalc import cli

    setup = _repeated(procs.cli, list(workloads.REPORT_ALL), tally)
    procs.peak_rss_kb = 0
    if workload == "cold-cli":
        client = procs.cli
    else:
        def client(argv):
            return in_process(cli.run, argv)
        _requests(client, [list(workloads.REPORT_ALL)] * 3, tally, speed.Gauge())
    gauge = speed.Gauge()
    wall = _requests(client, _until(workloads.stream(workload, seed), seconds), tally, gauge)
    latencies = gauge.scale(wall)
    if workload == "cold-cli":
        peak_kb = procs.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "throughput_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": peak_kb / 1024,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    samples = {"setup_s": len(setup), "latency": len(latencies),
               "wall_latency_p50_ms": 1000 * statistics.median(wall),
               "speed_factor_median": statistics.median(gauge.factors)}
    return metrics, samples


def _run_batch(workload: str, batch, procs: Processes, tally: Tally, traced: bool):
    """(reference-speed seconds spent in requests, span totals scaled the
    same way or None) for one batch."""
    from epwcalc import cli

    gauge = speed.Gauge()
    totals: dict[str, list] = {}
    if workload == "cold-cli":
        def client(argv):
            if not traced:
                return procs.cli(argv)
            result, child = procs.traced_cli(argv)
            for name, (calls, self_ns) in child.items():
                entry = totals.setdefault(name, [0, 0])
                entry[0] += calls
                entry[1] += self_ns
            return result
        raw = _requests(client, batch, tally, gauge)
    else:
        tracer = layers.Tracer()
        run = cli.run
        if traced:
            tracer.install()
            def run(argv):
                return tracer.call("request", cli.run, argv)
        try:
            raw = _requests(lambda argv: in_process(run, argv), batch, tally, gauge)
        finally:
            tracer.uninstall()
        totals = layers.aggregate(tracer.spans)
    busy = sum(gauge.scale(raw))
    scale = busy / sum(raw)
    totals = {name: [calls, self_ns * scale] for name, (calls, self_ns) in totals.items()}
    return busy, totals if traced else None


def trace(workload: str, seed: int, seconds: int, procs: Processes, tally: Tally):
    """Per-layer metrics: fixed probes, then alternating untraced and traced
    batches of the workload's first requests.  Times are at the reference
    speed."""
    from epwcalc import cli

    values: dict[str, tuple[float, str]] = {}
    start = _repeated(lambda _: procs.spawn(["-c", "pass"]), None, None)
    values["interpreter.startup_ms"] = (1000 * statistics.median(start), "ms")

    procs.spawn(["-c", "import epwcalc.cli"])  # writes the bytecode cache
    gauge, parsed = speed.Gauge(), []
    for _ in range(STARTS):
        code, _, err, _ = procs.spawn(["-X", "importtime", "-c", "import epwcalc.cli"])
        gauge.mark()
        if code != 0:
            raise RuntimeError(f"importing epwcalc.cli failed:\n{err}")
        parsed.append(layers.parse_importtime(err))
    factors = gauge.flush()
    for key in parsed[0]:
        values[key] = (statistics.median(p[key] * f for p, f in zip(parsed, factors)), "ms")

    for section in workloads.SECTIONS:
        times = _repeated(lambda argv: in_process(cli.run, argv), [section], tally)
        values[f"cli.section.{section}.ms"] = (1000 * statistics.median(times), "ms")

    batch = list(itertools.islice(workloads.stream(workload, seed), TRACE_BATCH[workload]))
    plain, traced, totals = [], [], []
    end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < end:
        plain.append(_run_batch(workload, batch, procs, tally, traced=False)[0])
        busy, spans = _run_batch(workload, batch, procs, tally, traced=True)
        traced.append(busy)
        totals.append(spans)
    for name in layers.SPANS:
        values[f"{name}.calls"] = (totals[0].get(name, [0, 0])[0], "count")
        self_ms = statistics.median(t.get(name, [0, 0])[1] / 1e6 for t in totals)
        values[f"{name}.self_ms"] = (self_ms, "ms")
    overhead = 100 * (statistics.median(traced) / statistics.median(plain) - 1)
    values["trace.overhead_pct"] = (overhead, "%")
    if any(t.get(n, [0])[0] != totals[0].get(n, [0])[0] for t in totals for n in layers.SPANS):
        tally.failed += 1
        tally.reasons.append("span call counts differ between repeats of one batch")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    samples = {"batch_requests": len(batch), "batches": len(totals)}
    return metrics, samples


# ---------------------------------------------------------------------------
# run record and entry point
# ---------------------------------------------------------------------------

def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (a checkout
    that is not a repository must not pick up an enclosing one)."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, ref_name = line.partition(" ")
        if ref_name == name:
            return sha
    return None


def run_record(workload: str, seed: int, seconds: int, trace_on: bool) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "epwcalc").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace_on),
        "argv_sha256": workloads.argv_digest(workload, seed, DIGEST_REQUESTS),
        "argv_digest_requests": DIGEST_REQUESTS,
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "git_sha": _git_sha(), "src_sha256": source.hexdigest(),
    }


def _run_one(args) -> dict:
    sys.path.insert(0, str(SRC))
    from epwcalc import cli

    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"epwcalc imported from {cli.__file__}, not from {SRC}")
    speed.pin()
    tally = Tally(checks.Golden(ROOT))
    procs = Processes()
    run = trace if args.trace else measure
    metrics, samples = run(args.workload, args.seed, args.seconds, procs, tally)
    record = run_record(args.workload, args.seed, args.seconds, bool(args.trace))
    record.update(samples=samples, failed_ratio=tally.failed / tally.attempted,
                  failures=tally.reasons)
    print(f"# {args.workload}  seed={args.seed}  trace={args.trace}  "
          f"attempted={tally.attempted}  failed={tally.failed}  "
          f"failed_ratio={record['failed_ratio']:.6g}  samples={samples}")
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    print("record: " + json.dumps(record))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def _run_all(args) -> dict:
    """Each workload in its own process, so no run inherits another's state."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.STREAMS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines), flush=True)
        one = json.loads(last)
        result["correct"] = result["correct"] and one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for name, metric in one["metrics"].items():
            result["metrics"][f"{workload}.{name}"] = metric
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.STREAMS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    missing = [p for p in (SRC / "epwcalc" / "cli.py", ROOT / checks.GOLDEN) if not p.is_file()]
    if missing:
        print(f"error: the checkout has no {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    result = _run_all(args) if args.workload == "all" else _run_one(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
