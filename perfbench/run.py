#!/usr/bin/env python3
"""End-to-end benchmark of minconn: cold CLI, read-only serve, serve with deltas.

Run from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Workloads (inputs are made from --seed by `perfbench prepare`):

  cli_cold     `minconn solve FILE --queries QFILE` child processes, back to
               back, on a chordal62 schema file at n ~ 10^4 with 16 in-block
               3-terminal queries.
  serve_read   Serve.Server over a chordal62 schema at n ~ 10^5 (in its own
               process, see perfbench.ml), driven by a closed loop on one
               keep-alive connection sending POST /solve.
  serve_mixed  The same over an alpha schema at n ~ 10^5; one request in ten
               is a POST /schema/delta that alternately adds and removes a
               pendant relation.

Every answer is diffed outside the timed region against the in-process
answers that `perfbench prepare` computed and checked against brute force.

The host is a few cores of a shared machine whose speed drifts by a third
for minutes at a time, more than any wall-time bound allows. So the
measured operations alternate with `perfbench probe`, a fixed computation
on the OCaml standard library alone, and op_wall_rel is their wall time
over the mean of the probes run just before and just after them: the
drift stretches both and cancels.

With --trace 0 the end-to-end metrics are measured with tracing off:
setup_s (serve: server start to the first 200 on /healthz; cli_cold:
`minconn generate` writing the input file; median of several set-ups),
op_wall_rel (median over the run of one CLI invocation's wall time, or of
the median client-measured POST /solve latency of each batch of requests
between two probes, over the probe) and peak_rss_mb of the program's
process. With --trace 1 the same load runs and is then replayed in-process
with every library call bracketed, giving the per-layer metrics. The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

import argparse
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

CLI = os.path.join("_build", "default", "bin", "minconn_cli.exe")
HELPER = os.path.join("_build", "default", "perfbench", "perfbench.exe")
OUT = ".perfbench-out"
WORKLOADS = ("cli_cold", "serve_read", "serve_mixed")
# Set-ups per untraced run; setup_s is their median. `minconn generate`
# takes ~20 ms, a server start ~3.5 s.
SETUPS = {"cli_cold": 9, "serve_read": 3, "serve_mixed": 3}
DELTA_EVERY = 10  # serve_mixed: every 10th request is a delta
WARMUP = 16  # serve: requests before timing (the session's lazy set view)
BATCH_S = 1.0  # serve: seconds of requests between two probes
DELTA_HEADERS = ("X-Minconn-Deltas", "X-Minconn-Recompiled-Components")


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def run(args, timeout, **kw):
    r = subprocess.run(args, timeout=timeout, **kw)
    if r.returncode != 0:
        raise BenchError("%s exited %d" % (" ".join(args), r.returncode))
    return r


def build():
    for path in ("dune-project", "bin", "lib", "perfbench/dune"):
        if not os.path.exists(path):
            raise BenchError("not a minconn checkout (missing %s)" % path)
    # No shared build cache: the build writes only under ./_build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/perfbench.exe",
                        "./bin/minconn_cli.exe"],
                       timeout=850, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        raise BenchError("build failed")


def generate(seed, path):
    """`minconn generate` of the cli_cold schema into PATH; returns its wall
    seconds."""
    with open(path, "wb") as f:
        t0 = time.perf_counter()
        run([CLI, "generate", "--class", "scale-chordal62", "--size", "10000",
             "--seed", str(seed)], timeout=60, stdout=f)
        return time.perf_counter() - t0


def probe():
    """Seconds `perfbench probe` took for its fixed computation."""
    r = run([HELPER, "probe"], timeout=60, capture_output=True, text=True)
    return float(r.stdout.split()[0])


def relative(times, probes):
    """Median over the run of each time over the mean of the probes just
    before and just after it (PROBES has one more entry than TIMES)."""
    return statistics.median(t / ((a + b) / 2) for t, a, b in zip(times, probes, probes[1:]))


def prepare(workload, seed, out, generated=None):
    """Write the workload's inputs and checked expected answers into OUT
    (for cli_cold, GENERATED is `minconn generate` output to compare the
    written schema with)."""
    args = [HELPER, "prepare", workload, str(seed), out]
    if generated is not None:
        args.append(generated)
    run(args, timeout=150, stdout=sys.stderr)
    with open(os.path.join(out, "expect.json")) as f:
        return json.load(f)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def write_sent(out, ops):
    """OUT/sent.txt: the operations of a run in completion order, one
    "CONN KIND INDEX SECONDS" line each, for `perfbench replay`."""
    with open(os.path.join(out, "sent.txt"), "w") as f:
        for conn, kind, idx, secs in ops:
            f.write("%d %s %d %r\n" % (conn, kind, idx, secs))


# ----------------------------------------------------------------- cli_cold

def split_cli_blocks(stdout):
    """Per-query answer blocks of `solve --queries` output, or None."""
    blocks, cur = [], None
    for line in stdout.splitlines(keepends=True):
        if line.startswith("-- query "):
            cur = []
        elif line.startswith("minconn: query="):
            if cur is None or not line.rstrip().endswith("code=0"):
                return None
            blocks.append("".join(cur))
            cur = None
        elif cur is not None:
            cur.append(line)
    return blocks


def cli_invoke(out, extra=()):
    """One cold invocation: (wall_s, peak_rss_kb, exit_code, stdout)."""
    args = [CLI, "solve", os.path.join(out, "schema.txt"),
            "--queries", os.path.join(out, "queries.txt"), *extra]
    stdout_path = os.path.join(out, "cli.out")
    with open(stdout_path, "wb") as f:
        t0 = time.perf_counter()
        p = subprocess.Popen(args, stdout=f, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path) as f:
        text = f.read()
    return wall, usage.ru_maxrss, p.returncode, text


def cli_cold(expect, setup_s, out, seconds, trace):
    answers = [s["answer"] for s in expect["solves"]]
    walls, rss, outputs, probes = [], [], [], [probe()]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        wall, kb, code, text = cli_invoke(out)
        walls.append(wall)
        rss.append(kb)
        outputs.append((code, text))
        probes.append(probe())
    failed = sum(1 for code, text in outputs
                 if code != 0 or split_cli_blocks(text) != answers)
    log("cli_cold: %d invocations, median %.1f ms, probe median %.1f ms" % (
        len(walls), 1e3 * statistics.median(walls), 1e3 * statistics.median(probes)))
    result = {
        "attempted": len(outputs),
        "failed": failed,
        "metrics": {
            "setup_s": (setup_s, "s"),
            "op_wall_rel": (relative(walls, probes), "ratio"),
            "peak_rss_mb": (statistics.median(rss) / 1024, "MB"),
        },
    }
    write_sent(out, [(0, "C", 0, wall) for wall in walls])
    if trace:
        trace_path = os.path.join(out, "cli-trace.ndjson")
        wall, _, code, text = cli_invoke(out, ("--trace", trace_path))
        result["attempted"] += 1
        if code != 0 or split_cli_blocks(text) != answers:
            result["failed"] += 1
        folded = json.loads(run([HELPER, "fold", trace_path], timeout=60,
                                capture_output=True, text=True)
                            .stdout.splitlines()[-1])
        # The CLI's own trace replaces the in-process replay's coverage.
        result["layers"] = {"observe.span_coverage": folded["root_ms"] / (1e3 * wall)}
    return result


# -------------------------------------------------------------------- serve

def connect(port):
    return http.client.HTTPConnection("127.0.0.1", port, timeout=30)


def request(conn, method, path, body=b""):
    """One keep-alive request: (status, delta headers, body)."""
    conn.request(method, path, body=body)
    resp = conn.getresponse()
    body = resp.read()
    headers = {h: resp.getheader(h) for h in DELTA_HEADERS}
    return resp.status, headers, body


def start_server(workload, seed):
    """Spawn the server; returns (process, port, seconds until /healthz is 200)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([HELPER, "serve", workload, str(seed)],
                            stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    line = proc.stdout.readline()
    if not line.startswith("port="):
        stop_server(proc)
        raise BenchError("server did not start: %r" % line)
    port = int(line.strip()[len("port="):])
    while True:
        try:
            c = connect(port)
            status, _, _ = request(c, "GET", "/healthz")
            c.close()
            if status == 200:
                return proc, port, time.perf_counter() - t0
        except (OSError, http.client.HTTPException):
            pass
        if time.perf_counter() - t0 > 120:
            stop_server(proc)
            raise BenchError("server never became healthy")
        time.sleep(0.005)


def peak_rss_kb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError("no VmHWM for pid %d" % pid)


def stop_server(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def load(port, expect, mixed, seconds):
    """Closed loop on one keep-alive connection: each request is sent only
    after the previous answer arrived, and every BATCH_S seconds the loop
    pauses for a probe while the server idles. Returns the per-request
    records (batch, kind, index, latency_s, status, headers, body), batch
    -1 being the untimed warm-up, and the probe times."""
    solves, deltas = expect["solves"], expect["deltas"]
    records = []
    conn = connect(port)
    try:
        def send(batch, kind, idx):
            path, body = (("/schema/delta", deltas[idx]) if kind == "D"
                          else ("/solve", solves[idx]["body"]))
            t0 = time.perf_counter()
            status, headers, resp = request(conn, "POST", path, body.encode())
            records.append((batch, kind, idx, time.perf_counter() - t0,
                            status, headers, resp))

        for i in range(WARMUP):
            send(-1, "S", i % len(solves))
        probes = [probe()]
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline:
            batch_end = min(deadline, time.perf_counter() + BATCH_S)
            while time.perf_counter() < batch_end:
                if mixed and i % DELTA_EVERY == DELTA_EVERY - 1:
                    send(len(probes) - 1, "D", (i // DELTA_EVERY) % len(deltas))
                else:
                    send(len(probes) - 1, "S", i % len(solves))
                i += 1
            probes.append(probe())
    finally:
        conn.close()
    return records, probes


def request_ok(expect, rec):
    _, kind, idx, _, status, headers, body = rec
    if status != 200:
        return False
    if kind == "S":
        return body.decode() == expect["solves"][idx]["answer"]
    return (headers["X-Minconn-Deltas"] == "1"
            and headers["X-Minconn-Recompiled-Components"] not in (None, "all"))


def serve(workload, seed, expect, out, seconds, trace):
    setups = []
    proc = None
    try:
        for _ in range(1 if trace else SETUPS[workload]):
            if proc is not None:
                stop_server(proc)
            proc, port, setup = start_server(workload, seed)
            setups.append(setup)
        records, probes = load(port, expect, workload == "serve_mixed", seconds)
        rss_kb = peak_rss_kb(proc.pid)
    finally:
        if proc is not None:
            stop_server(proc)
    # Per batch, the median solve latency and the probes around the batch.
    batch_p50, around = [], []
    for b in range(len(probes) - 1):
        lat = [r[3] for r in records if r[0] == b and r[1] == "S"]
        if lat:
            batch_p50.append(statistics.median(lat))
            around.append((probes[b], probes[b + 1]))
    if not batch_p50:
        raise BenchError("no solve completed")
    rel = statistics.median(t / ((a + b) / 2) for t, (a, b) in zip(batch_p50, around))
    result = {
        "attempted": len(records),
        "failed": sum(1 for r in records if not request_ok(expect, r)),
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "op_wall_rel": (rel, "ratio"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        },
    }
    solves = [r[3] for r in records if r[0] >= 0 and r[1] == "S"]
    deltas = [r[3] for r in records if r[1] == "D"]
    log("%s: %d solves (median %.2f ms), %d deltas (median %.1f ms), probe median "
        "%.1f ms, %d failed" % (
            workload, len(solves), 1e3 * statistics.median(solves), len(deltas),
            1e3 * statistics.median(deltas) if deltas else 0.0,
            1e3 * statistics.median(probes), result["failed"]))
    write_sent(out, [(0,) + r[1:4] for r in records])
    if trace:
        result["layers"] = {}
    return result


# --------------------------------------------------------------------- main

def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def measure(workload, seed, seconds, trace):
    out = os.path.join(OUT, "%s-%d" % (workload, seed))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    if workload == "cli_cold":
        # Every invocation pays parse and compile itself, so the program's
        # only set-up is `minconn generate` writing the input file, which
        # must repeat exactly. The helper's file writing and answer checking
        # run after it, outside the timed region.
        paths = [os.path.join(out, "generated-%d.txt" % k)
                 for k in range(1 if trace else SETUPS[workload])]
        setup_s = statistics.median(generate(seed, p) for p in paths)
        if any(read_bytes(p) != read_bytes(paths[0]) for p in paths):
            raise BenchError("`minconn generate` gave different files for one seed")
        expect = prepare(workload, seed, out, paths[0])
        result = cli_cold(expect, setup_s, out, seconds, trace)
    else:
        expect = prepare(workload, seed, out)
        result = serve(workload, seed, expect, out, seconds, trace)
    result["attempted"] += expect["checked"]
    result["failed"] += expect["check_failures"]
    spec = load_spec()
    if trace:
        replayed = json.loads(run([HELPER, "replay", workload, str(seed), out],
                                  timeout=170, capture_output=True, text=True)
                              .stdout.splitlines()[-1])
        layers = dict(replayed, **result.pop("layers"))
        metrics = {m["name"]: (layers[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        metrics = result["metrics"]
        missing = {m["name"] for m in spec["end_to_end"]} - set(metrics)
        if missing:
            raise BenchError("unmeasured metrics: %s" % sorted(missing))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def selfcheck():
    """Determinism and smoke check: the same seed gives the same schema hash,
    request pool and answers; a short run of every workload, untraced and
    traced, emits every named metric with its unit."""
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    for w in WORKLOADS:
        prepared = []  # schema hash, request pool, deltas and answers
        for k in range(2):
            out = os.path.join(OUT, "selfcheck-%s-%d" % (w, k))
            shutil.rmtree(out, ignore_errors=True)
            os.makedirs(out)
            generated = None
            if w == "cli_cold":
                generated = os.path.join(out, "generated.txt")
                generate(7, generated)
            expect = prepare(w, 7, out, generated)
            prepared.append(expect)
        if prepared[0] != prepared[1]:
            ok = False
            log("%s: seed 7 prepared twice gave different inputs or answers" % w)
        for trace in (0, 1):
            r = measure(w, 7, 1, trace)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for m in wanted:
                got = r["metrics"].get(m["name"])
                if got is None or got["unit"] != units[m["name"]]:
                    ok = False
                    log("%s trace=%d: metric %s missing or mis-united" % (w, trace, m["name"]))
            if not r["correct"]:
                ok = False
                log("%s trace=%d: %d of %d operations failed" % (w, trace, r["failed"], r["attempted"]))
            log("%s trace=%d: %s" % (w, trace, json.dumps(r["metrics"])))
    print("selfcheck:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    a = ap.parse_args()
    if not a.selfcheck and a.workload is None:
        ap.error("--workload is required")
    try:
        build()
        if a.selfcheck:
            return selfcheck()
        result = measure(a.workload, a.seed, a.seconds, a.trace)
    except (BenchError, OSError, http.client.HTTPException, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        log("error:", e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
