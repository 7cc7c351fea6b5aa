#!/usr/bin/env python3
"""Smoke-drive a running `hsa serve` instance over its TCP socket.

Usage: serve_smoke.py <host> <port>

Exercises the serving runtime the way CI's in-process tests cannot — as a
real external client against the real binary:

  * a reference query run alone, then the same query re-run while three
    other queries are in flight: results must be bit-identical;
  * a spilling query (tight budget, tiny cache) sharing the pool: exact
    answer, `spilled_runs > 0` in its report;
  * a victim cancelled mid-stream from a separate control connection:
    must die with `class == "timeout"`, `exit_class == 3`;
  * a victim whose memory slice is far below the resident floor: must die
    with `class == "budget"`, `exit_class == 2`;
  * on one connection, a `rows` line with whitespace inside both arrays
    (the decoder's slow path) answers bit-identically to the compact line
    (its fast path), and a non-UTF-8 line gets `class == "invalid-input"`
    while the connection's next query still completes;
  * on one connection, a `sum` without an input column and a `cache_kb`
    above the default 2048 are each refused with `invalid-input`, and the
    connection's next query completes.

Every assertion failure raises, so the process exits non-zero on any
protocol or correctness violation. Scratch-file hygiene is checked by the
caller (the server's --spill-dir must be empty after this script exits).
"""

import json
import socket
import sys
import threading
import time

HOST, PORT = sys.argv[1], int(sys.argv[2])


class Conn:
    def __init__(self):
        self.sock = socket.create_connection((HOST, PORT), timeout=60)
        self.f = self.sock.makefile("rwb")

    def send(self, obj):
        self.send_raw((json.dumps(obj) + "\n").encode())

    def send_raw(self, line):
        self.f.write(line)
        self.f.flush()

    def recv(self):
        line = self.f.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    def close(self):
        self.sock.close()


def submit(c, extra=None):
    req = {"op": "submit", "aggs": [["count"], ["sum", 0]]}
    if extra:
        req.update(extra)
    c.send(req)
    r = c.recv()
    if r.get("ok") == "queued":
        r = c.recv()
    assert r.get("ok") == "admitted", f"submit failed: {r}"
    return r["query_id"]


def push(c, keys, vals):
    c.send({"op": "rows", "keys": keys, "cols": [vals]})
    return c.recv()


def finish(c):
    """Drain result blocks; returns (sorted rows, done report)."""
    c.send({"op": "finish"})
    rows = []
    while True:
        r = c.recv()
        if "block" in r:
            b = r["block"]
            rows.extend(
                (k, [col[i] for col in b["cols"]]) for i, k in enumerate(b["keys"])
            )
        elif "done" in r:
            return rows, r["done"]
        else:
            raise AssertionError(f"unexpected finish reply: {r}")


def data(n, card):
    keys = [i * 2654435761 % card for i in range(n)]
    vals = list(range(n))
    return keys, vals


def expected(keys, vals):
    acc = {}
    for k, v in zip(keys, vals):
        cnt, tot = acc.get(k, (0, 0))
        acc[k] = (cnt + 1, tot + v)
    return [(k, [c, s]) for k, (c, s) in sorted(acc.items())]


def run_query(keys, vals, chunk=4096, extra=None):
    c = Conn()
    t0 = time.monotonic()
    qid = submit(c, extra)
    for at in range(0, len(keys), chunk):
        r = push(c, keys[at : at + chunk], vals[at : at + chunk])
        assert r.get("ok") == "rows", f"push failed: {r}"
    pushed = time.monotonic()
    rows, done = finish(c)
    end = time.monotonic()
    # A framing stall (a reply held back for the peer's delayed ACK) shows
    # here as tens of milliseconds of finish→done on a query this small.
    print(
        f"query {qid}: {len(keys)} rows in, {len(rows)} groups out, "
        f"submit→done {(end - t0) * 1e3:.1f} ms (finish→done {(end - pushed) * 1e3:.1f} ms)",
        flush=True,
    )
    c.close()
    return qid, rows, done


def wire_forms(keys, vals, want):
    """Compact vs spaced `rows` lines, then a non-UTF-8 line, on one connection."""
    compact = json.dumps(
        {"op": "rows", "keys": keys, "cols": [vals]}, separators=(",", ":")
    )
    spaced = compact.replace(",", " , ").replace("[", "[ ").replace("]", " ]")
    c = Conn()
    answers = []
    for line in (compact, spaced):
        submit(c)
        c.send_raw(line.encode() + b"\n")
        r = c.recv()
        assert r.get("ok") == "rows", f"push failed: {r}"
        answers.append(finish(c)[0])
    assert answers[0] == want, "compact rows line disagrees with the oracle"
    assert answers[1] == answers[0], "whitespace inside the arrays changed the answer"

    qid = submit(c)
    c.send_raw(b"\xff\n")
    r = c.recv()
    assert r.get("class") == "invalid-input" and r.get("exit_class") == 5, r
    assert r.get("query_id") == qid, r
    c.send_raw(compact.encode() + b"\n")
    r = c.recv()
    assert r.get("ok") == "rows", f"push after a non-UTF-8 line failed: {r}"
    assert finish(c)[0] == want, "the query after a non-UTF-8 line changed its answer"
    c.close()
    print("serve smoke: compact = spaced rows line; non-UTF-8 line answered", flush=True)


def refusals(keys, vals, want):
    """Requests the server refuses without running, then a query, on one connection."""
    c = Conn()
    for bad in ({"aggs": [["sum"]]}, {"cache_kb": 4096}):
        c.send({"op": "submit", "aggs": [["count"], ["sum", 0]], **bad})
        r = c.recv()
        assert r.get("class") == "invalid-input" and r.get("exit_class") == 5, (bad, r)
    submit(c)
    r = push(c, keys, vals)
    assert r.get("ok") == "rows", f"push after the refusals failed: {r}"
    assert finish(c)[0] == want, "the query after the refusals changed its answer"
    c.close()
    print("serve smoke: column-less sum and cache_kb 4096 refused", flush=True)


def main():
    keys, vals = data(20_000, 500)
    want = expected(keys, vals)
    wire_forms(keys, vals, want)
    refusals(keys, vals, want)

    # Reference run, alone on the server.
    _, alone, done = run_query(keys, vals)
    assert alone == want, "solo run disagrees with the oracle"
    assert done["report"]["report_version"] == 4, done["report"]
    assert done["report"]["query_id"] == done["query_id"], done

    results = {}
    errors = []

    def survivor():
        _, rows, _ = run_query(keys, vals)
        results["survivor"] = rows

    def spiller():
        skeys, svals = data(60_000, 20_000)
        _, rows, done = run_query(
            skeys, svals, extra={"mem_budget": 1_048_576, "cache_kb": 128}
        )
        assert rows == expected(skeys, svals), "spilling run changed the answer"
        assert done["report"]["stats"]["spilled_runs"] > 0, done["report"]["stats"]
        results["spiller"] = True

    def cancel_victim(started):
        c = Conn()
        qid = submit(c)
        started["qid"] = qid
        started["event"].set()
        for at in range(0, len(keys), 512):
            r = push(c, keys[at : at + 512], vals[at : at + 512])
            if "error" in r:
                assert r["class"] == "timeout", r
                assert r["exit_class"] == 3, r
                results["cancelled"] = True
                c.close()
                return
        # Every push got through before the cancel landed; finish must fail.
        c.send({"op": "finish"})
        r = c.recv()
        assert "error" in r and r["class"] == "timeout" and r["exit_class"] == 3, r
        results["cancelled"] = True
        c.close()

    def budget_victim():
        # A 1 KiB memory slice sits far below the resident floor (the
        # output blocks alone need ~12 KiB). With the server's spill dir
        # the intermediate runs can still go to disk, so the exhaustion
        # may only surface at finish — a budget error at either point
        # counts, finishing cleanly does not.
        c = Conn()
        submit(c, extra={"mem_budget": 1024})
        r = None
        for at in range(0, len(keys), 4096):
            r = push(c, keys[at : at + 4096], vals[at : at + 4096])
            if "error" in r:
                break
        if r is None or "error" not in r:
            c.send({"op": "finish"})
            while True:
                r = c.recv()
                assert "done" not in r, "a 1 KiB slice must be exhausted"
                if "error" in r:
                    break
        assert r["class"] == "budget", r
        assert r["exit_class"] == 2, r
        results["budgeted"] = True
        c.close()

    # Build the storm: survivor + spiller + budget victim + cancel victim,
    # all in flight, with a control connection issuing the cancel.
    started = {"event": threading.Event()}

    def wrapped(fn, *args):
        def go():
            try:
                fn(*args)
            except BaseException as e:  # noqa: BLE001 - reported in main
                errors.append(f"{fn.__name__}: {e!r}")

        return go

    threads = [
        threading.Thread(target=wrapped(survivor)),
        threading.Thread(target=wrapped(spiller)),
        threading.Thread(target=wrapped(budget_victim)),
        threading.Thread(target=wrapped(cancel_victim, started)),
    ]
    for t in threads:
        t.start()

    assert started["event"].wait(30), "cancel victim never submitted"
    control = Conn()
    control.send({"op": "cancel", "query_id": started["qid"]})
    r = control.recv()
    assert r.get("ok") == "cancelled", f"cancel failed: {r}"
    control.close()

    for t in threads:
        t.join(120)
        assert not t.is_alive(), "a client thread hung"
    assert not errors, "; ".join(errors)

    assert results["survivor"] == want, "survivor result corrupted by the storm"
    assert results["survivor"] == alone, "survivor not bit-identical to the solo run"
    for key in ("spiller", "cancelled", "budgeted"):
        assert results.get(key), f"{key} scenario did not complete"
    print("serve smoke: all scenarios passed")


if __name__ == "__main__":
    main()
