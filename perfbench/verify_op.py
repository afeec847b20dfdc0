"""Long-lived library process for the verify-wide workload.

``python3 verify_op.py SPANS_JSON|-`` reads one JSON request per line on
stdin and answers each with one JSON line on stdout:

  {"op": n, "kind": "window", "name": ..., "rules": [[a, image], ...],
   "seed": [e, a, b], "radius": r, "min_level": l, "tower": bool}
  {"op": n, "kind": "verify", "name": ..., "L": L, "p": p}

Only the library call is timed.  The process runs no correctness checks,
so its peak RSS is the library's own: it returns the raw result, and with
"tower" the window's tower too, for the harness to check.  The process
lives for the whole run, so the library's module-level caches
persist across morphisms as they would in any long-lived caller.  With a
spans path the calls are traced and the spans written at end of input.
"""

import json
import resource
import sys
import time

import corpus
import tracer


def main() -> int:
    spans_path = sys.argv[1]
    rec = None
    if spans_path != "-":
        rec = tracer.Recorder()
        tracer.install(rec)
    import subrec

    windows = {}
    for line in sys.stdin:
        req = json.loads(line)
        reply = {"op": req["op"], "error": None, "result": None}
        if rec is not None:
            rec.op = req["op"]
        name = req["name"]
        start = None
        try:
            if req["kind"] == "window":
                rules = tuple(tuple(r) for r in req["rules"])
                m = subrec.parse_morphism(corpus.render(rules))
                order = {a: i for i, (a, _) in enumerate(rules)}
                e, a, b = req["seed"]
                seed = subrec.FixedPointSeed(e, chr(order[a]), chr(order[b]))
                windows.pop(name, None)
                start = time.perf_counter()
                window = subrec.build_window(m, seed, req["radius"], min_level=req["min_level"])
                reply["wall_s"] = time.perf_counter() - start
                windows[name] = window
                reply["result"] = [len(window.content), window.max_level]
                if req["tower"]:
                    reply["tower"] = window.tower
            else:
                window = windows[name]
                start = time.perf_counter()
                result = subrec.verify_constant(window, req["L"], req["p"])
                reply["wall_s"] = time.perf_counter() - start
                ce = result.counterexample
                ce = None if ce is None else [ce.preimage_index, ce.cut_position, ce.position, ce.kind]
                reply["result"] = [result.ok, ce]
        except Exception as exc:  # reported as a failed operation; the loop goes on
            reply["error"] = type(exc).__name__
            reply["wall_s"] = 0.0 if start is None else time.perf_counter() - start
        if rec is not None:
            rec.finish()
        reply["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(reply), flush=True)
    if rec is not None:
        rec.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
