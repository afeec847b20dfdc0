"""subrec benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` there.  The run writes its morphism files, child output and
spans under ``.perfbench_work/<pid>/`` in the checkout and removes them at
the end.  It prints a digest of the corpus and of every report, one line per
metric with its unit, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones from a traced run.  The exit code is 1 when any output
fails its correctness check or any operation's outcome falls short of its
pinned one, and 2 when the checkout has no library.

Workloads (see README.md in this directory for the layer map):

* analyze-cli   ``subrec analyze --json FILE``, fresh interpreter per morphism.
* bound-stress  ``subrec bound --mode empirical --json FILE`` under an
                address-space cap and a wall cap.
* verify-wide   one long-lived library process: ``build_window`` once per
                morphism, then ``verify_constant`` over a fixed (L, p) grid.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import child  # noqa: E402
import corpus  # noqa: E402
import tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
WORK = WORK_ROOT / str(os.getpid())

GIB = 1 << 30
CLI_MAIN = "import sys; from subrec.cli import main; main()"
SETUP_RUNS = 31

WORKLOADS = {
    "analyze-cli": {"args": ["analyze", "--json"], "as_bytes": 2 * GIB, "wall_s": 60.0, "pass_s": 14.0},
    # A 12 s wall cap keeps a pass with two wall-cap kills inside one run
    # and leaves margin for the 6-letter ROADMAP case, which reaches its
    # WindowCapExceededError after 3-9 s on a 2-vCPU shared host.
    "bound-stress": {
        "args": ["bound", "--mode", "empirical", "--json"], "as_bytes": 1_500_000_000, "wall_s": 12.0,
        "pass_s": 41.0,
    },
    "verify-wide": {
        "radius": 1000, "min_level": 3, "grid_p": (1, 2, 3), "grid_L": (0, 1, 2, 4, 8),
        "as_bytes": 2 * GIB, "wall_s": 60.0, "pass_s": 10.0,
    },
}


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fill --seconds at the nominal pass time ``pass_s``.

    The count depends on --seconds alone, not on how fast this run goes, so
    every run pools the same number of samples and a tail percentile always
    sits at the same rank."""
    return max(1, round(seconds / WORKLOADS[workload]["pass_s"]))



def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_imports(count: int) -> list[float]:
    """Wall times of ``count`` fresh interpreters importing the library and
    its CLI."""
    argv = [sys.executable, "-c", "import subrec, subrec.cli"]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(argv, env=child_env(), cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that has
    at least 10 samples beyond it.  Below 100 samples that percentile would
    fall under p90, so the maximum (p100, none beyond) is reported instead."""
    xs = sorted(samples)
    n = len(xs)
    if n < 100:
        return xs[-1], 100.0, 0
    rank = n - 10  # 1-based rank with exactly 10 samples above it
    return xs[rank - 1], 100.0 * rank / n, 10


@dataclass
class Op:
    """One operation's outcome."""

    name: str
    wall_s: float
    rss_mb: float
    status: str
    reason: str
    detail: str = ""


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.cfg = WORKLOADS[workload]
        self.items = corpus.corpus(workload, seed)
        self.refs = {name: checks.Reference(rules) for name, rules, _ in self.items}
        self.correct = True
        self.problems: list[str] = []
        self.accepted: dict = {}  # op key -> output already checked in full
        self.digests: dict = {}
        self.op_counter = 0
        self.towers: dict = {}  # verify-wide: name -> checked window tower
        # analyze-cli's fixed reports must equal the golden files; a
        # re-recorded golden file must still hold the pinned values.
        self.golden = {}
        for name, _, fixed in self.items:
            if fixed and workload == "analyze-cli":
                self.golden[name] = (HERE / "golden" / f"{name}.json").read_bytes()
                problem = checks.check_pinned(name, self.golden[name])
                if problem:
                    self.wrong(f"golden/{name}.json: {problem}")

    # -- correctness -------------------------------------------------------

    def wrong(self, message: str):
        self.correct = False
        self.problems.append(message)

    def check_output(self, key, check):
        """Full check on the first output of an operation, equality with it
        on later passes."""
        def run_check(output):
            if key in self.accepted:
                return None if output == self.accepted[key] else "output differs from an earlier pass"
            problem = check(output)
            if problem is None:
                self.accepted[key] = output
                self.digests[key] = hashlib.sha256(output).hexdigest()[:16]
            return problem
        return run_check

    # -- CLI workloads -----------------------------------------------------

    def cli_check(self, name, fixed):
        ref = self.refs[name]
        if self.workload == "bound-stress":
            return lambda out: checks.check_bound(out, ref)
        if fixed:
            golden = self.golden[name]
            return lambda out: None if out == golden else f"report differs from golden/{name}.json"
        return lambda out: checks.check_report(out, ref)

    def cli_pass(self, traced: bool, totals):
        ops = []
        for name, rules, fixed in self.items:
            self.op_counter += 1
            path = WORK / f"{name}.morph"
            args = [*self.cfg["args"], str(path)]
            spans_path = WORK / f"spans-{self.op_counter}.json"
            if traced:
                argv = [sys.executable, str(HERE / "cli_op.py"), str(spans_path), *args]
            else:
                argv = [sys.executable, "-c", CLI_MAIN, *args]
            outcome = child.run_capped(
                argv, child_env(), ROOT, self.cfg["as_bytes"], self.cfg["wall_s"],
                WORK / "stdout", WORK / "stderr", graceful=traced)
            child.classify(outcome, self.check_output(name, self.cli_check(name, fixed)))
            detail = outcome.extra.get("problem") or outcome.extra.get("message", "")
            pinned = checks.BOUND_OUTCOMES[name] if self.workload == "bound-stress" else "solved"
            problem = checks.check_outcome(pinned, outcome.reason)
            if problem:
                self.wrong(f"{name}: {problem}" + (f": {detail}" if detail else ""))
            ops.append(Op(name, outcome.wall_s, outcome.rss_mb, outcome.status, outcome.reason, detail))
            if traced:
                if spans_path.exists():
                    totals.add(json.loads(spans_path.read_text()))
                    spans_path.unlink()
                else:
                    totals.lost_ops += 1
        return ops

    # -- verify-wide -------------------------------------------------------

    def start_library(self, spans_path):
        script = [sys.executable, str(HERE / "verify_op.py"), str(spans_path) if spans_path else "-"]
        return child.LongLived(script, child_env(), ROOT, self.cfg["as_bytes"], WORK / "stderr")

    def verify_check(self, name, rules, req, result, reply):
        """Full check of a call's first result, here in the harness so the
        library process's peak RSS is its own."""
        if req["kind"] == "window":
            self.towers[name] = reply["tower"]
            return checks.check_window(rules, req["seed"], req["radius"], req["min_level"],
                                       self.towers[name])
        return checks.check_verdict(rules, self.towers[name], req["L"], req["p"], *result)

    def verify_pass(self, lib_holder: dict, pass_no: int):
        """One operation per morphism: its window, then the (L, p) grid.
        The operation's time is the sum of the timed library calls, or the
        measured time of a call that got no answer.  Every operation is
        solved at the commit that added the benchmark, so any failure
        makes the run wrong."""
        cfg = self.cfg
        ops = []
        for name, rules, _ in self.items:
            requests = [("window", {"kind": "window", "name": name, "rules": rules,
                                    "seed": self.refs[name].seed,
                                    "radius": cfg["radius"], "min_level": cfg["min_level"]})]
            requests += [(f"L{L}p{p}", {"kind": "verify", "name": name, "L": L, "p": p})
                         for p in cfg["grid_p"] for L in cfg["grid_L"]]
            wall = rss = 0.0
            failure = None
            verdicts = collections.Counter()
            for label, req in requests:
                key = (name, label)
                self.op_counter += 1
                req = dict(req, op=pass_no * 100_000 + self.op_counter)
                if label == "window":
                    req["tower"] = key not in self.accepted
                reply, elapsed = lib_holder["lib"].request(req, cfg["wall_s"])
                if reply is None:
                    lib_holder["rss"] = max(lib_holder.get("rss", 0.0), lib_holder["lib"].close(1.0))
                    lib_holder["lib"] = self.start_library(lib_holder["spans"])
                    wall += elapsed
                    failure = ("wall_cap_or_death", label, "no answer within the wall cap")
                    break
                wall += reply["wall_s"]
                rss = max(rss, reply["rss_mb"])
                if reply["error"]:
                    failure = (reply["error"], label, f"raised {reply['error']}")
                    break
                result = reply["result"]
                if key in self.accepted:
                    problem = None if result == self.accepted[key] else "result differs from an earlier pass"
                else:
                    problem = self.verify_check(name, rules, req, result, reply)
                    if problem is None:
                        self.accepted[key] = result
                        self.digests[key] = hashlib.sha256(repr(result).encode()).hexdigest()[:16]
                if problem:
                    failure = ("wrong_output", label, problem)
                    break
                if label != "window":
                    verdicts["passed" if reply["result"][0] else "refuted"] += 1
            detail = " ".join(f"{k}={v}" for k, v in sorted(verdicts.items()))
            if failure is None:
                ops.append(Op(name, wall, rss, child.SOLVED, "ok", f"{len(requests)} calls, {detail}"))
            else:
                self.wrong(f"{name}:{failure[1]}: {failure[2]}")
                ops.append(Op(name, wall, rss, child.FAILED, failure[0], f"at {failure[1]}, {detail}"))
        return ops

    # -- passes ------------------------------------------------------------

    def passes(self, traced: bool, count: int, between=None):
        """``count`` closed-loop passes, with ``between(i)`` called before
        pass i and, as ``between(count)``, after the last.  Returns (list
        of op lists, list of per-pass LayerTotals, peak RSS of a long-lived
        child)."""
        results, totals_list = [], []
        lib_holder = {}
        if self.workload == "verify-wide":
            lib_holder["spans"] = WORK / "spans-library.json" if traced else None
            lib_holder["lib"] = self.start_library(lib_holder["spans"])
        while len(results) < count:
            if between:
                between(len(results))
            totals = tracer.LayerTotals()
            if self.workload == "verify-wide":
                ops = self.verify_pass(lib_holder, len(results) + 1)
            else:
                ops = self.cli_pass(traced, totals)
            results.append(ops)
            totals_list.append(totals)
        if between:
            between(count)
        lib_rss = 0.0
        if self.workload == "verify-wide":
            lib_rss = max(lib_holder.get("rss", 0.0), lib_holder["lib"].close())
            if traced:
                self.split_library_spans(lib_holder["spans"], totals_list)
        return results, totals_list, lib_rss

    @staticmethod
    def split_library_spans(path, totals_list):
        spans = json.loads(path.read_text()) if path.exists() else []
        by_pass: dict[int, list] = {}
        for i, span in enumerate(spans):
            by_pass.setdefault(span[4] // 100_000, []).append(i)
        for pass_no, totals in enumerate(totals_list, start=1):
            idx = by_pass.get(pass_no, [])
            remap = {old: new for new, old in enumerate(idx)}
            local = [[s[0], remap.get(s[1], -1), *s[2:]] for s in (spans[i] for i in idx)]
            totals.add(local)


def end_to_end(passes, setup, lib_rss) -> dict:
    pass_times = [sum(op.wall_s for op in ops) for ops in passes]
    walls = [op.wall_s for ops in passes for op in ops]
    solved = sum(op.status == child.SOLVED for ops in passes for op in ops)
    value, pct, beyond = tail(walls)
    values = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh imports spread over the run"),
        "corpus_s": (statistics.median(pass_times), "s",
                     f"median of {len(passes)} passes: " + " ".join(f"{t:.3f}" for t in pass_times)),
        "op_s.p50": (statistics.median(walls), "s", f"n={len(walls)}"),
        "op_s.tail": (value, "s", f"p{pct:.1f}, n={len(walls)}, {beyond} beyond"),
        "peak_rss_mb": (max([op.rss_mb for ops in passes for op in ops] + [lib_rss]), "MB",
                        "max over operations of the child's own peak RSS"),
        "solved_per_min": (solved / (sum(pass_times) / 60.0), "1/min", f"{solved} solved"),
    }
    return values


def outcome_values(all_ops) -> dict:
    attempted = len(all_ops)
    failed = sum(op.status == child.FAILED for op in all_ops)
    refused = sum(op.status == child.REFUSED for op in all_ops)
    return {
        "outcome.fail_frac": (failed / attempted, "1", f"{failed}/{attempted}"),
        "outcome.refused_frac": (refused / attempted, "1", f"{refused}/{attempted}"),
    }


def per_layer(totals_list, traced_passes, untraced_passes, all_ops, names) -> dict:
    def med(get):
        return statistics.median(get(t) for t in totals_list)

    values = {}
    for name, unit in names:
        if name.endswith(".self_s"):
            key = name[: -len(".self_s")]
            values[name] = (med(lambda t: t.self_s.get(key, 0.0)), unit, "")
        elif name.endswith(".calls"):
            key = name[: -len(".calls")]
            values[name] = (med(lambda t: t.calls.get(key, 0)), unit, "")
        elif name.endswith(".failed"):
            key = name[: -len(".failed")]
            exc = {}
            for t in totals_list:
                exc.update(t.exceptions.get(key, {}))
            values[name] = (med(lambda t: t.failed.get(key, 0)), unit, ",".join(sorted(exc)))
        elif name in ("language.closure_len", "language.closure_words", "language.closure_letters",
                      "recognizability.verifier.max_bucket", "morphism.matrix_power.max_digits"):
            values[name] = (med(lambda t: t.maxima.get(name, 0)), unit, "largest per pass")
        elif name in ("fixedpoint.window_letters", "fixedpoint.tower_levels",
                      "recognizability.bound_N", "recognizability.bound_R"):
            values[name] = (med(lambda t: t.counters.get(name, 0)), unit, "sum per pass")
    traced = statistics.median(sum(op.wall_s for op in ops) for ops in traced_passes)
    untraced = statistics.median(sum(op.wall_s for op in ops) for ops in untraced_passes)
    values["trace.corpus_s"] = (traced, "s", f"median of {len(traced_passes)} traced passes")
    values["trace.overhead_s"] = (traced - untraced, "s", f"traced minus untraced corpus_s {untraced:.3f}")
    values["trace.lost_ops"] = (sum(t.lost_ops for t in totals_list), "count",
                                "operations whose spans were not written")
    values.update(outcome_values(all_ops))
    return values


def print_outcomes(passes):
    mix = collections.Counter(f"{op.status}:{op.reason}" for ops in passes for op in ops)
    print("outcomes " + " ".join(f"{k}={v}" for k, v in sorted(mix.items())))
    for op in passes[0]:
        extra = f" ({op.detail})" if op.detail else ""
        print(f"  op {op.name:<14} {op.status:<8} {op.reason:<14} {op.wall_s:9.4f} s {op.rss_mb:8.1f} MB{extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "subrec" / "__init__.py").is_file():
        print(f"perfbench: no library at {SRC}/subrec; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    WORK.mkdir(parents=True)
    try:
        return measure(args, spec)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still has its directory there


def measure(args, spec) -> int:
    run = Run(args.workload, args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"corpus digest={corpus.digest(run.items)} ops/pass={len(run.items)}")
    for name, rules, fixed in run.items:
        (WORK / f"{name}.morph").write_text(corpus.render(rules), encoding="utf-8")
        print(f"  morphism {name:<12} {'fixed ' if fixed else 'random'} {'; '.join(f'{a}->{im}' for a, im in rules)}")

    count = pass_count(args.workload, args.seconds)
    if args.trace:
        untraced, _, _ = run.passes(False, 1)
        traced, totals, _ = run.passes(True, count)
        all_ops = [op for ops in untraced + traced for op in ops]
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = per_layer(totals, traced, untraced, all_ops, names)
        shown = traced
    else:
        # setup_s: fresh imports in batches before each pass and after the
        # last, so the median spans the run's whole time rather than one
        # moment of a shared host's drifting speed.  One untimed import
        # first leaves the bytecode cache as users have it.
        time_imports(1)
        setup = []
        slots = count + 1

        def setup_batch(slot):
            setup.extend(time_imports(SETUP_RUNS * (slot + 1) // slots - SETUP_RUNS * slot // slots))

        passes, _, lib_rss = run.passes(False, count, setup_batch)
        all_ops = [op for ops in passes for op in ops]
        values = end_to_end(passes, setup, lib_rss)
        values.update(outcome_values(all_ops))
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        shown = passes

    print_outcomes(shown)
    grouped: dict[str, list[str]] = {}
    for key, digest in run.digests.items():
        grouped.setdefault(key if isinstance(key, str) else key[0], []).append(digest)
    for name, digests in grouped.items():
        combined = digests[0] if len(digests) == 1 else corpus.digest(digests)
        print(f"  digest {name:<14} {combined} ({len(digests)} outputs)")
    for name, (value, unit, note) in values.items():
        print(f"{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for problem in run.problems:
        print(f"WRONG {problem}")

    missing = [n for n, _ in names if n not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    result = {
        "correct": run.correct,
        "attempted": len(all_ops),
        "failed": sum(op.status == child.FAILED for op in all_ops),
        "metrics": {n: {"value": values[n][0], "unit": u} for n, u in names},
    }
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
