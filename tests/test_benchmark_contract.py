"""What the benchmark in perfbench/ needs from the library: its traced CLI
operation still prints the golden report and records the spans it reads,
and its long-lived verify process still answers window and verify
requests.  The test only reads files under perfbench/."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def run_perfbench(argv, **kwargs):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]),
        PYTHONDONTWRITEBYTECODE="1",  # no __pycache__ under perfbench/
    )
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, **kwargs,
    )


def test_traced_analyze_prints_golden_report(tmp_path):
    morph = tmp_path / "fib.morph"
    morph.write_text("a -> a b\nb -> a\n", encoding="utf-8")
    spans_path = tmp_path / "spans.json"
    proc = run_perfbench([str(PERFBENCH / "cli_op.py"), str(spans_path), "analyze", str(morph), "--json"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (PERFBENCH / "golden" / "fibonacci.json").read_text(encoding="utf-8")
    names = {span[0] for span in json.loads(spans_path.read_text(encoding="utf-8"))}
    assert {
        "cli.analyze",
        "language.FactorLanguage.ensure",
        "morphism.IncidenceMatrix.power",
        # the window scan; analyze reaches verify_constant's verdict
        # through it, not through verify_constant itself
        "recognizability.minimal_constant_empirical",
    } <= names


def test_verify_process_answers_window_and_verify():
    requests = [
        {"op": 0, "kind": "window", "name": "fib", "rules": [["a", "ab"], ["b", "a"]],
         "seed": [2, "a", "a"], "radius": 100, "min_level": 2, "tower": False},
        {"op": 1, "kind": "verify", "name": "fib", "L": 1, "p": 1},
    ]
    stdin = "".join(json.dumps(req) + "\n" for req in requests)
    proc = run_perfbench([str(PERFBENCH / "verify_op.py"), "-"], input=stdin)
    assert proc.returncode == 0, proc.stderr
    replies = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [reply["op"] for reply in replies] == [0, 1]
    assert [reply["error"] for reply in replies] == [None, None]
    assert replies[1]["result"] == [True, None]
