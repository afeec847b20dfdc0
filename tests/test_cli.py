import cProfile
import io
import json
import os
import re
import resource
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from subrec.bignum import big_str
from subrec.cli import DEFAULT_RADIUS, _breakdown_json, analyze, emit_report, run
from subrec.fixedpoint import WINDOW_MAX_LETTERS
from subrec.recognizability import BigValue, BoundBreakdown
from subrec import (
    admissible_seeds,
    build_window,
    parse_morphism,
    recognizability,
    recognizability_bound,
    recurrence_constant_empirical,
    verify_constant,
    zoo,
)
from subrec.errors import InputError

from oracles import chain_text

FIB_TEXT = "a -> a b\nb -> a\n"
TM_TEXT = "a -> a b\nb -> b a\n"
PER_TEXT = "a -> a b\nb -> a b\n"
NONPRIM_TEXT = "a -> a\nb -> a b\n"
# the empirical bound's closure at length 54,210 would hold over 2.9e9 letters
ROADMAP4_TEXT = "a -> b c\nb -> a a d\nc -> b b d\nd -> d b b\n"
LONG_A_TEXT = f"a -> {' a' * 65} b\nb -> a\n"  # a 66-th power within 10,000 letters
# the K_emp return-word scan would need a window past RETURN_WINDOW_CAP
ROADMAP6_TEXT = "a -> e e\nb -> c e\nc -> f e a\nd -> d c\ne -> b f\nf -> e e d\n"
# N = 11, R = 627: the empirical bound counts p(i) up to 6899
STREAM_TEXT = "f -> u u\np -> f u x\nu -> u x\nx -> x p\n"
# 12-uniform on four letters: the certified R has 88 digits
U12_TEXT = (
    "a -> a b a c a d b b c a d a\nb -> b c b a d d a c b a b c\n"
    "c -> c d a b c a d b c c a b\nd -> d a c b d b a c d a c d\n"
)

SCHEMA_KEYS = {
    "alphabet", "rules", "primitive", "seeds", "constants",
    "complexity", "delay", "empirical", "bounds", "warnings",
}


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestExitCodes:
    def test_delay_success(self, morph_file):
        code, out, _ = invoke(["delay", morph_file("fib.morph", FIB_TEXT), "--max", "16"])
        assert code == 0
        assert "C=2" in out and "L_from_C=1" in out

    def test_delay_negative(self, morph_file):
        code, out, _ = invoke(["delay", morph_file("per.morph", PER_TEXT), "--max", "16"])
        assert code == 1
        assert "none" in out

    def test_verify_counterexample(self, morph_file):
        code, out, _ = invoke(["verify", morph_file("per.morph", PER_TEXT), "--L", "5"])
        assert code == 1
        assert "counterexample" in out

    def test_verify_ok(self, morph_file):
        code, out, _ = invoke(["verify", morph_file("fib.morph", FIB_TEXT), "--L", "1"])
        assert code == 0
        assert "ok" in out

    def test_missing_file(self):
        code, _, err = invoke(["analyze", "does-not-exist.morph"])
        assert code == 2
        assert err.strip()

    def test_not_utf8_file(self, tmp_path):
        path = tmp_path / "bad.morph"
        path.write_bytes(b"\xff\xfe")
        code, out, err = invoke(["analyze", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("subrec: ") and "UTF-8" in err

    def test_malformed_file(self, morph_file):
        code, _, err = invoke(["analyze", morph_file("bad.morph", "a -> a c\n")])
        assert code == 2
        assert "no rule" in err

    def test_bad_usage(self, morph_file):
        code, _, _ = invoke(["bound", morph_file("fib.morph", FIB_TEXT)])
        assert code == 2  # --mode is required


class TestSubcommands:
    def test_seeds(self, morph_file):
        code, out, _ = invoke(["seeds", morph_file("fib.morph", FIB_TEXT)])
        assert code == 0
        assert "power 2" in out and "a.a" in out and "b.a" in out

    def test_seeds_identity_names_the_cause(self, morph_file):
        # a -> a is the one primitive morphism without a seed
        path = morph_file("id.morph", "a -> a\n")
        cause = "every image is one letter, so no fixed point grows"
        assert invoke(["seeds", path]) == (0, f"no admissible seeds: {cause}\n", "")
        code, out, _ = invoke(["analyze", path, "--json"])
        assert code == 0
        assert f"no admissible seed: {cause}" in json.loads(out)["warnings"]

    def test_language(self, morph_file):
        code, out, _ = invoke(["language", morph_file("tm.morph", TM_TEXT), "--n", "3"])
        assert code == 0
        assert "p(3) = 6" in out

    def test_language_multichar_tokens(self, morph_file):
        # decode separates multi-character tokens by spaces, so the factors
        # go one per line to stay apart
        text = "[x] -> [x] [y]\n[y] -> [x]\n"
        code, out, _ = invoke(["language", morph_file("xy.morph", text), "--n", "2"])
        assert code == 0
        assert out.splitlines() == ["p(2) = 3", "[x] [x]", "[x] [y]", "[y] [x]"]

    def test_language_json(self, morph_file):
        code, out, _ = invoke(
            ["language", morph_file("fib.morph", FIB_TEXT), "--n", "2", "--json"]
        )
        data = json.loads(out)
        assert data["count"] == 3
        assert data["words"] == ["aa", "ab", "ba"]

    def test_bound_empirical(self, morph_file):
        code, out, _ = invoke(
            ["bound", morph_file("fib.morph", FIB_TEXT), "--mode", "empirical"]
        )
        assert code == 0
        assert "R=24" in out and "Q=31201" in out
        assert "<6523 digits" in out

    def test_bound_human_shortens_long_numbers(self, morph_file):
        code, out, _ = invoke(
            ["bound", morph_file("a65.morph", LONG_A_TEXT), "--mode", "certified"]
        )
        assert code == 0
        line = next(x for x in out.splitlines() if x.startswith("bound ~ 10^"))
        assert line.endswith("*|sigma^<178 digits, leading 164738530287...>| + |sigma^1|)")
        code, out, _ = invoke(
            ["bound", morph_file("u12.morph", U12_TEXT), "--mode", "certified"]
        )
        assert code == 0
        assert " R=<88 digits, leading 518454830882...> " in out
        assert "(<88 digits, leading 518454830882...>*|sigma^<404 digits" in out
        assert not re.search(r"\d{81}", out)

    def test_bound_certified_json(self, morph_file):
        code, out, _ = invoke(
            ["bound", morph_file("fib.morph", FIB_TEXT), "--mode", "certified", "--json"]
        )
        data = json.loads(out)["maindetail"]
        assert data["mode"] == "certified"
        assert data["R"] == "112784"
        assert "log10" in data["bound"]

    def test_verify_json(self, morph_file):
        code, out, _ = invoke(
            ["verify", morph_file("per.morph", PER_TEXT), "--L", "2", "--json"]
        )
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False
        assert data["counterexample"]["kind"] in {"not_a_cut", "preimage_mismatch"}

    def test_verify_json_counterexample_fields(self, morph_file):
        """verify --json writes every Counterexample field of the library's
        verdict on the same window, and nothing else."""
        code, out, _ = invoke(
            ["verify", morph_file("per.morph", PER_TEXT), "--L", "2", "--json"]
        )
        m = parse_morphism(PER_TEXT)
        window = build_window(m, admissible_seeds(m)[0], DEFAULT_RADIUS, min_level=1)
        ce = verify_constant(window, 2, 1).counterexample
        assert code == 1
        assert json.loads(out)["counterexample"] == {
            "preimage_index": ce.preimage_index,
            "cut_position": ce.cut_position,
            "position": ce.position,
            "kind": ce.kind,
        }

    def test_delay_json(self, morph_file):
        code, out, _ = invoke(
            ["delay", morph_file("tm.morph", TM_TEXT), "--max", "16", "--json"]
        )
        data = json.loads(out)
        assert data["C"] == 4
        assert data["failures"][0][0] == 1


class TestLargeAlphabet:
    """On the 25-letter chain (oracles.chain_text) the certified dQ has
    more than 4,300 digits, the interpreter's default str() limit."""

    @pytest.fixture
    def default_str_limit(self):
        if not hasattr(sys, "get_int_max_str_digits"):
            yield
            return
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(before)

    def test_certified_bound_writes_the_long_exponent(self, morph_file, default_str_limit):
        path = morph_file("chain25.morph", chain_text(25))
        code, out, _ = invoke(["bound", path, "--mode", "certified", "--safe-d", "--json"])
        assert code == 0
        data = json.loads(out)["maindetail"]
        # Q has 4,331 digits: Decimal converts both ways exactly, past the str() limit
        dq = str(Decimal(25 * int(Decimal(data["Q"]))))
        assert data["d"] == 25 and len(dq) > 4300
        assert data["M"]["expr"] == f"{data['R']}*|sigma^{dq}|"
        assert data["bound"]["expr"] == f"{data['R']}*|sigma^{dq}| + |sigma^25|"

    def test_analyze(self, morph_file):
        code, out, _ = invoke(["analyze", morph_file("chain25.morph", chain_text(25)), "--json"])
        assert code == 0
        assert json.loads(out)["constants"]["d"] == 2

    def test_big_str_leaves_the_limit(self, default_str_limit):
        assert big_str(10**5000 + 7) == "1" + "0" * 4999 + "7"
        if hasattr(sys, "get_int_max_str_digits"):
            assert sys.get_int_max_str_digits() == 4300

    def test_breakdown_writes_a_long_integer_K(self, default_str_limit):
        value = BigValue.from_int(5, "5")
        breakdown = BoundBreakdown(1, 2, 10**5000, 1, 3, 4, value, value, ())
        assert _breakdown_json(breakdown, "certified")["K"] == "1" + "0" * 5000


class TestAnalyzeReport:
    def test_schema_keys(self, fib):
        report = analyze(fib)
        data = json.loads(emit_report(report, as_json=True))
        assert set(data) == SCHEMA_KEYS
        assert set(data["primitive"]) == {"is", "witness"}
        assert set(data["seeds"]) == {"power", "pairs"}
        assert {"maindetail", "maindetail_certified", "closed_form"} <= set(data["bounds"])

    def test_json_round_trip(self, fib):
        report = analyze(fib)
        assert json.loads(emit_report(report, as_json=True)) == report

    def test_determinism(self, fib):
        first = emit_report(analyze(fib), as_json=True)
        second = emit_report(analyze(fib), as_json=True)
        assert first == second

    def test_big_integers_as_decimal_strings(self, fib):
        data = json.loads(emit_report(analyze(fib), as_json=True))
        maindetail = data["bounds"]["maindetail"]
        assert maindetail["R"] == "24"
        assert maindetail["Q"] == "31201"
        assert isinstance(maindetail["bound"], str)
        assert maindetail["digits"] == 6523
        certified = data["bounds"]["maindetail_certified"]
        assert set(certified["bound"]) == {"expr", "log10"}

    def test_klouda_medkova_present_for_uniform_binary(self, tm):
        data = json.loads(emit_report(analyze(tm), as_json=True))
        assert data["bounds"]["klouda_medkova"] == 8
        assert data["delay"]["C"] == 4

    def test_periodic_report_warnings(self, per):
        report = analyze(per)
        data = json.loads(emit_report(report, as_json=True))
        assert data["delay"]["C"] is None
        assert data["bounds"] == {}
        assert any("periodic" in w for w in data["warnings"])

    def test_every_heuristic_paired_with_warning(self, fib):
        data = json.loads(emit_report(analyze(fib), as_json=True))
        warnings = " ".join(data["warnings"])
        assert "screened" in warnings
        assert "window-relative" in warnings
        assert "lower bound" in warnings

    def test_nonprimitive_report(self):
        from subrec.morphism import parse_morphism

        report = analyze(parse_morphism("a -> a b\nb -> b"), max_delay=5)
        assert report["primitive"]["is"] is False
        assert report["bounds"] == {}
        # the delay search is not run, so no search bound is reported
        assert report["delay"] == {"C": None, "L_from_C": None, "n_max": None, "failures": []}
        assert "delay                search not run" in emit_report(report, as_json=False)

    def test_human_output_readable(self, fib):
        text = emit_report(analyze(fib), as_json=False)
        assert "primitive" in text
        assert "C=2" in text
        assert "warnings" in text

    def test_analyze_cli_end_to_end(self, morph_file):
        code, out, _ = invoke(
            ["analyze", morph_file("fib.morph", FIB_TEXT), "--json", "--radius", "500"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["empirical"]["L_lower"] == 1
        assert data["empirical"]["radius"] == 500


GOLDEN_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
GOLDEN = {
    "fibonacci": zoo.FIBONACCI,
    "thue_morse": zoo.THUE_MORSE,
    "tribonacci": zoo.TRIBONACCI,
    "collapsing": zoo.COLLAPSING,
    "periodic": zoo.PERIODIC,
    "aab_bca_cab": parse_morphism("a -> a a b\nb -> b c a\nc -> c a b"),
}


class TestGoldenReports:
    """``analyze --json`` output must not drift: the recorded reports are
    compared byte for byte (the CLI adds the final newline)."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_byte_identical(self, name):
        golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
        assert emit_report(analyze(GOLDEN[name]), as_json=True) + "\n" == golden


class TestSmallRadius:
    """The window is grown to level 1 and past |sigma|, and the L scan
    stops at the largest L it can check, so no radius is too small."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_radii_1_to_16(self, name):
        for radius in range(1, 17):
            data = json.loads(emit_report(analyze(GOLDEN[name], radius=radius), as_json=True))
            empirical = data["empirical"]
            assert empirical["radius"] == radius
            if empirical["L_heuristic"] is None:
                last = empirical["L_lower"] - 1
                assert f"no recognizability constant up to L={last} on the window" in data["warnings"]
            else:
                assert "heuristic constant is window-relative" in data["warnings"]

    def test_cli_exit_code(self, morph_file):
        code, out, _ = invoke(
            ["analyze", morph_file("per.morph", PER_TEXT), "--json", "--radius", "2"]
        )
        assert code == 0
        assert json.loads(out)["empirical"]["L_heuristic"] is None

    @pytest.mark.parametrize("radius", [0, -1])
    def test_radius_below_one_refused(self, radius, morph_file):
        with pytest.raises(InputError, match="radius must be >= 1"):
            analyze(zoo.FIBONACCI, radius=radius)
        code, out, err = invoke(
            ["analyze", morph_file("fib.morph", FIB_TEXT), "--json", "--radius", str(radius)]
        )
        assert (code, out) == (2, "")
        assert "radius must be >= 1" in err


class TestMaxDelayRefused:
    """max_delay is checked up front, so a non-primitive morphism, which
    never reaches the delay search, is refused as a primitive one is."""

    @pytest.mark.parametrize("text", [FIB_TEXT, NONPRIM_TEXT])
    def test_zero_refused(self, text, morph_file):
        with pytest.raises(InputError, match="max_delay must be >= 1"):
            analyze(parse_morphism(text), max_delay=0)
        code, out, err = invoke(
            ["analyze", morph_file("m.morph", text), "--json", "--max-delay", "0"]
        )
        assert (code, out) == (2, "")
        assert "max_delay must be >= 1" in err


class TestClosureCap:
    """A count or slice past STREAM_BASE whose words must hold more than
    language.CLOSURE_MAX_LETTERS letters is refused before it is built:
    the empirical bound and the language subcommand exit 3, and analyze
    keeps its report."""

    def test_bound_empirical_exits_3(self, morph_file):
        code, out, err = invoke(
            ["bound", morph_file("r4.morph", ROADMAP4_TEXT), "--mode", "empirical"]
        )
        assert (code, out) == (3, "")
        assert err == (
            "subrec: cap exceeded: language closure at length 54210 holds at least"
            " 2938778310 letters, past the cap 100000000\n"
        )

    def test_bound_empirical_streams_under_address_cap(self, morph_file):
        """R*N+2 = 6899 here, and L_6899 holds 40,190 words: stored, the
        slice needs over 400 MB.  The streamed count fits a 200 MB
        address-space cap with room to spare."""
        path = morph_file("stream.morph", STREAM_TEXT)
        cap = 200 << 20
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from subrec.cli import main; sys.exit(main())",
             "bound", "--mode", "empirical", "--json", path],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        detail = json.loads(proc.stdout)["maindetail"]
        assert (detail["N"], detail["R"], detail["Q"]) == ("11", "627", "505597640176")

    def test_long_slice_exits_3_under_address_cap(self, morph_file):
        """p(30000) = 30001 on Fibonacci, so L_30000 holds over 9e8
        letters: the slice is refused before it is built, not ended by a
        MemoryError."""
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from subrec.cli import main; sys.exit(main())",
             "language", morph_file("fib.morph", FIB_TEXT), "--n", "30000"],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20)),
            capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            "subrec: cap exceeded: language closure at length 30000 holds at least"
            " 900030000 letters, past the cap 100000000\n"
        )

    def test_periodic_long_slice_runs(self, morph_file):
        """A periodic slice is priced at P n letters, P the period: the
        closure starts from one length-n window of the ray, so L_1000000
        of a -> a b, b -> a b costs a few million letters and runs."""
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from subrec.cli import main; sys.exit(main())",
             "language", morph_file("per.morph", PER_TEXT), "--n", "1000000"],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
            capture_output=True, text=True, timeout=10,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.split("\n", 1)[0] == "p(1000000) = 2"

    def test_analyze_omits_maindetail(self, morph_file):
        code, out, _ = invoke(["analyze", morph_file("r4.morph", ROADMAP4_TEXT), "--json"])
        assert code == 0
        data = json.loads(out)
        assert sorted(data["bounds"]) == ["closed_form", "maindetail_certified"]
        omitted = [w for w in data["warnings"] if w.startswith("bounds.maindetail omitted")]
        assert len(omitted) == 1 and "language closure at length 54210" in omitted[0]


class TestInconclusiveRecurrenceRatio:
    """The K_emp scan outgrows its window cap on roadmap6: analyze reports
    K_emp as inconclusive and drops the bound that reads it, and bound
    --mode empirical is refused by the cap."""

    def test_analyze_keeps_other_bounds(self, morph_file):
        path = morph_file("r6.morph", ROADMAP6_TEXT)
        profile = cProfile.Profile()
        code, out, _ = profile.runcall(invoke, ["analyze", path, "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["constants"]["K_emp"] == "inconclusive"
        assert sorted(data["bounds"]) == ["closed_form", "maindetail_certified"]
        cap = "return-word scan needs window > cap 1000000"
        assert f"K_emp omitted: {cap}" in data["warnings"]
        assert f"bounds.maindetail omitted: {cap}" in data["warnings"]
        # the bound raises the stored refusal again instead of rescanning
        counts = {entry.code: entry.callcount for entry in profile.getstats()}
        assert counts.get(recurrence_constant_empirical.__wrapped__.__code__) == 1

    def test_bound_empirical_exits_3(self, morph_file):
        code, out, err = invoke(
            ["bound", morph_file("r6.morph", ROADMAP6_TEXT), "--mode", "empirical"]
        )
        assert (code, out) == (3, "")
        assert err == "subrec: cap exceeded: return-word scan needs window > cap 1000000\n"


class TestInconclusivePowerIndex:
    """A power past max_k leaves k unpinned: analyze drops the bound that
    needs it, and bound --mode empirical is refused by the cap."""

    def test_analyze_keeps_other_bounds(self, morph_file):
        code, out, _ = invoke(["analyze", morph_file("a65.morph", LONG_A_TEXT), "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["constants"]["k"] == "inconclusive"
        assert sorted(data["bounds"]) == ["closed_form", "maindetail_certified"]
        omitted = [w for w in data["warnings"] if w.startswith("bounds.maindetail omitted")]
        assert len(omitted) == 1 and "power-free index inconclusive" in omitted[0]

    def test_human_report_shortens_long_exponents(self, morph_file):
        code, out, _ = invoke(["analyze", morph_file("a65.morph", LONG_A_TEXT)])
        assert code == 0
        line = next(x for x in out.splitlines() if x.startswith("bound maindetail_certified"))
        assert "*|sigma^<178 digits, leading 164738530287...>| + |sigma^1|)" in line
        assert not re.search(r"\d{81}", out)

    def test_bound_empirical_exits_3(self, morph_file):
        code, out, err = invoke(
            ["bound", morph_file("a65.morph", LONG_A_TEXT), "--mode", "empirical"]
        )
        assert (code, out) == (3, "")
        assert err.startswith("subrec: cap exceeded: power-free index inconclusive")


class TestLog10PastFloatRange:
    """A log10 too large for a float is written as a string of 12
    significant digits, so the JSON stays strict and no line reads inf."""

    @staticmethod
    def strict_json(text):
        def refuse(name):
            raise ValueError(f"non-finite JSON constant {name}")

        return json.loads(text, parse_constant=refuse)

    def test_u12_reports(self, morph_file):
        path = morph_file("u12.morph", U12_TEXT)
        code, out, _ = invoke(["analyze", path, "--json"])
        assert code == 0
        bounds = self.strict_json(out)["bounds"]
        assert bounds["closed_form"]["log10"] == "7.70023289396e+484"
        assert bounds["maindetail_certified"]["log10"] == "5.91315343158e+403"
        code, out, _ = invoke(["bound", path, "--mode", "certified", "--json"])
        assert code == 0
        data = self.strict_json(out)["maindetail"]
        assert data["log10"] == data["bound"]["log10"] == "5.91315343158e+403"
        for argv in (["analyze", path], ["bound", path, "--mode", "certified"]):
            code, out, _ = invoke(argv)
            assert code == 0
            assert "inf" not in out
            assert "10^5.91315343158e+403 (" in out


class TestWindowCap:
    """verify and analyze refuse a window past fixedpoint.WINDOW_MAX_LETTERS
    up front; no option changes the cap."""

    @pytest.mark.parametrize("command", [["verify", "--L", "1"], ["analyze"]])
    def test_huge_radius_refused(self, command, morph_file):
        path = morph_file("fib.morph", FIB_TEXT)
        code, out, err = invoke([command[0], path, *command[1:], "--radius", "1000000000"])
        assert (code, out) == (3, "")
        assert f"exceeds cap {WINDOW_MAX_LETTERS}" in err


class TestExactCapEnvironment:
    def test_cap_forces_log_form(self, fib, monkeypatch):
        monkeypatch.setattr(recognizability, "DEFAULT_EXACT_CAP", 100)
        b = recognizability_bound(fib, "empirical_exact")
        assert b.bound.exact is None
        assert abs(b.bound.log10 - 6522.07) < 1.0


class TestReadmeQuickstart:
    """The README's CLI transcript, replayed: each ``$ subrec ...`` line runs
    in a directory holding fib.morph, and the lines shown under it must be
    its output, line for line.  A command shown without output must exit 0."""

    README = Path(__file__).resolve().parent.parent / "README.md"

    def transcript(self):
        text = self.README.read_text(encoding="utf-8")
        section = text.split("## Quickstart (CLI)", 1)[1]
        block = section.split("```", 2)[1]
        commands = []
        for line in block.strip("\n").splitlines():
            if line.startswith("$ subrec "):
                commands.append((line[len("$ subrec "):].split(), []))
            elif line:
                commands[-1][1].append(line)
        return commands

    def test_transcript(self, tmp_path, monkeypatch):
        (tmp_path / "fib.morph").write_text(FIB_TEXT, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        commands = self.transcript()
        assert len(commands) >= 3
        for argv, shown in commands:
            code, out, err = invoke(argv)
            assert err == "", argv
            if shown:
                assert out.splitlines() == shown, argv
            else:
                assert code == 0, argv


def test_import_loads_no_dataclasses():
    """Every CLI run is a fresh interpreter and pays each import:
    importing the package and its CLI loads neither dataclasses nor
    the inspect it pulls in (-S leaves out the site hooks, which are
    not the package's)."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, subrec, subrec.cli;"
         " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
