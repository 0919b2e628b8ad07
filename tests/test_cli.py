import contextlib
import hashlib
import importlib
import io
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

import knotgrp
from knotgrp import words
from knotgrp.cli import run

TREFOIL_DIAGRAM = """\
arcs 3
crossing over=1 in=2 out=3 sign=+
crossing over=2 in=3 out=1 sign=+
crossing over=3 in=1 out=2 sign=+
"""


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTorus:
    def test_golden_2_3(self, capsys):
        code, out, err = invoke(capsys, "torus", "2", "3")
        assert code == 0
        assert out == "gens: a b\nrel: a^2 b^-3\n"
        assert err == ""

    def test_gcd_error_exits_1_and_keeps_stdout_clean(self, capsys):
        code, out, err = invoke(capsys, "torus", "2", "4")
        assert code == 1
        assert out == ""
        assert "gcd" in err

    def test_kv_format(self, capsys):
        code, out, _ = invoke(capsys, "torus", "2", "3", "--format=kv")
        assert code == 0
        assert out == "gens\ta b\nrel\ta^2 b^-3\n"


class TestWirtinger:
    def test_builtin_trefoil(self, capsys):
        code, out, _ = invoke(capsys, "wirtinger", "builtin:trefoil")
        assert code == 0
        assert out.splitlines() == [
            "gens: a1 a2 a3",
            "rel: a1 a2 a1^-1 a3^-1",
            "rel: a2 a3 a2^-1 a1^-1",
            "rel: a3 a1 a3^-1 a2^-1",
        ]

    def test_diagram_file(self, capsys, tmp_path):
        path = tmp_path / "trefoil.knot"
        path.write_text(TREFOIL_DIAGRAM)
        code_file, out_file, _ = invoke(capsys, "wirtinger", str(path))
        code_builtin, out_builtin, _ = invoke(capsys, "wirtinger", "builtin:trefoil")
        assert code_file == 0
        assert out_file == out_builtin

    def test_oversized_numbers(self, capsys, tmp_path):
        digits = "7" * 5000
        for text in (f"arcs {digits}\n", TREFOIL_DIAGRAM.replace("over=1", f"over={digits}")):
            path = tmp_path / "big.knot"
            path.write_text(text)
            code, out, err = invoke(capsys, "wirtinger", str(path))
            assert code == 1 and out == "" and err.startswith("knotgrp: error:")

    def test_missing_file(self, capsys):
        code, out, err = invoke(capsys, "wirtinger", "/nonexistent/thing.knot")
        assert code == 1 and out == "" and "cannot read" in err

    def test_unknown_builtin(self, capsys):
        code, out, err = invoke(capsys, "wirtinger", "builtin:granny")
        assert code == 1 and out == "" and "unknown builtin" in err


class TestSimplify:
    def test_trefoil_pipeline(self, capsys, tmp_path):
        path = tmp_path / "p.pres"
        path.write_text(
            "gens: a1 a2 a3\n"
            "rel: a1 a2 a1^-1 a3^-1\n"
            "rel: a2 a3 a2^-1 a1^-1\n"
            "rel: a3 a1 a3^-1 a2^-1\n"
        )
        code, out, _ = invoke(capsys, "simplify", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gens: a2 a3"
        assert lines[1] == "rel: a2 a3 a2 a3^-1 a2^-1 a3^-1"
        assert all(line.startswith("move: ") for line in lines[2:])
        assert "move: remove generator a1 using relator 1" in lines

    def test_closed_2_braid_stdout_digest(self, capsys, tmp_path):
        # T(2,51): crossing k has over=k, in=k-1, out=k+1 (mod 51); the
        # digest pins the simplified presentation and all 50 move lines
        n = 51
        diagram = tmp_path / "t2-51.knot"
        diagram.write_text(f"arcs {n}\n" + "".join(
            f"crossing over={k} in={(k - 2) % n + 1} out={k % n + 1} sign=+\n" for k in range(1, n + 1)
        ))
        code, wirtinger, _ = invoke(capsys, "wirtinger", str(diagram))
        assert code == 0
        path = tmp_path / "t2-51.pres"
        path.write_text(wirtinger)
        code, out, _ = invoke(capsys, "simplify", str(path))
        assert code == 0 and len(out.splitlines()) == 52
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "43d51b38955688246949e9865d6aefece54028f3ca72cfb103b9e6b40e30ec26"
        )

    def test_relator_growth_is_a_budget_error(self, capsys, tmp_path, monkeypatch):
        # a_{i+1} = a_i b a_i doubles one relator per eliminated generator
        monkeypatch.setattr(words, "MAX_POWER_SYLLABLES", 10**4)
        k = 40
        lines = ["gens: " + " ".join(f"a{i}" for i in range(k + 1)) + " b"]
        lines += [f"rel: a{i + 1}^-1 a{i} b a{i}" for i in range(k)]
        lines.append(f"rel: a{k} b a{k}^-1 b^-2")
        path = tmp_path / "chain.pres"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = invoke(capsys, "simplify", str(path))
        assert code == 2 and out == "" and err.startswith("knotgrp: error:")


class TestInvariantCommands:
    def write(self, tmp_path, text):
        path = tmp_path / "p.pres"
        path.write_text(text)
        return str(path)

    def test_abelian(self, capsys, tmp_path):
        path = self.write(tmp_path, "gens: a b\nrel: a^2 b^-3")
        code, out, _ = invoke(capsys, "abelian", path)
        assert code == 0 and out == "abelian: Z\n"

    def test_homcount(self, capsys, tmp_path):
        path = self.write(tmp_path, "gens: a b\nrel: a^2 b^-3")
        code, out, _ = invoke(capsys, "homcount", path, "--target", "S3")
        assert code == 0 and out == "hom S3: 12\n"

    def test_homcount_budget_exit_2(self, capsys, tmp_path):
        path = self.write(tmp_path, "gens: a b c d e\n")
        code, out, err = invoke(
            capsys, "homcount", path, "--target", "S4", "--max-evals", "1000"
        )
        assert code == 2 and out == "" and "budget" in err

    def test_profile(self, capsys, tmp_path):
        path = self.write(tmp_path, "gens: a b\nrel: a^2 b^-3")
        code, out, _ = invoke(capsys, "profile", path, "--targets", "Z2,Z3,S3")
        assert code == 0
        assert out.splitlines() == [
            "note: equal profiles are necessary for isomorphism, not sufficient",
            "abelian: Z",
            "hom Z2: 2",
            "hom Z3: 3",
            "hom S3: 12",
        ]

    def test_profile_kv(self, capsys, tmp_path):
        path = self.write(tmp_path, "gens: a\nrel: a^2")
        code, out, _ = invoke(capsys, "profile", path, "--targets", "Z2", "--format=kv")
        assert code == 0
        assert out == (
            "note\tequal profiles are necessary for isomorphism, not sufficient\n"
            "abelian\tZ/2\n"
            "hom Z2\t2\n"
        )

    def test_huge_relator_power_is_a_budget_error(self, capsys, tmp_path):
        for exponent in (10**30, 10**12):
            path = self.write(tmp_path, f"gens: c a b\nrel: c^-1 a b\nrel: c^{exponent}\n")
            code, out, err = invoke(capsys, "simplify", path)
            assert code == 2 and out == "" and err.startswith("knotgrp: error:")
        code, out, _ = invoke(capsys, "homcount", path, "--target", "S3")
        assert code == 0 and out == "hom S3: 24\n"

    def test_profile_without_targets(self, capsys, tmp_path):
        path = self.write(tmp_path, "gens: a\n")
        code, out, err = invoke(capsys, "profile", path, "--targets", ",")
        assert code == 1 and out == "" and err == "knotgrp: error: no targets given\n"

    def test_bad_target(self, capsys, tmp_path):
        path = self.write(tmp_path, "gens: a\n")
        for target in ("Q8", "Z012", "Z02"):
            code, out, err = invoke(capsys, "homcount", path, "--target", target)
            assert code == 1 and out == "" and "unknown group" in err


class TestWordCommands:
    def test_nf_identity(self, capsys):
        code, out, _ = invoke(capsys, "nf", "2", "3", "a^2 b^-3")
        assert code == 0 and out == "nf: e\n"

    def test_nf_nontrivial(self, capsys):
        code, out, _ = invoke(capsys, "nf", "2", "3", "a^3 b^4")
        assert code == 0 and out == "nf: c^2 · a b\n"

    def test_eq_defining_relation(self, capsys):
        code, out, _ = invoke(capsys, "eq", "2", "3", "a^2", "b^3")
        assert code == 0 and out == "equal\n"

    def test_eq_not_equal(self, capsys):
        code, out, _ = invoke(capsys, "eq", "2", "3", "a b", "b a")
        assert code == 0 and out == "not equal\n"

    def test_eq_kv(self, capsys):
        code, out, _ = invoke(capsys, "eq", "2", "3", "a b", "b a", "--format=kv")
        assert code == 0 and out == "equal\tfalse\n"

    def test_fporder(self, capsys):
        code, out, _ = invoke(capsys, "fporder", "2", "3", "b a b^-1")
        assert code == 0 and out == "order: 2\n"

    def test_fporder_infinite(self, capsys):
        code, out, _ = invoke(capsys, "fporder", "2", "3", "a b")
        assert code == 0 and out == "order: infinite\n"

    def test_bad_word_is_input_error(self, capsys):
        code, out, err = invoke(capsys, "nf", "2", "3", "a^ b")
        assert code == 1 and out == "" and "malformed" in err

    def test_foreign_generator(self, capsys):
        code, out, err = invoke(capsys, "nf", "2", "3", "a x")
        assert code == 1 and out == "" and "unknown generator" in err

    def test_oversized_exponent(self, capsys):
        code, out, err = invoke(capsys, "nf", "2", "3", "a^" + "7" * 5000)
        assert code == 1 and out == "" and err.startswith("knotgrp: error:")


class TestRetraction:
    def test_report(self, capsys):
        code, out, _ = invoke(capsys, "retraction", "--lambda", "0.5235987755982988", "--grid", "16")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("lambda: ")
        assert "result: all checks passed" in lines
        assert all(": " in line for line in lines)

    def test_bad_lambda(self, capsys):
        code, out, err = invoke(capsys, "retraction", "--lambda", "3.3")
        assert code == 1 and out == ""

    def test_huge_grid_is_a_budget_error(self, capsys):
        code, out, err = invoke(capsys, "retraction", "--lambda", "0.5", "--grid", str(10**20))
        assert code == 2 and out == "" and err.startswith("knotgrp: error:")


class TestArgErrors:
    def test_no_arguments(self, capsys):
        code, out, err = invoke(capsys)
        assert code == 1 and out == ""

    def test_unknown_command(self, capsys):
        code, out, err = invoke(capsys, "frobnicate")
        assert code == 1 and out == "" and err != ""

    def test_missing_argument(self, capsys):
        code, out, err = invoke(capsys, "torus", "2")
        assert code == 1 and out == ""

    def test_non_integer(self, capsys):
        code, out, err = invoke(capsys, "torus", "two", "3")
        assert code == 1 and out == ""


# Fuzzed invocations: each value is well formed three times in four, else
# a near miss, a long digit run (past the 4,300-digit int() limit or just
# under it) or stray bytes. FILE in argv stands for the fuzzed file.
FILE = "@input"
_digits = st.integers(min_value=1, max_value=4400).map(lambda k: "9" * k)


def _mostly(valid, *faults):
    fault = st.one_of(*faults)
    return st.integers(min_value=0, max_value=3).flatmap(lambda k: valid if k else fault)


def _words_over(letters):
    syllables = st.builds(
        "{}^{}".format, st.sampled_from(letters), st.integers(min_value=-4, max_value=4)
    )
    junk = st.sampled_from(["^", "^-", "a^", "·", "(", "x", "a1", "b^"])
    return _mostly(
        st.lists(syllables, max_size=6).map(" ".join),
        st.builds("a^{} b".format, _digits),
        st.lists(junk, min_size=1, max_size=4).map(" ".join),
    )


_numbers = _mostly(
    st.integers(min_value=1, max_value=9).map(str),
    st.integers(min_value=-40, max_value=40).map(str),
    _digits,
    st.sampled_from(["", "-", "0x10", "1e3", "3.0", "+7", " 2", "٣"]),
)
_ab_words = _words_over("ab")
_presentations = st.builds(
    lambda gens, rels: f"gens: {gens}" + "".join(f"\nrel: {r}" for r in rels),
    _mostly(st.just("a b c"), st.sampled_from(["", "a", "a a", "a^2", "1"])),
    st.lists(_words_over("abc"), max_size=3),
)
_crossings = st.builds(
    "crossing over={} in={} out={} sign={}".format,
    *[st.integers(min_value=0, max_value=4)] * 3,
    st.sampled_from(["+", "-", "0"]),
)
_diagrams = st.one_of(
    st.just(TREFOIL_DIAGRAM),
    st.builds(
        lambda n, xs: "\n".join([f"arcs {n}"] + xs), _numbers, st.lists(_crossings, max_size=4)
    ),
)
_junk_files = st.one_of(
    st.lists(
        st.one_of(st.sampled_from(["gens:", "rel:", "arcs", "crossing", "=", "\n", "#"]), _digits),
        max_size=12,
    ).map(" ".join).map(str.encode),
    st.sampled_from([b"", b"gens: a\xff\n", b"\x00", b"\xfe\xff"]),
)
_sources = _mostly(
    st.just(FILE), st.sampled_from(["builtin:trefoil", "builtin:granny", "/nonexistent/x", "."])
)
_targets = _mostly(
    st.sampled_from(["S3", "Z5", "A4", "D4", "S5", "A5"]), st.sampled_from(["Z1", "Q8", "s3", ""])
)
_angles = _mostly(
    st.sampled_from(["0.5", "1.5", "1.0"]),
    st.sampled_from(["0", "1.5707963267948966", "nan", "-1", "x"]),
)
# grids up to 24 keep sampling cheap; five digits or more is past the
# sample budget and refused before any sampling
_grids = _mostly(
    st.integers(min_value=2, max_value=24).map(str),
    st.integers(min_value=-2, max_value=1).map(str),
    _digits.filter(lambda d: len(d) > 4),
)
_ARGS = {
    "torus": [_numbers, _numbers],
    "wirtinger": [_sources],
    "simplify": [_sources],
    "abelian": [_sources],
    "homcount": [_sources, st.just("--target"), _targets],
    "profile": [
        _sources, st.just("--targets"), st.lists(_targets, min_size=1, max_size=3).map(",".join)
    ],
    "nf": [_numbers, _numbers, _ab_words],
    "eq": [_numbers, _numbers, _ab_words, _ab_words],
    "fporder": [_numbers, _numbers, _ab_words],
    "retraction": [st.just("--lambda"), _angles, st.just("--grid"), _grids],
    "frobnicate": [],
}


@st.composite
def _invocations(draw):
    """(file contents, argv): a diagram file for wirtinger, a presentation
    for the other commands that read one, with faults as above."""
    command = draw(st.sampled_from(sorted(_ARGS)))
    argv = [command] + [draw(arg) for arg in _ARGS[command]]
    fault = draw(st.sampled_from(["none"] * 6 + ["drop", "extra"]))
    if fault == "drop" and len(argv) > 1:
        del argv[draw(st.integers(min_value=1, max_value=len(argv) - 1))]
    if fault == "extra":
        argv.append(draw(st.sampled_from(["--format=kv", "--format=xml", "--grid", "extra"])))
    if command in ("homcount", "profile"):
        argv += ["--max-evals", str(draw(st.integers(min_value=-2, max_value=3000)))]
    text = _diagrams if command == "wirtinger" else _presentations
    return draw(_mostly(text.map(str.encode), _junk_files)), argv


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_invocations())
    @example((b"gens: a\xff\n", ["abelian", FILE]))
    @example((b"gens: a b c\nrel: a^9999999999999999999 b\nrel: a^1\n", ["simplify", FILE]))
    def test_every_input_ends_in_one_of_three_ways(self, invocation):
        # exit 0 with nothing on stderr, or "knotgrp: error:" on stderr
        # with exit 1 (input) or 2 (budget) and nothing on stdout; an
        # exception out of run() fails the test as its traceback would
        contents, argv = invocation
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input")
            with open(path, "wb") as handle:
                handle.write(contents)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run([path if arg == FILE else arg for arg in argv])
        assert code in (0, 1, 2)
        if code:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("knotgrp: error: ")
        else:
            assert err.getvalue() == ""


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "p.pres"
        path.write_text("gens: a b\nrel: a^2 b^-3")
        outputs = set()
        for _ in range(3):
            _, out, _ = invoke(capsys, "profile", str(path), "--targets", "Z2,S3,D4")
            outputs.add(out)
        assert len(outputs) == 1


def child_env():
    """This environment with the imported knotgrp's source root first on
    PYTHONPATH, so a child interpreter imports the package under test."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(knotgrp.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        result = subprocess.run(
            [sys.executable, "-m", "knotgrp", "torus", "2", "3"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0
        assert result.stdout == "gens: a b\nrel: a^2 b^-3\n"

    def test_import_loads_no_numpy(self):
        result = subprocess.run(
            [sys.executable, "-c", "import sys, knotgrp; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0
        assert result.stdout == "False\n"


def modules_loaded_by(code):
    """The knotgrp modules a fresh interpreter holds after running code."""
    probe = "\nimport sys\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'knotgrp'))"
    result = subprocess.run(
        [sys.executable, "-c", code + probe],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


class TestLazyLoading:
    def test_import_loads_no_submodule(self):
        assert modules_loaded_by("import knotgrp") == {"knotgrp"}

    def test_word_query_loads_only_words_and_torus(self):
        code = "from knotgrp import cli\nassert cli.run(['nf', '2', '3', 'a b']) == 0"
        assert modules_loaded_by(code) == {
            "knotgrp",
            "knotgrp.cli",
            "knotgrp.errors",
            "knotgrp.words",
            "knotgrp.torus",
        }

    def test_retraction_loads_no_group_code(self):
        argv = ["retraction", "--lambda", "0.5", "--grid", "16"]
        code = f"from knotgrp import cli\nassert cli.run({argv!r}) == 0"
        loaded = modules_loaded_by(code)
        assert "knotgrp.geometry" in loaded
        for unused in ("words", "torus", "presentation", "invariants", "wirtinger"):
            assert f"knotgrp.{unused}" not in loaded

    def test_exports_are_the_objects_their_submodules_define(self):
        for module, names in knotgrp._EXPORTS.items():
            sub = importlib.import_module(f"knotgrp.{module}")
            for name in names:
                value = getattr(knotgrp, name)
                assert value is getattr(sub, name)
                if hasattr(value, "__qualname__"):
                    assert value.__module__ == sub.__name__

    def test_namespace_lists_and_binds_every_export(self):
        assert len(knotgrp.__all__) == len(set(knotgrp.__all__)) == 53
        assert set(knotgrp.__all__) <= set(dir(knotgrp))
        namespace = {}
        exec("from knotgrp import *", namespace)
        del namespace["__builtins__"]
        assert namespace == {name: getattr(knotgrp, name) for name in knotgrp.__all__}
        with pytest.raises(AttributeError, match="nope"):
            knotgrp.nope
