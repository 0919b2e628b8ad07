import hashlib
import subprocess
import sys

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


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "p.pres"
        path.write_text("gens: a b\nrel: a^2 b^-3")
        outputs = set()
        for _ in range(3):
            _, out, _ = invoke(capsys, "profile", str(path), "--targets", "Z2,S3,D4")
            outputs.add(out)
        assert len(outputs) == 1


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        result = subprocess.run(
            [sys.executable, "-m", "knotgrp", "torus", "2", "3"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "gens: a b\nrel: a^2 b^-3\n"

    def test_import_loads_no_numpy(self):
        result = subprocess.run(
            [sys.executable, "-c", "import sys, knotgrp; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "False\n"
