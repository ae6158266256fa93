"""CLI: exit codes, JSON reports, determinism, descriptor errors."""

import json
import os
import subprocess
import sys

import pytest

import mvtool as mv
from mvtool import cli


def run_cli(*argv):
    return cli.main(list(argv))


def run_json(capsys, *argv):
    code = cli.main(list(argv) + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_exit_codes(capsys):
    assert run_cli("check", "--model", "C", "--sequent", "gamma_3",
                   "--bound", "64") == 0
    assert run_cli("check", "--model", "L(2)", "--sequent", "xi",
                   "--bound", "3") == 1
    capsys.readouterr()


def test_check_json_report(capsys):
    code, rep = run_json(capsys, "check", "--model", "L(2)", "--sequent", "xi",
                         "--bound", "3")
    assert code == 1
    assert rep["schema"] == 1
    assert rep["verdict"] == "counterexample"
    assert rep["counterexample"] == {"x": "1/2"}
    assert rep["model"] == "L(2)"
    assert "elapsed_ms" in rep


def test_product_of_no_factors(capsys):
    assert run_cli("check", "--model", "Prod()", "--sequent", "MV.1",
                   "--bound", "1") == 0
    assert "verdict: holds" in capsys.readouterr().out
    assert run_cli("check", "--model", "Prod(C,)", "--sequent", "MV.1",
                   "--bound", "1") == 64
    assert "cannot parse model descriptor 'Prod(C,)'" in capsys.readouterr().err


def test_inconclusive_exit_code(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("true |-[x] bigvee n<=3 . x = n*1\n")
    code = run_cli("check", "--model", "C", "--sequent", f"@{seq}",
                   "--bound", "2")
    assert code == 2
    capsys.readouterr()


def test_usage_errors(capsys):
    assert run_cli("check", "--model", "Nosuch", "--sequent", "xi") == 64
    assert run_cli("check", "--model", "C", "--sequent", "nosuch") == 64
    with pytest.raises(SystemExit) as exc:
        run_cli("check", "--model", "C")  # missing --sequent
    assert exc.value.code == 64
    capsys.readouterr()
    for argv in (("check", "--model", "C", "--sequent", "MV.1"),
                 ("check", "--model", "PosCone(Z^2)", "--sequent", "M.14"),
                 ("check-family", "--model", "C", "--sequents", "MV.1")):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--bound", "3", "--exists-bound", "-5")
        assert exc.value.code == 64
        assert "--exists-bound must be >= 1" in capsys.readouterr().err


def test_unreadable_sequent_file_is_a_usage_error(tmp_path, capsys):
    undecodable = tmp_path / "latin1.txt"
    undecodable.write_bytes("true |-[x] x = x \xe9\n".encode("latin-1"))
    for path, reason in ((tmp_path / "missing.txt", "No such file"),
                         (tmp_path, "Is a directory"),
                         (undecodable, "can't decode")):
        assert run_cli("check", "--model", "C", "--sequent", f"@{path}") == 64
        err = capsys.readouterr().err
        assert err.startswith(f"mvtool: error: cannot read sequent @{path}: ")
        assert reason in err, path


def test_repeated_context_variable_is_a_usage_error(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("true |-[x,x] x <= neg x\n")
    assert run_cli("check", "--model", "C", "--sequent", f"@{seq}",
                   "--bound", "2") == 64
    assert "context repeats variable 'x'" in capsys.readouterr().err


def test_empty_label_list_is_a_usage_error(capsys):
    for labels in ("", ",", " , "):
        assert run_cli("check-family", "--model", "C", "--sequents", labels) == 64
        assert "names no sequent label" in capsys.readouterr().err


def test_carrier_cap(capsys, monkeypatch):
    monkeypatch.setenv("MVTOOL_MAX_CARRIER", "10")
    assert run_cli("check", "--model", "Prod(C,C)", "--sequent", "MV.2",
                   "--bound", "6") == 64
    monkeypatch.setenv("MVTOOL_MAX_CARRIER", "1000000")
    assert run_cli("check", "--model", "Prod(C,C)", "--sequent", "MV.2",
                   "--bound", "3") == 0
    capsys.readouterr()
    # 3^99999 has more digits than Python converts to a string.
    assert run_cli("check", "--model", "Z^99999", "--sequent", "L.1",
                   "--bound", "1") == 64
    assert ("Z^99999 enumerates more than 10^47711 elements at bound 1, above "
            "the cap of 1000000" in capsys.readouterr().err)


def test_carrier_cap_must_be_a_nonnegative_integer(capsys, monkeypatch):
    for raw, message in (("abc", "MVTOOL_MAX_CARRIER='abc' is not an integer"),
                         ("-5", "MVTOOL_MAX_CARRIER=-5 must be >= 0")):
        monkeypatch.setenv("MVTOOL_MAX_CARRIER", raw)
        assert run_cli("check", "--model", "C", "--sequent", "MV.1",
                       "--bound", "1") == 64
        assert capsys.readouterr().err == f"mvtool: error: {message}\n"
    # A cap of 0 is a cap: every carrier is above it.
    monkeypatch.setenv("MVTOOL_MAX_CARRIER", "0")
    assert run_cli("check", "--model", "C", "--sequent", "MV.1",
                   "--bound", "1") == 64
    assert "above the cap of 0" in capsys.readouterr().err


def test_carrier_cap_counts_intervals_without_enumerating(capsys, monkeypatch):
    def refuse(self, bound):
        raise AssertionError(f"{self.descriptor()} enumerated at bound {bound}")

    for group in (mv.ZGroup, mv.ZnGroup, mv.LexGroup):
        monkeypatch.setattr(group, "enumerate", refuse)
        monkeypatch.setattr(group, "interval", refuse)
    monkeypatch.delenv("MVTOOL_MAX_CARRIER", raising=False)
    for model in ("Sigma(Z^2)", "Gamma(Lex(Z,Z),(3,-1))", "Pointed(Sigma(Z),(0,1))"):
        assert run_cli("check", "--model", model, "--sequent", "MV.1",
                       "--bound", str(10 ** 6)) == 64
        assert "above the cap" in capsys.readouterr().err
    monkeypatch.setattr(mv.PositiveConeMonoid, "enumerate", refuse)
    monkeypatch.setenv("MVTOOL_MAX_CARRIER", "1000")
    assert run_cli("check", "--model", "PosCone(Z^3)", "--sequent", "M.1",
                   "--bound", "80") == 64
    assert "above the cap" in capsys.readouterr().err


def test_carrier_cap_counts_grothendieck_windows_without_enumerating(capsys, monkeypatch):
    def refuse(self, bound):
        raise AssertionError(f"{self.descriptor()} enumerated at bound {bound}")

    monkeypatch.setattr(mv.GrothendieckGroup, "enumerate", refuse)
    monkeypatch.setenv("MVTOOL_MAX_CARRIER", "100")
    assert run_cli("roundtrip", "--group", "Groth(N^2)", "--bound", "20") == 64
    assert "Groth(N^2) enumerates 1681 elements" in capsys.readouterr().err


def test_ant_check_cap_counts_the_unit_interval(capsys, monkeypatch):
    monkeypatch.delenv("MVTOOL_MAX_CARRIER", raising=False)
    # The windows have 2001^2 > 10^6 elements; ant_check reads the
    # intervals [0, (1,1)] (4 elements) and [0, (1,0)] (2002).
    assert run_cli("ant-check", "--group", "Z^2", "--unit", "(1,1)",
                   "--bound", "1000") == 1
    assert run_cli("ant-check", "--group", "Lex(Z,Z)", "--unit", "(1,0)",
                   "--bound", "1000") == 0
    capsys.readouterr()
    monkeypatch.setenv("MVTOOL_MAX_CARRIER", "2001")
    assert run_cli("ant-check", "--group", "Lex(Z,Z)", "--unit", "(1,0)",
                   "--bound", "1000") == 64
    assert "[0, (1,0)] of Lex(Z,Z) has 2002 elements" in capsys.readouterr().err
    assert run_cli("ant-check", "--group", "Z^2", "--unit", "(1,x)",
                   "--bound", "1000") == 64
    capsys.readouterr()


def test_carrier_cap_covers_the_search_window(capsys, monkeypatch):
    monkeypatch.setenv("MVTOOL_MAX_CARRIER", "1000")
    # N^2 has 16 elements at bound 3 and 10201 at bound 100.
    for argv in (("check", "--model", "N^2", "--sequent", "M.14"),
                 ("check-family", "--model", "N^2", "--sequents", "M.14")):
        assert run_cli(*argv, "--bound", "3", "--exists-bound", "100") == 64
        assert "above the cap" in capsys.readouterr().err
    # check-family searches at twice the bound by default: 41^2 > 1000.
    assert run_cli("check-family", "--model", "N^2", "--sequents", "M.13,M.14",
                   "--bound", "20") == 64
    assert "above the cap" in capsys.readouterr().err
    # A sequent without an existential never builds the search window.
    assert run_cli("check-family", "--model", "N^2", "--sequents", "M.3",
                   "--bound", "3", "--exists-bound", "100") == 0
    capsys.readouterr()


def test_check_family_json(capsys):
    code, rep = run_json(capsys, "check-family", "--model", "Prod(C,C)",
                         "--sequents", "P.1,P.2,P.3,beta", "--bound", "4")
    assert code == 1
    assert rep["results"]["P.3"]["verdict"] == "counterexample"
    assert rep["results"]["P.3"]["counterexample"] == {"x": "(0,1)"}
    assert rep["family_checks"][0]["agree"] is True


def test_roundtrip_commands(capsys):
    code, rep = run_json(capsys, "roundtrip", "--group", "Z", "--bound", "4")
    assert code == 0
    assert rep["direction"] == "group"
    assert rep["failures"] == []
    code, rep = run_json(capsys, "roundtrip", "--algebra", "C", "--bound", "4")
    assert code == 0
    assert rep["direction"] == "algebra"
    assert rep["failures"] == []


def test_decompose_command(capsys):
    code, rep = run_json(capsys, "decompose", "--model", "Prod(C,C)",
                         "--gens", "(1c,1-1c)", "--bound", "8")
    assert code == 0
    assert rep["atoms"] == ["(0,1)", "(1,0)"]
    assert rep["factor_descriptors"] == ["C", "C"]
    assert rep["perfect_verdicts"] == ["holds", "holds"]
    assert rep["reconstruction_verdict"] == "holds"


def test_decompose_factors_are_named_again(capsys):
    code, rep = run_json(capsys, "decompose", "--model", "Prod(Gamma(Z^2,(1,1)),C)",
                         "--gens", "((1,0),0),((0,0),1)", "--bound", "20")
    assert code == 0
    assert rep["factor_descriptors"] == ["Gamma(Z,1)", "C", "Gamma(Z,1)"]
    assert rep["reconstruction_verdict"] == "holds"
    for d in rep["factor_descriptors"]:
        assert mv.parse_mv(d).descriptor() == d


def test_ant_check_command(capsys):
    assert run_cli("ant-check", "--group", "Lex(Z,Z)", "--unit", "(1,0)",
                   "--bound", "6") == 0
    assert run_cli("ant-check", "--group", "Z", "--unit", "2",
                   "--bound", "4") == 1
    capsys.readouterr()
    code, rep = run_json(capsys, "ant-check", "--group", "Groth(N)",
                         "--unit", "[1,0]", "--bound", "4")
    assert code == 0 and rep["unit"] == "[1,0]"
    code, rep = run_json(capsys, "ant-check", "--group",
                         "Groth(PosCone(Lex(Z,Z)))", "--unit", "[(1,-3),(0,0)]",
                         "--bound", "3")
    assert code == 0 and rep["unit"] == "[(1,-3),(0,0)]"
    for group, unit, message in (
            ("Groth(N)", "[1,1]", "not canonical"),
            ("Groth(N)", "[1,0", "not a pair"),
            ("Groth(N)", "(1,0)", "not a pair"),
            ("Groth(N)", "[1,0,0]", "not a pair"),
            ("Groth(N)", "[-1,0]", "-1 is not in the positive cone"),
            ("Groth(N^2)", "[(1,0),(0)]", "does not have rank 2"),
            ("Groth(PosCone(Z^2))", "[(-1,0),(0,1)]", "not in the positive cone")):
        assert run_cli("ant-check", "--group", group, "--unit", unit) == 64
        assert message in capsys.readouterr().err, (group, unit)


def test_decompose_failure_path(capsys):
    code, rep = run_json(capsys, "decompose", "--model", "L(2)",
                         "--gens", "1", "--bound", "3")
    assert code == 1
    assert rep["reconstruction_verdict"] == "failed"
    assert rep["error"] == "factor 0 = L(2) is not perfect at bound 3: P.1 fails at 1/2"


def test_roundtrip_flag_validation(capsys):
    assert run_cli("roundtrip", "--group", "Z", "--algebra", "C") == 64
    assert run_cli("roundtrip") == 64
    capsys.readouterr()


def test_registry_list(capsys):
    code, rep = run_json(capsys, "registry-list")
    assert code == 0
    labels = {e["label"] for e in rep["entries"]}
    assert {"MV.1", "P.3'", "gamma_5", "chi_8", "L.12", "M.14",
            "rad_ideal.ix", "Ant.2", "Pstar.2", "phi_sup"} <= labels
    for e in rep["entries"]:
        assert e["doc"] and e["statement"] and e["models"]


def test_sequent_from_stdin():
    proc = subprocess.run(
        [sys.executable, "-m", "mvtool.cli", "check", "--model", "C",
         "--sequent", "@-", "--bound", "4"],
        input="true |-[x] x = x\n", capture_output=True, text=True)
    assert proc.returncode == 0
    assert "holds" in proc.stdout


def test_sequent_from_stdin_must_be_utf8(tmp_path):
    # Under a C locale sys.stdin decodes with surrogateescape; @- must
    # still refuse non-UTF-8 bytes as @file does.
    seq = tmp_path / "seq.txt"
    seq.write_bytes(b"\xff")
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    env["LC_ALL"] = "C"
    messages = []
    for spec, stdin in (("@-", b"\xff"), (f"@{seq}", b"")):
        proc = subprocess.run(
            [sys.executable, "-m", "mvtool.cli", "check", "--model", "C",
             "--sequent", spec], input=stdin, capture_output=True, env=env)
        assert proc.returncode == 64, proc.stderr
        messages.append(proc.stderr.decode())
    assert all("cannot read sequent" in m for m in messages), messages
    assert "unexpected character" not in messages[0]


def test_determinism_same_seed_same_json(capsys):
    def snapshot():
        reports = []
        for argv in (
            ["check", "--model", "C", "--sequent", "gamma_2", "--bound", "32",
             "--seed", "7"],
            ["check-family", "--model", "Sigma(Z^2)",
             "--sequents", "P.1,P.3,beta,rad_ideal.vii", "--bound", "4",
             "--seed", "7"],
            ["roundtrip", "--algebra", "B", "--bound", "4", "--seed", "7"],
            ["decompose", "--model", "Prod(C,C)", "--gens", "(1c,1-1c)",
             "--bound", "6", "--seed", "7"],
        ):
            code, rep = run_json(capsys, *argv)
            rep.pop("elapsed_ms")
            reports.append((code, rep))
        return reports

    assert snapshot() == snapshot()
