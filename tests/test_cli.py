import json
import time
from pathlib import Path

import pytest

from braidorbit import hecke, orbit
from braidorbit.cli import main

# the R-matrix file of the README: Drinfeld-Jimbo gl(2) at symbolic q
README_R = {
    "dim": 2,
    "symbols": ["q"],
    "q": "q",
    "entries": [
        {"out_pair": [1, 1], "in_pair": [1, 1], "value": "q"},
        {"out_pair": [2, 1], "in_pair": [1, 2], "value": "1"},
        {"out_pair": [1, 2], "in_pair": [1, 2], "value": "q - 1/q"},
        {"out_pair": [1, 2], "in_pair": [2, 1], "value": "1"},
        {"out_pair": [2, 2], "in_pair": [2, 2], "value": "q"},
    ],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_birank_superflip_11(capsys):
    code, out = run(capsys, "birank", "--builtin", "superflip", "--m", "1", "--n", "1")
    assert code == 0
    assert "bi-rank: (1|1)" in out


def test_orbit_dj2(capsys):
    code, out = run(capsys, "orbit", "--builtin", "dj_gl", "--N", "2",
                    "--q", "7/5", "--mu", "1,2")
    assert code == 0
    assert "regular: PASS" in out
    assert "hankel-det-nonzero: PASS" in out


def test_koszul_flip_conjecture_k3(capsys):
    code, out = run(capsys, "koszul", "--builtin", "flip", "--N", "2",
                    "--check", "conjecture1", "--k", "3")
    assert code == 0
    assert "conjecture1-k3: PASS" in out


def test_check_r_and_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run(capsys, "--out", str(out_path), "check-r",
                    "--builtin", "q_super", "--m", "1", "--n", "1", "--q", "9/7")
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["command"] == "check-r"
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert "elapsed_ms" not in doc


def test_report_byte_stability(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    for p in (p1, p2):
        code, _ = run(capsys, "--out", str(p), "birank",
                      "--builtin", "dj_gl", "--N", "2", "--q", "7/5")
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_ch_verify(capsys):
    code, out = run(capsys, "ch", "--builtin", "dj_gl", "--N", "2", "--q", "7/5",
                    "--cm", "2", "--cn", "0", "--verify")
    assert code == 0
    assert "ch-identity: PASS" in out
    assert "coefficient of L^2" in out


def test_param_symbolic(capsys):
    code, out = run(capsys, "param", "--mu", "mu1", "--nu", "nu1",
                    "--q", "q", "--kmax", "2")
    assert code == 0
    assert "vieta-even_1: PASS" in out


def test_cotangent_cli(capsys):
    code, out = run(capsys, "cotangent", "--builtin", "dj_gl", "--N", "2",
                    "--q", "7/5", "--mu", "1,2")
    assert code == 0
    assert "entrywise: PASS" in out


@pytest.mark.parametrize("argv", [
    "cotangent --builtin dj_gl --N 3 --q 7/5 --mu 1,2,3",
    "cotangent --builtin superflip --m 2 --n 1 --mu 1,2 --nu 3",
])
def test_cotangent_cli_size_three(capsys, argv):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert "entrywise: PASS" in out


def test_cotangent_cli_refuses_oversized_truncation(capsys):
    # p_5 and p_6 of dj_gl(4) would be reduced at truncation 6, a word space of
    # 17.9M words; the refusal comes before the idempotent is formed
    start = time.monotonic()
    code = main(["cotangent", "--builtin", "dj_gl", "--N", "4", "--q", "7/5",
                 "--mu", "1,2,3,5"])
    assert code == 3
    assert "exceeds cap" in capsys.readouterr().err
    assert time.monotonic() - start < 1


def test_cotangent_cli_reports_lemma_not_closed(capsys, monkeypatch):
    monkeypatch.setattr(orbit, "hankel_lemma", lambda hs, prof, H, targets: (6, 4))
    code, out = run(capsys, "cotangent", "--builtin", "dj_gl", "--N", "2",
                    "--q", "7/5", "--mu", "1,2")
    assert code == 1
    assert 'entrywise: FAIL  {"not_closed": "p_4 at truncation 6"}' in out


def test_mrea_cli(capsys):
    code, out = run(capsys, "mrea", "--builtin", "dj_gl", "--N", "2",
                    "--q", "7/5", "--mu", "1,2", "--h", "h")
    assert code == 0
    assert "nc-orbit-pipeline: PASS" in out


def test_mrea_cli_computes_orbit_coefficients_once(capsys, monkeypatch):
    calls = []
    real = orbit.orbit_coefficients

    def counting(profile):
        calls.append(profile)
        return real(profile)

    monkeypatch.setattr(orbit, "orbit_coefficients", counting)
    code, out = run(capsys, "mrea", "--builtin", "dj_gl", "--N", "2",
                    "--q", "7/5", "--mu", "1,2", "--h", "h")
    assert code == 0
    assert "hatted-recurrence: PASS" in out and "nc-orbit-pipeline: PASS" in out
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    "mrea --builtin flip --N 2 --q 1 --mu 0,3*h --h h",
    "mrea --builtin superflip --m 1 --n 1 --q 1 --mu 0 --nu 3*h --h h",
])
def test_mrea_cli_at_q1(capsys, argv):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert 'nc-orbit-pipeline: PASS  {"mode": "nc-classical"}' in out
    assert "nc-entrywise: PASS" in out


def test_mrea_file_symmetry_with_typed_symbols(tmp_path, capsys):
    # h is typed on the command line, q comes from the file as well
    path = tmp_path / "r.json"
    path.write_text(json.dumps(README_R))
    code, out = run(capsys, "mrea", "--file", str(path), "--q", "q", "--mu", "1,2",
                    "--h", "h")
    assert code == 0
    assert 'nc-orbit-pipeline: PASS  {"mode": "nc"}' in out


@pytest.mark.parametrize("argv", [
    "cotangent --builtin flip --N 2 --q 7/5 --mu 1,2",
    "mrea --builtin superflip --m 1 --n 1 --q 9/7 --mu 1 --nu 2 --h h",
])
def test_profile_q_other_than_symmetry_q_exits_2(capsys, argv):
    # flip and superflip have q = 1 whatever --q says; the profile must agree
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "is not the q = 1 of" in captured.err


def test_exceptional_orbit_exits_1(capsys):
    code, out = run(capsys, "orbit", "--builtin", "dj_gl", "--N", "2",
                    "--q", "7/5", "--mu", "49/25,1")
    assert code == 1
    assert "regular: FAIL" in out


def test_usage_error_exits_2(capsys):
    code = main(["check-r"])
    assert code == 2


def test_parse_error_exits_2(capsys):
    code = main(["orbit", "--builtin", "dj_gl", "--N", "2", "--q", "7/5",
                 "--mu", "1,,2"])
    assert code == 2


def test_huge_exponent_exits_3(capsys):
    code = main(["check-r", "--builtin", "dj_gl", "--N", "2", "--q", "2^100000000"])
    assert code == 3
    assert "exceeds cap" in capsys.readouterr().err


def test_oversized_symmetry_exits_3(capsys):
    # the entry bound of the former N^4-unknown skew-inverse system,
    # 40^4 (40^2 + 1), refuses dj_gl(40) before any operator is formed
    start = time.monotonic()
    code = main(["check-r", "--builtin", "dj_gl", "--N", "40", "--q", "7/5"])
    assert code == 3
    assert "exceeds cap" in capsys.readouterr().err
    assert time.monotonic() - start < 2


def test_koszul_all_checks(capsys):
    code, out = run(capsys, "koszul", "--builtin", "q_super", "--m", "1",
                    "--n", "1", "--q", "9/7", "--check", "all", "--k", "2")
    assert code == 0
    assert "projector-axioms: PASS" in out
    assert "d-squared-width2: PASS" in out
    assert "p2-action: PASS" in out


def test_file_based_symmetry(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(README_R))
    code, out = run(capsys, "check-r", "--file", str(path))
    assert code == 0
    assert "yang_baxter: PASS" in out
    code, out = run(capsys, "birank", "--file", str(path))
    assert code == 0
    assert "bi-rank: (2|0)" in out


def test_check_r_forms_the_yang_baxter_residual_once(capsys, monkeypatch):
    calls = []
    residual = hecke.yang_baxter_residual

    def counting(R):
        calls.append(R)
        return residual(R)

    monkeypatch.setattr(hecke, "yang_baxter_residual", counting)
    code, out = run(capsys, "check-r", "--builtin", "dj_gl", "--N", "3", "--q", "7/5")
    assert code == 0
    assert out.splitlines()[:3] == ["yang_baxter: PASS", "hecke: PASS", "skew_inverse: PASS"]
    assert len(calls) == 1


def test_check_r_failing_braiding_exits_1_and_names_the_residual(tmp_path, capsys):
    # R still braids, but its eigenvalues are q and -1/q, not 2 and -1/2
    doc = dict(README_R, q="2")
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert main(["check-r", "--file", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "NotHecke" in captured.err


@pytest.mark.parametrize("argv", [
    "check-r --builtin flip --N 0",
    "check-r --builtin dj_gl --N -2 --q 7/5",
    "check-r --builtin superflip --m 0 --n 0",
    "check-r --builtin q_super --m -1 --n 2 --q 7/5",
    '{"dim": 0, "entries": []}',
    '{"dim": -1, "entries": []}',
    '{"dim": 1.5, "entries": []}',
])
def test_impossible_dimension_exits_2(tmp_path, capsys, argv):
    if argv.startswith("{"):
        path = tmp_path / "r.json"
        path.write_text(argv)
        argv = ["check-r", "--file", str(path)]
    else:
        argv = argv.split()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_readme_command_block_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert len(lines) == 8
    for line in lines:
        prog, *argv = line.split()
        assert prog == "braidorbit"
        assert main(argv) == 0, line
