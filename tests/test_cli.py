"""Command-line interface: exit codes, report files, byte stability."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import tlcat.cli as cli
from tlcat.cli import main
from tlcat.render import parse_renderable
from tlcat.report import VerificationReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_usage_errors(capsys, tmp_path):
    code, _, _ = run(capsys, "verify", "bogus")
    assert code == 2
    code, _, _ = run(capsys, "verify", "braid", "--spec", "nonsense:1",
                     "--out", str(tmp_path / "x.json"))
    assert code == 2
    # suites that compute generically refuse a non-generic spec
    for suite, spec in (("braid", "root:3"), ("all", "rational:2")):
        out = tmp_path / f"{suite}.json"
        code, _, err = run(capsys, "verify", suite, "--spec", spec,
                           "--out", str(out))
        assert code == 2
        assert "repr" in err and "fusion" in err
        assert not out.exists()
    # s0 = 0 and a zero denominator are not points; --max-n is at least 1
    for argv in (("fusion", "--spec", "rational:0"), ("fusion", "--spec", "rational:1/0"),
                 ("repr", "--max-n", "-3"), ("repr", "--max-n", "0")):
        out = tmp_path / "bad.json"
        code, _, err = run(capsys, "verify", *argv, "--out", str(out))
        assert code == 2 and err.startswith("error:")
        assert not out.exists()
    code, _, _ = run(capsys, "fusion-table", "1", "1", "1", "1", "--spec", "rational:0")
    assert code == 2
    # at s = 1 the central eigenvalues of the summands k = 1 and 3 coincide
    code, out, err = run(capsys, "fusion-table", "2", "2", "1", "1", "--spec", "rational:1")
    assert code == 1 and not out
    assert err == "error: central eigenvalues collide at rational(s=1)\n"
    code, _, err = run(capsys, "eigen", "--module", "3", "2")
    assert code == 2
    code, _, err = run(capsys, "fusion-table", "2", "1", "1", "1")
    assert code == 2 and err == "error: no standard module S_2,1\n"
    code, _, _ = run(capsys, "render", "not a diagram")
    assert code == 2
    # a coefficient that is not a well-formed sum
    code, out, err = run(capsys, "render", "1<-1 : [- - s] * 1x1:[(1,2)]")
    assert code == 2 and not out and err.startswith("error:")
    # a zero denominator and an exponent outside the box are not scalars
    for coeff in ("1/0", "(1) / (0)", "s^99999999"):
        code, out, err = run(capsys, "render", f"1<-1 : [{coeff}] * 1x1:[(1,2)]")
        assert code == 2 and not out and err.startswith("error:")
    # an eigenvalue whose exponent leaves the box
    code, out, err = run(capsys, "eigen", "--module", "200", "200")
    assert code == 2 and not out and err.startswith("error:")
    # a diagram with more boundary nodes than a byte link can index
    for obj in ("200x100d:[]", "1<-255 : [1] * 1x255d:[]", "1<-300 : 0"):
        code, out, err = run(capsys, "render", obj)
        assert code == 2 and not out and err.startswith("error:")
        assert "at most 255 boundary nodes" in err


@pytest.mark.parametrize("argv", [
    ("verify", "repr", "--max-n", "2"),
    ("fusion-table", "2", "2", "1", "1"),
    ("render", "2x2:[(1,4),(2,3)]"),
], ids=lambda argv: argv[0])
def test_out_that_cannot_be_written_is_a_usage_error(capsys, tmp_path, argv):
    # --out naming a directory, or a path below a file
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    for out in (tmp_path, blocker / "report.json"):
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == 2 and "written" not in stdout and "rendered" not in stdout
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert blocker.read_text() == "kept\n"


def test_unwritable_out_fails_before_any_suite_runs(capsys, tmp_path, monkeypatch):
    calls = []
    passing = VerificationReport("fusion")
    passing.add("x", {}, True)
    monkeypatch.setitem(cli.SUITES, "fusion", (lambda *a: calls.append(a) or passing, True))
    code, stdout, err = run(capsys, "verify", "fusion", "--max-n", "4", "--out", str(tmp_path))
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: cannot write {tmp_path}: ") and err.count("\n") == 1
    assert calls == []


def test_verify_writes_report_and_passes(capsys, tmp_path):
    out = tmp_path / "dilute.json"
    code, stdout, _ = run(capsys, "verify", "dilute", "--max-n", "3",
                          "--out", str(out))
    assert code == 0
    assert "[PASS]" in stdout
    payload = json.loads(out.read_text())
    assert payload["summary"]["ok"] is True
    assert payload["summary"]["fail"] == 0
    assert payload["suites"]


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_verify_repr_at_a_root_expects_the_projector_pole(capsys, tmp_path, ell):
    # P_m exists iff [k]_q != 0 for every k <= m, and [ell]_q = 0 at root:ell
    out = tmp_path / "repr.json"
    code, _, _ = run(capsys, "verify", "repr", "--max-n", "4", "--spec", f"root:{ell}",
                     "--out", str(out))
    assert code == 0
    cases = json.loads(out.read_text())["suites"][0]["cases"]
    poles = [c for c in cases if c["identity"] == "projector existence"]
    assert [c["params"]["m"] for c in poles] == list(range(ell, 5))
    assert all(c["witness"] == {"vanishing": f"[{ell}]_q"} for c in poles)


def test_verify_byte_stable(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "verify", "repr", "--max-n", "3",
                         "--seed", "7", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_fusion_does_not_depend_on_seed(capsys, tmp_path):
    # generic fusion computes over Q(s), so --seed changes no byte of the
    # report but the echoed seed itself
    reports = []
    for seed in ("0", "1"):
        out = tmp_path / f"fusion-{seed}.json"
        code, _, _ = run(capsys, "verify", "fusion", "--max-n", "3",
                         "--seed", seed, "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.count(f'"seed": {seed},') == 1
        reports.append(text.replace(f'"seed": {seed},', '"seed": SEED,').encode())
    assert reports[0] == reports[1]


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # diagrams hash their bytes link, whose hash is salted per process; no
    # report byte may follow that order
    path = [os.path.dirname(os.path.dirname(cli.__file__))]
    path += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    for argv in (("braid", "--max-n", "3"), ("fusion", "--max-n", "2", "--spec", "root:3")):
        reports = []
        for hashseed in ("0", "1"):
            out = tmp_path / f"{argv[0]}-{hashseed}.json"
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=os.pathsep.join(path))
            subprocess.run([sys.executable, "-m", "tlcat.cli", "verify", *argv,
                            "--out", str(out)], env=env, check=True, capture_output=True)
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


# sha256 of `tlcat verify SUITE --max-n 3 --seed 0`: refactors must keep
# every report byte for byte
GOLDEN_REPORTS = {
    ("braid", "generic"): "af7a384639bef07648d83b11c8d50dde7ce8be918901e5e450c61e9365dafd33",
    ("twist", "generic"): "4e911658b6f00ac0e8feba1a2a5077325c5a13c53944b43c15155f19ff8fe3ed",
    ("repr", "generic"): "8d6d338e52ded9ed65aef85e5b5278249229bf644ae1cf449b6881cf840bb0dd",
    ("fusion", "generic"): "24f5fb882900c9b1cc5e1dfb5fda85c39f52656e24309ba6f98615faa14605da",
    ("fusion", "root:3"): "ec086535237614937f1903f7eaadf9a4fb55005bc7182594db12662c36fab759",
    ("fusion", "rational:5/3"): "79528ac403f6b05625f7eb822a3bb9840d9653982b049df36f3fd0f246fcd1c8",
    ("repr", "rational:5/3"): "d27831ca3e2ff599be2719d774f29c08c70e0f3dd11a5ba31d67a97ab8e6199e",
    ("dilute", "generic"): "1390ba8c6cfe332245c98b364c2c90cd2bba499eed4215e9526a081cb007dfa7",
    ("integrable", "generic"): "ebd1eaf9c5bf355c857e7c92224063b35094a32775b5fffdc950f8276ee66d07",
}


@pytest.mark.parametrize(
    "suite, spec", sorted(GOLDEN_REPORTS),
    ids=[s if p == "generic" else f"{s}-{p}" for s, p in sorted(GOLDEN_REPORTS)])
def test_verify_report_bytes_are_golden(capsys, tmp_path, suite, spec):
    out = tmp_path / f"{suite}.json"
    code, _, _ = run(capsys, "verify", suite, "--max-n", "3", "--seed", "0",
                     "--spec", spec, "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_REPORTS[suite, spec]


def test_verify_failure_exit_code_and_report(capsys, tmp_path, monkeypatch):
    failing = VerificationReport("braid")
    failing.add("x", {}, False)
    monkeypatch.setitem(cli.SUITES, "braid", (lambda *a: failing, False))
    out = tmp_path / "fail.json"
    code, stdout, _ = run(capsys, "verify", "braid", "--out", str(out))
    assert code == 1
    assert "[FAIL]" in stdout
    # report written even on failure
    payload = json.loads(out.read_text())
    assert payload["summary"]["ok"] is False


def test_default_report_location_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TLCAT_REPORT_DIR", str(tmp_path / "reports"))
    code, stdout, _ = run(capsys, "verify", "repr", "--max-n", "2")
    assert code == 0
    assert (tmp_path / "reports" / "verify-repr.json").exists()


def test_fusion_table_generic(capsys):
    code, stdout, _ = run(capsys, "fusion-table", "2", "2", "1", "1")
    assert code == 0
    table = json.loads(stdout)
    assert table["dim"] == 3
    assert sorted(s["k"] for s in table["summands"]) == [1, 3]
    assert all(s["multiplicity"] == 1 for s in table["summands"])
    assert table["routes_agree"] is True
    mu = {s["k"]: s["monodromy_eigenvalue"] for s in table["summands"]}
    assert mu[3] == "s^8"  # q^2


def test_fusion_table_at_root(capsys):
    code, stdout, _ = run(capsys, "fusion-table", "2", "2", "1", "1",
                          "--spec", "root:3")
    assert code == 0
    table = json.loads(stdout)
    assert table["dim"] == 3
    assert table["routes_agree"] is True
    blocks = [j["blocks"] for j in table["jordan"]]
    assert [2, 1] in blocks


# sha256 of the stdout of `tlcat fusion-table ARGS`: the generic, rational,
# semisimple cyclotomic and non-semisimple cyclotomic branches
GOLDEN_FUSION_TABLES = {
    "2 2 1 1": "b081d6102e18cc93927faf28692ea573641e08beadb0caefbdf3405de616e655",
    "2 2 1 1 --spec rational:5/3": "98d8db3e9f4f169f63089b7c12fd22499f7f28471093c8e6bf2322c3f1d269ca",
    "2 2 1 1 --spec root:3": "63f3c0a90540051a0871349ea26eac221d75b7db10894fc81c0b89fc6ca6b843",
    "2 0 1 1 --spec root:4": "9ff66f898f3e83e850b14ec779ec6017e79b1ea81a0b0918eddeb6c0669a997e",
    "2 2 2 0 --spec root:2": "a707e32efbf22bb9aa9d2dc4de63ea0fd6ac1fcc2337f4728b18af6d53b3d4bf",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_FUSION_TABLES))
def test_fusion_table_bytes_are_golden(capsys, args):
    code, stdout, _ = run(capsys, "fusion-table", *args.split())
    assert code == 0
    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_FUSION_TABLES[args]


def test_eigen(capsys):
    code, stdout, _ = run(capsys, "eigen", "--module", "4", "2")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["central_eigenvalue"]["value"] == "s^16"  # q^4
    assert payload["central_eigenvalue"]["s_exponent"] == 16
    assert payload["module"]["dim"] == 3
    # q^(3/2) (-q^-2)^(dim S_{2,2}), the closed form verify_det_t1 checks
    assert payload["det_t1"]["value"] == "-s^-2"


def test_render_ascii_and_svg(capsys, tmp_path):
    code, stdout, _ = run(capsys, "render", "2x2:[(1,4),(2,3)]")
    assert code == 0 and "2x2:[(1,4),(2,3)]" in stdout
    # a zero morphism keeps its strand family, and its print reads back
    for text, printed in (("2<-2d : 0", "2<-2d: 0\n"), ("2<-2 : 0", "2<-2: 0\n")):
        code, stdout, _ = run(capsys, "render", text)
        assert code == 0 and stdout == printed
        assert parse_renderable(printed) == parse_renderable(text)
    out = tmp_path / "pic.svg"
    code, stdout, _ = run(capsys, "render", "2x2:[(1,4),(2,3)]",
                          "--format", "svg", "--out", str(out))
    assert code == 0
    assert out.read_text().startswith("<svg")
