import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import szego
from szego.cli import load_symbol, main
from szego.forward_map import forward
from szego.hankel import Symbol
from szego.szego_flow import (CONSERVED_LABELS, conserved_quantities,
                              exact_trajectory)


def write_symbol(path, coeffs):
    doc = {"version": 1, "coeffs": [[float(np.real(c)), float(np.imag(c))]
                                    for c in coeffs]}
    path.write_text(json.dumps(doc))
    return str(path)


def write_rational(path, num, den):
    doc = {"version": 1,
           "rational": {"num": [[float(c), 0.0] for c in num],
                        "den": [[float(c), 0.0] for c in den]}}
    path.write_text(json.dumps(doc))
    return str(path)


def test_analyze_synthesize_files_roundtrip(tmp_path, capsys):
    u_path = write_symbol(tmp_path / "u.json", [3.0, 2.0])
    data_path = str(tmp_path / "data.json")
    assert main(["analyze", u_path, "--out", data_path]) == 0
    doc = json.loads((tmp_path / "data.json").read_text())
    s_values = [item["s"] for item in doc["data"]]
    assert np.allclose(s_values, [4.0, 2.0, 1.0], atol=1e-9)

    back_path = str(tmp_path / "back.json")
    assert main(["synthesize", data_path, "--out", back_path]) == 0
    back = json.loads((tmp_path / "back.json").read_text())
    coeffs = np.array(back["coeffs"], dtype=float)
    got = coeffs[:, 0] + 1j * coeffs[:, 1]
    assert abs(got[0] - 3.0) < 1e-8
    assert abs(got[1] - 2.0) < 1e-8
    assert np.max(np.abs(got[2:])) < 1e-8
    capsys.readouterr()


def test_synthesized_file_reads_back(tmp_path, capsys):
    # synthesize writes coefficients and the rational form side by side
    u_path = write_rational(tmp_path / "r1.json", [0.75], [1.0, -0.5])
    data_path = str(tmp_path / "data.json")
    back_path = str(tmp_path / "back.json")
    again_path = str(tmp_path / "again.json")
    assert main(["analyze", u_path, "--out", data_path]) == 0
    assert main(["synthesize", data_path, "--out", back_path]) == 0
    back = json.loads((tmp_path / "back.json").read_text())
    assert "coeffs" in back and "rational" in back
    assert main(["analyze", back_path, "--out", again_path]) == 0
    first = json.loads((tmp_path / "data.json").read_text())["data"]
    again = json.loads((tmp_path / "again.json").read_text())["data"]
    assert len(again) == len(first) == 2
    for a, b in zip(first, again):
        assert abs(a["s"] - b["s"]) < 1e-9
    capsys.readouterr()


def test_analyze_prints_spectrum(tmp_path, capsys):
    u_path = write_rational(tmp_path / "r1.json", [0.75], [1.0, -0.5])
    assert main(["analyze", u_path]) == 0
    out = capsys.readouterr().out
    found = re.findall(r"s_\d = ([0-9.eE+-]+)", out)
    assert np.allclose([float(v) for v in found], [1.0, 0.5], atol=1e-9)
    assert "energy:" in out


@pytest.mark.parametrize("write, args, line", [
    (lambda p: write_rational(p, [0.75], [1.0, -0.5]), [],
     "rational, core m = 1, zero floor 1e-09 s_1"),
    (lambda p: write_rational(p, [0.75], [1.0, -0.5]), ["--trunc", "1024"],
     "rational, core m = 1, zero floor 1e-09 s_1"),
    (lambda p: write_symbol(p, [3.0, 2.0]), [], "range, core m = 2, zero floor 1e-06 s_1"),
    (lambda p: write_symbol(p, [3.0, 2.0]), ["--trunc", "1024"],
     "range, core m = 2, zero floor 1e-06 s_1"),
], ids=["rational", "rational-1024", "coeffs", "range"])
def test_analyze_prints_the_path(tmp_path, capsys, write, args, line):
    assert main(["analyze", write(tmp_path / "u.json"), *args]) == 0
    assert f"forward path: {line}\n" in capsys.readouterr().out


def test_roundtrip_command(tmp_path, capsys):
    u_path = write_symbol(tmp_path / "u.json", [3.0, 2.0])
    assert main(["roundtrip", u_path]) == 0
    capsys.readouterr()


def test_approx_command(tmp_path, capsys):
    u_path = write_symbol(tmp_path / "u.json", [3.0, 2.0])
    out_path = str(tmp_path / "approx.json")
    assert main(["approx", u_path, "1", "--out", out_path]) == 0
    doc = json.loads((tmp_path / "approx.json").read_text())
    coeffs = np.array(doc["coeffs"], dtype=float)
    got = coeffs[:, 0] + 1j * coeffs[:, 1]
    assert np.max(np.abs(got[:4] - 3.0 * 0.5 ** np.arange(4))) < 1e-7
    capsys.readouterr()


@pytest.mark.parametrize("write, line", [
    (lambda p: write_rational(p, [1.0], [1.0, -0.2, -0.15]), "rational, core m = 2"),
    (lambda p: write_symbol(p, [3.0, 2.0]), "range, core m = 2"),
], ids=["rational", "coeffs"])
def test_approx_prints_the_path(tmp_path, capsys, write, line):
    assert main(["approx", write(tmp_path / "u.json"), "1"]) == 0
    assert f"approx path: {line}\n" in capsys.readouterr().out


def test_evolve_writes_csv_with_conserved_columns(tmp_path, capsys):
    u_path = write_symbol(tmp_path / "z.json", [0.0, 1.0])
    csv_path = tmp_path / "traj.csv"
    rc = main(["evolve", u_path, "--t-final", "0.1", "--dt", "1e-3",
               "--mode", "compare", "--trunc", "16",
               "--out", str(csv_path)])
    assert rc == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[0] == "t"
    assert header[1] == "c0_re"
    assert header[2] == "c0_im"
    for label in ("l2_sq", "momentum", "energy", "j_0.1", "j_1", "j_10"):
        assert label in header
    assert header[-1] == "exact_gap"
    assert float(rows[1][0]) == 0.0
    assert abs(float(rows[-1][0]) - 0.1) < 1e-12
    capsys.readouterr()


@pytest.mark.parametrize("mode, times", [
    ("direct", np.linspace(0.0, 0.05, 6)),      # every step of dt = 0.01
    ("exact", np.linspace(0.0, 0.05, 5)),       # --samples 4
])
def test_evolve_direct_and_exact_rows(tmp_path, capsys, mode, times):
    u_path = write_symbol(tmp_path / "u.json", [1.0, 0.5])
    csv_path = tmp_path / "traj.csv"
    assert main(["evolve", u_path, "--t-final", "0.05", "--dt", "1e-2",
                 "--mode", mode, "--samples", "4", "--trunc", "16",
                 "--out", str(csv_path)]) == 0
    capsys.readouterr()
    with open(csv_path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    table = np.array(rows, dtype=float)
    assert table.shape == (times.size, 1 + 2 * 16 + len(CONSERVED_LABELS))
    assert header[33:] == list(CONSERVED_LABELS)
    assert np.allclose(table[:, 0], times, rtol=0.0, atol=1e-15)
    states = table[:, 1:33:2] + 1j * table[:, 2:33:2]
    conserved = table[:, 33:]
    assert np.allclose(conserved, conserved[0], rtol=1e-10, atol=0.0)
    for c, record in zip(states, conserved):
        assert np.array_equal(conserved_quantities(Symbol(c)).as_vector(), record)
    if mode == "exact":
        u = load_symbol(u_path, 16)
        assert np.array_equal(states, exact_trajectory(forward(u), times, 16))


def test_travelwave_command(capsys):
    rc = main(["travelwave", "--alpha", "1", "--ell", "1", "--wave-n", "3",
               "--p", "0.35,0.2", "--t-final", "0.1"])
    assert rc == 0
    capsys.readouterr()


def test_verify_command_json_summary(tmp_path, capsys):
    out_path = tmp_path / "verify.json"
    rc = main(["verify", "--suite", "bateman", "--seed", "0",
               "--json", str(out_path)])
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert doc["passed"] is True
    assert len(doc["cases"]) > 0
    assert all(case["passed"] for case in doc["cases"])
    capsys.readouterr()


def test_missing_file_is_an_input_error(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "absent.json")])
    assert rc == 2
    capsys.readouterr()


def test_malformed_json_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 2
    wrong_version = tmp_path / "v9.json"
    wrong_version.write_text(json.dumps({"version": 9, "coeffs": [[1, 0]]}))
    assert main(["analyze", str(wrong_version)]) == 2
    capsys.readouterr()


def test_inconsistent_spectral_file_is_an_input_error(tmp_path, capsys):
    doc = {"version": 1, "data": [
        {"s": 1.0, "psi": 0.0, "P": [[1.0, 0.0]]},
        {"s": 2.0, "psi": 0.0, "P": [[1.0, 0.0]]},
    ]}
    path = tmp_path / "increasing.json"
    path.write_text(json.dumps(doc))
    assert main(["synthesize", str(path)]) == 2
    capsys.readouterr()


def test_non_finite_spectral_file_is_an_input_error(tmp_path, capsys):
    # json reads NaN; the angle must not vanish into an all-zero symbol
    path = tmp_path / "nan.json"
    path.write_text('{"version": 1, "data": [{"s": 1.0, "psi": NaN, '
                    '"P": [[1.0, 0.0]]}]}')
    assert main(["synthesize", str(path), "--out", str(tmp_path / "u.json")]) == 2
    assert not (tmp_path / "u.json").exists()
    capsys.readouterr()


@pytest.mark.parametrize("write", [
    lambda p: write_rational(p, [0.75], [1.0, -0.5]),
    lambda p: write_symbol(p, [3.0, 2.0]),
], ids=["rational", "coeffs"])
def test_nonpositive_trunc_is_an_input_error(tmp_path, capsys, write):
    u_path = write(tmp_path / "u.json")
    for trunc in ("-5", "0"):
        assert main(["analyze", u_path, "--trunc", trunc]) == 2
        assert "mode count must be positive" in capsys.readouterr().err


def test_trunc_below_a_rational_numerator_is_an_input_error(tmp_path, capsys):
    # one mode cannot hold 0.75 / (1 - 0.5 z): it was raised to two in silence,
    # and the unresolved section then failed its identity check (exit 3)
    u_path = write_rational(tmp_path / "u.json", [0.75], [1.0, -0.5])
    assert main(["analyze", u_path, "--trunc", "1"]) == 2
    assert "below the 2 modes" in capsys.readouterr().err


def test_negative_samples_is_an_input_error(tmp_path, capsys):
    u_path = write_symbol(tmp_path / "z.json", [0.0, 1.0])
    rc = main(["evolve", u_path, "--t-final", "0.1", "--mode", "exact",
               "--samples", "-3", "--trunc", "16"])
    assert rc == 2
    assert "--samples" in capsys.readouterr().err


def test_constant_symbol_above_the_dense_cutoff(tmp_path, capsys):
    u_path = write_symbol(tmp_path / "const.json", [0.5])
    assert main(["analyze", u_path, "--trunc", "1024"]) == 0
    assert "s_1 = 0.5" in capsys.readouterr().out


def test_console_script_entry_point(tmp_path):
    u_path = write_symbol(tmp_path / "u.json", [3.0, 2.0])
    # the child must import the same package, installed or not
    src = str(Path(szego.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "szego.cli",
                           "roundtrip", u_path],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


def _modules_after_import(prefix: str) -> str:
    """The sorted modules under prefix that a fresh `import szego` loads."""
    src = str(Path(szego.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, szego; print(sorted(m for m in sys.modules "
         f"if m.startswith({prefix!r})))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_does_not_load_scipy_signal():
    # scipy.signal alone adds tens of MiB and over a second to the import
    assert _modules_after_import("scipy.signal") == "[]"


def test_import_does_not_load_scipy_sparse():
    # no eigensolve runs on a sparse operator; scipy.sparse was 68 modules
    assert _modules_after_import("scipy.sparse") == "[]"


@pytest.mark.skipif(not os.path.exists("/proc/self/statm")
                    or "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}),
                    reason="needs glibc and /proc/self/statm")
def test_import_lets_freed_large_arrays_leave_the_resident_set():
    # a fresh heap; glibc's own thresholds keep one of the 16 MiB arrays
    src = str(Path(szego.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import os, numpy as np, szego\n"
              "rss = lambda: int(open('/proc/self/statm').read().split()[1])\n"
              "before = rss()\n"
              "for _ in range(3): a = np.ones(1 << 20, dtype=complex); del a\n"
              "print((rss() - before) * os.sysconf('SC_PAGE_SIZE') / 2**20)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 4.0
