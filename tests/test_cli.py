"""Command-line interface: worked examples, file outputs, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphcoh
from graphcoh import cli
from graphcoh.canonical import canonicalize
from graphcoh.cli import main
from graphcoh.coboundary import Cochain, delta
from graphcoh.graphs import SymmetryMode, format_graph, format_graphs, k4_graph, new_graph, theta_graph
from graphcoh.tensors import eps_tensor, format_tensor
from test_enumeration import dimension_table_sweep
from test_scripts import run_with_stdout_closed

THETA_TEXT = format_graph(theta_graph())


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# Worked examples.
# ---------------------------------------------------------------------------


def test_mult_spin_one_cubed(capsys):
    rc, out, _ = run_cli(capsys, "mult", "--spins", "1,1,1")
    assert rc == 0
    assert out == "0:1 1:3 2:2 3:1\n"


def test_mult_power_of_a_direct_sum(capsys):
    rc, out, _ = run_cli(capsys, "mult", "--spins", "1/2,1", "--power", "3")
    assert rc == 0
    assert out == "0:4 1/2:8 1:9 3/2:7 2:5 5/2:3 3:1\n"


def test_pairing_eps_with_itself(capsys):
    rc, out, _ = run_cli(capsys, "pairing", "--tensor", "eps", "--tensor", "eps")
    assert rc == 0
    assert out == "6\n"


def test_pairing_accepts_tensor_files(capsys, tmp_path):
    path = tmp_path / "eps.txt"
    path.write_text(format_tensor(eps_tensor()))
    rc, out, _ = run_cli(capsys, "pairing", "--tensor", "eps", "--tensor", str(path))
    assert rc == 0
    assert out == "6\n"


def test_check_delta2_default_sweep(capsys):
    rc, out, _ = run_cli(capsys, "check", "--suite", "delta2", "--max-order", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# graphcoh check"
    assert lines[1] == "# suite delta2"
    assert lines[2] == "# mode all"
    assert "ok delta2+grading mode literal classes 2179" in lines
    assert "ok delta2+grading mode edge-renumbering classes 1208" in lines
    assert "total classes checked 3387" in lines
    assert lines[-1] == "PASS"


# ---------------------------------------------------------------------------
# enumerate / delta / cocycles reports.
# ---------------------------------------------------------------------------


def test_enumerate_report_is_exact(capsys):
    rc, out, _ = run_cli(capsys, "enumerate", "--order", "1", "--degree", "0")
    assert rc == 0
    assert out == (
        "# graphcoh enumerate\n"
        "# mode literal\n"
        "# order 1 degree 0 connected false\n"
        "# classes 1\n"
        "# id g1\n"
        "V 2 E 3\n"
        "1 2\n"
        "1 2\n"
        "1 2\n"
    )


def test_enumerate_is_deterministic(capsys):
    first = run_cli(capsys, "enumerate", "--order", "2", "--degree", "0",
                    "--mode", "edge-renumbering", "--connected")
    second = run_cli(capsys, "enumerate", "--order", "2", "--degree", "0",
                     "--mode", "edge-renumbering", "--connected")
    assert first == second
    assert first[0] == 0


def test_enumerate_json_mirror(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    rc, _, _ = run_cli(
        capsys, "enumerate", "--order", "1", "--degree", "0", "--json", str(out_json)
    )
    assert rc == 0
    payload = json.loads(out_json.read_text())
    assert payload["command"] == "enumerate"
    assert payload["mode"] == "literal"
    assert payload["classes"] == {
        "g1": {"vertices": 2, "edges": [[1, 2], [1, 2], [1, 2]]}
    }


# sha256 of --json mirrors, recorded before the payloads were built only on request
JSON_MIRRORS = {
    ("cocycles", "1", "0", "literal"): "84db6bd796c6fd1b79c41f32c2399456ea5251b8e1e6939c3fa6fd2342232889",
    ("cocycles", "1", "0", "edge-renumbering"): "f1eb8461f7f904d321dda55dde425ae6bc609c62835c4f03441525c82c5bbaed",
    ("delta", "1", "-1", "literal"): "e654bf70cfce9c4c156c7f4c805a599c669a90c6d5185db57622d37b3a1aac49",
    ("delta", "1", "-1", "edge-renumbering"): "60a3614db83ef7e64b7980a23996dd8247bcc50fef99f2b4c94589742c6f692e",
    ("enumerate", "1", "-1", "literal"): "18513b757a9b21a1ad4d8f07dec53de5bc56107e38a4e2c93778ab458cefa3d0",
    ("enumerate", "1", "-1", "edge-renumbering"): "3a3d2f79f18b84bc57a0a716af7796583b9448277d12edc70e51521947d7def4",
}


@pytest.mark.parametrize("command, order, degree, mode", sorted(JSON_MIRRORS))
def test_json_mirrors_are_frozen(capsys, tmp_path, command, order, degree, mode):
    out_json = tmp_path / "report.json"
    rc, _, _ = run_cli(capsys, command, "--order", order, "--degree", degree,
                       "--mode", mode, "--json", str(out_json))
    assert rc == 0
    digest = hashlib.sha256(out_json.read_bytes()).hexdigest()
    assert digest == JSON_MIRRORS[(command, order, degree, mode)]


# sha256 of the 68 stdout reports and, apart, of the 68 --json mirrors of
# each command on the dimension-table cells, connected off then on; recorded
# while matrix entries were Fractions and cocycles were reported through
# Cochain objects.
GRADING_REPORTS = {
    "cocycles": ("298f03306de5f98544c2afef0f4264ce69a97df4be0c5a6c847659db4d81625f",
                 "e0c98c1fb90c63d0a2fa4f701beb63d021c7ff07f432ba9358e2a9d8a3effc5b"),
    "delta": ("5aad7171216b4c0ac3afa4cf2a20ebd27ec508145a501324db36d1798397eff5",
              "12012b8fbd6a8501d3a179377d74eb4ba8eae760579f93e09730f34d209137e0"),
}


@pytest.mark.parametrize("command", sorted(GRADING_REPORTS))
def test_grading_reports_are_frozen(capsys, tmp_path, command):
    out_json = tmp_path / "report.json"
    text, mirror = hashlib.sha256(), hashlib.sha256()
    for connected in ([], ["--connected"]):
        for mode, order, degree in dimension_table_sweep():
            rc, out, _ = run_cli(capsys, command, "--order", str(order), "--degree", str(degree),
                                 "--mode", mode.value, "--json", str(out_json), *connected)
            assert rc == 0
            text.update(out.encode())
            mirror.update(out_json.read_bytes())
    assert (text.hexdigest(), mirror.hexdigest()) == GRADING_REPORTS[command]


def test_grading_reports_build_no_json_payload_unasked(capsys, monkeypatch):
    def unasked(*args, **kwargs):
        raise AssertionError("a --json payload was built without --json")

    monkeypatch.setattr(cli, "_grading_payload", unasked)
    monkeypatch.setattr(cli, "_graph_json", unasked)
    for command in ("enumerate", "delta", "cocycles"):
        assert run_cli(capsys, command, "--order", "1", "--degree", "-1")[0] == 0


def test_out_file_silences_stdout(capsys, tmp_path):
    out_file = tmp_path / "report.txt"
    rc, stdout, _ = run_cli(
        capsys, "enumerate", "--order", "1", "--degree", "0", "--out", str(out_file)
    )
    assert rc == 0
    assert stdout == ""
    assert out_file.read_text().startswith("# graphcoh enumerate\n")


def test_delta_matrix_report(capsys):
    rc, out, _ = run_cli(capsys, "delta", "--order", "1", "--degree", "-1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# graphcoh delta"
    assert lines[1] == "# delta matrix order 1 degree -1 mode literal connected false"
    assert lines[2] == "# rows 1 cols 13"
    for entry in lines[3:]:
        row, col, value = entry.split()
        assert row == "1"
        assert 1 <= int(col) <= 13
        numerator, denominator = value.split("/")
        int(numerator), int(denominator)


def test_cocycles_report(capsys):
    rc, out, _ = run_cli(capsys, "cocycles", "--order", "1", "--degree", "0")
    assert rc == 0
    assert out == (
        "# graphcoh cocycles\n"
        "# mode literal\n"
        "# order 1 degree 0 connected false\n"
        "# basis 1 cocycles 1\n"
        "# id g1\n"
        "V 2 E 3\n"
        "1 2\n"
        "1 2\n"
        "1 2\n"
        "# cocycle 1\n"
        "1/1\tg1\n"
    )


# ---------------------------------------------------------------------------
# eval.
# ---------------------------------------------------------------------------


def test_eval_uniform_tensor(capsys, tmp_path):
    graph_file = tmp_path / "theta.txt"
    graph_file.write_text(THETA_TEXT)
    rc, out, _ = run_cli(capsys, "eval", "--in", str(graph_file), "--tensor", "eps")
    assert rc == 0
    assert out == "# graphcoh eval\n# mode literal\ng1\t6\n"


def test_eval_multiple_graphs(capsys, tmp_path):
    graph_file = tmp_path / "graphs.txt"
    graph_file.write_text(format_graphs([theta_graph(), k4_graph()]))
    rc, out, _ = run_cli(capsys, "eval", "--in", str(graph_file), "--tensor", "eps")
    assert rc == 0
    assert out.splitlines()[-2:] == ["g1\t6", "g2\t6"]


def test_eval_per_vertex_tensors(capsys, tmp_path):
    graph_file = tmp_path / "theta.txt"
    graph_file.write_text(THETA_TEXT)
    rc, out, _ = run_cli(
        capsys, "eval", "--in", str(graph_file), "--tensor", "eps", "--tensor", "eps"
    )
    assert rc == 0
    assert out.endswith("g1\t6\n")


def test_eval_decoration_file(capsys, tmp_path):
    graph_file = tmp_path / "theta.txt"
    graph_file.write_text(THETA_TEXT)
    dec_file = tmp_path / "decorations.txt"
    dec_file.write_text("vertex 1 tensor eps\nvertex 2 tensor eps\n")
    rc, out, _ = run_cli(
        capsys, "eval", "--in", str(graph_file), "--tensor", str(dec_file)
    )
    assert rc == 0
    assert out.endswith("g1\t6\n")


def test_eval_decoration_file_must_cover_all_vertices(capsys, tmp_path):
    graph_file = tmp_path / "theta.txt"
    graph_file.write_text(THETA_TEXT)
    dec_file = tmp_path / "decorations.txt"
    dec_file.write_text("vertex 1 tensor eps\n")
    rc, _, err = run_cli(
        capsys, "eval", "--in", str(graph_file), "--tensor", str(dec_file)
    )
    assert rc == 1
    assert "lacks vertices" in err


@pytest.mark.parametrize("header", ["V 2 E -1", "V -1 E 0"])
def test_eval_reports_a_negative_count_on_one_line(capsys, tmp_path, header):
    graph_file = tmp_path / "bad.txt"
    graph_file.write_text(f"{header}\n1 2\n")
    rc, out, err = run_cli(capsys, "eval", "--in", str(graph_file), "--tensor", "eps")
    assert rc == 1
    assert out == ""
    assert err == f"graphcoh eval: line 1: negative count in {header!r}\n"


@pytest.mark.parametrize(
    "refs, read",
    [
        (["DEC"], ["decorations.txt", "eps.txt", "graphs.txt"]),
        (["TENSOR"], ["eps.txt", "graphs.txt"]),
        (["TENSOR", "TENSOR"], ["eps.txt", "graphs.txt"]),
    ],
)
def test_eval_reads_each_file_once(capsys, monkeypatch, tmp_path, refs, read):
    """Tensor and decoration files are resolved once, not once per graph."""
    graph_file = tmp_path / "graphs.txt"
    graph_file.write_text(format_graphs([theta_graph()] * 3))
    tensor_file = tmp_path / "eps.txt"
    tensor_file.write_text(format_tensor(eps_tensor()))
    dec_file = tmp_path / "decorations.txt"
    dec_file.write_text(f"vertex 1 tensor {tensor_file}\nvertex 2 tensor {tensor_file}\n")
    files = {"DEC": str(dec_file), "TENSOR": str(tensor_file)}
    reads = []
    read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads.append(self.name)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    tensor_args = [x for r in refs for x in ("--tensor", files[r])]
    rc, out, _ = run_cli(capsys, "eval", "--in", str(graph_file), *tensor_args)
    assert rc == 0
    assert out.splitlines()[-3:] == ["g1\t6", "g2\t6", "g3\t6"]
    assert sorted(reads) == read


# ---------------------------------------------------------------------------
# Validation suites.
# ---------------------------------------------------------------------------


def test_check_canon_suite(capsys):
    rc, out, _ = run_cli(capsys, "check", "--suite", "canon")
    assert rc == 0
    lines = out.splitlines()
    assert "ok canon mode literal skeletons 86 random checks 86000" in lines
    assert "ok canon mode edge-renumbering skeletons 4 random checks 4000" in lines
    assert lines[-1] == "PASS"


def test_check_ihx_suite(capsys):
    rc, out, _ = run_cli(capsys, "check", "--suite", "ihx")
    assert rc == 0
    lines = out.splitlines()
    assert "ok ihx eps holds" in lines
    assert "ok ihx eps-block-sum holds" in lines
    assert "ok ihx perturbed-jacobi fails at index (2, 3, 4, 5)" in lines
    assert lines[-1] == "PASS"


def test_check_multiplicities_suite(capsys):
    rc, out, _ = run_cli(capsys, "check", "--suite", "multiplicities")
    assert rc == 0
    assert out.splitlines()[-1] == "PASS"


def test_check_decorated_delta2_suite(capsys):
    rc, out, _ = run_cli(capsys, "check", "--suite", "decorated-delta2")
    assert rc == 0
    lines = out.splitlines()
    assert "ok decorated-delta2 trivalent skeletons 86 (literal mode)" in lines
    assert lines[-1] == "PASS"


def test_check_respects_explicit_mode(capsys):
    rc, out, _ = run_cli(
        capsys, "check", "--suite", "delta2", "--max-order", "1", "--mode", "literal"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[2] == "# mode literal"
    assert not any("edge-renumbering" in line for line in lines)


def test_check_json_payload(capsys, tmp_path):
    out_json = tmp_path / "check.json"
    rc, _, _ = run_cli(capsys, "check", "--suite", "ihx", "--json", str(out_json))
    assert rc == 0
    payload = json.loads(out_json.read_text())
    assert payload["ok"] is True
    assert payload["suite"] == "ihx"
    assert payload["witness"] == []


def test_check_is_deterministic(capsys):
    first = run_cli(capsys, "check", "--suite", "ihx")
    second = run_cli(capsys, "check", "--suite", "ihx")
    assert first == second


def _delta_nilpotent_only_in_literal_mode(c):
    # from the first edge-renumbering class with a nonzero image on, delta^2 = image
    if isinstance(c, Cochain) and c.mode is SymmetryMode.EDGE_RENUMBERING:
        return c
    return delta(c)


def _double_edge_not_zero(g, mode):
    if g == new_graph(2, [(1, 2), (1, 2)]):
        return canonicalize(theta_graph(), mode)
    return canonicalize(g, mode)


FORCED_FAILURES = {
    "delta2": (
        "delta", _delta_nilpotent_only_in_literal_mode, ["--max-order", "1"], "all",
        ["ok delta2+grading mode literal classes 348"],
        [
            "delta^2 != 0 at mode edge-renumbering, class:",
            "V 3 E 4\n1 2\n1 2\n1 2\n1 3",
            "residual coefficient -1 on:",
            "V 2 E 3\n1 2\n1 2\n1 2",
        ],
    ),
    "canon": (
        "canonicalize", _double_edge_not_zero, ["--mode", "edge-renumbering"], "edge-renumbering",
        [],
        ["double edge not detected as a zero class in mode edge-renumbering", "V 2 E 2\n1 2\n1 2"],
    ),
    "ihx": (
        "ihx_violation", lambda tensor, tol=None: None, [], "all",
        ["ok ihx eps holds", "ok ihx eps-block-sum holds"],
        ["perturbed table unexpectedly satisfies the identity"],
    ),
    "multiplicities": (
        "trivial_multiplicity", lambda rep, power: 0, [], "all",
        [],
        ["trivial multiplicity of E_0 cubed: got 0, expected 1"],
    ),
    "decorated-delta2": (
        "is_cocycle_decorated", lambda chain, tol=None: False, [], "all",
        [],
        ["decorated delta^2 residue on:", "V 2 E 3\n1 2\n1 2\n1 2"],
    ),
}


@pytest.mark.parametrize("suite", sorted(FORCED_FAILURES))
def test_check_fail_report(capsys, monkeypatch, tmp_path, suite):
    """A suite whose library call is broken reports its ok lines, the witness and FAIL."""
    name, fake, extra, mode, results, witness = FORCED_FAILURES[suite]
    monkeypatch.setattr(cli, name, fake)
    out_json = tmp_path / "check.json"
    rc, out, err = run_cli(capsys, "check", "--suite", suite, *extra, "--json", str(out_json))
    assert (rc, err) == (1, "")
    assert out == "\n".join(
        ["# graphcoh check", f"# suite {suite}", f"# mode {mode}", *results, *witness, "FAIL"]
    ) + "\n"
    payload = json.loads(out_json.read_text())
    assert (payload["ok"], payload["results"], payload["witness"]) == (False, results, witness)


def test_check_failure_without_witness_still_fails(capsys, monkeypatch):
    def suite(args, lines):
        lines.append("ok first step")
        raise cli._SuiteFailure()

    monkeypatch.setitem(cli.SUITES, "canon", suite)
    rc, out, _ = run_cli(capsys, "check", "--suite", "canon")
    assert (rc, out.splitlines()[-2:]) == (1, ["ok first step", "FAIL"])


# ---------------------------------------------------------------------------
# Exit codes.
# ---------------------------------------------------------------------------


def test_validation_failures_exit_one(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "pairing", "--tensor", "eps")
    assert rc == 1
    assert "exactly two" in err

    rc, _, err = run_cli(capsys, "pairing", "--tensor", "eps", "--tensor", "no-such")
    assert rc == 1
    assert "no-such" in err

    rc, _, err = run_cli(capsys, "mult", "--spins", "")
    assert rc == 1

    rc, _, err = run_cli(capsys, "eval", "--tensor", "eps")
    assert rc == 1

    graph_file = tmp_path / "theta.txt"
    graph_file.write_text(THETA_TEXT)
    rc, _, err = run_cli(capsys, "eval", "--in", str(graph_file))
    assert rc == 1

    rc, _, err = run_cli(
        capsys, "eval", "--in", str(tmp_path / "absent.txt"), "--tensor", "eps"
    )
    assert rc == 1


@pytest.mark.parametrize("value", ["1/0", "1/0 r 2"], ids=["rational", "radical"])
def test_a_zero_denominator_in_a_tensor_file_is_one_error_line(capsys, tmp_path, value):
    path = tmp_path / "zero.txt"
    path.write_text(f"valence 2 dim 2 kind radical 2\n1 2 {value}\n")
    rc, out, err = run_cli(capsys, "pairing", "--tensor", str(path), "--tensor", str(path))
    assert (rc, out) == (1, "")
    assert err == f"graphcoh pairing: line 2: zero denominator in '1 2 {value}'\n"


def test_a_zero_denominator_spin_is_one_error_line(capsys):
    rc, out, err = run_cli(capsys, "mult", "--spins", "1/0")
    assert (rc, out) == (1, "")
    assert err == "graphcoh mult: spin must be a non-negative half-integer, got '1/0'\n"


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [["check", "--suite", "ihx"], ["enumerate", "--order", "1", "--degree", "0"]],
    ids=["check", "enumerate"],
)
def test_graphcoh_ends_quietly_when_the_reader_has_closed_stdout(argv, buffered):
    """The reader has gone before the first write: exit status 0 and an
    empty stderr.  Buffered, the closed pipe shows only at the flush of
    the whole report."""
    assert run_with_stdout_closed(["-m", "graphcoh", *argv], buffered) == (0, b"")


def test_usage_errors_exit_two(capsys):
    for argv in (
        ["mult"],  # missing required --spins
        ["check", "--suite", "no-such-suite"],
        ["enumerate", "--degree", "0"],  # missing required --order
        ["enumerate", "--order", "1", "--mode", "bogus"],
        ["no-such-command"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


SUBCOMMAND_ARGV = {
    "enumerate": ["enumerate", "--order", "1"],
    "delta": ["delta", "--order", "1"],
    "cocycles": ["cocycles", "--order", "1"],
    "mult": ["mult", "--spins", "1"],
    "pairing": ["pairing", "--tensor", "eps", "--tensor", "eps"],
    "eval": ["eval", "--in", "graphs.txt", "--tensor", "eps"],
}
SUBCOMMAND_ARGV.update({f"check-{s}": ["check", "--suite", s] for s in cli.SUITES})
FLAG_VALUES = {"--tol": "1e-9", "--cap": "10", "--mode": "literal", "--order": "1",
               "--max-order": "1"}
SUITE_READERS = {
    "--cap": "--cap is read only by the suites delta2, canon, decorated-delta2",
    "--order": "--order/--max-order is read only by the suites delta2",
    "--max-order": "--order/--max-order is read only by the suites delta2",
}


@pytest.mark.parametrize(
    "command, flag",
    [(c, "--tol") for c in SUBCOMMAND_ARGV]
    + [(c, "--cap") for c in ("mult", "pairing", "eval")]
    + [(c, "--mode") for c in ("mult", "pairing")]
    + [(f"check-{s}", "--cap") for s in ("ihx", "multiplicities")]
    + [(f"check-{s}", flag) for s in ("canon", "ihx", "multiplicities", "decorated-delta2")
       for flag in ("--order", "--max-order")],
)
def test_flags_a_subcommand_ignores_are_refused(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main(SUBCOMMAND_ARGV[command] + [flag, FLAG_VALUES[flag]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if command.startswith("check-") and flag in SUITE_READERS:
        suite = command.removeprefix("check-")
        assert err == f"graphcoh check: {SUITE_READERS[flag]}, not {suite}\n"
    else:
        assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "delta2", "--max-order", "1", "--cap", "100000"],
        ["--suite", "canon", "--mode", "edge-renumbering", "--cap", "1000"],
        ["--suite", "ihx"],
        ["--suite", "decorated-delta2", "--cap", "1000"],
    ],
)
def test_flags_a_suite_reads_are_accepted(capsys, argv):
    rc, out, err = run_cli(capsys, "check", *argv)
    assert (rc, err, out.splitlines()[-1]) == (0, "", "PASS")


# ---------------------------------------------------------------------------
# Declared entry point.
# ---------------------------------------------------------------------------


def test_console_script_round_trip():
    """The ``graphcoh`` console script, run in a fresh interpreter.

    The entry point is read from ``[project.scripts]`` in the checkout's
    ``pyproject.toml`` and started the way the installed wrapper starts
    it, so no install is needed.  The child imports the same ``graphcoh``
    as this suite: its directory goes first on the child's PYTHONPATH.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["graphcoh"]
    module, attr = target.split(":")
    source_root = str(Path(graphcoh.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (source_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; from {module} import {attr}; sys.exit({attr}())",
            "mult",
            "--spins",
            "1,1,1",
        ],
        capture_output=True,
        text=True,
        check=False,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0:1 1:3 2:2 3:1\n"


def test_python_dash_m_runs_the_cli():
    """``python -m graphcoh`` with the checkout's ``src`` first on PYTHONPATH."""
    source_root = str(Path(graphcoh.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (source_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "graphcoh", "mult", "--spins", "1,1,1"],
        capture_output=True,
        text=True,
        check=False,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0:1 1:3 2:2 3:1\n"
