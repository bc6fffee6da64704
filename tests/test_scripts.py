"""The scripts under scripts/, run in a fresh interpreter on the checkout."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import graphcoh
from graphcoh.tensors import Rad, eps_tensor, format_tensor, make_tensor, radical

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def script_env():
    source_root = str(Path(graphcoh.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (source_root, env.get("PYTHONPATH")) if p
    )
    return env


def run_with_stdout_closed(argv, buffered):
    """Exit status and stderr of `python argv` when the reader of its stdout
    has gone before the first write."""
    env = script_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    proc.stdout.close()
    with proc.stderr:
        return proc.wait(timeout=120), proc.stderr.read()


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True,
        text=True,
        check=False,
        env=script_env(),
        timeout=120,
    )


@pytest.mark.parametrize(
    "name, argv",
    [("dimension_table.py", ()), ("evaluate_trivalent.py", ("--order", "2"))],
    ids=["dimension_table", "evaluate_trivalent"],
)
def test_script_ends_quietly_when_the_reader_closes_stdout(name, argv):
    """A reader that stops after one line (`| head -1`) ends the output:
    exit status 0 and nothing on stderr, not even at the final flush.
    Unbuffered, every line is its own write, so the script meets the
    closed pipe at its next line."""
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPTS / name), *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**script_env(), "PYTHONUNBUFFERED": "1"},
    )
    with proc.stderr:
        assert proc.stdout.readline().startswith(b"# ")
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == b""


@pytest.mark.parametrize(
    "name, argv",
    [("dimension_table.py", ()), ("evaluate_trivalent.py", ("--order", "1"))],
    ids=["dimension_table", "evaluate_trivalent"],
)
def test_script_ends_quietly_when_a_buffered_report_meets_a_closed_pipe(name, argv):
    """Buffered, a short report reaches the pipe only when stdout is
    flushed; a reader that has already gone still means exit status 0 and
    an empty stderr."""
    assert run_with_stdout_closed([str(SCRIPTS / name), *argv], buffered=True) == (0, b"")


def test_evaluate_trivalent_order_one():
    proc = run_script("evaluate_trivalent.py", "--order", "1", "--tensor", "eps")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "# closed 1 of 1"


def test_evaluate_trivalent_rejects_an_unknown_tensor_name():
    proc = run_script("evaluate_trivalent.py", "--tensor", "nope")
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("evaluate_trivalent: tensor reference 'nope'")


def test_evaluate_trivalent_rejects_a_malformed_tensor_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("valence 3 dim 3 kind rational\n1 2 x 1/1\n")
    proc = run_script("evaluate_trivalent.py", "--tensor", str(path))
    assert proc.returncode == 1
    assert proc.stderr == "evaluate_trivalent: line 2: bad index in '1 2 x 1/1'\n"


def test_evaluate_trivalent_prints_radical_values_as_the_cli_does(tmp_path):
    path = tmp_path / "r2_eps.txt"
    path.write_text(format_tensor(make_tensor(
        (eps_tensor().array * Rad(0, Fraction(3, 2), 2)).tolist(), kind=radical(2)
    )))
    proc = run_script("evaluate_trivalent.py", "--order", "1", "--tensor", str(path))
    assert proc.returncode == 0, proc.stderr
    # (3/2 sqrt 2)^2 * 6 = 27, printed by cli.scalar_str as in `graphcoh eval`
    assert proc.stdout.splitlines()[1] == "g1    value       27  closed True   edges 1-2 1-2 1-2"


# sha256 of dimension_table.py's stdout, recorded while delta_matrix still
# found its images by byte key.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--max-vertices", "4"], "3366a2d051a9e1498e305582aead867c0281253b85590aa9925fe2f075d2d1cd"),
        (["--mode", "edge-renumbering", "--max-vertices", "5"],
         "e72784bbcd061e4636fe67abbfe76f9d27ada22cb027b3cacfee8b1c81cb44b6"),
    ],
    ids=["literal", "edge-renumbering"],
)
def test_dimension_table_is_frozen(argv, digest):
    proc = run_script("dimension_table.py", *argv)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_dimension_table_skips_a_cell_past_the_cap():
    proc = run_script("dimension_table.py", "--mode", "edge-renumbering", "--max-vertices", "5", "--cap", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[3] == "   -2     -9   5   3     0     0      0"
    assert [line for line in lines if "skipped" in line][0] == (
        "    0     -5   5   5  skipped: basis enumeration exceeds the cap (3): "
        "the slice built at V=5, E=5 reaches 178 rows"
    )


@pytest.mark.parametrize("cap", ["0", "-2"])
def test_dimension_table_rejects_a_cap_that_is_not_positive(cap):
    proc = run_script("dimension_table.py", "--cap", cap)
    assert proc.returncode == 1
    assert proc.stderr == f"dimension_table: cap must be positive, got {cap}\n"


@pytest.mark.parametrize("cap", ["0", "-2"])
def test_dimension_table_checks_the_cap_before_any_output(cap):
    proc = run_script("dimension_table.py", "--cap", cap)
    assert proc.returncode == 1
    assert proc.stdout == ""
