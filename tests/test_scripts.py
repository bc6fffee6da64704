"""The scripts under scripts/, run in a fresh interpreter on the checkout."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import graphcoh
from graphcoh.tensors import Rad, eps_tensor, format_tensor, make_tensor, radical

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv):
    source_root = str(Path(graphcoh.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (source_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True,
        text=True,
        check=False,
        env=env,
        timeout=120,
    )


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
