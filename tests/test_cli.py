"""Command line interface: subcommand behavior, JSON schemas, and exit
codes."""

import json

import pytest

from artifact.cli import main


def run(capsys, *argv):
 code = main(list(argv))
 out = capsys.readouterr().out
 return code, out


class TestInvariants:
 def test_table(self, capsys):
  code, out = run(capsys, "invariants", "--group", "SL(4)/R")
  assert code == 0
  assert "delta" in out and "weyl_index" in out

 def test_json(self, capsys):
  code, out = run(capsys, "invariants", "--group", "PGL(2)/C", "--json")
  data = json.loads(out)
  assert data["d_symm"] == "3"


class TestCohomologyModel:
 def test_dims_and_checks(self, capsys):
  code, out = run(capsys, "cohomology-model", "--delta", "3", "--q", "3",
                  "--k", "1")
  assert code == 0
  assert "freeness" in out and "FAIL" not in out

 @pytest.mark.parametrize("flag,value,msg", [("--delta", "-1", "delta"),
                                             ("--k", "0", "k must be")])
 def test_usage_error(self, capsys, flag, value, msg):
  argv = {"--delta": "3", "--q": "3", "--k": "1"}
  argv[flag] = value
  code = main(["cohomology-model"] + [x for kv in argv.items() for x in kv])
  captured = capsys.readouterr()
  assert code == 2
  assert captured.out == ""
  lines = captured.err.splitlines()
  assert len(lines) == 1 and lines[0].startswith("usage error: ")
  assert msg in lines[0]


class TestHodge:
 def test_tensor_table(self, capsys):
  code, out = run(capsys, "hodge", "--case", "pgl-q", "--n", "2",
                  "--show", "MxN")
  assert code == 0
  assert "(3,0)" in out and "rank 6" in out


class TestLfactor:
 def test_row(self, capsys):
  code, out = run(capsys, "lfactor", "--case", "so-even", "--n", "2")
  assert code == 0 and "FAIL" not in out

 def test_json(self, capsys):
  code, out = run(capsys, "lfactor", "--case", "pgl-e", "--n", "1",
                  "--json")
  rows = json.loads(out)
  assert all(r["pass"] for r in rows)
  assert {r["name"] for r in rows} >= {"ratio", "rho_at_center"}


class TestPeriod:
 def test_reduce(self, capsys):
  code, out = run(capsys, "period", "--expr",
                  "(mul (pow twopii 2) (conj Q0.s))")
  assert code == 0
  assert "twopii^2" in out and "Q0.sb" in out


class TestCheck:
 def test_json_schema(self, capsys):
  code, out = run(capsys, "check", "--case", "so-odd", "--n", "1",
                  "--json")
  assert code == 0
  data = json.loads(out)
  assert set(data) == {"case", "n", "table1", "condensate"}
  assert data["condensate"]["pass"] is True

 def test_text(self, capsys):
  code, out = run(capsys, "check", "--case", "pgl-q", "--n", "2")
  assert code == 0 and "condensate" in out


class TestTorsion:
 def test_derivations_printed(self, capsys):
  code, out = run(capsys, "torsion")
  assert code == 0
  for name in ("oinkA", "oink1", "buggerme"):
   assert name in out
  assert "rt2" in out


class TestRotation:
 def _write(self, path, rows):
  path.write_text("# matrix\n" +
                  "\n".join(" ".join(str(x) for x in r) for r in rows) +
                  "\n")

 def test_files(self, tmp_path, capsys):
  v = tmp_path / "v.txt"
  s = tmp_path / "s.txt"
  self._write(v, [[1, 1, 1], [1, -1, 0], [0, 1, -1]])
  self._write(s, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
  code, out = run(capsys, "rotation", "--v1", str(v), "--v2", str(v),
                  "--sigma", str(s))
  assert code == 0
  assert "square class b = 1" in out

 def test_bad_input_fails(self, tmp_path, capsys):
  v = tmp_path / "v.txt"
  s = tmp_path / "s.txt"
  self._write(v, [[1, 1, 1], [1, -1, 0], [0, 1, -1]])
  self._write(s, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
  code, out = run(capsys, "rotation", "--v1", str(v), "--v2", str(v),
                  "--sigma", str(s))
  assert code == 1 and "FAIL" in out


class TestVerifyAll:
 def test_exit_zero(self, capsys):
  code, out = run(capsys, "verify-all", "--n-max", "2")
  assert code == 0
  assert "all identities verified" in out

 def test_usage_error(self, capsys):
  code = main(["verify-all", "--n-max", "0"])
  assert code == 2
