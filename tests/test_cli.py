"""Command line interface: subcommand behavior, JSON schemas, and exit
codes."""

import json

import pytest

from artifact import cli, hodge, periodring
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
  assert "delta_GoverK" not in out

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
                                             ("--k", "0", "k must be"),
                                             ("--q", "-5", "q must be")])
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


class TestPeriodCase:
 def test_large_n_accepted(self, capsys):
  # only check and verify-all cap n at 12
  code, out = run(capsys, "period", "--expr", "(mul Q0 dM)", "--case",
                  "pgl-q", "--n", "40")
  assert code == 0 and out.strip()


class TestRemovedFlags:
 @pytest.mark.parametrize("argv", [
     ["invariants", "--group", "SL(4)/R", "--md"],
     ["lfactor", "--case", "pgl-q", "--n", "2", "--md"],
     ["check", "--case", "pgl-q", "--n", "2", "--md"]])
 def test_md_is_rejected(self, capsys, argv):
  with pytest.raises(SystemExit) as exc:
   main(argv)
  assert exc.value.code == 2
  assert "--md" in capsys.readouterr().err


class TestCheck:
 def test_json_schema(self, capsys):
  code, out = run(capsys, "check", "--case", "so-odd", "--n", "1",
                  "--json")
  assert code == 0
  data = json.loads(out)
  assert set(data) == {"case", "n", "table1", "condensate", "gamma1",
                       "gamma2"}
  assert data["condensate"]["pass"] is True
  assert data["gamma1"] == {"exponent": "-4", "pass": True}
  assert data["gamma2"] == {"residual": "1", "pass": True}

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


class TestUsageErrors:
 """Bad arguments and unreadable input files print one line on stderr and
 exit 2; exit 1 stays reserved for an identity that fails."""

 @pytest.mark.parametrize("argv,msg", [
     (["check", "--case", "pgl-q", "--n", "13"], "between 1 and 12"),
     (["lfactor", "--case", "pgl-q", "--n", "0"], "n must be positive"),
     (["invariants", "--group", "foo"], "foo"),
     (["invariants", "--group", "XY(3)/R"], "unsupported group: 'XY'"),
     (["invariants", "--group", "SL(0)/R"], "bad rank parameter"),
     (["hodge", "--case", "pgl-q", "--n", "0", "--show", "M"],
      "n must be positive"),
     (["period", "--expr", "(mul a"], "unexpected end of expression"),
     (["period", "--expr", "(pow a 1/0)"], "zero denominator"),
     (["period", "--expr", "(pow Q0 1/3)", "--case", "pgl-q"],
      "denominator beyond 2"),
     (["period", "--expr", "Q0", "--case", "pgl-q", "--n", "0"],
      "n must be positive"),
     (["period", "--expr", "Q0", "--case", "pgl-q", "--n", "-2"],
      "n must be positive"),
     (["verify-all", "--n-max", "13"], "n-max"),
     (["cohomology-model", "--delta", "2", "--q", "1", "--k", "0"],
      "k must be positive"),
 ])
 def test_one_line_exit_2(self, capsys, argv, msg):
  code = main(argv)
  captured = capsys.readouterr()
  assert code == 2
  assert captured.out == ""
  lines = captured.err.splitlines()
  assert len(lines) == 1 and lines[0].startswith("usage error: ")
  assert msg in lines[0]

 def _rotation(self, capsys, tmp_path, v1_text):
  v1 = tmp_path / "v1.txt"
  s = tmp_path / "s.txt"
  if v1_text is not None:
   v1.write_text(v1_text)
  s.write_text("0 1 0\n0 0 1\n1 0 0\n")
  code = main(["rotation", "--v1", str(v1), "--v2", str(s),
               "--sigma", str(s)])
  captured = capsys.readouterr()
  return code, captured.out, captured.err.splitlines()

 def test_rotation_missing_file(self, capsys, tmp_path):
  code, out, err = self._rotation(capsys, tmp_path, None)
  assert code == 2 and out == ""
  assert len(err) == 1 and err[0].startswith("usage error: ")
  assert "v1.txt" in err[0]

 @pytest.mark.parametrize("text", ["1 1 x\n1 -1 0\n0 1 -1\n",
                                   "1 0 1/0\n1 -1 0\n0 1 -1\n",
                                   "1 1 1\n1 -1 0\n"])
 def test_rotation_unreadable_matrix(self, capsys, tmp_path, text):
  code, out, err = self._rotation(capsys, tmp_path, text)
  assert code == 2 and out == ""
  assert len(err) == 1 and err[0].startswith("usage error: ")

 def test_inconsistent_relations_not_a_usage_error(self, monkeypatch):
  g = periodring.PeriodScalar.gen
  bad = periodring.RelationSet([(g("Q0") * g("pi"), "Q"), (g("Q0"), "Q")])
  monkeypatch.setattr(periodring, "case_relations", lambda mot: bad)
  with pytest.raises(periodring.InconsistentRelations):
   main(["period", "--expr", "Q0", "--case", "pgl-q"])

 @pytest.mark.parametrize("argv", [
     ["verify-all", "--n-max", "3"], ["check", "--case", "so-odd", "--n", "2"],
     ["lfactor", "--case", "pgl-e", "--n", "1"],
     ["hodge", "--case", "pgl-q", "--n", "2", "--show", "AdM"]])
 def test_data_defect_not_a_usage_error(self, monkeypatch, capsys, argv):
  # a ValueError that the computation raises on its own data, here the
  # adjoint structures, propagates: it is no verdict on the arguments
  def adjoint(mot, factor):
   raise ValueError("no involution has trace 2 on a diagonal piece of "
                    "rank 0")
  monkeypatch.setattr(hodge.CaseMotives, "adjoint", adjoint)
  with pytest.raises(ValueError, match="no involution") as exc:
   main(argv)
  assert not isinstance(exc.value, cli.UsageError)
  assert capsys.readouterr().err == ""
