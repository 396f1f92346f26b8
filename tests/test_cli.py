import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from credal import cli, fixture_path

COIN = str(fixture_path("coin.json"))
SURELOSS = str(fixture_path("sureloss.json"))
INCOHERENT = str(fixture_path("incoherent.json"))

CHECK_COIN = """\
space: H T
assessments: 2
decisions: 6
sure loss: no
coherence: ok
  assessment 0: gap 0
  assessment 1: gap 0
"""

CHECK_SURELOSS = """\
space: H T
assessments: 2
decisions: 2
sure loss: YES
  weights: assessment 0 -> 1/2, assessment 1 -> 1/2
  guaranteed shortfall: 1/20 (0.05)
"""

CHECK_INCOHERENT = """\
space: H T
assessments: 2
decisions: 2
sure loss: no
coherence: INCOHERENT
  assessment 0: gap 0
  assessment 1: gap 3/10 (0.3)
"""

EXTEND_BOTH = """\
gamble: H=3 T=2
lower: 57/25 (2.28)
  witness: H=7/25 T=18/25
upper: 27/10 (2.7)
  witness: H=7/10 T=3/10
"""

OPTIMAL_ALL = """\
sure loss: no
coherence: ok

admissible: 1 2 3 4 5 6
maximin: 5
  lp solves: 13
maximax: 2
  lp solves: 13
maximal: 1 2 3 5
  lp solves: 26
interval: 1 2 3 5 6
  lp solves: 13
eadmissible: 1 2 3
  lp solves: 7
"""

OPTIMAL_MAXIMAL_PREFILTER = """\
sure loss: no
coherence: ok

maximal: 1 2 3 5
  pruned: 4
  lp solves: 18 (+ 12 in prefilter)
  witness 4: bounds [5/4 (1.25), 23/10 (2.3)]
  witness 6: dominated by 1 with margin 1/50 (0.02)
"""

OPTIMAL_SURELOSS = """\
sure loss: YES
  weights: assessment 0 -> 1/2, assessment 1 -> 1/2
  guaranteed shortfall: 1/20 (0.05)

no criteria evaluated
"""


class TestCheck:
    def test_coin(self, capsys):
        assert cli.run(["check", COIN]) == 0
        assert capsys.readouterr().out == CHECK_COIN

    def test_sure_loss_exits_three(self, capsys):
        assert cli.run(["check", SURELOSS]) == 3
        assert capsys.readouterr().out == CHECK_SURELOSS

    def test_incoherent_still_exits_zero(self, capsys):
        assert cli.run(["check", INCOHERENT]) == 0
        assert capsys.readouterr().out == CHECK_INCOHERENT


class TestExtend:
    def test_both_sides(self, capsys):
        code = cli.run(["extend", COIN, "--gamble", '{"H": 3, "T": 2}'])
        assert code == 0
        assert capsys.readouterr().out == EXTEND_BOTH

    def test_lower_only(self, capsys):
        code = cli.run(
            ["extend", COIN, "--gamble", '{"H": 3, "T": 2}', "--side", "lower"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out == "gamble: H=3 T=2\nlower: 57/25 (2.28)\n  witness: H=7/25 T=18/25\n"

    def test_upper_only(self, capsys):
        code = cli.run(
            ["extend", COIN, "--gamble", '{"H": 3, "T": 2}', "--side", "upper"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "upper: 27/10 (2.7)" in out
        assert "lower:" not in out

    def test_sure_loss_exits_three(self, capsys):
        code = cli.run(["extend", SURELOSS, "--gamble", '{"H": 1, "T": 0}'])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: assessments incur a sure loss"
            " (guaranteed shortfall 1/20 per unit stake)\n"
        )


class TestOptimalText:
    def test_all_criteria(self, capsys):
        assert cli.run(["optimal", COIN, "--criterion", "all"]) == 0
        captured = capsys.readouterr()
        assert captured.out == OPTIMAL_ALL
        assert captured.err.startswith("elapsed: ")

    def test_meu_with_witness(self, capsys):
        code = cli.run(
            [
                "optimal",
                COIN,
                "--criterion",
                "meu",
                "--mu",
                '{"H": "0.5", "T": "0.5"}',
                "--witness",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out == "sure loss: no\ncoherence: ok\n\nmeu: 3\n  witness 3: expectation 5/2 (2.5)\n"

    def test_prefiltered_maximality_with_witnesses(self, capsys):
        code = cli.run(
            ["optimal", COIN, "--criterion", "maximality", "--prefilter", "--witness"]
        )
        assert code == 0
        assert capsys.readouterr().out == OPTIMAL_MAXIMAL_PREFILTER

    def test_sure_loss_short_circuits(self, capsys):
        code = cli.run(["optimal", SURELOSS, "--criterion", "maximality"])
        assert code == 3
        assert capsys.readouterr().out == OPTIMAL_SURELOSS

    def test_single_criterion_names(self, capsys):
        expected = {
            "maximin": "maximin: 5",
            "maximax": "maximax: 2",
            "maximality": "maximal: 1 2 3 5",
            "intervaldominance": "interval: 1 2 3 5 6",
            "eadmissibility": "eadmissible: 1 2 3",
            "admissible": "admissible: 1 2 3 4 5 6",
        }
        for name, line in expected.items():
            assert cli.run(["optimal", COIN, "--criterion", name]) == 0
            assert line in capsys.readouterr().out


class TestOptimalJson:
    def test_all_criteria_structure(self, capsys):
        assert cli.run(["optimal", COIN, "--criterion", "all", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("}\n")
        doc = json.loads(out)
        assert doc["diagnostics"] == {
            "sure_loss": False,
            "coherent": True,
            "gaps": [
                {"assessment": 0, "gap": 0},
                {"assessment": 1, "gap": 0},
            ],
        }
        by_name = {c["criterion"]: c for c in doc["criteria"]}
        assert list(by_name) == [
            "admissible",
            "maximin",
            "maximax",
            "maximal",
            "interval",
            "eadmissible",
        ]
        assert by_name["maximal"]["optimal"] == ["1", "2", "3", "5"]
        assert by_name["maximal"]["lp_solves"] == 26
        assert by_name["eadmissible"]["optimal"] == ["1", "2", "3"]
        assert "witnesses" not in by_name["maximal"]

    def test_witnesses_on_request(self, capsys):
        code = cli.run(
            [
                "optimal",
                COIN,
                "--criterion",
                "eadmissibility",
                "--witness",
                "--format",
                "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        (entry,) = doc["criteria"]
        assert entry["witnesses"] == {
            "1": {"type": "credal_measure", "mu": {"H": "7/10", "T": "3/10"}},
            "2": {"type": "credal_measure", "mu": {"H": "2/5", "T": "3/5"}},
            "3": {"type": "credal_measure", "mu": {"H": "2/3", "T": "1/3"}},
        }

    def test_witness_variety(self, capsys):
        code = cli.run(
            [
                "optimal",
                COIN,
                "--criterion",
                "maximality",
                "--prefilter",
                "--witness",
                "--format",
                "json",
            ]
        )
        assert code == 0
        (entry,) = json.loads(capsys.readouterr().out)["criteria"]
        assert entry["pruned"] == ["4"]
        assert entry["prefilter_solves"] == 12
        assert entry["witnesses"]["4"] == {
            "type": "bounds",
            "lower": "5/4",
            "upper": "23/10",
        }
        assert entry["witnesses"]["6"] == {
            "type": "dominating_pair",
            "winner": "1",
            "margin": "1/50",
        }

    def test_sure_loss_document(self, capsys):
        code = cli.run(["optimal", SURELOSS, "--criterion", "all", "--format", "json"])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "diagnostics": {
                "sure_loss": True,
                "certificate": {"weights": ["1/2", "1/2"], "margin": "1/20"},
            },
            "criteria": [],
        }


class TestErrorPaths:
    @pytest.mark.parametrize(
        "args, code, message",
        [
            (
                ["check", "/nonexistent.json"],
                2,
                "error: cannot read /nonexistent.json: No such file or directory",
            ),
            (
                ["optimal", COIN, "--criterion", "maximality", "--mu", "{}"],
                4,
                "error: --mu is only valid with --criterion meu",
            ),
            (
                ["optimal", COIN, "--criterion", "meu"],
                4,
                "error: --criterion meu requires --mu",
            ),
            (
                ["optimal", COIN, "--criterion", "maximin", "--prefilter"],
                4,
                "error: --prefilter requires --criterion maximality or eadmissibility",
            ),
            (
                ["optimal", COIN, "--criterion", "meu", "--mu", '{"H": 1, "T": "1/5"}'],
                4,
                "error: probabilities must sum to 1, got 6/5",
            ),
            (
                ["extend", COIN, "--gamble", "oops"],
                4,
                "error: invalid JSON in --gamble at line 1, column 1: Expecting value",
            ),
            (
                ["extend", COIN, "--gamble", '{"H": 1}'],
                4,
                "error: --gamble: missing value for state 'T'",
            ),
        ],
    )
    def test_failures_report_on_stderr(self, capsys, args, code, message):
        assert cli.run(args) == code
        captured = capsys.readouterr()
        assert captured.err.rstrip("\n").endswith(message.removeprefix("error: "))
        assert captured.err.startswith("error: ")
        assert message in captured.err

    def test_malformed_problem_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"space":\n!', encoding="utf-8")
        assert cli.run(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "invalid JSON" in err and "line 2, column 1" in err

    def test_unknown_criterion_choice(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.run(["optimal", COIN, "--criterion", "hurwicz"])
        assert info.value.code == 4
        assert "usage:" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.run([])
        assert info.value.code == 4

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.run(["--help"])
        assert info.value.code == 0
        assert "check" in capsys.readouterr().out


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["optimal", COIN, "--criterion", "all", "--witness"],
            ["optimal", COIN, "--criterion", "all", "--witness", "--format", "json"],
            ["optimal", COIN, "--criterion", "eadmissibility", "--prefilter"],
        ],
    )
    def test_byte_identical_runs(self, capsys, args):
        assert cli.run(args) == 0
        first = capsys.readouterr().out
        assert cli.run(args) == 0
        assert capsys.readouterr().out == first


ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"

# What the wrapper that pip writes for a console script does.
WRAPPER = """\
import sys
from {module} import {function} as main
sys.argv[0] = "credal"
sys.exit(main())
"""


class TestConsoleScript:
    def test_entry_point_help(self):
        """The declared ``credal`` script starts the CLI, installed or not."""
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["credal"]
        module, _, function = target.partition(":")
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                WRAPPER.format(module=module, function=function),
                "--help",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "optimal" in proc.stdout
        assert proc.stdout.startswith("usage: credal")

    @pytest.mark.skipif(
        shutil.which("credal") is None,
        reason="no installed credal executable on PATH",
    )
    def test_installed_binary_help(self):
        proc = subprocess.run(
            ["credal", "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "optimal" in proc.stdout

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "credal.cli", "check", COIN],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == CHECK_COIN


class TestOptimizedInterpreter:
    """``python -O`` strips every ``assert``; no answer may depend on one."""

    def run_optimized(self, args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        return subprocess.run(
            [sys.executable, "-O", "-m", "credal.cli", *args],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )

    def test_all_criteria_with_witnesses(self, capsys):
        args = ["optimal", COIN, "--criterion", "all", "--witness"]
        proc = self.run_optimized(args)
        assert proc.returncode == 0, proc.stderr
        without_witnesses = "".join(
            line
            for line in proc.stdout.splitlines(keepends=True)
            if not line.startswith("  witness ")
        )
        assert without_witnesses == OPTIMAL_ALL
        assert cli.run(args) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_sure_loss_check(self):
        proc = self.run_optimized(["check", SURELOSS])
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == CHECK_SURELOSS
