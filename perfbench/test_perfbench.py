"""Self-tests of the benchmark. Run from the repository root:

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import workloads

sys.path.insert(0, str(workloads.SRC))

import credal  # noqa: E402  (needs src/ on the path)
import pipeline  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_line(*argv: str) -> dict:
    """The JSON result of one in-process run; --seconds 0 times two units."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().splitlines()[-1])


class Inputs(unittest.TestCase):
    def test_same_seed_same_texts(self):
        for stream, count in (
            (workloads.corpus_problems, 30), (workloads.scale_problems, 2)
        ):
            first = list(itertools.islice(stream(5), count))
            self.assertEqual(first, list(itertools.islice(stream(5), count)))
            self.assertNotEqual(first, list(itertools.islice(stream(6), count)))
        mix = list(itertools.islice(workloads.cli_commands(5), 12))
        self.assertEqual(mix, list(itertools.islice(workloads.cli_commands(5), 12)))


class Checks(unittest.TestCase):
    def test_a_wrong_answer_is_found(self):
        text = next(workloads.corpus_problems(3))
        solved = pipeline.solve_problem(text, True)
        self.assertEqual(pipeline.check_problem(solved), [])
        maximin = solved.results[1]
        wrong = dataclasses.replace(maximin, optimal=maximin.optimal + ("nobody",))
        tampered = dataclasses.replace(
            solved, results=(solved.results[0], wrong) + solved.results[2:]
        )
        self.assertIn("maximin optimal set", pipeline.check_problem(tampered))
        self.assertNotEqual(pipeline.digest(tampered), pipeline.digest(solved))

    def test_vertices_equal_credals_enumeration(self):
        from credal import prevision, problem_io

        for stream, count in (
            (workloads.corpus_problems, 100), (workloads.scale_problems, 2)
        ):
            for text in itertools.islice(stream(8), count):
                pf = problem_io.parse_problem_text(text)
                self.assertEqual(
                    pipeline.credal_vertices(pf),
                    prevision.build_credal_set(pf.model).vertices(),
                )

    def test_cli_outputs_match_the_pins(self):
        pins = json.loads((workloads.HERE / "answers.json").read_text(encoding="utf-8"))
        for k in range(len(workloads.CLI_MIX)):
            code, stdout = pipeline.run_cli(pipeline.cli_argv(k))
            self.assertEqual(pipeline.check_cli(k, code, stdout, pins["cli"]["stdout"]), [])


class Speed(unittest.TestCase):
    def test_a_slower_machine_gives_the_same_scaled_times(self):
        times = [0.3, 0.1, 0.2, 0.4, 0.1, 0.6, 0.2, 0.3, 0.5, 0.1, 0.2, 0.4, 0.3]
        chunks = [0.004, 0.006, 0.005, 0.007, 0.004, 0.005, 0.006, 0.004, 0.008,
                  0.005, 0.006, 0.005, 0.004]
        fast, slow = speed.Reference(), speed.Reference()
        fast.samples = chunks
        slow.samples = [2 * c for c in chunks]
        for a, b in zip(fast.scaled(times), slow.scaled([2 * t for t in times])):
            self.assertAlmostEqual(a, b)
        self.assertAlmostEqual(fast.factor(), 2 * slow.factor())

    def test_one_chunk_per_time(self):
        ref = speed.Reference()
        ref.sample()
        self.assertEqual(len(ref.samples), 1)
        with self.assertRaises(ValueError):
            ref.scaled([0.1, 0.2])


class Tracing(unittest.TestCase):
    def test_span_solves_equal_the_criterion_counts(self):
        import tracer

        trace = tracer.Tracer()
        text = next(workloads.corpus_problems(3))
        trace.install()
        try:
            with credal.count_solves() as counter, trace.tracing(0):
                solved = pipeline.solve_problem(text, True)
        finally:
            trace.uninstall()
        by_tag = {s.name: s.solves for s in trace.spans if s.name.startswith("criteria.")}
        for result in solved.results[1:]:
            self.assertEqual(by_tag[f"criteria.{result.criterion}"], result.lp_solves)
        for result in solved.prefiltered:
            self.assertEqual(
                by_tag[f"criteria.{result.criterion}_pre"],
                result.lp_solves + result.prefilter_solves,
            )
        calls = sum(1 for s in trace.spans if s.name == "lp.solve")
        self.assertEqual(calls, counter.solves)


class Runs(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        for workload in workloads.WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = result_line(
                        "--workload", workload, "--seconds", "0", "--trace", trace
                    )
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in BENCHMARK[key]},
                    )

    def test_untraced_run_installs_nothing(self):
        result_line("--workload", "corpus", "--seconds", "0", "--trace", "0")
        self.assertIs(credal.criteria.solve, credal.lp.solve)
        self.assertIs(credal.prevision.solve, credal.lp.solve)
        self.assertIs(credal.solve, credal.lp.solve)

    def test_traced_run_restores_every_function(self):
        before = {name: dict(vars(module)) for name, module in sys.modules.items()
                  if name.startswith("credal")}
        result_line("--workload", "corpus", "--seconds", "0", "--trace", "1")
        for name, namespace in before.items():
            after = vars(sys.modules[name])
            for attr, value in namespace.items():
                self.assertIs(after[attr], value, f"{name}.{attr}")

    def test_counts_repeat_across_traced_runs(self):
        counts = [
            {
                name: m["value"]
                for name, m in result_line(
                    "--workload", "corpus", "--seed", "4", "--seconds", "0", "--trace", "1"
                )["metrics"].items()
                if m["unit"] == "count"
            }
            for _ in range(2)
        ]
        self.assertTrue(counts[0])
        self.assertEqual(counts[0], counts[1])

    def test_fails_without_the_program(self):
        out = workloads.HERE / "out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as bare:
            shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(workloads.HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "corpus",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
