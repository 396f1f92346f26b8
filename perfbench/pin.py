"""Regenerate answers.json: the answers each workload must keep giving.

Pins, for the default seed, a digest of every answer of the leading
problems of corpus and scale, and the stdout of each command of the cli
mix with its solve counts dropped. Run from the repository root, and only
when an answer is meant to change:

    python3 perfbench/pin.py
"""

from __future__ import annotations

import itertools
import json
import sys

import workloads

sys.path.insert(0, str(workloads.SRC))

import pipeline  # noqa: E402  (needs src/ on the path)


def main() -> None:
    seed = workloads.DEFAULT_SEED
    pins = {}
    for name, stream in (
        ("corpus", workloads.corpus_problems), ("scale", workloads.scale_problems)
    ):
        texts = itertools.islice(stream(seed), workloads.PINNED[name])
        pins[name] = {
            "seed": seed,
            "digests": [
                pipeline.digest(pipeline.solve_problem(text, name == "corpus"))
                for text in texts
            ],
        }
    pins["cli"] = {
        "stdout": [
            pipeline.normalize_stdout(pipeline.run_cli(pipeline.cli_argv(k))[1])
            for k in range(len(workloads.CLI_MIX))
        ]
    }
    path = workloads.HERE / "answers.json"
    path.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
