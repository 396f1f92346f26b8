"""Seeded inputs for the three workloads.

Problems are drawn the way the acceptance chain corpus draws them (small
rationals with denominators up to 6, anchored models that avoid sure loss
by construction) and written out as JSON problem texts. Nothing here
imports credal: the inputs depend on the seed alone, never on the code
under test.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "credal" / "fixtures"
WORKLOADS = ("corpus", "scale", "cli")

# The seed whose answers answers.json pins, and the runner's default.
DEFAULT_SEED = 1
# How many leading problems of that seed are pinned, per workload.
PINNED = {"corpus": 200, "scale": 10}

# Problem shapes as (states, assessments, decisions): every corpus shape,
# and the one shape of the scale workload, a cell of the ROADMAP ladder.
CORPUS_SHAPES = [(s, a, d) for s in range(2, 5) for a in range(4) for d in range(1, 7)]
SCALE_SHAPE = (8, 3, 6)

# The cli workload's command mix: (argv after "-m credal.cli", exit code).
# "{fixtures}" stands for the directory of the shipped example files.
CLI_MIX = (
    (("optimal", "{fixtures}/coin.json", "--criterion", "all", "--witness",
      "--format", "json"), 0),
    (("check", "{fixtures}/incoherent.json"), 0),
    (("check", "{fixtures}/sureloss.json"), 3),
    (("extend", "{fixtures}/coin.json", "--gamble", '{"H": 3, "T": 2}'), 0),
)


def _rational(rng: random.Random, span: int = 4, max_den: int = 6) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-span * den, span * den), den)


def _mass_function(rng: random.Random, n: int) -> list[Fraction]:
    weights = [rng.randint(0, 5) for _ in range(n)]
    if not any(weights):
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _scalar(value: Fraction) -> int | str:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _problem_text(rng: random.Random, states: int, assessments: int, decisions: int) -> str:
    """One anchored problem of the given shape, drawn like the chain corpus.

    A hidden anchor mass function meets every assessment with slack 0 to 1,
    so the model never incurs sure loss.
    """
    space = [f"s{i}" for i in range(1, states + 1)]

    def gamble() -> dict:
        return {s: _rational(rng) for s in space}

    anchor = _mass_function(rng, states)
    rows = []
    for _ in range(assessments):
        values = gamble()
        expected = sum((p * v for p, v in zip(anchor, values.values())), Fraction(0))
        slack = Fraction(rng.randint(0, 4), 4)
        rows.append({"gamble": values, "lower": expected - slack})
    choices = {f"d{i}": gamble() for i in range(1, decisions + 1)}
    doc = {"space": space, "assessments": rows, "decisions": choices}
    return json.dumps(doc, indent=2, default=_scalar) + "\n"


def corpus_problems(seed: int) -> Iterator[str]:
    """Endless stream of small problems: 2-4 states, 0-3 assessments, 1-6 decisions.

    The chain corpus draws each count uniformly; here every one of the 72
    shapes comes once per round, in a seeded order. The mix of shapes is
    the same, but any two seeds put nearly the same shapes into a run, so
    the seed moves the timings far less.
    """
    rng = random.Random(seed)
    shapes = list(CORPUS_SHAPES)
    while True:
        rng.shuffle(shapes)
        for shape in shapes:
            yield _problem_text(rng, *shape)


def scale_problems(seed: int) -> Iterator[str]:
    """Endless stream of problems of the scale shape."""
    rng = random.Random(seed)
    while True:
        yield _problem_text(rng, *SCALE_SHAPE)


def cli_commands(seed: int) -> Iterator[int]:
    """Endless cycle of indexes into CLI_MIX, each round in a seeded order."""
    rng = random.Random(seed)
    order = list(range(len(CLI_MIX)))
    while True:
        rng.shuffle(order)
        yield from order


def child_env() -> dict:
    """This environment, with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env
