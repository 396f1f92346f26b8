"""The unit of work of each workload, and the exact checks of its answers.

A unit is one problem through the library (corpus, scale) or one CLI
invocation (cli). Library calls go through module attributes, so the
tracer's wrappers are seen without rebinding anything here. The checks run
outside the timed region and return a list of findings, empty when every
answer holds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from credal import cli, criteria, problem_io, report
from credal.criteria import Bounds, CredalMeasure, DominatingPair

from workloads import (
    CLI_MIX, FIXTURES, ROOT, child_env, cli_commands, corpus_problems, scale_problems,
)

# The order in which `optimal --criterion all` runs the criteria.
TAGS = ("maximin", "maximax", "maximal", "interval", "eadmissible")
PREFILTERED = ("maximal", "eadmissible")


@dataclass(frozen=True)
class Solved:
    pf: problem_io.ProblemFile
    diagnostics: report.Diagnostics
    results: tuple[criteria.CriterionResult, ...]  # admissible, then TAGS
    prefiltered: tuple[criteria.CriterionResult, ...]  # PREFILTERED, in order
    mixtures: Optional[dict[str, Optional[criteria.MixtureDominance]]]
    rendered: str


def solve_problem(text: str, mixtures: bool) -> Solved:
    """The corpus pipeline; scale runs it with mixtures=False."""
    pf = problem_io.parse_problem_text(text)
    model, problem = pf.model, pf.problem
    diag = report.build_diagnostics(model)
    results = [criteria.admissible_result(problem)]
    results += [criteria.run_pipeline(problem, model, tag) for tag in TAGS]
    prefiltered = tuple(
        criteria.run_pipeline(problem, model, tag, prefilter=True) for tag in PREFILTERED
    )
    mix = None
    if mixtures:
        mix = {d: criteria.mixture_dominance(problem, model, d) for d in results[0].optimal}
    rendered = report.render_optimal_json(
        pf.space, report.Report(diag, tuple(results)), True
    )
    return Solved(pf, diag, tuple(results), prefiltered, mix, rendered)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI invocation: exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


def cli_argv(index: int) -> list[str]:
    return [arg.replace("{fixtures}", str(FIXTURES)) for arg in CLI_MIX[index][0]]


def normalize_stdout(text: str) -> str:
    """Stdout without the solve counts, which later changes re-pin by design."""
    try:
        doc = json.loads(text)
    except ValueError:
        return text
    for entry in doc.get("criteria", ()):
        entry.pop("lp_solves", None)
        entry.pop("prefilter_solves", None)
    return json.dumps(doc, indent=2) + "\n"


def check_cli(index: int, code: int, stdout: str, pinned: list[str]) -> list[str]:
    findings = []
    if code != CLI_MIX[index][1]:
        findings.append(f"cli {index}: exit {code}, expected {CLI_MIX[index][1]}")
    if normalize_stdout(stdout) != pinned[index]:
        findings.append(f"cli {index}: stdout differs from the pinned output")
    return findings


def digest(solved: Solved) -> str:
    """Hash of the answers that must never change.

    Solve counts and the vertex a witness lands on are left out: the
    witnesses are re-verified by check_problem instead.
    """
    def bounds(result: criteria.CriterionResult) -> dict:
        return {
            d: [str(w.lower), str(w.upper)]
            for d, w in result.witnesses.items()
            if isinstance(w, Bounds)
        }

    doc = {
        "sure_loss": solved.diagnostics.sure_loss,
        "gaps": [[k, str(gap)] for k, gap in solved.diagnostics.gaps],
        "results": [
            [r.criterion, r.optimal, r.pruned, bounds(r)]
            for r in solved.results + solved.prefiltered
        ],
        "mixtures": None
        if solved.mixtures is None
        else {d: m and str(m.margin) for d, m in solved.mixtures.items()},
    }
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _dot(mu, values) -> Fraction:
    return sum((p * v for p, v in zip(mu, values)), Fraction(0))


def _solve_small(a: list[list[Fraction]], b: list[Fraction]) -> Optional[list[Fraction]]:
    """The unique solution of a square rational system, or None if singular."""
    m = [row + [rhs] for row, rhs in zip(a, b)]
    n = len(m)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [row[n] for row in m]


def in_credal_set(rows: list[tuple], mu) -> bool:
    """mu is a mass function that meets every (gamble values, lower) row."""
    return (
        all(p >= 0 for p in mu)
        and sum(mu) == 1
        and all(_dot(mu, values) >= lower for values, lower in rows)
    )


def credal_vertices(pf: problem_io.ProblemFile) -> list[tuple[Fraction, ...]]:
    """Every vertex of the problem's credal set, exactly, without credal's solver.

    Besides the sum row, a vertex of the n-state credal set makes n - 1 of
    its inequalities tight: some masses are zero and some assessments are
    met with equality. For t tight assessments, the t + 1 masses left free
    solve a square system of the sum row and those assessments; a solution
    that meets every constraint is a vertex. With few assessments these
    systems stay small, which keeps the check cheap beside the pipeline.
    """
    n = len(pf.space)
    rows = [(a.gamble.values, a.lower) for a in pf.assessments]
    found = set()
    for tight in range(min(len(rows), n - 1) + 1):
        for active in combinations(rows, tight):
            for free in combinations(range(n), tight + 1):
                x = _solve_small(
                    [[Fraction(1)] * len(free)] + [[v[j] for j in free] for v, _ in active],
                    [Fraction(1)] + [lower for _, lower in active],
                )
                if x is None:
                    continue
                mu = [Fraction(0)] * n
                for j, value in zip(free, x):
                    mu[j] = value
                if in_credal_set(rows, mu):
                    found.add(tuple(mu))
    return sorted(found)


def check_problem(solved: Solved) -> list[str]:
    """Re-derive every answer from the credal set's vertices, exactly.

    Bounds, dominance margins and mixture margins must equal the vertex
    minimum (or maximum); credal measures must lie in the credal set and
    make their decision optimal; the optimal sets must follow from those
    values; prefiltering must not change an optimal set.
    """
    pf = solved.pf
    gains = {d: g.values for d, g in pf.decisions.items()}
    findings: list[str] = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            findings.append(what)

    ids = tuple(
        d for d in gains
        if not any(
            all(x >= y for x, y in zip(gains[e], gains[d])) and gains[e] != gains[d]
            for e in gains
        )
    )
    admissible = solved.results[0]
    expect(admissible.optimal == tuple(sorted(ids)), "admissible set")
    expect(not solved.diagnostics.sure_loss, "anchored model reported sure loss")

    vertices = credal_vertices(pf)
    rows = [(a.gamble.values, a.lower) for a in pf.assessments]
    table = {d: [_dot(v, gains[d]) for v in vertices] for d in ids}
    low = {d: min(row) for d, row in table.items()}
    high = {d: max(row) for d, row in table.items()}

    def advantage(winner: str, loser: str) -> Fraction:
        return min(a - b for a, b in zip(table[winner], table[loser]))

    for k, gap in solved.diagnostics.gaps:
        a = pf.assessments[k]
        lower = min(_dot(v, a.gamble.values) for v in vertices)
        expect(gap == lower - a.lower, f"coherence gap {k}")

    best_low = max(low.values())
    expected = {
        "maximin": {d for d in ids if low[d] == best_low},
        "maximax": {d for d in ids if high[d] == max(high.values())},
        "interval": {d for d in ids if high[d] >= best_low},
        "maximal": {
            d for d in ids if all(advantage(e, d) <= 0 for e in ids if e != d)
        },
    }
    plain = {r.criterion: r for r in solved.results[1:]}
    for result in solved.results[1:] + solved.prefiltered:
        tag = result.criterion
        if tag in expected:
            expect(set(result.optimal) == expected[tag], f"{tag} optimal set")
        for d, w in result.witnesses.items():
            if isinstance(w, Bounds):
                expect((w.lower, w.upper) == (low[d], high[d]), f"{tag} bounds of {d}")
            elif isinstance(w, DominatingPair):
                expect(
                    w.winner in ids and 0 < w.margin == advantage(w.winner, d),
                    f"{tag} dominance witness of {d}",
                )
            elif isinstance(w, CredalMeasure):
                expect(
                    in_credal_set(rows, w.mu)
                    and all(_dot(w.mu, gains[d]) >= _dot(w.mu, gains[e]) for e in ids),
                    f"{tag} credal measure of {d}",
                )
    eadm = plain["eadmissible"]
    expect(
        set(eadm.witnesses) == set(eadm.optimal) <= expected["maximal"],
        "eadmissible members and witnesses",
    )
    for result in solved.prefiltered:
        expect(
            result.optimal == plain[result.criterion].optimal,
            f"prefiltered {result.criterion} optimal set",
        )
        expect(
            set(result.pruned) == {d for d in ids if high[d] < best_low},
            f"prefiltered {result.criterion} pruned set",
        )

    for target, mix in (solved.mixtures or {}).items():
        if mix is None:
            continue
        weights = mix.weights
        expect(
            mix.target == target
            and set(weights) <= set(ids)
            and all(w > 0 for w in weights.values())
            and sum(weights.values()) == 1
            and 0 < mix.margin == min(
                sum(w * table[e][i] for e, w in weights.items()) - table[target][i]
                for i in range(len(vertices))
            ),
            f"mixture witness of {target}",
        )

    rendered = json.loads(solved.rendered)
    expect(
        [c["optimal"] for c in rendered["criteria"]]
        == [list(r.optimal) for r in solved.results],
        "rendered optimal sets",
    )
    return findings


class Problems:
    """corpus and scale: one problem text per unit, checked exactly."""

    def __init__(self, name: str, seed: int, pins: dict) -> None:
        self.mixtures = name == "corpus"
        stream = corpus_problems if self.mixtures else scale_problems
        self.items = stream(seed)
        self.digests = pins[name]["digests"] if seed == pins[name]["seed"] else []
        self.cli = CliInProcess(seed, pins)

    def run(self, text: str):
        return solve_problem(text, self.mixtures)

    def check(self, index: int, text: str, solved) -> list[str]:
        findings = check_problem(solved)
        if index < len(self.digests) and digest(solved) != self.digests[index]:
            findings.append(f"answers differ from the pinned digest {self.digests[index]}")
        return findings

    def coverage(self, texts: list[str]) -> list:
        """Traced units for the layers this workload's units never call."""
        units = self.cli.all_commands()
        if not self.mixtures:
            pf = problem_io.parse_problem_text(texts[0])
            problem, model = pf.problem, pf.model
            target = criteria.admissible_result(problem).optimal[0]
            units.append((
                "cover:mixture",
                lambda: criteria.mixture_dominance(problem, model, target),
                None,
            ))
        return units


class CliProcesses:
    """cli: one fresh interpreter per unit, exit code and stdout checked."""

    def __init__(self, seed: int, pins: dict) -> None:
        self.items = cli_commands(seed)
        self.pinned = pins["cli"]["stdout"]
        self.env = child_env()

    def run(self, command: int) -> tuple[int, str]:
        argv = cli_argv(command)
        done = subprocess.run(
            [sys.executable, "-m", "credal.cli", *argv],
            env=self.env, cwd=ROOT, capture_output=True, text=True,
        )
        return done.returncode, done.stdout

    def check(self, index: int, command: int, output) -> list[str]:
        return check_cli(command, *output, self.pinned)


class CliInProcess(CliProcesses):
    """The cli mix through credal.cli.run in this process, for the traced run."""

    def run(self, command: int) -> tuple[int, str]:
        return run_cli(cli_argv(command))

    def all_commands(self) -> list:
        return [
            (f"cover:cli:{k}", lambda k=k: self.run(k), lambda out, k=k: self.check(k, k, out))
            for k in range(len(CLI_MIX))
        ]

    def coverage(self, items: list[int]) -> list:
        """The corpus pipeline on coin.json: prefilter, mixtures, vertices."""
        text = (FIXTURES / "coin.json").read_text(encoding="utf-8")
        return [(
            "cover:problem",
            lambda: solve_problem(text, True),
            check_problem,
        )]
