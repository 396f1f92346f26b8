import random
from fractions import Fraction

import pytest

from credal import (
    Assessment,
    Constraint,
    Gamble,
    LinearProgram,
    LowerPrevisionModel,
    ModelError,
    PossibilitySpace,
    SureLossError,
    avoids_sure_loss,
    build_credal_set,
    coherence_report,
    expectation,
    is_coherent,
    natural_extension_lower,
    natural_extension_upper,
    probability_vector,
    solve,
    sure_loss_certificate,
)
from credal import prevision
from credal.lp import EQ, GE, LE, UNBOUNDED

from conftest import anchored_model, mass_function, random_gamble, random_space

# lower and upper natural extension of the worked example's six gambles
COIN_TABLE = {
    (4, 0): (Fraction(28, 25), Fraction(14, 5)),
    (0, 4): (Fraction(6, 5), Fraction(72, 25)),
    (3, 2): (Fraction(57, 25), Fraction(27, 10)),
    (Fraction(1, 2), 3): (Fraction(5, 4), Fraction(23, 10)),
    (Fraction(47, 20), Fraction(47, 20)): (Fraction(47, 20), Fraction(47, 20)),
    (Fraction(41, 10), Fraction(-3, 10)): (Fraction(233, 250), Fraction(139, 50)),
}


class TestCredalSet:
    def test_band_model_vertices(self, coin_model):
        assert build_credal_set(coin_model).vertices() == [
            (Fraction(7, 25), Fraction(18, 25)),
            (Fraction(7, 10), Fraction(3, 10)),
        ]

    def test_vacuous_model_is_full_simplex(self, coin_space):
        credal = build_credal_set(LowerPrevisionModel(coin_space))
        assert credal.vertices() == [
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
        ]

    def test_degenerate_point(self, coin_space):
        heads = Gamble.indicator(coin_space, "H")
        model = LowerPrevisionModel(coin_space, (Assessment(heads, 1),))
        assert build_credal_set(model).vertices() == [(Fraction(1), Fraction(0))]

    def test_row_order_simplex_first_then_assessments(self, coin_model):
        rows = build_credal_set(coin_model).constraints.constraints
        assert rows[0].relation == EQ and rows[0].coeffs == (1, 1) and rows[0].rhs == 1
        assert [r.relation for r in rows[1:]] == [GE, GE]
        assert rows[1].coeffs == coin_model.assessments[0].gamble.values
        assert rows[1].rhs == coin_model.assessments[0].lower
        assert rows[2].coeffs == coin_model.assessments[1].gamble.values

    def test_contains(self, coin_model):
        credal = build_credal_set(coin_model)
        assert credal.contains((Fraction(1, 2), Fraction(1, 2)))
        assert not credal.contains((Fraction(1, 5), Fraction(4, 5)))
        assert not credal.contains((Fraction(1, 2),))


class TestSureLoss:
    def test_band_model_avoids_sure_loss(self, coin_model):
        assert avoids_sure_loss(coin_model)
        assert sure_loss_certificate(coin_model) is None

    def test_vacuous_model_avoids_sure_loss(self, coin_space):
        assert avoids_sure_loss(LowerPrevisionModel(coin_space))

    def test_overcommitted_prices_lose(self, coin_space):
        model = LowerPrevisionModel(
            coin_space,
            (
                Assessment(Gamble.indicator(coin_space, "H"), Fraction(3, 5)),
                Assessment(Gamble.indicator(coin_space, "T"), Fraction(1, 2)),
            ),
        )
        assert not avoids_sure_loss(model)
        certificate = sure_loss_certificate(model)
        assert certificate.weights == (Fraction(1, 2), Fraction(1, 2))
        assert certificate.margin == Fraction(1, 20)

    def test_certificate_really_certifies(self):
        # wherever the certificate exists, the weighted assessments pay
        # less than their price in every single state, by >= margin
        rng = random.Random(99)
        seen_loss = 0
        for _ in range(300):
            space = random_space(rng)
            assessments = tuple(
                Assessment(
                    random_gamble(rng, space),
                    Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
                )
                for _ in range(rng.randint(1, 3))
            )
            model = LowerPrevisionModel(space, assessments)
            certificate = sure_loss_certificate(model)
            assert avoids_sure_loss(model) == (certificate is None)
            if certificate is None:
                continue
            seen_loss += 1
            assert certificate.margin > 0
            assert sum(certificate.weights) == 1
            assert all(w >= 0 for w in certificate.weights)
            for x in range(len(space)):
                payoff = sum(
                    w * a.gamble.values[x]
                    for w, a in zip(certificate.weights, assessments)
                )
                price = sum(
                    w * a.lower for w, a in zip(certificate.weights, assessments)
                )
                assert price - payoff >= certificate.margin
        assert seen_loss > 20

    def test_extension_raises_with_certificate(self, coin_space):
        model = LowerPrevisionModel(
            coin_space,
            (
                Assessment(Gamble.indicator(coin_space, "H"), Fraction(3, 5)),
                Assessment(Gamble.indicator(coin_space, "T"), Fraction(1, 2)),
            ),
        )
        with pytest.raises(SureLossError) as info:
            natural_extension_lower(model, Gamble.constant(coin_space, 0))
        assert info.value.certificate.margin == Fraction(1, 20)


class TestSolverFaults:
    """Invariant breaks become ModelError, also under python -O."""

    def test_non_optimal_outcome(self, coin_model, coin_space, monkeypatch):
        monkeypatch.setattr(prevision, "solve", lambda lp: UNBOUNDED)
        with pytest.raises(ModelError, match="unbounded"):
            natural_extension_lower(coin_model, Gamble.indicator(coin_space, "H"))

    def test_empty_credal_set_without_certificate(self, coin_space, monkeypatch):
        model = LowerPrevisionModel(
            coin_space,
            (
                Assessment(Gamble.indicator(coin_space, "H"), Fraction(3, 5)),
                Assessment(Gamble.indicator(coin_space, "T"), Fraction(1, 2)),
            ),
        )
        monkeypatch.setattr(prevision, "sure_loss_certificate", lambda model: None)
        with pytest.raises(ModelError, match="no sure-loss certificate"):
            natural_extension_upper(model, Gamble.constant(coin_space, 0))


class TestNaturalExtension:
    def test_band_model_table(self, coin_model, coin_space):
        credal = build_credal_set(coin_model)
        for values, (low, high) in COIN_TABLE.items():
            gamble = Gamble(coin_space, values)
            lower = natural_extension_lower(coin_model, gamble)
            upper = natural_extension_upper(coin_model, gamble)
            assert lower.value == low and upper.value == high
            for ext in (lower, upper):
                assert credal.contains(ext.witness)
                assert expectation(ext.witness, gamble) == ext.value

    def test_assessments_are_reproduced(self, coin_model, coin_space):
        heads = Gamble.indicator(coin_space, "H")
        assert natural_extension_lower(coin_model, heads).value == Fraction(7, 25)
        assert natural_extension_upper(coin_model, heads).value == Fraction(7, 10)

    def test_constant_normalization(self, coin_model, coin_space):
        gamble = Gamble.constant(coin_space, Fraction(47, 20))
        assert natural_extension_lower(coin_model, gamble).value == Fraction(47, 20)
        assert natural_extension_upper(coin_model, gamble).value == Fraction(47, 20)

    def test_vacuous_model_is_pointwise_envelope(self, coin_space):
        model = LowerPrevisionModel(coin_space)
        gamble = Gamble(coin_space, ("4.1", "-0.3"))
        assert natural_extension_lower(model, gamble).value == Fraction(-3, 10)
        assert natural_extension_upper(model, gamble).value == Fraction(41, 10)

    def test_wrong_space_rejected(self, coin_model):
        other = PossibilitySpace(("A", "B"))
        with pytest.raises(ModelError):
            natural_extension_lower(coin_model, Gamble(other, (1, 0)))


class TestCoherence:
    def test_band_model_is_coherent(self, coin_model):
        assert coherence_report(coin_model) == [(0, Fraction(0)), (1, Fraction(0))]
        assert is_coherent(coin_model)

    def test_scaling_gap(self, coin_space):
        heads = Gamble.indicator(coin_space, "H")
        model = LowerPrevisionModel(
            coin_space,
            (
                Assessment(heads, Fraction(1, 5)),
                Assessment(2 * heads, Fraction(1, 10)),
            ),
        )
        assert coherence_report(model) == [(0, Fraction(0)), (1, Fraction(3, 10))]
        assert not is_coherent(model)

    def test_vacuous_report_is_empty(self, coin_space):
        assert coherence_report(LowerPrevisionModel(coin_space)) == []

    def test_gaps_are_never_negative(self):
        rng = random.Random(7311)
        for _ in range(120):
            model = anchored_model(rng, random_space(rng))
            assert all(gap >= 0 for _, gap in coherence_report(model))


class TestExtensionProperties:
    def test_conjugacy(self):
        rng = random.Random(501)
        for _ in range(150):
            space = random_space(rng)
            model = anchored_model(rng, space)
            gamble = random_gamble(rng, space)
            upper = natural_extension_upper(model, gamble).value
            assert upper == -natural_extension_lower(model, -gamble).value

    def test_superadditivity(self):
        rng = random.Random(502)
        for _ in range(150):
            space = random_space(rng)
            model = anchored_model(rng, space)
            f, g = random_gamble(rng, space), random_gamble(rng, space)
            low = lambda h: natural_extension_lower(model, h).value
            assert low(f + g) >= low(f) + low(g)
            assert low(f - g) <= low(f) - low(g)

    def test_homogeneity_and_shift(self):
        rng = random.Random(503)
        for _ in range(150):
            space = random_space(rng)
            model = anchored_model(rng, space)
            f = random_gamble(rng, space)
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            shift = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            low = lambda h: natural_extension_lower(model, h).value
            assert low(scale * f) == scale * low(f)
            assert low(f.shift(shift)) == low(f) + shift

    def test_envelope_over_vertices(self):
        rng = random.Random(504)
        for _ in range(150):
            space = random_space(rng)
            model = anchored_model(rng, space)
            f = random_gamble(rng, space)
            vertices = build_credal_set(model).vertices()
            assert natural_extension_lower(model, f).value == min(
                expectation(v, f) for v in vertices
            )

    def test_dual_supremum_form(self):
        # the lower extension equals the best lower bound derivable from
        # the assessments: max a + sum(l_i * lower_i) subject to
        # a + sum(l_i * f_i) <= g pointwise, l >= 0, a free
        rng = random.Random(505)
        for _ in range(120):
            space = random_space(rng)
            model = anchored_model(rng, space)
            g = random_gamble(rng, space)
            r = len(model.assessments)
            rows = [
                Constraint(
                    (Fraction(1),)
                    + tuple(a.gamble.values[x] for a in model.assessments),
                    LE,
                    g.values[x],
                )
                for x in range(len(space))
            ]
            program = LinearProgram(
                objective=(Fraction(1),) + tuple(a.lower for a in model.assessments),
                sense="max",
                constraints=rows,
                nonneg=(False,) + (True,) * r,
            )
            out = solve(program)
            assert out.status == "optimal"
            assert out.value == natural_extension_lower(model, g).value

    def test_removing_an_assessment_never_raises_the_lower(self):
        rng = random.Random(506)
        for _ in range(100):
            space = random_space(rng)
            model = anchored_model(rng, space, max_assessments=3)
            if not model.assessments:
                continue
            g = random_gamble(rng, space)
            full = natural_extension_lower(model, g).value
            drop = rng.randrange(len(model.assessments))
            slim = LowerPrevisionModel(
                space,
                tuple(a for k, a in enumerate(model.assessments) if k != drop),
            )
            assert natural_extension_lower(slim, g).value <= full


class TestProbabilityVector:
    def test_accepts_mapping_and_sequence(self, coin_space):
        expected = (Fraction(1, 2), Fraction(1, 2))
        assert probability_vector(coin_space, {"H": "0.5", "T": "1/2"}) == expected
        assert probability_vector(coin_space, ("0.5", "0.5")) == expected

    @pytest.mark.parametrize(
        "values",
        [
            {"H": "0.6", "T": "0.6"},
            {"H": "-0.5", "T": "1.5"},
            {"H": 1},
            ("1",),
        ],
    )
    def test_rejects_invalid_vectors(self, coin_space, values):
        with pytest.raises(ModelError):
            probability_vector(coin_space, values)

    def test_mass_function_generator_is_valid(self):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randint(1, 5)
            mass = mass_function(rng, n)
            assert sum(mass) == 1 and all(p >= 0 for p in mass)
