from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from sextic_strata import sampler
from sextic_strata.errors import (
    DivisibilityFailure,
    MembershipFailure,
    RejectionBudgetExceeded,
)
from sextic_strata.fields import GF, QQ
from sextic_strata.forms import Form, dim_forms, divides, variables
from sextic_strata.presentation import dual, dumps, fitting_determinant
from sextic_strata.rng import SplitMix64, derive_seed
from sextic_strata.sampler import SampleRequest, construct_x5, random_form, random_forms, sample
from sextic_strata.strata import SHAPES, StratumLabel, classify, validate_shape

F101 = GF(101)


def test_sampling_reproducible_bytes():
    req = SampleRequest(StratumLabel.X5, F101, seed=7)
    assert dumps(sample(req)) == dumps(sample(req))
    digest = hashlib.sha256(dumps(sample(req)).encode()).hexdigest()
    # frozen stream contract: these bytes may only change with a format bump
    assert digest == "524e36ae2a6becc0e90d00571f9bca911aaed4e69935059baa43cbcc371591a9"


def test_sample_bytes_pinned_across_fields():
    # One digest over every stratum at seeds 0-2 over small, int64-array,
    # object-array and beyond-2^64 primes and Q: it fixes the coefficient
    # draws of every field path.  Object arrays must hold exact Python
    # scalars, never numpy integers, which would wrap in later arithmetic.
    digest = hashlib.sha256()
    for field in (GF(2), F101, GF(2**31 - 1), GF(2**31 + 11), GF(2**64 + 13), QQ):
        scalar = Fraction if field.kind == "rational" else int
        for label in StratumLabel:
            for seed in range(3):
                P = sample(SampleRequest(label, field, seed))
                for row in P.matrix.entries:
                    for f in row:
                        assert f.array.dtype == field.dtype
                        if field.dtype is object:
                            assert all(type(c) is scalar for c in f.array.tolist()), (field, label, seed)
                digest.update(dumps(P).encode())
    assert digest.hexdigest() == "7ac407102a7553efce141b2121501d224164c4087f0de3456b14beef86fbcd48"


@pytest.mark.parametrize("field", [GF(2), F101, GF(2**31 + 11), GF(2**64 + 13), QQ], ids=repr)
def test_random_forms_match_coefficient_loop(field):
    # the reference: one next_below per coefficient, in monomial order
    degrees = [0, 1, 3, 2, 0, 6]
    block, sequential = SplitMix64(404), SplitMix64(404)
    forms = random_forms(field, degrees, block)
    for f, d in zip(forms, degrees):
        if field.kind == "prime":
            vec = [sequential.next_below(field.p) for _ in range(dim_forms(d))]
        else:
            vec = [sequential.next_below(19) - 9 for _ in range(dim_forms(d))]
        assert f == Form.from_coeff_vector(field, d, vec) and f.degree == d
        assert f.is_zero == (not any(vec)) and not f.array.flags.writeable
        assert f.array.base is forms[0].array.base
    assert block.state == sequential.state
    assert random_forms(field, [], block) == [] and block.state == sequential.state


def test_samples_classify_correctly():
    for label in StratumLabel:
        for k in range(5):
            P = sample(SampleRequest(label, F101, seed=derive_seed(1, 100 * k + ord(label.value[1]))))
            assert classify(P) == label
            assert validate_shape(P, label) == []
            assert P.metadata["stratum"] == label.value


def test_x4_metadata_records_case():
    cases = set()
    for k in range(12):
        P = sample(SampleRequest(StratumLabel.X4, F101, seed=k))
        cases.add(P.metadata["case"])
    assert cases == {"i", "ii"}


def test_rejection_budget_error(monkeypatch):
    # over F_2 the X2 conditions reject often; seed 11 needs > 1 attempts
    monkeypatch.setattr(sampler, "MAX_REJECTS", 1)
    with pytest.raises(RejectionBudgetExceeded) as exc:
        sample(SampleRequest(StratumLabel.X2, GF(2), seed=11))
    assert exc.value.rejects == 2
    assert exc.value.last_violations


def test_rejection_rates_small_over_f101():
    for label in (StratumLabel.X0, StratumLabel.X2, StratumLabel.X3, StratumLabel.X5):
        samples = [sample(SampleRequest(label, F101, derive_seed(5150, i))) for i in range(60)]
        rejects = sum(P.metadata["rejects"] for P in samples)
        rate = rejects / (rejects + len(samples))
        assert rate <= 0.20, f"{label}: rejection rate {rate:.2%}"


def test_rational_sampling_gate():
    # over Q the free cells get small integer coefficients
    P = sample(SampleRequest(StratumLabel.X5, QQ, seed=1))
    assert classify(P) == StratumLabel.X5
    assert P.metadata["field"] == "rational"
    assert all(c.denominator == 1 and abs(c) <= 9 for row in P.matrix.entries for f in row for c in f.array.tolist())


# ---------------------------------------------------------------------------
# construct_x5
# ---------------------------------------------------------------------------


def test_construct_x5_worked_example():
    # f = X^6 + Y^6, l = X, q = Y^2 has the solution h = Y^4, g = -X^5
    for field in (QQ, GF(101)):
        X, Y, Z = variables(field)
        f = Form.monomial(field, (6, 0, 0)) + Form.monomial(field, (0, 6, 0))
        P = construct_x5(f, X, Y * Y)
        assert fitting_determinant(P) == f
        h = P.matrix.entry(0, 0)
        g = P.matrix.entry(1, 0)
        assert h == Form.monomial(field, (0, 4, 0))
        assert g == Form.monomial(field, (5, 0, 0)).scale(-1)


def test_construct_x5_membership_through_l():
    # f = l * g0 is always in the slice: h = 0, g = -g0 solves it
    field = GF(101)
    rng = SplitMix64(12)
    X, Y, Z = variables(field)
    g0 = random_form(field, 5, rng)
    f = X * g0
    P = construct_x5(f, X, Y * Y)
    assert fitting_determinant(P) == f


def test_construct_x5_divisibility_failure():
    field = QQ
    X, Y, Z = variables(field)
    f = Form.monomial(field, (6, 0, 0))
    with pytest.raises(DivisibilityFailure):
        construct_x5(f, X, X * Y)
    with pytest.raises(DivisibilityFailure):
        construct_x5(f, Form.zero(field, 1), Y * Y)


def test_construct_x5_membership_failure():
    # Z^6 avoids the ideal (X, Y^2)
    field = QQ
    X, Y, Z = variables(field)
    with pytest.raises(MembershipFailure):
        construct_x5(Form.monomial(field, (0, 0, 6)), X, Y * Y)


def test_construct_x5_deterministic():
    field = GF(101)
    rng = SplitMix64(700)
    X, Y, Z = variables(field)
    l = X + Y
    q = Y * Z + X * X
    assert not divides(l, q)
    f = l * random_form(field, 5, rng) + q * random_form(field, 4, rng)
    P1 = construct_x5(f, l, q)
    P2 = construct_x5(f, l, q)
    assert dumps(P1) == dumps(P2)


# ---------------------------------------------------------------------------
# dual shapes
# ---------------------------------------------------------------------------


def test_dual_shape_x3():
    G = dual(sample(SampleRequest(StratumLabel.X3, F101, seed=23)))
    assert (G.source, G.target) == ((0, -2, -2, -2), (1, 1, -1, -1))


def test_dual_shape_x5():
    G = dual(sample(SampleRequest(StratumLabel.X5, F101, seed=23)))
    assert (G.source, G.target) == ((-2, -3), (2, -1))


def test_dual_shape_consistent_with_dual_presentation():
    # the dual's twists are t -> -2 - t of the row's shape, in order
    for label in StratumLabel:
        P = sample(SampleRequest(label, F101, seed=23))
        G = dual(P)
        source, target = SHAPES[label]
        assert (G.source, G.target) == (tuple(-2 - d for d in target), tuple(-2 - s for s in source))
