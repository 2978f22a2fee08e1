"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a PASS line once its criterion holds, so a verbose run
reads as a checklist.  Runtime guards are asserted where the criterion
states one.
"""

import io
import math
import time

from thetamod.dedekind import reciprocity_defect
from thetamod.exact import UnitPhase
from thetamod.modgroup import shear
from thetamod.multipliers import gamma2_prefactor
from thetamod.series import ThetaKind, theta_series_report
from thetamod.transform import eval_fast_report
from thetamod.verify import (
    RECIPROCITY_BOUND,
    TrialConfig,
    run_suite,
    write_report,
)


def _all_pass(name, records):
    failures = [r for r in records if not r.passed]
    assert not failures, f"{name}: {len(failures)} failures, first: {failures[:2]}"


def test_dedekind_reciprocity_all_pairs_under_200():
    t0 = time.time()
    pairs = 0
    for h in range(1, RECIPROCITY_BOUND + 1):
        for k in range(1, RECIPROCITY_BOUND + 1):
            if math.gcd(h, k) != 1:
                continue
            assert reciprocity_defect(h, k) == 0, (h, k)
            pairs += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"reciprocity took {elapsed:.1f}s"
    print(f"\nPASS reciprocity: defect exactly 0 on all {pairs} coprime pairs "
          f"<= {RECIPROCITY_BOUND} in {elapsed:.1f}s")


def test_lemmas_1_to_4_exact_500_each():
    t0 = time.time()
    for name in ("lemma1", "lemma2", "lemma3", "lemma4"):
        records = run_suite(name, TrialConfig(seed=11, trials=500))
        assert len(records) == 500
        assert all(r.residual == "exact" for r in records)
        _all_pass(name, records)
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"lemma suites took {elapsed:.1f}s"
    print(f"\nPASS lemma1-4: exact phase equality, 500 matrices each "
          f"(both branches of lemma2/lemma4), {elapsed:.1f}s")


def test_eq1_eq2_numeric():
    for name in ("eq1", "eq2"):
        records = run_suite(name, TrialConfig(seed=12, trials=100, tol=1e-9))
        assert len(records) == 100
        _all_pass(name, records)
    print("\nPASS eq1/eq2: residual < 1e-9*kappa on 100 random points each")


def test_theorem1_300_matrices():
    t0 = time.time()
    records = run_suite("theorem1", TrialConfig(seed=13, trials=300, tol=1e-9))
    assert len(records) == 300
    _all_pass("theorem1", records)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"theorem1 took {elapsed:.1f}s"
    print(f"\nPASS theorem1: residual < 1e-9*kappa on 300 random matrices "
          f"(entries <= 20, c > 0), {elapsed:.1f}s")


def test_theorem2_all_kinds_300_each():
    outcomes = {}
    for name in ("theorem2-theta2", "theorem2-theta3", "theorem2-theta4"):
        records = run_suite(name, TrialConfig(seed=14, trials=300, tol=1e-9))
        assert len(records) == 300
        outcomes[name] = sum(not r.passed for r in records)
    # per-kind report: any systematic failure isolates to that kind's
    # printed i-power exponent
    report = ", ".join(f"{k}: {v} failures" for k, v in outcomes.items())
    assert all(v == 0 for v in outcomes.values()), report
    print(f"\nPASS theorem2: residual < 1e-9*kappa, 300 level-2 matrices per kind "
          f"({report}) -- printed exponents adjudicated correct")


def test_lemma5_numeric_and_exact_prefactor():
    records = run_suite("lemma5", TrialConfig(seed=15, trials=100, tol=1e-10))
    numeric = [r for r in records if r.residual != "exact"]
    assert len(numeric) == 100
    _all_pass("lemma5", records)
    assert gamma2_prefactor(ThetaKind.THETA3, shear(1)) == UnitPhase(0)
    print("\nPASS lemma5: residual < 1e-10 on 100 points and "
          "alpha(theta3,S2)*epsilon1'(S2) = 1 exactly")


def test_chained_induction_matches_single_shot():
    records = run_suite("chain-vs-direct", TrialConfig(seed=16, trials=100, tol=1e-9))
    assert len(records) == 100
    _all_pass("chain-vs-direct", records)
    print("\nPASS chain-vs-direct: letterwise transformation matches "
          "single-shot law within 1e-9 on 100 matrices")


def test_parity_facts_10000_matrices():
    records = run_suite("parity-mod4", TrialConfig(seed=17, trials=10000))
    assert len(records) == 10000
    assert all(r.residual == "exact" for r in records)
    _all_pass("parity-mod4", records)
    print("\nPASS parity-mod4: (c+1)^2 - a^2 = 0 mod 4 and d^2 - b^2 = 1 mod 4 "
          "on 10000 level-2 matrices")


def test_fast_evaluation_agreement_and_savings():
    t0 = time.time()
    # z chosen so the reduced elliptic argument is (nearly) real -- the
    # regime argument reduction is built for; z stays inside the usual box
    tau = 0.3 + 0.02j
    z = -2.6 * (3 * tau - 1)  # = 0.26 - 0.156i
    fast = eval_fast_report(ThetaKind.THETA1, z, tau, 1e-8)
    direct = theta_series_report(ThetaKind.THETA1, z, tau, 1e-8, max_index=10**7)
    assert abs(fast.value - direct.value) < 1e-7
    assert fast.terms * 10 <= direct.terms, (fast.terms, direct.terms)
    # value agreement at the purely real sample point as well
    fast2 = eval_fast_report(ThetaKind.THETA1, 0.1, tau, 1e-8)
    direct2 = theta_series_report(ThetaKind.THETA1, 0.1, tau, 1e-8, max_index=10**7)
    assert abs(fast2.value - direct2.value) < 1e-7
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"\nPASS eval_fast: |fast - direct| < 1e-7 at tau=0.3+0.02i with "
          f"{fast.terms} vs {direct.terms} terms (>= 10x fewer), {elapsed:.1f}s")


def test_verify_reports_are_deterministic():
    def render():
        config = TrialConfig(
            seed=7,
            trials=25,
            suites=("lemma1", "lemma4", "eq2", "theorem1", "closed-form-epsilon"),
        )
        buf = io.StringIO()
        write_report(buf, config)
        return buf.getvalue().encode()

    assert render() == render()
    print("\nPASS determinism: two seed-7 verify runs are byte-identical")
