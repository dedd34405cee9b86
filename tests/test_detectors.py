"""The verification suite must reject corrupted solutions, not just pass good ones."""

import numpy as np
import pytest

from domdp.average import check_slackness, optimality_residual, solve_average
from domdp.discounted import bellman_residual, solve_discounted
from domdp.mdp import Benchmark
from domdp.results import DualSolution, OccupationMeasure
from helpers import TI1_BENCH, feasible_pair, ti1


def test_occupation_invariants_fire_on_bad_weights():
    inst = ti1()
    good = OccupationMeasure(inst=inst, weights=np.array([1.0, 0.0]))
    assert good.is_valid()
    not_normalized = OccupationMeasure(inst=inst, weights=np.array([0.7, 0.1]))
    assert not not_normalized.is_valid()


def test_occupation_measure_takes_its_mode_from_the_instance():
    # A discounted measure has mass 1 / (1 - delta) = 2 at delta = 0.5.
    inst = ti1(mode="discounted", discount=0.5)
    occ = OccupationMeasure(inst=inst, weights=np.array([2.0, 0.0]))
    assert occ.residuals() == {"mass": 0.0, "balance": 0.0}
    assert occ.is_valid()
    with pytest.raises(TypeError):
        OccupationMeasure(inst=inst, weights=np.array([2.0, 0.0]), mode="average")


def test_occupation_balance_detects_flow_violation():
    rng = np.random.default_rng(1)
    inst, _, report = feasible_pair(rng, max_states=5, max_actions=3)
    w = report.occupation.weights.copy()
    # Move mass between two pairs of different states: normalization survives
    # but flow balance breaks.
    w[0] += 0.2
    w[-1] -= 0.2
    broken = OccupationMeasure(inst=inst, weights=w)
    assert broken.residuals()["balance"] > 1e-4


def test_dual_feasibility_detects_corrupted_h():
    inst = ti1()
    report = solve_average(inst, TI1_BENCH)
    assert report.dual.feasibility_residual(inst) <= 1e-7
    bad = DualSolution(
        g=report.dual.g - 1.0,  # lowers the rhs below r + u(z)
        h=report.dual.h,
        lam=report.dual.lam,
        utility=report.dual.utility,
        u_of_z=report.dual.u_of_z,
    )
    assert bad.feasibility_residual(inst) >= 0.5


def test_slackness_detects_corrupted_multiplier():
    inst = ti1()
    slack_bench = Benchmark(support=[-100.0, 4.0], probs=[0.5, 0.5])
    report = solve_average(inst, slack_bench)
    # The loose benchmark admits action b (z=0): the eta=4 row value is -4
    # against rhs -52, slack 48. A fake positive multiplier there must blow
    # up the product residual.
    assert report.dominance_margins[1] == pytest.approx(48.0, abs=1e-8)
    object.__setattr__(report.dual, "lam", np.array([0.0, 1.0]))
    summary = check_slackness(report)
    assert summary.max_dominance == pytest.approx(48.0, abs=1e-6)


def test_optimality_residual_detects_corrupted_gain():
    inst = ti1()
    report = solve_average(inst, TI1_BENCH)
    residuals, visited = optimality_residual(report, inst)
    assert residuals[visited].max() <= 1e-9
    bad = DualSolution(
        g=report.dual.g + 0.5,
        h=report.dual.h,
        lam=report.dual.lam,
        utility=report.dual.utility,
        u_of_z=report.dual.u_of_z,
    )
    report.dual = bad
    residuals, visited = optimality_residual(report, inst)
    assert residuals[visited].max() == pytest.approx(0.5, abs=1e-9)


def test_bellman_residual_detects_corrupted_value():
    inst = ti1(mode="discounted", discount=0.5)
    report = solve_discounted(inst, Benchmark(support=[8.0], probs=[1.0]))
    residuals, visited = bellman_residual(report, inst)
    assert residuals[visited].max() <= 1e-7
    report.dual.v.flags.writeable = True
    report.dual.v[0] += 1.0
    residuals, visited = bellman_residual(report, inst)
    # v(s) - max_a{...} shifts by (1 - delta) at a self-loop state.
    assert residuals[visited].max() == pytest.approx(0.5, abs=1e-9)
