"""Exact results, recorded as ``repr``, of one run on every engine path.

The batch tests compare a batch with single runs, so a change that moves
both alike passes them.  These pin the single runs themselves: an SL
crossing at step 0, at step 1, after many steps and beyond t_max at d =
2, 3 and 10; ``nstar_simulated`` on a fixed unitary, ``CounterRotating``,
``RandomFull`` past a block of its unitary stream, the coherent d = 3
recursion, and the powered recursion with and without its rounding
fallback to the scan; and the CSVs of a small ``TsimVsBeta`` sweep, of
a small ``NstarVsBeta`` sweep whose rows the rounding guard hands to the
scan, and of a small ``RandomEnsembleVsBeta`` sweep, which pins the
``RandomFull`` draws of 64-bit task seeds.
"""

import math

import numpy as np
import pytest

from ri_thermalizer import simtime
from ri_thermalizer.cli import main
from ri_thermalizer.collisions import CollisionConfig
from ri_thermalizer.models import (
    AncillaSpec,
    CounterRotating,
    ModelSpec,
    RandomFull,
    SystemSpec,
    flip_flop_model,
)
from ri_thermalizer.simtime import nstar_simulated, tsim_simulated_sl

P_A = 0.7310585786300049  # the ground population at beta = omega = 1


def _result(n_star, t_sim, distance, engine):
    return f"ThermalizationResult(n_star={n_star!r}, t_sim={t_sim!r}, final_distance={distance!r}, engine={engine!r})"


@pytest.mark.parametrize(
    "d, p_a, epsilon, t_max, expected",
    [
        # p_A = 1/2 targets the maximally mixed start itself
        (2, 0.5, 1e-6, 10.0, (0.0, 0.0)),
        (3, 0.5, 1e-6, 10.0, (0.0, 0.0)),
        (10, 0.5, 1e-6, 10.0, (0.0, 0.0)),
        # epsilon just below the starting distance: the first step crosses
        (2, P_A, 0.23105834757142626, 10.0, (1.0000005000062472e-06, 0.23105834757142626)),
        (3, P_A, 0.3319072905338661, 10.0, (2.1546985222939194e-06, 0.3319072905338661)),
        (10, P_A, 0.66470330955911, 10.0, (1.4383884339867873e-05, 0.66470330955911)),
        (2, P_A, 1e-5, 1000.0, (10.047841452342043, 9.999999999982245e-06)),
        (3, P_A, 1e-5, 1000.0, (18.88144055703134, 9.999999999996123e-06)),
        (10, P_A, 1e-5, 1000.0, (76.79477373692241, 9.999999999989516e-06)),
        (2, P_A, 1e-5, 1.0, (None, 0.08500170079141672)),
        (3, P_A, 1e-5, 1.0, (None, 0.20190286340072727)),
        (10, P_A, 1e-5, 1.0, (None, 0.6188444486736778)),
    ],
)
def test_sl_crossing(d, p_a, epsilon, t_max, expected):
    res = tsim_simulated_sl(np.full(d, 1.0 / d), p_a, 1.0, epsilon, t_max)
    assert repr(res) == _result(None, *expected, "ode_sl")


def _pure(psi):
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


M3 = flip_flop_model(3, 1.0, 1.0, 1.0)
M5 = flip_flop_model(5, 1.0, 0.7, 1.0)
CR = ModelSpec(SystemSpec(3, 1.0), AncillaSpec(1.0, 1.0), CounterRotating(1.0, 0.3))
RF = ModelSpec(SystemSpec(3, 1.0), AncillaSpec(1.0, 1.0), RandomFull(1e-3, math.pi * 1e-3, 5))
EXCITED3 = _pure([0, 0, 1])
P5 = np.diag([0.05, 0.3, 0.1, 0.4, 0.15]).astype(complex)


@pytest.mark.parametrize(
    "rho0, model, cfg, engine, scans, expected",
    [
        (EXCITED3, M3, (0.7, 1000, 1e-5), "brute_force", 1, (45, 31.499999999999996, 7.968299143068514e-06, "brute_force")),
        # auto falls back to the CPTP map for a coherent state above d = 3
        (_pure([0.5] * 4), flip_flop_model(4, 1.0, 1.0, 1.0), (0.7, 1000, 1e-5), "auto", 1, (104, 72.8, 9.442110435879851e-06, "brute_force")),
        (np.eye(3) / 3, CR, (0.7, 200, 0.3), "auto", 1, (1, 0.7, 0.2736675974238179, "brute_force")),
        (np.eye(3) / 3, CR, (0.7, 200, 0.2), "auto", 1, (3, 2.0999999999999996, 0.18398350156262755, "brute_force")),
        (np.eye(3) / 3, CR, (0.7, 200, 0.1), "auto", 1, (8, 5.6, 0.09022485473659092, "brute_force")),
        (np.eye(3) / 3, CR, (0.7, 200, 0.05), "auto", 1, (None, None, 0.060682221516891045, "brute_force")),
        # crossings well past the first block of 16 unitaries of the stream
        (EXCITED3, RF, (100.0, 2000, 1e-2), "auto", 1, (182, 18200.0, 0.009888255969448218, "brute_force")),
        (EXCITED3, RF, (100.0, 2000, 3e-3), "auto", 1, (234, 23400.0, 0.002954965445889599, "brute_force")),
        (_pure(np.full(3, 1 / math.sqrt(3))), M3, (0.7, 1000, 1e-5), "auto", 1, (75, 52.5, 8.740623335550271e-06, "recursion")),
        # the powered search; epsilon on the scanned distance at n = 60 hands
        # the run to the scan
        (P5, M5, (1.1, 3000, 1e-6), "auto", 0, (63, 69.30000000000001, 9.459427248413588e-07, "recursion")),
        (P5, M5, (1.1, 3000, 1.7742467431566822e-06), "auto", 1, (60, 66.0, 1.7742467431566822e-06, "recursion")),
        (P5, M5, (1.1, 20, 1e-6), "auto", 0, (None, None, 0.007780417896284492, "recursion")),
    ],
    ids=["fixed", "fixed-coherent-d4", "counter-rotating-1", "counter-rotating-3", "counter-rotating-8",
         "counter-rotating-unreachable", "random-full-182", "random-full-234", "coherent-d3",
         "powered", "powered-fallback", "powered-unreachable"],
)
def test_nstar_simulated(monkeypatch, rho0, model, cfg, engine, scans, expected):
    calls = []
    scan = simtime._first_crossings
    monkeypatch.setattr(simtime, "_first_crossings", lambda *args: calls.append(1) or scan(*args))
    res = nstar_simulated(rho0, model, CollisionConfig(*cfg), engine)
    assert repr(res) == _result(*expected)
    assert len(calls) == scans


def test_tsim_vs_beta_csv(tmp_path, capsys):
    cfg = tmp_path / "tsim.cfg"
    cfg.write_text("kind = TsimVsBeta\ngrid = 0.25,1,2,inf\nd = 4\nepsilon = 1e-4\nt_max = 20\n")
    assert main(["sweep", str(cfg)]) == 0
    assert capsys.readouterr().out == (
        "point,value,stderr,reachable\n"
        "0.25,20,0,false\n"
        "1,20,0,false\n"
        "2,17.1336949706,0,true\n"
        "inf,12.4868687132,0,true\n"
    )


def test_nstar_vs_beta_csv_through_the_fallback_scan(tmp_path, capsys, monkeypatch):
    # at d = 12 and epsilon = 1e-9 the guard hands three of the five rows
    # to one stacked scan, which takes up to 8444 collisions one at a time
    calls = []
    scan = simtime._first_crossings
    monkeypatch.setattr(simtime, "_first_crossings", lambda step, states, *args: calls.append(len(states)) or scan(step, states, *args))
    cfg = tmp_path / "nstar.cfg"
    cfg.write_text("kind = NstarVsBeta\ngrid = 0.5,1,2,4,8\nd = 12\njtau = 0.19634954084936207\nepsilon = 1e-9\nn_max = 100000\n")
    assert main(["sweep", str(cfg)]) == 0
    assert capsys.readouterr().out == (
        "point,value,stderr,reachable\n"
        "0.5,8444,0,true\n"
        "1,3966,0,true\n"
        "2,1763,0,true\n"
        "4,1138,0,true\n"
        "8,1057,0,true\n"
    )
    assert calls == [3]


def test_random_ensemble_vs_beta_csv(tmp_path, capsys):
    # a sweep seed of two 32-bit words; each task's seed is a 64-bit one
    cfg = tmp_path / "ensemble.cfg"
    cfg.write_text("kind = RandomEnsembleVsBeta\ngrid = 0.5,4\nd = 3\nrepetitions = 3\nepsilon = 0.05\nseed = 4294967301\n")
    assert main(["sweep", str(cfg)]) == 0
    assert capsys.readouterr().out == (
        "point,value,stderr,reachable\n"
        "0.5,53.6666666667,2.84800124844,true\n"
        "4,79,3.0550504633,true\n"
    )
