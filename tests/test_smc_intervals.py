"""Confidence intervals without scipy.

The Clopper-Pearson bounds and normal critical values of
:mod:`repro.smc.estimate` are pinned to values scipy produced
(``scipy.stats.beta.ppf`` / ``scipy.stats.norm.ppf``), and a subprocess
checks that the TA, TIGA and SMC layers import and run with scipy and
numpy unavailable.
"""

import subprocess
import sys
import textwrap

import pytest

from repro.core import AnalysisError
from repro.smc.estimate import MeanEstimate, ProbabilityEstimate

#: (successes, runs, confidence, low, high) from scipy.stats.beta.ppf
CLOPPER_PEARSON = [
    (0, 1, 0.9, 0.0, 0.95),
    (0, 1, 0.95, 0.0, 0.975),
    (0, 1, 0.99, 0.0, 0.995),
    (1, 1, 0.9, 0.04999999999999999, 1.0),
    (1, 1, 0.95, 0.025000000000000022, 1.0),
    (1, 1, 0.99, 0.0050000000000000044, 1.0),
    (0, 2, 0.9, 0.0, 0.776393202250021),
    (0, 2, 0.95, 0.0, 0.841886116991581),
    (0, 2, 0.99, 0.0, 0.9292893218813452),
    (1, 2, 0.9, 0.025320565519103604, 0.9746794344808963),
    (1, 2, 0.95, 0.01257911709342506, 0.9874208829065749),
    (1, 2, 0.99, 0.0025031328369998357, 0.9974968671630001),
    (2, 2, 0.9, 0.22360679774997894, 1.0),
    (2, 2, 0.95, 0.15811388300841903, 1.0),
    (2, 2, 0.99, 0.07071067811865478, 1.0),
    (0, 10, 0.9, 0.0, 0.2588655508930522),
    (0, 10, 0.95, 0.0, 0.3084971078187607),
    (0, 10, 0.99, 0.0, 0.4112959813475253),
    (1, 10, 0.9, 0.0051161968918237, 0.39416330243650466),
    (1, 10, 0.95, 0.0025285785444617865, 0.4450161170281954),
    (1, 10, 0.99, 0.0005011285754646344, 0.5442870568996868),
    (3, 10, 0.9, 0.0872644339141503, 0.6066242161054123),
    (3, 10, 0.95, 0.0667395111777345, 0.6524528500599973),
    (3, 10, 0.99, 0.03700722109623209, 0.7351139852871307),
    (5, 10, 0.9, 0.22244110100812936, 0.7775588989918706),
    (5, 10, 0.95, 0.18708602844739855, 0.8129139715526015),
    (5, 10, 0.99, 0.12831055393508328, 0.8716894460649167),
    (9, 10, 0.9, 0.6058366975634951, 0.9948838031081763),
    (9, 10, 0.95, 0.5549838829718046, 0.9974714214555382),
    (9, 10, 0.99, 0.4557129431003132, 0.9994988714245354),
    (10, 10, 0.9, 0.7411344491069477, 1.0),
    (10, 10, 0.95, 0.6915028921812392, 1.0),
    (10, 10, 0.99, 0.5887040186524747, 1.0),
    (0, 37, 0.9, 0.0, 0.07777471100513791),
    (0, 37, 0.95, 0.0, 0.09489058741498987),
    (0, 37, 0.99, 0.0, 0.1334173292157823),
    (1, 37, 0.9, 0.001385344776478823, 0.12190489818825372),
    (1, 37, 0.95, 0.0006840310246946654, 0.14160309561115805),
    (1, 37, 0.99, 0.00013546492713708094, 0.18423716083339314),
    (12, 37, 0.9, 0.1989850268815682, 0.4718747891984317),
    (12, 37, 0.95, 0.18013864805205668, 0.4978532835133968),
    (12, 37, 0.99, 0.14636085808971666, 0.5483452869791858),
    (18, 37, 0.9, 0.3427652924246003, 0.631904615131739),
    (18, 37, 0.95, 0.31921410648154025, 0.6560031843342338),
    (18, 37, 0.99, 0.27518173186216965, 0.7013205041487904),
    (36, 37, 0.9, 0.8780951018117462, 0.9986146552235212),
    (36, 37, 0.95, 0.858396904388842, 0.9993159689753053),
    (36, 37, 0.99, 0.8157628391666069, 0.9998645350728629),
    (37, 37, 0.9, 0.922225288994862, 1.0),
    (37, 37, 0.95, 0.9051094125850101, 1.0),
    (37, 37, 0.99, 0.8665826707842177, 1.0),
    (0, 100, 0.9, 0.0, 0.029513049607039925),
    (0, 100, 0.95, 0.0, 0.03621669264517641),
    (0, 100, 0.99, 0.0, 0.05160402962410399),
    (1, 100, 0.9, 0.000512801416262292, 0.046559811453538935),
    (1, 100, 0.95, 0.00025314603297742086, 0.054459385392080645),
    (1, 100, 0.99, 5.012416197765646e-05, 0.0719576824016363),
    (33, 100, 0.9, 0.2523034770406254, 0.41545426701352445),
    (33, 100, 0.95, 0.2391985346226018, 0.43117275077756323),
    (33, 100, 0.99, 0.21457364098472412, 0.4620907800803009),
    (50, 100, 0.9, 0.41362171463091174, 0.5863782853690882),
    (50, 100, 0.95, 0.398321129503301, 0.601678870496699),
    (50, 100, 0.99, 0.3688614373589241, 0.6311385626410759),
    (99, 100, 0.9, 0.9534401885464611, 0.9994871985837377),
    (99, 100, 0.95, 0.9455406146079194, 0.9997468539670226),
    (99, 100, 0.99, 0.9280423175983636, 0.9999498758380223),
    (100, 100, 0.9, 0.9704869503929601, 1.0),
    (100, 100, 0.95, 0.9637833073548235, 1.0),
    (100, 100, 0.99, 0.948395970375896, 1.0),
    (0, 1000, 0.9, 0.0, 0.002991249545095295),
    (0, 1000, 0.95, 0.0, 0.003682083896865671),
    (0, 1000, 0.99, 0.0, 0.005284306039497442),
    (1, 1000, 0.9, 5.12919789090178e-05, 0.004734993575499777),
    (1, 1000, 0.95, 2.5317487491294065e-05, 0.005558924279826672),
    (1, 1000, 0.99, 5.01252926077751e-06, 0.007406286938352937),
    (333, 1000, 0.9, 0.308373901193985, 0.35835736234732873),
    (333, 1000, 0.95, 0.30381780242015766, 0.3631692178520082),
    (333, 1000, 0.99, 0.29498905401498543, 0.37262438582155794),
    (500, 1000, 0.9, 0.47351773123569124, 0.5264822687643087),
    (500, 1000, 0.95, 0.468549172971792, 0.531450827028208),
    (500, 1000, 0.99, 0.45885255330704494, 0.5411474466929551),
    (999, 1000, 0.9, 0.9952650064245002, 0.999948708021091),
    (999, 1000, 0.95, 0.9944410757201734, 0.9999746825125088),
    (999, 1000, 0.99, 0.992593713061647, 0.9999949874707392),
    (1000, 1000, 0.9, 0.9970087504549047, 1.0),
    (1000, 1000, 0.95, 0.9963179161031344, 1.0),
    (1000, 1000, 0.99, 0.9947156939605025, 1.0),
    (0, 10000, 0.9, 0.0, 0.00029952835977661195),
    (0, 10000, 0.95, 0.0, 0.0003688199146187622),
    (0, 10000, 0.99, 0.0, 0.0005296914006061454),
    (1, 10000, 0.9, 5.129316283767299e-06, 0.0004742976591654368),
    (1, 10000, 0.95, 2.5317775934746887e-06, 0.0005570369979470473),
    (1, 10000, 0.99, 5.01254056726572e-07, 0.0007427741123960361),
    (3333, 10000, 0.9, 0.3255328683439719, 0.3411389527878048),
    (3333, 10000, 0.95, 0.32406051649519263, 0.3426366567713322),
    (3333, 10000, 0.99, 0.3211896509043789, 0.3455698044852719),
    (5000, 10000, 0.9, 0.4917265044037394, 0.5082734955962607),
    (5000, 10000, 0.95, 0.4901513805899805, 0.5098486194100196),
    (5000, 10000, 0.99, 0.48707333515582113, 0.5129266648441788),
    (9999, 10000, 0.9, 0.9995257023408346, 0.9999948706837163),
    (9999, 10000, 0.95, 0.9994429630020529, 0.9999974682224065),
    (9999, 10000, 0.99, 0.999257225887604, 0.9999994987459433),
    (10000, 10000, 0.9, 0.9997004716402234, 1.0),
    (10000, 10000, 0.95, 0.9996311800853812, 1.0),
    (10000, 10000, 0.99, 0.9994703085993939, 1.0),
]

#: (confidence, two-sided z) from scipy.stats.norm.ppf
NORMAL_Z = [
    (0.8, 1.2815515655446004),
    (0.9, 1.6448536269514722),
    (0.95, 1.959963984540054),
    (0.99, 2.5758293035489004),
    (0.999, 3.2905267314919255),
]


@pytest.mark.parametrize("successes, runs, confidence, low, high",
                         CLOPPER_PEARSON)
def test_clopper_pearson_matches_scipy(successes, runs, confidence, low,
                                       high):
    estimate = ProbabilityEstimate(successes, runs, confidence)
    assert abs(estimate.low - low) <= 1e-10
    assert abs(estimate.high - high) <= 1e-10


@pytest.mark.parametrize("confidence, z", NORMAL_Z)
def test_normal_interval_matches_scipy(confidence, z):
    samples = [0.0, 1.0, 2.0, 3.0]
    estimate = MeanEstimate(samples, confidence)
    half = z * estimate.std / 2.0
    low, high = estimate.interval()
    assert abs(low - (1.5 - half)) <= 1e-10
    assert abs(high - (1.5 + half)) <= 1e-10


@pytest.mark.parametrize("successes", [-1, 11])
def test_successes_outside_runs_rejected(successes):
    with pytest.raises(AnalysisError):
        ProbabilityEstimate(successes, 10)


def test_library_runs_without_scipy():
    """The TA, TIGA and SMC experiments need neither scipy nor numpy,
    and load no PTA or MDP module: importing the train-gate and
    train-game models with ``repro.mc``, ``repro.tiga``, ``repro.smc``
    and ``repro.runtime``, then checking deadlock freedom, solving a
    safety game (which compiles transition outcomes) and estimating
    first-passage CDFs and a probability all run with both libraries
    unavailable.  A leads-to query checks that liveness (its SCC pass
    included) is numpy-free too."""
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # any `import scipy` now fails
        sys.modules["numpy"] = None
        from functools import partial
        import repro.models.traingate, repro.models.traingame
        import repro.mc, repro.runtime, repro.smc, repro.tiga
        from repro.mc import LeadsTo, LocationIs, Verifier
        from repro.models.traingame import make_traingame, safety_predicate
        from repro.models.traingate import cross_predicate, make_traingate
        from repro.smc import (
            estimate_probability, first_passage_cdfs, network_simulator)
        from repro.tiga import GameGraph, controller_wins_safety
        verifier = Verifier(make_traingate(2))
        assert verifier.deadlock_free()
        assert verifier.check(LeadsTo(LocationIs("Train(0)", "Appr"),
                                      LocationIs("Train(0)", "Cross")))
        wins, _strategy = controller_wins_safety(
            GameGraph(make_traingame(2, scale=2)), safety_predicate(2))
        assert wins
        cdfs = first_passage_cdfs(
            partial(network_simulator, make_traingate(2)),
            {0: cross_predicate(0)}, horizon=100, runs=20, grid=[50, 100],
            rng=7)
        assert 0.0 <= cdfs[0][0] <= cdfs[0][1] <= 1.0
        estimate = estimate_probability(
            lambda rng: rng.random() < 0.5, runs=200, rng=7)
        assert 0.0 < estimate.low < estimate.mean < estimate.high < 1.0
        loaded = sorted(name for name in sys.modules
                        if name.startswith(("repro.pta", "repro.mdp")))
        assert not loaded, loaded
        print("ok")
    """)
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_modes_runs_without_numpy():
    """A ``modes`` run, Table I's simulation column, needs neither numpy
    nor scipy and loads no MDP module: the MODEST toolset imports the
    MDP layer only inside ``mcpta``, and the digital-clocks semantics
    imports it only when an MDP is built."""
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # any `import scipy` now fails
        sys.modules["numpy"] = None
        import repro.models.brp, repro.modest, repro.runtime
        from repro.models import brp
        from repro.modest import Emax, Pmax, Reach, modes
        from repro.runtime import Spec
        result = modes(Spec(brp.make_brp, 2, 2, 1),
                       [Reach("TA1", brp.premature_timeout),
                        Pmax("P1", brp.not_success),
                        Emax("Emax", brp.reported)],
                       runs=20, rng=7, max_time=100)
        assert result["TA1"].successes == 0
        assert 0.0 <= result["P1"].mean <= 1.0
        assert result["Emax"].runs == 20 and result["Emax"].mean > 0
        loaded = sorted(name for name in sys.modules
                        if name.startswith("repro.mdp"))
        assert not loaded, loaded
        print("ok")
    """)
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
