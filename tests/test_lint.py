"""The cross-formalism model linter and the differential gate.

Per-rule positive fixtures are deliberately *seeded-bad* models —
some built through the normal constructors, some mutated afterwards to
mimic the hand edits the constructors cannot see.  Negative fixtures
are the bundled catalogue, which must lint clean (modulo its documented
suppressions).
"""

from __future__ import annotations

import json

import pytest

from repro.bip import AtomicComponent, BIPSystem, Connector
from repro.core.distributions import (
    Dirac,
    Exponential,
    Uniform,
    Weighted,
    validate_interval,
    validate_rate,
    validate_weights,
)
from repro.core.errors import EvaluationError, ModelError
from repro.core.expressions import BinOp, Const
from repro.lint import (
    Finding,
    LintReport,
    lint_model,
    lint_models,
    parse_suppression,
    suppression_matches,
)
from repro.lint.catalogue import CATALOGUE, lint_catalogue
from repro.lint.differential import run_differential
from repro.mdp import MDP
from repro.modest.flatten import _fold_const, flatten_model
from repro.modest.parser import parse_modest
from repro.obs.metrics import collecting
from repro.pta import PTA, Branch
from repro.ta import Automaton, Network, clk

# ---------------------------------------------------------------------------
# helpers


def rules_of(report_or_findings):
    findings = getattr(report_or_findings, "findings", report_or_findings)
    return {f.rule for f in findings}


def assert_flags(model, rule, name="fixture"):
    report = lint_model(model, name=name)
    assert rule in rules_of(report), \
        f"expected {rule}, got {sorted(rules_of(report))}"
    return report


# ---------------------------------------------------------------------------
# findings / suppressions plumbing


class TestFindings:
    def test_severity_is_validated(self):
        with pytest.raises(ModelError):
            Finding("r", "fatal", "m", "w", "msg")

    def test_parse_suppression(self):
        assert parse_suppression("clock-unused") == ("clock-unused", None)
        assert parse_suppression("clock-unused@P/*") == \
            ("clock-unused", "P/*")
        for bad in ("", "@x", "rule@"):
            with pytest.raises(ModelError):
                parse_suppression(bad)

    def test_suppression_matching(self):
        finding = Finding("clock-unused", "warning", "m", "Train/x", "msg")
        assert suppression_matches("clock-unused", finding)
        assert suppression_matches("clock-unused@Train/*", finding)
        assert suppression_matches("*@Train/x", finding)
        assert not suppression_matches("clock-unused@Gate/*", finding)
        assert not suppression_matches("other-rule", finding)

    def test_exit_code_thresholds(self):
        report = LintReport([
            Finding("a", "info", "m", "w", "msg"),
            Finding("b", "warning", "m", "w", "msg"),
        ])
        assert report.exit_code("info") == 1
        assert report.exit_code("warning") == 1
        assert report.exit_code("error") == 0
        assert report.exit_code("never") == 0

    def test_suppressed_findings_do_not_fail(self):
        report = LintReport([Finding("a", "error", "m", "w", "msg",
                                     suppressed_by="a")])
        assert report.exit_code("info") == 0
        assert report.counts() == {"info": 0, "warning": 0, "error": 0,
                                   "suppressed": 1}

    def test_json_document_schema(self):
        report = LintReport(
            [Finding("a", "error", "m", "w", "msg", suppressed_by="a@w")],
            models=["m"], meta={"k": 1})
        doc = json.loads(report.to_json())
        assert doc["schema"] == "repro.lint/1"
        assert doc["models"] == ["m"]
        assert doc["summary"]["suppressed"] == 1
        assert doc["findings"][0]["suppressed_by"] == "a@w"
        assert doc["meta"] == {"k": 1}


class TestSuppressionRoundTrip:
    def _noisy(self):
        ta = Automaton("Noisy", clocks=["x"])
        ta.add_location("init")
        ta.add_edge("init", "init")
        return ta

    def test_model_carried_suppressions(self):
        ta = self._noisy()
        assert "clock-unused" in rules_of(lint_model(ta))
        ta.lint_suppress = ("clock-unused@Noisy/x",)
        report = lint_model(ta)
        assert not report.unsuppressed()
        waived = report.suppressed()
        assert [f.suppressed_by for f in waived] == ["clock-unused@Noisy/x"]
        # The waiver survives the JSON round trip for the CI artifact.
        doc = json.loads(report.to_json())
        assert doc["findings"][0]["suppressed_by"] == "clock-unused@Noisy/x"

    def test_explicit_suppressions_compose(self):
        report = lint_model(self._noisy(), suppress=("clock-unused",))
        assert not report.unsuppressed()

    def test_lint_models_folds_and_applies_per_entry_patterns(self):
        clean = Automaton("Clean")
        clean.add_location("a")
        clean.add_edge("a", "a")
        report = lint_models([
            ("clean", clean),
            ("noisy", self._noisy(), ("clock-unused",)),
        ])
        assert report.models == ["clean", "noisy"]
        assert not report.unsuppressed()
        assert len(report.suppressed()) == 1


# ---------------------------------------------------------------------------
# TA / PTA rules


class TestTARules:
    def test_clock_unused(self):
        ta = Automaton("T", clocks=["x"])
        ta.add_location("a")
        ta.add_edge("a", "a")
        assert_flags(ta, "clock-unused")

    def test_clock_never_reset(self):
        ta = Automaton("T", clocks=["x"])
        ta.add_location("a")
        ta.add_edge("a", "a", guard=[clk("x", ">=", 1)])
        assert_flags(ta, "clock-never-reset")

    def test_clock_unknown(self):
        ta = Automaton("T", clocks=["x"])
        ta.add_location("a")
        ta.add_edge("a", "a", guard=[clk("y", "<", 5)],
                    resets=[("x", 0)])
        assert_flags(ta, "clock-unknown")

    def test_ta_clock_unbounded(self):
        ta = Automaton("T", clocks=["x"])
        ta.add_location("a")
        ta.add_location("b")
        ta.add_edge("a", "b", guard=[clk("x", ">", 3)], resets=[("x", 0)])
        report = assert_flags(ta, "ta-clock-unbounded")
        finding = next(f for f in report.findings
                       if f.rule == "ta-clock-unbounded")
        assert finding.severity == "warning"
        assert "T/x" in finding.where

    def test_ta_clock_unbounded_quiet_with_invariant(self):
        ta = Automaton("T", clocks=["x"])
        ta.add_location("a", invariant=[clk("x", "<=", 5)])
        ta.add_location("b")
        ta.add_edge("a", "b", guard=[clk("x", ">", 3)], resets=[("x", 0)])
        report = lint_model(ta, name="fixture")
        assert "ta-clock-unbounded" not in rules_of(report)

    def test_ta_clock_unbounded_quiet_with_diagonal(self):
        ta = Automaton("T", clocks=["x", "y"])
        ta.add_location("a", invariant=[clk("y", "<=", 9)])
        ta.add_location("b")
        ta.add_edge("a", "b", guard=[clk("x", ">", 1, other="y")],
                    resets=[("x", 0), ("y", 0)])
        report = lint_model(ta, name="fixture")
        assert "ta-clock-unbounded" not in rules_of(report)

    def test_edge_contradiction(self):
        ta = Automaton("T", clocks=["x"])
        ta.add_location("a", invariant=[clk("x", "<=", 2)])
        ta.add_location("b")
        ta.add_edge("a", "b", guard=[clk("x", ">=", 5)],
                    resets=[("x", 0)])
        assert_flags(ta, "edge-contradiction")

    def test_edge_target_contradiction(self):
        ta = Automaton("T", clocks=["x"])
        ta.add_location("a")
        ta.add_location("b", invariant=[clk("x", "<=", 2)])
        ta.add_edge("a", "b", resets=[("x", 5)])
        ta.add_edge("b", "a", resets=[("x", 0)])
        assert_flags(ta, "edge-target-contradiction")

    def test_satisfiable_edges_are_clean(self):
        ta = Automaton("T", clocks=["x"])
        ta.add_location("a", invariant=[clk("x", "<=", 5)])
        ta.add_location("b", invariant=[clk("x", "<=", 2)])
        ta.add_edge("a", "b", guard=[clk("x", ">=", 1)],
                    resets=[("x", 0)])
        ta.add_edge("b", "a")
        report = lint_model(ta)
        assert "edge-contradiction" not in rules_of(report)
        assert "edge-target-contradiction" not in rules_of(report)

    def test_location_unreachable(self):
        ta = Automaton("T")
        ta.add_location("a")
        ta.add_location("island")
        ta.add_edge("a", "a")
        ta.add_edge("island", "a")
        assert_flags(ta, "location-unreachable")

    def test_urgency_misuse_and_timelock(self):
        ta = Automaton("T", clocks=["x"])
        ta.add_location("a")
        ta.add_location("u", urgent=True, invariant=[clk("x", "<=", 1)])
        ta.add_location("c", committed=True)
        ta.add_edge("a", "u", resets=[("x", 0)])
        ta.add_edge("u", "c")
        report = lint_model(ta)
        assert "urgency-misuse" in rules_of(report)    # invariant on u
        assert "urgency-timelock" in rules_of(report)  # c has no exit

    def test_invariant_lower_bound_and_initial_violation(self):
        ta = Automaton("T", clocks=["x"])
        ta.add_location("a", invariant=[clk("x", ">=", 1)])
        ta.add_edge("a", "a", resets=[("x", 0)])
        report = lint_model(ta)
        assert "invariant-lower-bound" in rules_of(report)
        assert "invariant-initial-violated" in rules_of(report)

    def test_rate_invalid_cites_the_distribution_validator(self):
        ta = Automaton("T", clocks=["x"])
        ta.add_location("a", rate=-2.0)
        ta.add_edge("a", "a", resets=[("x", 0)])
        ta.locations["a"].invariant = ()
        report = assert_flags(ta, "rate-invalid")
        finding = [f for f in report.findings if f.rule == "rate-invalid"][0]
        # Same wording as Exponential(-2), because it IS the same check.
        with pytest.raises(ModelError) as err:
            Exponential(-2.0)
        assert str(err.value) in finding.message

    def test_rate_unused_under_bounded_invariant(self):
        ta = Automaton("T", clocks=["x"])
        ta.add_location("a", invariant=[clk("x", "<=", 3)], rate=0.5)
        ta.add_edge("a", "a", resets=[("x", 0)])
        assert_flags(ta, "rate-unused")

    def test_prob_branch_rules_on_mutated_edge(self):
        pta = PTA("P", clocks=["x"])
        pta.add_location("a")
        pta.add_location("b")
        edge = pta.add_prob_edge(
            "a", [Branch(0.5, "a", resets=[("x", 0)]), Branch(0.5, "b")])
        pta.add_edge("b", "a")
        assert "prob-branch-invalid" not in rules_of(lint_model(pta))
        # A hand edit after construction breaks the distribution — the
        # constructor can no longer defend, the linter must.
        edge.branches[0].probability = 0.4
        assert_flags(pta, "prob-branch-invalid")
        edge.branches[0].probability = 0.0
        edge.branches[1].probability = 1.0
        assert_flags(pta, "prob-branch-dead")

    def test_channel_rules(self):
        def talker(sync):
            ta = Automaton(f"T{sync}")
            ta.add_location("a")
            ta.add_edge("a", "a", sync=sync)
            return ta

        net = Network("chans")
        net.add_channel("used")
        net.add_channel("idle")
        net.add_channel("b", broadcast=True)
        net.add_process("P", talker(("used", "!")))
        net.add_process("Q", talker(("undeclared", "?")))
        net.add_process("R", talker(("b", "!")))
        report = lint_model(net)
        rules = rules_of(report)
        assert "channel-undeclared" in rules     # Q's channel
        assert "channel-unused" in rules         # idle
        assert "rendezvous-unmatched" in rules   # used! has no receiver
        assert "broadcast-no-receiver" in rules  # b! heard by nobody

    def test_matched_channels_are_clean(self):
        net = Network("ok")
        net.add_channel("go")
        sender = Automaton("S")
        sender.add_location("a")
        sender.add_edge("a", "a", sync=("go", "!"))
        receiver = Automaton("R")
        receiver.add_location("a")
        receiver.add_edge("a", "a", sync=("go", "?"))
        net.add_process("S", sender)
        net.add_process("R", receiver)
        assert not rules_of(lint_model(net)) & {
            "channel-undeclared", "channel-unused",
            "rendezvous-unmatched", "broadcast-no-receiver"}


# ---------------------------------------------------------------------------
# BIP rules


class TestBIPRules:
    def _component(self, name="C", port="p"):
        comp = AtomicComponent(name, ports=[port])
        comp.add_place("s0")
        comp.add_place("s1")
        comp.add_transition(port, "s0", "s1")
        comp.add_transition(port, "s1", "s0")
        return comp

    def test_dead_interaction(self):
        system = BIPSystem("sys")
        comp = AtomicComponent("C", ports=["p", "q"])
        comp.add_place("s0")
        comp.add_transition("p", "s0", "s0")
        system.add_component(comp)
        system.add_connector(Connector("link", [("C", "q")]))
        assert_flags(system, "bip-dead-interaction")

    def test_port_unconnected_and_unused(self):
        system = BIPSystem("sys")
        comp = AtomicComponent("C", ports=["p", "ghost"])
        comp.add_place("s0")
        comp.add_transition("p", "s0", "s0")
        system.add_component(comp)
        report = lint_model(system)
        assert "bip-port-unconnected" in rules_of(report)  # p
        assert "bip-port-unused" in rules_of(report)       # ghost

    def test_place_unreachable(self):
        system = BIPSystem("sys")
        comp = self._component()
        comp.add_place("limbo")
        system.add_component(comp)
        system.add_connector(Connector("link", [("C", "p")]))
        assert_flags(system, "bip-place-unreachable")

    def test_priority_shadowed(self):
        system = BIPSystem("sys")
        system.add_component(self._component("A"))
        system.add_component(self._component("B", port="q"))
        a = Connector("ca", [("A", "p")])
        b = Connector("cb", [("B", "q")])
        system.add_connector(a)
        system.add_connector(b)
        system.add_priority("ca", "cb")
        system.add_priority("cb", "ca")
        assert_flags(system, "bip-priority-shadowed")

    def test_well_formed_system_is_clean(self):
        system = BIPSystem("sys")
        system.add_component(self._component())
        system.add_connector(Connector("link", [("C", "p")]))
        assert not lint_model(system).findings


# ---------------------------------------------------------------------------
# MDP rules


class TestMDPRules:
    def _chain(self):
        mdp = MDP("m")
        a, b = mdp.add_state(), mdp.add_state(labels=["goal"])
        mdp.add_action(a, [(1.0, b)], label="step")
        mdp.add_action(b, [(1.0, b)], label="stay")
        return mdp, a, b

    def test_prob_invalid_after_hand_edit(self):
        mdp, a, _b = self._chain()
        # add_action validates; a post-construction edit of the flat
        # buffers is the attack.  Action 0 is a's, transition 0 its only.
        assert mdp._source[0] == a and mdp._end[0] == 1
        mdp._prob[0] = 0.5
        assert_flags(mdp, "mdp-prob-invalid")

    def test_target_invalid(self):
        mdp, a, _b = self._chain()
        assert mdp._source[0] == a and mdp._end[0] == 1
        mdp._target[0] = 7
        assert_flags(mdp, "mdp-target-invalid")

    def test_reward_trap(self):
        mdp, _a, b = self._chain()
        assert mdp._source[1] == b and mdp._target[1] == b
        mdp._reward[1] = 2.0
        report = assert_flags(mdp, "mdp-reward-trap")
        assert f"state[{b}]" in [f.where for f in report.findings]

    def test_absorbing_without_reward_is_clean(self):
        mdp, _a, _b = self._chain()
        assert "mdp-reward-trap" not in rules_of(lint_model(mdp))

    def test_state_unreachable(self):
        mdp, _a, _b = self._chain()
        orphan = mdp.add_state()
        mdp.add_action(orphan, [(1.0, orphan)])
        assert_flags(mdp, "mdp-state-unreachable")

    def test_label_dangling(self):
        mdp, _a, _b = self._chain()
        mdp.labels["goal"].add(99)
        assert_flags(mdp, "mdp-label-dangling")


# ---------------------------------------------------------------------------
# MODEST rules


class TestModestRules:
    def test_shadowed_decl(self):
        report = lint_model("""
            int n = 1;
            process P() { int n = 2; tau {= n = 3 =}; stop }
            par { :: P() }
        """, name="shadow")
        assert "modest-shadowed-decl" in rules_of(report)

    def test_unused_decl(self):
        report = lint_model("""
            int dead = 0;
            process P() { tau; stop }
            par { :: P() }
        """, name="dead")
        assert "modest-unused-decl" in rules_of(report)

    def test_write_only_observables_are_not_flagged(self):
        # Property predicates read verdict variables from outside the
        # model, so write-only variables are legitimate.
        report = lint_model("""
            bool ok = false;
            process P() { tau {= ok = true =}; stop }
            par { :: P() }
        """, name="observable")
        assert "modest-unused-decl" not in rules_of(report)

    def test_undeclared_var(self):
        report = lint_model("""
            process P() { when(phantom > 0) tau; stop }
            par { :: P() }
        """, name="phantom")
        assert "modest-undeclared-var" in rules_of(report)

    def test_unused_process(self):
        report = lint_model("""
            process P() { tau; stop }
            process Q() { tau; stop }
            par { :: P() }
        """, name="unused-proc")
        assert "modest-unused-process" in rules_of(report)

    def test_palt_weights_on_mutated_ast(self):
        model = parse_modest("""
            process P() { tau palt { :1: {==} :1: {==} }; stop }
            par { :: P() }
        """)
        assert "modest-palt-weights" not in rules_of(
            lint_model(model, name="ok"))
        prefix = model.processes["P"].body.statements[0]
        prefix.branches[0].weight = -1
        assert "modest-palt-weights" in rules_of(
            lint_model(model, name="bad"))

    def test_flatten_rules_run_after_ast_rules(self):
        # A clean AST whose flattened PTA violates a TA rule: the
        # contradiction only exists at the network level.
        report = lint_model("""
            process P() {
              clock x;
              invariant(x <= 1) when(x >= 5) tau; stop
            }
            par { :: P() }
        """, name="deep")
        assert "edge-contradiction" in rules_of(report)


# ---------------------------------------------------------------------------
# satellite fixes: _fold_const narrowing + orphan pruning


class TestFlattenFixes:
    def test_fold_const_swallows_only_evaluation_errors(self):
        assert _fold_const(BinOp("/", Const(1), Const(0)), {}) is None

        class Broken:
            def eval(self, env):
                raise RuntimeError("AST bug, must propagate")

        with pytest.raises(RuntimeError):
            _fold_const(Broken(), {})

    def test_evaluation_error_is_the_contract(self):
        with pytest.raises(EvaluationError):
            BinOp("/", Const(1), Const(0)).eval({})

    def test_flatten_prunes_orphan_exit_location(self):
        network = flatten_model(parse_modest("""
            process P() { clock x; do { :: when(x >= 1) tau {= x = 0 =} } }
            par { :: P() }
        """))
        for process in network.processes:
            automaton = process.automaton
            touched = {automaton.initial_location}
            for edge in automaton.edges:
                touched.add(edge.source)
                touched.add(edge.target)
            assert set(automaton.locations) <= touched
        assert "location-unreachable" not in rules_of(
            lint_model(network, name="looping"))


# ---------------------------------------------------------------------------
# distribution parameter validation (shared with the lint rules)


class TestDistributionValidators:
    def test_validate_rate(self):
        assert validate_rate(2) == 2.0
        for bad in (0, -1, float("nan"), float("inf"), "fast", None):
            with pytest.raises(ModelError):
                validate_rate(bad)

    def test_validate_interval(self):
        assert validate_interval(1, 2) == (1.0, 2.0)
        for low, high in ((2, 1), (-1, 1), (float("nan"), 1),
                          (0, float("nan")), (float("inf"), float("inf"))):
            with pytest.raises(ModelError):
                validate_interval(low, high)
        # An unbounded upper end stays legal (delay intervals use it).
        assert validate_interval(0, float("inf")) == (0.0, float("inf"))

    def test_validate_weights(self):
        assert validate_weights([1, 0, 2]) == [1.0, 0.0, 2.0]
        for bad in ([1, -1], [float("nan")], [float("inf")], [0, 0], []):
            with pytest.raises(ModelError):
                validate_weights(bad)

    def test_constructors_reject_non_finite_parameters(self):
        with pytest.raises(ModelError):
            Exponential(float("nan"))
        with pytest.raises(ModelError):
            Uniform(0, float("nan"))
        with pytest.raises(ModelError):
            Dirac(float("inf"))
        with pytest.raises(ModelError):
            Weighted([("a", float("inf"))])

    def test_weighted_still_normalises(self):
        w = Weighted([("a", 1), ("b", 0), ("c", 3)])
        assert w.outcomes == ("a", "c")
        assert w.probabilities == (0.25, 0.75)


# ---------------------------------------------------------------------------
# the bundled catalogue must lint clean


class TestCatalogueSweep:
    def test_every_bundled_model_lints_clean(self):
        report = lint_catalogue()
        assert not report.unsuppressed(), report.format()
        # Only the documented waivers fire.
        assert {f.rule for f in report.suppressed()} <= {"mdp-reward-trap"}
        assert report.meta["suppressions"]["brp-2-digital"]["reason"]

    def test_catalogue_names_are_unique(self):
        names = [entry.name for entry in CATALOGUE]
        assert len(names) == len(set(names))

    def test_unknown_name_is_rejected(self):
        with pytest.raises(ModelError):
            lint_catalogue(["no-such-model"])

    def test_lint_counters_flow(self):
        with collecting() as collector:
            lint_catalogue(["fischer-3", "coffee-spec"])
        counters = collector.snapshot()["counters"]
        assert counters["lint.models"] == 2
        assert counters["lint.errors"] == 0


# ---------------------------------------------------------------------------
# differential gate


class TestDifferential:
    def test_quick_pool_agrees(self):
        with collecting() as collector:
            report = run_differential(quick=True)
        assert not report.findings, report.format()
        rows = report.meta["differential"]
        assert all(row["agree"] for row in rows)
        checks = {row["check"] for row in rows}
        assert checks == {"modest-backends", "mc-vs-reference",
                          "mdp-vs-reference"}
        counters = collector.snapshot()["counters"]
        assert counters["lint.differential.checks"] == len(rows)
        assert counters["lint.differential.disagreements"] == 0

    def test_disagreement_becomes_error_finding(self):
        from repro.lint.differential import _Gate
        gate = _Gate()
        gate.record("modest-backends", "m", "pmax", False, "divergence")
        report = gate.report()
        assert report.exit_code("error") == 1
        finding = report.findings[0]
        assert finding.rule == "differential-disagreement"
        assert finding.where == "modest-backends/pmax"


# ---------------------------------------------------------------------------
# CLI


class TestCLI:
    def test_list(self, capsys):
        from repro.lint.__main__ import main
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fischer-3" in out and "brp-2-digital" in out

    def test_clean_subset_exits_zero(self, capsys, tmp_path):
        from repro.lint.__main__ import main
        json_path = tmp_path / "findings.json"
        obs_path = tmp_path / "metrics.json"
        code = main(["fischer-3", "coffee-spec",
                     "--json", str(json_path),
                     "--obs-report", str(obs_path)])
        assert code == 0
        doc = json.loads(json_path.read_text())
        assert doc["schema"] == "repro.lint/1"
        assert doc["summary"]["models"] == 2
        obs = json.loads(obs_path.read_text())
        assert obs["metrics"]["counters"]["lint.models"] == 2

    def test_unknown_model_exits_two(self, capsys):
        from repro.lint.__main__ import main
        assert main(["definitely-not-a-model"]) == 2

    def test_fail_on_info_catches_suppressed_free_infos(self, capsys):
        from repro.lint.__main__ import main
        # The digital MDP entry only has suppressed findings, so even
        # --fail-on info stays clean.
        assert main(["brp-2-digital", "--fail-on", "info"]) == 0
