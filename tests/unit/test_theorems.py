"""Unit tests for the theorem checkers."""

import pytest

from repro.core import (
    KnowledgeChecker,
    TwoLeggedFork,
    ZigzagPattern,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    check_theorem4,
    check_theorem4_batch,
    general,
    supported_margin,
)
from repro.coordination import late_task
from repro.scenarios import figure2a_scenario, figure2b_scenario
from repro.simulation import ExternalInput


class TestTheorem1Checker:
    def test_valid_pattern_report(self, figure2a_run):
        run = figure2a_run
        externals = {r.process: r.receiver_node for r in run.external_deliveries}
        pattern = ZigzagPattern(
            (
                TwoLeggedFork(general(externals["C"]), ("C", "D"), ("C", "A")),
                TwoLeggedFork(general(externals["E"]), ("E", "B"), ("E", "D")),
            )
        )
        report = check_theorem1(run, pattern)
        assert report.valid_pattern
        assert report.holds
        assert report.observed_gap >= report.weight

    def test_invalid_pattern_is_vacuous(self, figure2a_run):
        run = figure2a_run
        externals = {r.process: r.receiver_node for r in run.external_deliveries}
        bad = ZigzagPattern(
            (
                TwoLeggedFork(general(externals["E"]), ("E", "D"), ("E", "B")),
                TwoLeggedFork(general(externals["C"]), ("C", "A"), ("C", "D")),
            )
        )
        report = check_theorem1(run, bad)
        assert not report.valid_pattern
        assert report.holds  # vacuously
        assert report.weight is None


class TestTheorem2Checker:
    def test_witness_between_action_nodes(self, figure2a_run):
        run = figure2a_run
        a_node = run.find_action("A", "a").node
        b_node = run.find_action("B", "b").node
        report = check_theorem2(run, a_node, b_node)
        assert report.has_constraint
        assert report.zigzag_weight == report.constraint_weight
        assert report.tight
        assert report.witnesses(report.constraint_weight)
        assert not report.witnesses(report.constraint_weight + 1)

    def test_no_constraint_case(self, figure2a_run):
        run = figure2a_run
        a_node = run.find_action("A", "a").node
        b_node = run.find_action("B", "b").node
        report = check_theorem2(run, b_node, a_node)
        assert not report.has_constraint
        assert not report.tight
        assert report.zigzag is None

    def test_supported_margin_single_run(self, figure2a_run):
        run = figure2a_run
        a_node = run.find_action("A", "a").node
        b_node = run.find_action("B", "b").node
        margin = supported_margin([run], a_node, b_node)
        assert margin == run.time_of(b_node) - run.time_of(a_node)

    def test_supported_margin_none_when_node_missing(self, figure2a_run, triangle_run):
        a_node = figure2a_run.find_action("A", "a").node
        b_node = figure2a_run.find_action("B", "b").node
        # The triangle run contains neither node -> ignored; a run with only one
        # of the two would make it unsupported.  Here we fabricate that case by
        # using the go node (which also appears in figure2b runs).
        go_node = figure2a_run.external_deliveries[0].receiver_node
        other = figure2b_scenario().run()
        assert supported_margin([figure2a_run, other], go_node, b_node) is None


class TestTheorem3Checker:
    def test_optimal_protocol_satisfies_theorem3(self):
        scenario = figure2b_scenario(margin=5)
        run = scenario.run()
        report = check_theorem3(
            run,
            actor="B",
            action="b",
            go_sender="C",
            go_recipient="A",
            margin=5,
            late=True,
        )
        assert report.acted
        assert report.holds
        assert report.go_in_past
        assert report.knowledge_holds

    def test_vacuous_when_b_never_acts(self):
        scenario = figure2b_scenario(margin=10_000)
        run = scenario.run()
        report = check_theorem3(
            run, actor="B", action="b", go_sender="C", go_recipient="A", margin=10_000, late=True
        )
        assert not report.acted
        assert report.holds

    def test_naive_rule_can_violate_knowledge_condition(self):
        # Figure 2a's naive B (act upon hearing E) does not know the precedence
        # for margins larger than what the invisible zigzag supports.
        scenario = figure2a_scenario()
        run = scenario.run()
        report = check_theorem3(
            run, actor="B", action="b", go_sender="C", go_recipient="A", margin=10_000, late=True
        )
        assert report.acted
        assert not report.holds

    def test_go_node_is_the_go_trigger_delivery(self):
        # C gets another external input at t=1, before mu_go at t=2: theta_a
        # must hang off the go node C@2, not off C's first external delivery.
        scenario = figure2b_scenario(margin=5)
        scenario.external_inputs.append(ExternalInput(1, "C", "mu_other"))
        run = scenario.run()
        go_node = late_task(5).go_node(run)
        assert run.time_of(go_node) == 2
        sigma = run.find_action("B", "b").node
        theta_a = general(go_node, ("C", "A"))
        known = KnowledgeChecker(sigma, run.timed_network).max_known_gap(theta_a, sigma)
        for margin in (known, known + 1):
            report = check_theorem3(
                run,
                actor="B",
                action="b",
                go_sender="C",
                go_recipient="A",
                margin=margin,
                late=True,
            )
            assert report.go_in_past
            assert report.knowledge_holds is (margin == known)


class TestTheorem4Checker:
    def test_sound_and_complete_against_singleton(self, triangle_run):
        sigma = triangle_run.final_node("B")
        go_node = triangle_run.external_deliveries[0].receiver_node
        theta_a = general(go_node, ("C", "A"))
        report = check_theorem4(
            sigma, theta_a, general(sigma), triangle_run.timed_network, [triangle_run]
        )
        # Against a single run the empirical minimum can only over-estimate, so
        # soundness must hold and the known gap is at most the observed one.
        assert report.sound
        assert report.known_gap is not None
        assert report.known_gap <= report.empirical_gap

    def test_reused_checker_matches_fresh_checker(self, triangle_run):
        sigma = triangle_run.final_node("B")
        go_node = triangle_run.external_deliveries[0].receiver_node
        theta_a = general(go_node, ("C", "A"))
        net = triangle_run.timed_network
        checker = KnowledgeChecker(sigma, net)
        fresh = check_theorem4(sigma, theta_a, general(sigma), net, [triangle_run])
        reused = check_theorem4(
            sigma, theta_a, general(sigma), net, [triangle_run], checker=checker
        )
        assert reused == fresh

    def test_mismatched_checker_is_rejected(self, triangle_run):
        from repro.simulation import fully_connected

        sigma = triangle_run.final_node("B")
        go_node = triangle_run.external_deliveries[0].receiver_node
        net = triangle_run.timed_network
        wrong_sigma = KnowledgeChecker(triangle_run.final_node("A"), net)
        with pytest.raises(ValueError):
            check_theorem4(
                sigma, go_node, sigma, net, [triangle_run], checker=wrong_sigma
            )
        other_net = fully_connected(["A", "B", "C"], 1, 4)
        wrong_net = KnowledgeChecker(sigma, other_net)
        with pytest.raises(ValueError):
            check_theorem4(
                sigma, go_node, sigma, net, [triangle_run], checker=wrong_net
            )

    def test_batch_matches_per_pair_reports(self, triangle_run):
        sigma = triangle_run.final_node("B")
        go_node = triangle_run.external_deliveries[0].receiver_node
        theta_a = general(go_node, ("C", "A"))
        net = triangle_run.timed_network
        pairs = [
            (theta_a, general(sigma)),
            (general(sigma), theta_a),
            (general(go_node), general(sigma)),
        ]
        batch = check_theorem4_batch(sigma, pairs, net, [triangle_run])
        assert batch == tuple(
            check_theorem4(sigma, theta1, theta2, net, [triangle_run])
            for theta1, theta2 in pairs
        )
        assert all(report.sound for report in batch)

    def test_report_properties_with_missing_data(self):
        from repro.core.theorems import Theorem4Report

        assert Theorem4Report(known_gap=None, empirical_gap=None).exact
        assert Theorem4Report(known_gap=None, empirical_gap=5).sound
        assert not Theorem4Report(known_gap=None, empirical_gap=5).complete
        assert not Theorem4Report(known_gap=6, empirical_gap=5).sound
        assert Theorem4Report(known_gap=5, empirical_gap=5).exact
