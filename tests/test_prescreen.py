"""The static defense-coverage pre-screen and its dynamic
cross-validation (the acceptance gate of the memdep PR): the predicted
(attack × defense) matrix must agree with the shootout on every cell,
and any disagreement is named in the failure."""
import pytest

from repro.analysis.prescreen import (
    ATTACK_FAMILY,
    PrescreenMatrix,
    attack_program,
    prescreen_defenses,
)
from repro.cli import main as cli_main
from repro.core.defense import create_defense, defense_names
from repro.experiments import run_defense_prescreen


class TestCoverageDeclarations:
    def test_every_defense_declares_sources(self):
        for name in defense_names():
            defense = create_defense(name)
            assert isinstance(defense.covers_sources, tuple)
            assert set(defense.covers_sources) <= {
                "branch", "indirect", "return", "store"}

    def test_branch_keyed_defenses_omit_store(self):
        for name in ("delay_on_miss", "eager_delay"):
            assert "store" not in create_defense(name).covers_sources

    def test_store_set_defense_covers_store_via_memdep(self):
        defense = create_defense("delay_on_miss_ss")
        assert "store" in defense.covers_sources
        assert defense.coverage_needs_memdep


class TestAttackPrograms:
    def test_every_suite_attack_resolves(self):
        for attack in ATTACK_FAMILY:
            program = attack_program(attack)
            assert program.instructions

    def test_unknown_attack_rejected(self):
        with pytest.raises(ValueError, match="unknown attack"):
            attack_program("meltdown")


class TestStaticMatrix:
    @pytest.fixture(scope="class")
    def matrix(self) -> PrescreenMatrix:
        return prescreen_defenses()

    def test_origin_predicted_leaky_everywhere(self, matrix):
        for attack in matrix.attacks:
            assert not matrix.cell(attack, "origin").predicted_blocked

    def test_v1_predicted_blocked_by_every_real_defense(self, matrix):
        for defense in matrix.defenses:
            if defense == "origin":
                continue
            assert matrix.cell("v1", defense).predicted_blocked, \
                matrix.cell("v1", defense).reason

    def test_v4_blind_spot_predicted(self, matrix):
        for defense in ("delay_on_miss", "eager_delay"):
            cell = matrix.cell("v4", defense)
            assert not cell.predicted_blocked
            assert "store" in cell.reason

    def test_v4_closed_by_store_set_variant(self, matrix):
        cell = matrix.cell("v4", "delay_on_miss_ss")
        assert cell.predicted_blocked
        assert "memdep" in cell.reason

    def test_cells_carry_reasons(self, matrix):
        for cell in matrix.cells.values():
            assert cell.reason

    def test_render_marks_leaky_cells(self, matrix):
        text = matrix.render()
        assert "LEAK" in text and "ok" in text

    def test_subset_selection(self):
        matrix = prescreen_defenses(attacks=["v4"],
                                    defenses=["delay_on_miss",
                                              "delay_on_miss_ss"])
        assert matrix.attacks == ("v4",)
        assert not matrix.cell("v4", "delay_on_miss").predicted_blocked
        assert matrix.cell("v4", "delay_on_miss_ss").predicted_blocked

    def test_unknown_attack_name_rejected(self):
        with pytest.raises(ValueError, match="unknown attack"):
            prescreen_defenses(attacks=["v9"])

    def test_to_dict_covers_every_cell(self, matrix):
        payload = matrix.to_dict()
        assert len(payload["cells"]) == \
            len(matrix.attacks) * len(matrix.defenses)


class TestDynamicCrossValidation:
    """The acceptance criterion: static prediction == dynamic reality
    on every (attack, defense) cell, disagreements named."""

    def test_static_only_skips_the_shootout(self):
        validation = run_defense_prescreen(
            attacks=["v4"], defenses=["delay_on_miss_ss"], dynamic=False)
        assert validation.shootout is None
        assert not validation.validated  # unvalidated, not disproven
        assert "skipped" in validation.render()

    def test_full_matrix_agrees_with_the_shootout(self):
        validation = run_defense_prescreen(trials=1)
        assert validation.shootout is not None
        assert validation.validated, (
            "static pre-screen disagrees with the dynamic shootout:\n  "
            + "\n  ".join(validation.disagreements))
        cells = (len(validation.matrix.attacks)
                 * len(validation.matrix.defenses))
        assert f"all {cells} cells agree" in validation.render()

    def test_disagreements_are_named(self, monkeypatch):
        """A wrong prediction names its exact cell in the failure."""
        import repro.experiments.prescreen as exp
        from repro.analysis.prescreen import PrescreenCell

        forged = prescreen_defenses(attacks=["v4"],
                                    defenses=["delay_on_miss"])
        forged.cells[("v4", "delay_on_miss")] = PrescreenCell(
            "v4", "delay_on_miss", True, "fabricated for the test")
        monkeypatch.setattr(exp, "prescreen_defenses",
                            lambda **kwargs: forged)
        validation = exp.run_defense_prescreen(
            attacks=["v4"], defenses=["delay_on_miss"], trials=1)
        assert not validation.validated
        [message] = validation.disagreements
        assert "v4/delay_on_miss" in message
        assert "static predicts blocked" in message
        assert "DISAGREEMENTS" in validation.render()
        # `repro prescreen` turns the disagreement into its exit status
        argv = ["prescreen", "--attacks", "v4", "--defenses",
                "delay_on_miss"]
        assert cli_main(argv) == 1
        monkeypatch.undo()
        assert cli_main(argv) == 0
