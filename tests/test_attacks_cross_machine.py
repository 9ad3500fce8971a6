"""Attacks across machine presets: the leak and the defense verdicts
must not depend on the paper's exact core geometry."""
import pytest

from repro import SecurityConfig, a57_like, i7_like
from repro.attacks import build_spectre_v1, build_spectre_v4, run_attack
from repro.core.defense import defense_names

#: Every defended registry entry must hold on foreign geometries too.
ZOO = [name for name in defense_names() if name != "origin"]


@pytest.mark.parametrize("machine_factory", [a57_like, i7_like],
                         ids=["a57-like", "i7-like"])
class TestV1AcrossMachines:
    def test_leaks_on_origin(self, machine_factory):
        machine = machine_factory()
        result = run_attack(build_spectre_v1(machine=machine),
                            machine=machine,
                            security=SecurityConfig.origin())
        assert result.success

    @pytest.mark.parametrize("defense", ZOO)
    def test_blocked_by_every_defense(self, machine_factory, defense):
        machine = machine_factory()
        result = run_attack(build_spectre_v1(machine=machine),
                            machine=machine,
                            security=SecurityConfig(defense))
        assert not result.success


class TestV4AcrossMachines:
    def test_a57_leak_and_defense(self):
        machine = a57_like()
        leak = run_attack(build_spectre_v4(machine=machine),
                          machine=machine,
                          security=SecurityConfig.origin())
        assert leak.success
        blocked = run_attack(build_spectre_v4(machine=machine),
                             machine=machine,
                             security=SecurityConfig.baseline())
        assert not blocked.success
