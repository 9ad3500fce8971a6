"""End-to-end attack tests: every Spectre variant must succeed on the
unprotected core and be defeated exactly where Table IV says - with
the TPBuf bypass on the two non-shared-page scenarios reproduced."""
import pytest

from repro import SecurityConfig
from repro.attacks import (
    build_spectre_prime,
    build_spectre_v1,
    build_spectre_v2,
    build_spectre_v4,
    run_attack,
)
from repro.attacks.layout import AttackLayout
from repro.attacks.sidechannel import (
    EvictReloadChannel,
    EvictTimeChannel,
    FlushFlushChannel,
    PrimeProbeChannel,
)
from repro.core.defense import defense_names

ORIGIN = SecurityConfig.origin()
BASELINE = SecurityConfig.baseline()
CACHE_HIT = SecurityConfig.cache_hit()
TPBUF = SecurityConfig.cache_hit_tpbuf()

#: Every registered defense except the unprotected control — all of
#: them, paper modes and zoo alike, must defeat Spectre V1.
ZOO = [name for name in defense_names() if name != "origin"]


class TestSpectreV1:
    def test_leaks_on_origin(self):
        result = run_attack(build_spectre_v1(), security=ORIGIN)
        assert result.success
        assert result.recovered == result.secret

    @pytest.mark.parametrize("defense", ZOO)
    def test_defeated_by_every_registered_defense(self, defense):
        result = run_attack(build_spectre_v1(),
                            security=SecurityConfig(defense))
        assert not result.success
        assert not result.leaked
        assert result.mode == defense

    def test_leaks_any_secret_value(self):
        for secret in (1, 5, 12):
            layout = AttackLayout(secret_value=secret)
            result = run_attack(build_spectre_v1(layout=layout),
                                security=ORIGIN)
            assert result.recovered == secret


class TestSpectreV2:
    def test_leaks_on_origin(self):
        result = run_attack(build_spectre_v2(), security=ORIGIN)
        assert result.success

    @pytest.mark.parametrize("security", [BASELINE, CACHE_HIT, TPBUF],
                             ids=lambda s: s.mode)
    def test_defeated_by_all_mechanisms(self, security):
        result = run_attack(build_spectre_v2(), security=security)
        assert not result.success


class TestSpectreV4:
    def test_leaks_on_origin(self):
        result = run_attack(build_spectre_v4(), security=ORIGIN)
        assert result.success

    @pytest.mark.parametrize("security", [BASELINE, CACHE_HIT, TPBUF],
                             ids=lambda s: s.mode)
    def test_defeated_by_all_mechanisms(self, security):
        result = run_attack(build_spectre_v4(), security=security)
        assert not result.success

    def test_branch_only_matrix_misses_v4(self):
        """Section VI.C(1): without memory-memory dependence edges the
        store-bypass attack evades the defense."""
        weakened = SecurityConfig(mode="cache_hit_tpbuf",
                                  branch_only_matrix=True)
        result = run_attack(build_spectre_v4(), security=weakened)
        assert result.success

    @pytest.mark.parametrize("defense", ["invisispec", "stt", "slh"])
    def test_defeated_by_new_zoo_schemes(self, defense):
        result = run_attack(build_spectre_v4(),
                            security=SecurityConfig(defense))
        assert not result.success

    @pytest.mark.parametrize("defense", ["delay_on_miss", "eager_delay"])
    def test_branch_keyed_defenses_miss_v4(self, defense):
        """The documented blind spot: defenses that key 'speculative'
        off unresolved branches alone cannot see the store-bypass
        window, so V4 rides through (see docs/defenses.md)."""
        result = run_attack(build_spectre_v4(),
                            security=SecurityConfig(defense))
        assert result.success

    def test_store_set_variant_closes_the_blind_spot(self):
        """delay_on_miss_ss widens the suspect predicate with the
        static store sets of repro.analysis.memdep, so the exact V4
        gadget delay_on_miss provably leaks is blocked."""
        leaky = run_attack(
            build_spectre_v4(),
            security=SecurityConfig("delay_on_miss"))
        assert leaky.success  # the blind spot is real ...
        result = run_attack(
            build_spectre_v4(),
            security=SecurityConfig("delay_on_miss_ss"))
        assert not result.success  # ... and the store sets close it


class TestSpectrePrime:
    def test_leaks_on_origin(self):
        result = run_attack(build_spectre_prime(), security=ORIGIN)
        assert result.success

    def test_defeated_by_tpbuf(self):
        result = run_attack(build_spectre_prime(), security=TPBUF)
        assert not result.success


class TestAlternateChannels:
    """V1 gadget observed through each receiver (Table IV rows 2-4)."""

    @pytest.mark.parametrize("channel_cls", [
        FlushFlushChannel, EvictReloadChannel, PrimeProbeChannel,
    ], ids=lambda c: c.name)
    def test_leaks_on_origin(self, channel_cls):
        result = run_attack(build_spectre_v1(channel=channel_cls()),
                            security=ORIGIN)
        assert result.success

    @pytest.mark.parametrize("channel_cls", [
        FlushFlushChannel, EvictReloadChannel, PrimeProbeChannel,
    ], ids=lambda c: c.name)
    def test_defeated_by_tpbuf(self, channel_cls):
        result = run_attack(build_spectre_v1(channel=channel_cls()),
                            security=TPBUF)
        assert not result.success


class TestNonSharedScenarios:
    """Table IV's last two rows: same-page transmission evades the
    S-Pattern, so Cache-hit + TPBuf does NOT protect - the paper's
    admitted limitation - while Baseline and Cache-hit still do."""

    def _prime_probe(self):
        return build_spectre_v1(channel=PrimeProbeChannel(),
                                layout=AttackLayout.same_page())

    def _evict_time(self):
        return build_spectre_v1(channel=EvictTimeChannel(),
                                layout=AttackLayout.same_page())

    def test_prime_probe_leaks_on_origin(self):
        assert run_attack(self._prime_probe(), security=ORIGIN).success

    def test_prime_probe_bypasses_tpbuf(self):
        assert run_attack(self._prime_probe(), security=TPBUF).success

    @pytest.mark.parametrize("security", [BASELINE, CACHE_HIT],
                             ids=lambda s: s.mode)
    def test_prime_probe_blocked_by_strict_modes(self, security):
        assert not run_attack(self._prime_probe(),
                              security=security).success

    def test_evict_time_leaks_on_origin(self):
        assert run_attack(self._evict_time(), security=ORIGIN).success

    def test_evict_time_bypasses_tpbuf(self):
        assert run_attack(self._evict_time(), security=TPBUF).success

    @pytest.mark.parametrize("security", [BASELINE, CACHE_HIT],
                             ids=lambda s: s.mode)
    def test_evict_time_blocked_by_strict_modes(self, security):
        assert not run_attack(self._evict_time(),
                              security=security).success


class TestAttackReporting:
    def test_result_render(self):
        result = run_attack(build_spectre_v1(), security=ORIGIN)
        text = result.render()
        assert "spectre-v1" in text and "LEAKED" in text

    def test_timings_cover_alphabet(self):
        result = run_attack(build_spectre_v1(), security=ORIGIN)
        assert len(result.timings) == 16
        assert all(t > 0 for t in result.timings)

    def test_shared_pages_really_alias(self):
        attack = build_spectre_v1()
        layout = attack.layout
        table = attack.page_table
        for value in range(layout.n_values):
            victim = table.physical_address(layout.probe_line(value))
            attacker = table.physical_address(
                layout.attacker_probe_line(value))
            assert victim == attacker

    def test_same_page_layout_has_one_transmit_page(self):
        layout = AttackLayout.same_page()
        pages = {layout.probe_line(v) // 4096
                 for v in range(layout.n_values)}
        assert len(pages) == 1
        assert layout.secret_addr // 4096 in pages
