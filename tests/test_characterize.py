"""Tests for the characterization engine (fits against the analog
simulator — the slow part of the suite, kept to a coarse grid)."""

import pytest

from repro.core.models import SlopeModel, characterize_technology
from repro.core.models.characterize import (
    characterize_fixture,
    clear_cache,
    fixtures_for,
    table_summary,
)
from repro.errors import TechnologyError
from repro.tech import CMOS3, NMOS4, DeviceKind, Transition
from tests.conftest import TEST_RATIOS


class TestFixtures:
    def test_cmos_fixture_set(self):
        keys = {(f.kind, f.transition) for f in fixtures_for(CMOS3)}
        assert (DeviceKind.NMOS_ENH, Transition.FALL) in keys
        assert (DeviceKind.PMOS, Transition.RISE) in keys
        assert (DeviceKind.NMOS_ENH, Transition.RISE) in keys
        assert (DeviceKind.PMOS, Transition.FALL) in keys

    def test_nmos_fixture_set(self):
        keys = {(f.kind, f.transition) for f in fixtures_for(NMOS4)}
        assert (DeviceKind.NMOS_ENH, Transition.FALL) in keys
        assert (DeviceKind.NMOS_DEP, Transition.RISE) in keys

    def test_fixture_builds_are_valid(self):
        for tech in (CMOS3, NMOS4):
            for fixture in fixtures_for(tech):
                net, load = fixture.build(tech)
                assert net.has_node("in") and net.has_node("out")
                assert load > 0

    def test_unsupported_technology(self):
        import dataclasses
        from repro.tech.parameters import Technology
        bare = Technology(name="bare", vdd=5.0, devices={
            DeviceKind.NMOS_ENH: CMOS3.params(DeviceKind.NMOS_ENH)})
        with pytest.raises(TechnologyError):
            fixtures_for(bare)


class TestSingleFixture:
    def test_pulldown_characterization(self, cmos_char):
        # Run one fixture directly with a tiny grid to check the record.
        fixture = next(f for f in fixtures_for(CMOS3)
                       if (f.kind, f.transition) == (DeviceKind.NMOS_ENH,
                                                     Transition.FALL))
        result = characterize_fixture(CMOS3, fixture, ratios=[0.1, 1.0, 8.0])
        assert result.static_resistance > 0
        assert result.tau == pytest.approx(
            result.static_resistance * result.total_cap)
        assert len(result.points) == 3
        table = result.table()
        # Step-normalized: delay factor near 1 at the fastest ratio.
        assert table.delay_factors[0] == pytest.approx(1.0, abs=0.15)
        # Slow inputs: bigger delay factor.
        assert table.delay_factors[-1] > 1.5


class TestCharacterizedTechnology:
    def test_tables_cover_fixture_keys(self, cmos_char):
        for fixture in fixtures_for(CMOS3):
            assert cmos_char.slope_tables.has(fixture.kind,
                                              fixture.transition)

    def test_source_tagged(self, cmos_char):
        assert cmos_char.slope_tables.source == "characterized:cmos3"

    def test_static_resistances_updated(self, cmos_char):
        """Fitted values replace the analytic defaults but stay within an
        order of magnitude of them (same physics)."""
        fitted = cmos_char.resistance(DeviceKind.NMOS_ENH, Transition.FALL,
                                      6e-6, 2e-6)
        analytic = CMOS3.resistance(DeviceKind.NMOS_ENH, Transition.FALL,
                                    6e-6, 2e-6)
        assert 0.2 < fitted / analytic < 5.0

    def test_original_technology_untouched(self, cmos_char):
        assert CMOS3.slope_tables.source == "analytic-default"

    def test_cache_returns_same_object(self, cmos_char):
        again = characterize_technology(CMOS3, ratios=TEST_RATIOS)
        assert again is cmos_char

    def test_cache_distinguishes_grids(self, cmos_char):
        other = characterize_technology(CMOS3, ratios=[0.1, 1.0])
        assert other is not cmos_char

    def test_cache_keyed_by_content(self):
        """Same name, different parameters: a fresh fit.  An equal-content
        copy (a different object): the cached fit."""
        import copy
        import dataclasses
        grid = [0.1, 1.0]
        base = characterize_technology(CMOS3, ratios=grid)
        assert characterize_technology(copy.deepcopy(CMOS3),
                                       ratios=grid) is base
        low = characterize_technology(dataclasses.replace(CMOS3, vdd=3.3),
                                      ratios=grid)
        assert low is not base
        assert low.vdd == 3.3
        assert low.static_resistance != base.static_resistance

    def test_nmos_depletion_rise_slope_sensitive(self, nmos_char):
        """The nMOS rising output is release-timed: the node cannot rise
        until the pulldown's slowly falling gate lets go, so the delay
        factor grows strongly with the slope ratio — *more* strongly than
        a driven pulldown's (the pulldown releases only near the end of
        the input ramp)."""
        dep = nmos_char.slope_tables.get(DeviceKind.NMOS_DEP,
                                         Transition.RISE)
        assert dep.delay_factors[0] == pytest.approx(1.0, abs=0.15)
        assert dep.delay_factors[-1] > 3.0 * dep.delay_factors[0]
        for a, b in zip(dep.delay_factors, dep.delay_factors[1:]):
            assert b > a - 0.05

    def test_summary_renders(self, cmos_char):
        text = table_summary(cmos_char)
        assert "characterized:cmos3" in text
        assert "NMOS_ENH" in text

    def test_summary_without_tables(self):
        import dataclasses
        bare = dataclasses.replace(CMOS3, slope_tables=None)
        assert "no slope tables" in table_summary(bare)


class TestSlopeModelAccuracy:
    """The fitted tables must make the slope model accurate on its own
    characterization fixture at an *unseen* slope ratio."""

    def test_interpolated_ratio_accurate(self, cmos_char):
        from repro.analog import delay_between, simulate, sources
        from repro.core.timing import InputSpec, TimingAnalyzer
        from repro.circuits import inverter_chain

        net = inverter_chain(cmos_char, 1, load_cap=100e-15)
        # Pick an input slope between grid points.
        t_in = 1.7e-9
        result = simulate(
            net, {"in": sources.edge(5.0, rising=True, at=3e-9,
                                     transition_time=t_in)},
            t_stop=30e-9, steps=2000)
        reference = delay_between(result.waveform("in"),
                                  result.waveform("out"), 5.0,
                                  Transition.RISE, Transition.FALL)
        analysis = TimingAnalyzer(net, model=SlopeModel()).analyze(
            {"in": InputSpec(arrival_rise=0.0, arrival_fall=None,
                             slope=t_in)})
        estimate = analysis.arrival("out", Transition.FALL).time
        assert estimate == pytest.approx(reference, rel=0.12)
