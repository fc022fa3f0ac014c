"""HEMS physics checks: charging taper, energy balance, thermal stepping, the
full constraint simulation, surplus-capacity tracking, and trajectory repair.

Expected values for the thermal steps are frozen from independent hand
evaluation of the update formula.
"""

import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from hemsflex import analysis, hems, scenarios
from hemsflex.hems import (
    BatteryConfig,
    EwhConfig,
    FlexTrajectory,
    HemsConfig,
    ewh_step,
    feasible_power_range,
    pv_accommodation,
    repair_trajectory,
    simulate,
)
from tests.conftest import example_inputs


class TestMaxChargePower:
    """The SoC-dependent charging taper, `hems._charge_limiter`."""

    def test_constant_current_region(self, battery_reference):
        assert hems._charge_limiter(battery_reference)(0.5 * 3.2) == 1.5

    def test_full_battery_floor(self, battery_reference):
        assert hems._charge_limiter(battery_reference)(3.2) == pytest.approx(0.3, abs=1e-12)

    def test_linear_taper_at_ninety_percent(self, battery_reference):
        # halfway between (0.8 cap, 1.5) and (1.0 cap, 0.3)
        assert hems._charge_limiter(battery_reference)(0.9 * 3.2) == pytest.approx(0.9, abs=1e-12)

    def test_non_increasing_and_continuous(self, battery_reference):
        socs = np.linspace(0.0, 3.2, 400)
        limits = np.array([hems._charge_limiter(battery_reference)(s) for s in socs])
        assert np.all(np.diff(limits) <= 1e-12)
        assert np.max(np.abs(np.diff(limits))) < 0.05  # no jumps on a fine grid


class TestBatteryStep:
    """Energy balance of the stepping kernel, read off `simulate`'s SoC path
    for a battery starting at the given SoC, without surplus."""

    @staticmethod
    def soc_path(battery, soc, p_bat, dt, **fields):
        ewh = EwhConfig(p_nom=0.5, theta_min=10.0, theta_max=80.0, theta_init=60.0)
        cfg = HemsConfig(battery=replace(battery, soc_init=soc, **fields), ewh=ewh)
        traj = FlexTrajectory(p_bat=np.array(p_bat, dtype=float), p_ewh=np.zeros(len(p_bat)))
        return simulate(traj, np.zeros(len(p_bat)), cfg, dt=dt).soc

    def test_idle_keeps_soc(self, battery_reference):
        assert self.soc_path(battery_reference, 1.0, [0.0], 0.25)[0] == 1.0

    def test_discharge_without_efficiency(self, battery_simple):
        # 0.64 kWh minus 0.16 kW for one hour lands exactly on the SoC floor
        assert self.soc_path(battery_simple, 0.64, [-0.16], 1.0)[0] == pytest.approx(0.48, abs=1e-12)

    def test_charge_applies_efficiency(self, battery_reference):
        soc = self.soc_path(battery_reference, 0.0, [1.5], 1.0, soc_min_frac=0.0)[0]
        assert soc == pytest.approx(1.3875, abs=1e-12)

    def test_round_trip_never_gains_energy(self, battery_reference):
        rng = np.random.default_rng(4)
        for _ in range(200):
            soc = rng.uniform(0.5, 2.5)
            p = rng.uniform(0.1, 1.5)
            dt = rng.choice([0.25, 1.0])
            _, back = self.soc_path(battery_reference, soc, [p, -p], dt)
            assert back <= soc + 1e-12


class TestEwhStep:
    def test_ambient_equilibrium(self, ewh_reference):
        cfg = EwhConfig(p_nom=0.5, theta_min=10.0, theta_max=80.0, theta_init=20.0)
        assert ewh_step(20.0, 0.0, 0.0, 0.25, cfg) == 20.0

    def test_heating_step_hand_value(self, ewh_reference):
        expected = 60.0 + (0.25 / 0.117) * (0.5 - 9.42e-4 * 40.0)
        assert ewh_step(60.0, 0.5, 0.0, 0.25, ewh_reference) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(60.988, abs=1e-3)

    def test_draw_step_hand_value(self, ewh_reference):
        expected = 60.0 + (0.25 / 0.117) * (-9.42e-4 * 40.0 - 1.163e-3 * 10.0 * 21.0)
        assert ewh_step(60.0, 0.0, 10.0, 0.25, ewh_reference) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(59.398, abs=1e-3)

    def test_idle_tank_relaxes_toward_house_temperature(self, ewh_reference):
        theta = 60.0
        for _ in range(50):
            new = ewh_step(theta, 0.0, 0.0, 0.25, ewh_reference)
            assert abs(new - ewh_reference.theta_house) < abs(theta - ewh_reference.theta_house)
            theta = new

    def test_cold_tank_warms_toward_house_temperature(self, ewh_reference):
        cfg = EwhConfig(p_nom=0.5, theta_min=5.0, theta_max=80.0, theta_init=10.0)
        assert ewh_step(10.0, 0.0, 0.0, 0.25, cfg) > 10.0


class TestSimulate:
    def test_worked_discharge_example_infeasible_at_step_two(self, battery_simple):
        ewh = EwhConfig(p_nom=0.5, theta_min=45.0, theta_max=80.0, theta_init=60.0)
        cfg = HemsConfig(battery=battery_simple, ewh=ewh)
        traj = FlexTrajectory(p_bat=np.array([0.0, -0.5, 0.0]), p_ewh=np.zeros(3))
        result = simulate(traj, np.zeros(3), cfg, dt=1.0)
        assert result.penalty > 0
        assert np.allclose(result.soc, [0.64, 0.14, 0.14])
        assert result.violations["soc_min"][1]
        assert not result.violations["soc_min"][0]

    def test_idle_trajectory_stays_feasible_over_a_day(self, hems_reference):
        horizon = 96
        traj = FlexTrajectory(p_bat=np.zeros(horizon), p_ewh=np.zeros(horizon))
        result = simulate(traj, np.zeros(horizon), hems_reference, dt=0.25)
        assert result.penalty == 0
        assert np.all(result.theta > 45.0)

    def test_perpetual_charging_hits_capacity(self, hems_reference):
        horizon = 8
        traj = FlexTrajectory(p_bat=np.full(horizon, 1.5), p_ewh=np.zeros(horizon))
        result = simulate(traj, np.zeros(horizon), hems_reference, dt=1.0)
        assert result.violations["soc_max"].any() or result.violations["charge_rate"].any()
        assert result.penalty > 0

    def test_penalty_zero_iff_no_flags(self, small_instance):
        scenario_set, cfg = small_instance
        rng = np.random.default_rng(17)
        for _ in range(100):
            traj = FlexTrajectory(
                p_bat=rng.uniform(-1.5, 1.5, 16),
                p_ewh=np.where(rng.random(16) < 0.3, 0.5, 0.0),
            )
            surplus = np.maximum(0.0, -scenario_set.values[rng.integers(20)])
            result = simulate(traj, surplus, cfg, dt=0.25)
            any_flag = any(f.any() for f in result.violations.values())
            assert (result.penalty == 0) == (not any_flag)
            if result.penalty == 0:
                assert np.all(result.soc >= cfg.battery.soc_min - hems.EPS)
                assert np.all(result.soc <= cfg.battery.soc_max + hems.EPS)
                assert np.all(result.theta >= cfg.ewh.theta_min - hems.EPS)
                assert np.all(result.theta <= cfg.ewh.theta_max + hems.EPS)

    def test_dimension_mismatch_rejected(self, hems_reference):
        traj = FlexTrajectory(p_bat=np.zeros(4), p_ewh=np.zeros(4))
        with pytest.raises(ValueError):
            simulate(traj, np.zeros(5), hems_reference, dt=0.25)
        with pytest.raises(ValueError):
            three_step = replace(hems_reference.ewh, draw_profile=np.zeros(3))
            simulate(traj, np.zeros(4), replace(hems_reference, ewh=three_step), dt=0.25)

    def test_verdict_matches_independent_checker_on_random_cases(self, small_instance):
        # scalar stepping path vs the independently coded reference route
        from hemsflex import analysis, scenarios as scen_mod

        scenario_set, cfg = small_instance
        rng = np.random.default_rng(29)
        horizon = 8
        columns = np.sort(rng.choice(16, size=horizon, replace=False))
        draws = cfg.ewh.draws(16)[columns]
        local = hems.HemsConfig(
            battery=cfg.battery,
            ewh=hems.EwhConfig(
                p_nom=cfg.ewh.p_nom, theta_min=cfg.ewh.theta_min, theta_max=cfg.ewh.theta_max,
                theta_init=cfg.ewh.theta_init, draw_profile=draws,
            ),
        )
        for _ in range(1000):
            traj = FlexTrajectory(
                p_bat=rng.uniform(-1.5, 1.5, horizon),
                p_ewh=np.where(rng.random(horizon) < 0.4, 0.5, 0.0),
            )
            row = scenario_set.values[rng.integers(scenario_set.count), columns]
            surplus = np.maximum(0.0, -row)
            sim_ok = (
                simulate(traj, surplus, local, dt=0.25).penalty == 0
                and pv_accommodation(traj, surplus, local, dt=0.25)[0]
            )
            oracle_ok = analysis.oracle_check(
                traj, scen_mod.ScenarioSet(row[None, :]), local, dt=0.25
            ) == 1
            assert sim_ok == oracle_ok

    def test_simulate_agrees_with_batch_screen(self, small_instance):
        scenario_set, cfg = small_instance
        rng = np.random.default_rng(37)
        draws = cfg.ewh.draws(16)
        for _ in range(100):
            traj = FlexTrajectory(
                p_bat=rng.uniform(-1.5, 1.5, 16),
                p_ewh=np.where(rng.random(16) < 0.4, 0.5, 0.0),
            )
            zero_pen, pv_ok = hems.batch_compliance(
                traj.p_bat[None], traj.p_ewh[None], scenario_set.values, draws, cfg, 0.25
            )
            zero_pen, pv_ok = zero_pen[0], pv_ok[0]
            for s in range(scenario_set.count):
                surplus = np.maximum(0.0, -scenario_set.values[s])
                assert (simulate(traj, surplus, cfg, dt=0.25).penalty == 0) == bool(zero_pen[s])
                assert pv_accommodation(traj, surplus, cfg, dt=0.25)[0] == bool(pv_ok[s])


class TestCapacityTracker:
    """The absorption-headroom tracker of the analysis step route, stepped
    from arbitrary headroom values: tracker(headroom, surplus, p_ewh)."""

    @staticmethod
    def route(hems_reference, dt):
        (_, _, band), _, _, _, tracker = analysis._step_route(hems_reference, dt)
        return band, tracker

    def test_stays_at_band_without_surplus(self, hems_reference, battery_reference):
        headroom, tracker = self.route(hems_reference, 0.25)
        for _ in range(10):
            headroom = tracker(headroom, 0.0, 0.0)
        assert headroom == battery_reference.absorption_band

    def test_hand_evaluated_decrement(self, hems_reference):
        _, tracker = self.route(hems_reference, 1.0)
        assert tracker(2.72, 1.0, 0.5) == pytest.approx(2.22, abs=1e-12)

    def test_decrement_limited_by_charge_rate(self, hems_reference):
        _, tracker = self.route(hems_reference, 1.0)
        # surplus 5 kW exceeds the 1.5 kW charging limit
        assert tracker(2.72, 5.0, 0.0) == pytest.approx(2.72 - 1.5, abs=1e-12)

    def test_recovery_caps_at_band(self, hems_reference, battery_reference):
        _, tracker = self.route(hems_reference, 1.0)
        headroom = tracker(1.0, 0.0, 0.0)
        assert headroom == pytest.approx(2.5, abs=1e-12)
        assert tracker(headroom, 0.0, 0.0) == battery_reference.absorption_band

    def test_never_negative(self, hems_reference):
        _, tracker = self.route(hems_reference, 1.0)
        assert tracker(0.2, 3.0, 0.0) == 0.0

    def test_long_surplus_absorbs_exactly_the_band(self, hems_reference):
        # the last absorbing quarter-hour is limited by the headroom left, so
        # an idle battery takes in exactly the band on both routes
        battery = replace(hems_reference.battery, soc_init=hems_reference.battery.soc_min)
        cfg = HemsConfig(battery=battery, ewh=hems_reference.ewh)
        surplus = np.full(12, 3.0)
        (soc, _, headroom), absorb, charge, _, tracker = analysis._step_route(cfg, 0.25)
        for s in surplus:
            soc = charge(soc, absorb(s, 0.0, headroom))
            headroom = tracker(headroom, s, 0.0)
        idle = FlexTrajectory(p_bat=np.zeros(12), p_ewh=np.zeros(12))
        expected = battery.soc_init + battery.efficiency * battery.absorption_band
        assert soc == pytest.approx(expected, abs=1e-12)
        assert simulate(idle, surplus, cfg, dt=0.25).soc[-1] == pytest.approx(expected, abs=1e-12)


class TestPvAccommodationAndRepair:
    def _case(self, battery_reference):
        ewh = EwhConfig(p_nom=0.5, theta_min=45.0, theta_max=80.0, theta_init=60.0)
        cfg = HemsConfig(battery=battery_reference, ewh=ewh)
        surplus = np.array([0.0, 0.8, 0.0])
        return cfg, surplus

    def test_compliant_trajectory_unchanged(self, battery_reference):
        cfg, surplus = self._case(battery_reference)
        traj = FlexTrajectory(p_bat=np.array([0.5, 0.0, -0.5]), p_ewh=np.zeros(3))
        ok, flags = pv_accommodation(traj, surplus, cfg, dt=0.25)
        assert ok and not flags.any()
        repaired = repair_trajectory(traj, surplus, cfg, dt=0.25)
        assert repaired is traj

    def test_discharge_during_surplus_is_repaired(self, battery_reference):
        cfg, surplus = self._case(battery_reference)
        traj = FlexTrajectory(p_bat=np.array([0.0, -0.6, 0.0]), p_ewh=np.zeros(3))
        ok, flags = pv_accommodation(traj, surplus, cfg, dt=0.25)
        assert not ok and flags[1]
        repaired = repair_trajectory(traj, surplus, cfg, dt=0.25)
        assert repaired.p_bat[1] == 0.0
        ok_after, _ = pv_accommodation(repaired, surplus, cfg, dt=0.25)
        assert ok_after
        # after repair the battery flow equals the supposed absorption
        result = simulate(repaired, surplus, cfg, dt=0.25)
        assert result.penalty == 0

    def test_ewh_counterbalance_frees_the_battery(self, battery_reference):
        cfg, surplus = self._case(battery_reference)
        traj = FlexTrajectory(p_bat=np.array([0.0, -0.6, 0.0]), p_ewh=np.array([0.0, 0.5, 0.0]))
        surplus_small = np.array([0.0, 0.4, 0.0])  # EWH consumes it all
        ok, _ = pv_accommodation(traj, surplus_small, cfg, dt=0.25)
        assert ok

    def test_zero_surplus_everywhere_never_flags(self, battery_reference):
        cfg, _ = self._case(battery_reference)
        rng = np.random.default_rng(23)
        for _ in range(20):
            traj = FlexTrajectory(
                p_bat=rng.uniform(-1.5, 1.5, 3), p_ewh=np.where(rng.random(3) < 0.5, 0.5, 0.0)
            )
            ok, flags = pv_accommodation(traj, np.zeros(3), cfg, dt=0.25)
            assert ok and not flags.any()

    def test_repair_rejects_other_violations(self, battery_simple):
        ewh = EwhConfig(p_nom=0.5, theta_min=45.0, theta_max=80.0, theta_init=60.0)
        cfg = HemsConfig(battery=battery_simple, ewh=ewh)
        traj = FlexTrajectory(p_bat=np.array([0.0, -0.5, 0.0]), p_ewh=np.zeros(3))
        with pytest.raises(ValueError):
            repair_trajectory(traj, np.zeros(3), cfg, dt=1.0)

    def test_repaired_output_always_passes_accommodation(self, small_instance):
        scenario_set, cfg = small_instance
        rng = np.random.default_rng(31)
        surplus = np.maximum(0.0, -scenario_set.values[0])
        repaired_count = 0
        for _ in range(300):
            traj = FlexTrajectory(
                p_bat=rng.uniform(-1.5, 1.5, 16),
                p_ewh=np.where(rng.random(16) < 0.2, 0.5, 0.0),
            )
            if simulate(traj, surplus, cfg, dt=0.25).penalty > 0:
                continue
            repaired = repair_trajectory(traj, surplus, cfg, dt=0.25)
            ok, _ = pv_accommodation(repaired, surplus, cfg, dt=0.25)
            assert ok
            repaired_count += 1
        assert repaired_count > 10  # the case generator actually exercised repair


class TestFeasiblePowerRange:
    def test_first_step_discharge_bound_of_worked_example(self, battery_simple):
        ewh = EwhConfig(p_nom=0.5, theta_min=45.0, theta_max=80.0, theta_init=60.0)
        cfg = HemsConfig(battery=battery_simple, ewh=ewh)
        lo, hi = feasible_power_range(0.64, cfg, dt=1.0)
        assert lo == pytest.approx(-0.16, abs=1e-12)
        assert hi == pytest.approx(1.5, abs=1e-12)

    def test_absorption_forces_non_negative_floor(self, hems_reference):
        lo, hi = feasible_power_range(1.92, hems_reference, dt=0.25, absorb=0.5)
        assert lo == 0.0
        assert hi <= 1.0 + 1e-12

    @pytest.mark.parametrize("battery", ["battery_simple", "battery_reference", "tapered_early"])
    def test_float_limit_matches_the_numpy_limiter(self, battery, request, ewh_reference):
        # SoC 0 and -0.0, the knee and the capacity one ulp either side, a
        # negative SoC, NaN and infinities, each under absorptions around EPS.
        if battery == "tapered_early":
            bat = hems.BatteryConfig(capacity=5.0, p_charge_max=2.0, p_discharge_max=1.0, soc_init=2.0,
                                     taper_knee=0.3, taper_floor=0.05)
        else:
            bat = request.getfixturevalue(battery)
        cfg = HemsConfig(battery=bat, ewh=ewh_reference)
        socs = [0.0, -0.0, -0.5, np.nan, np.inf, -np.inf, bat.soc_min, bat.soc_init]
        socs.append(0.5 * (bat.knee_soc + bat.capacity))
        for edge in (bat.knee_soc, bat.capacity):
            socs += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
        for soc in socs:
            for absorb in (0.0, hems.EPS, 2 * hems.EPS, 0.5, bat.p_charge_max):
                for dt in (0.25, 1.0):
                    got = feasible_power_range(soc, cfg, dt, absorb)
                    expected = _numpy_feasible_power_range(soc, cfg, dt, absorb)
                    assert np.array(got).view(np.int64).tolist() == np.array(expected).view(np.int64).tolist(), (
                        soc, absorb, dt
                    )


def _numpy_feasible_power_range(soc, cfg, dt, absorb=0.0):
    """`feasible_power_range` as it read the charging limit from the numpy
    limiter, before it worked the limit out in floats: the reference it must
    match bit for bit."""
    bat = cfg.battery
    hi = min(
        bat.p_charge_max,
        float(hems._charge_limiter(bat)(soc)) - absorb,
        (bat.soc_max - soc) / (bat.efficiency * dt) - absorb,
    )
    lo = max(-bat.p_discharge_max, -(soc - bat.soc_min) * bat.efficiency / dt - absorb)
    if absorb > hems.EPS:
        lo = max(lo, 0.0)
    return lo, hi


class TestConfigValidation:
    def test_battery_invariants(self):
        with pytest.raises(ValueError):
            BatteryConfig(capacity=3.2, p_charge_max=1.5, p_discharge_max=1.5, soc_init=4.0)
        with pytest.raises(ValueError):
            BatteryConfig(
                capacity=3.2, p_charge_max=1.5, p_discharge_max=1.5, soc_init=1.0, efficiency=0.0
            )
        with pytest.raises(ValueError):
            BatteryConfig(
                capacity=3.2, p_charge_max=1.5, p_discharge_max=1.5, soc_init=0.1, soc_min_frac=0.15
            )

    def test_ewh_invariants(self):
        with pytest.raises(ValueError):
            EwhConfig(p_nom=0.5, theta_min=45.0, theta_max=80.0, theta_init=90.0)
        with pytest.raises(ValueError):
            EwhConfig(p_nom=-1.0, theta_min=45.0, theta_max=80.0, theta_init=60.0)
        for draws in ([1.0, np.nan], [np.inf, 0.0]):
            with pytest.raises(ValueError):
                EwhConfig(p_nom=0.5, theta_min=45.0, theta_max=80.0, theta_init=60.0, draw_profile=draws)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "section, name",
        [("battery", f.name) for f in fields(BatteryConfig)]
        + [("ewh", f.name) for f in fields(EwhConfig) if f.name != "draw_profile"],
    )
    def test_non_finite_parameter_rejected(self, hems_reference, section, name, value):
        # A NaN tank or battery bound makes its comparisons false and would
        # switch the rule off, so every numeric field must be finite.
        owner = getattr(hems_reference, section)
        with pytest.raises(ValueError, match=rf"\.{name} must be a finite number"):
            replace(owner, **{name: value})

    @pytest.mark.parametrize(
        "section, name",
        [("battery", f.name) for f in fields(BatteryConfig)]
        + [("ewh", f.name) for f in fields(EwhConfig) if f.name != "draw_profile"],
    )
    def test_json_bool_parameter_rejected(self, tmp_path, hems_reference, section, name):
        # JSON true is a bool, which Python counts as the number 1.
        path = tmp_path / "hems.json"
        example_inputs.write_hems_json(path, hems_reference)
        doc = json.loads(path.read_text())
        doc[section][name] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"\.{name} must be a finite number, got True"):
            HemsConfig.from_json(path)

    @pytest.mark.parametrize(
        "edit, key",
        [(lambda doc: doc.update(grid={"p_max": 5.0}), "'grid'"),
         (lambda doc: doc["ewh"].update(draw_profile=[1.0] * 4), "'ewh.draw_profile'")],
    )
    def test_json_unknown_key_rejected(self, tmp_path, hems_reference, edit, key):
        # The draw profile is read from its own CSV, never inline from hems.json.
        path = tmp_path / "hems.json"
        example_inputs.write_hems_json(path, hems_reference)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"unknown key {key}"):
            HemsConfig.from_json(path)

    @pytest.mark.parametrize("text", ["7", '["battery", "ewh"]', '"battery"', "null"])
    def test_json_non_object_top_level_rejected(self, tmp_path, text):
        path = tmp_path / "hems.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="hems.json: the top level must be a JSON object"):
            HemsConfig.from_json(path)

    def test_json_round_trip(self, tmp_path, hems_reference):
        path = tmp_path / "hems.json"
        example_inputs.write_hems_json(path, hems_reference)
        loaded = HemsConfig.from_json(path)
        assert loaded.battery == hems_reference.battery
        assert loaded.ewh.p_nom == hems_reference.ewh.p_nom
        assert loaded.ewh.thermal_capacity == hems_reference.ewh.thermal_capacity

    def test_json_rewrite_is_byte_identical(self, tmp_path):
        source = Path(__file__).resolve().parents[1] / "data" / "hems.json"
        example_inputs.write_hems_json(tmp_path / "hems.json", HemsConfig.from_json(source))
        assert (tmp_path / "hems.json").read_bytes() == source.read_bytes()

    def test_draw_profile_csv_round_trip(self, tmp_path):
        draws = np.array([0.0, 6.0, 0.0, 4.5])
        path = tmp_path / "draws.csv"
        example_inputs.write_draw_profile_csv(path, draws)
        assert np.allclose(hems.read_draw_profile_csv(path), draws)

    @pytest.mark.parametrize("steps", [[1, 2, 2, 4], [1, 2, 3, 200], [0, 1, 2, 3]])
    def test_draw_profile_steps_must_run_one_to_t_once(self, tmp_path, steps):
        path = tmp_path / "draws.csv"
        path.write_text("h,liters\n" + "".join(f"{h},1\n" for h in steps))
        with pytest.raises(ValueError, match=r"steps h must run 1\.\.4, each once"):
            hems.read_draw_profile_csv(path)

    @pytest.mark.parametrize(
        "text",
        ["liters,h\n1,1\n", "h,liters,x\n1,1,1\n", "h\n1\n", "h,liters\n1.5,1\n", "h,liters\n1,-1\n",
         "h,liters\n1,nan\n", "h,liters\n"],
    )
    def test_draw_profile_csv_errors_name_the_file(self, tmp_path, text):
        path = tmp_path / "use.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="use.csv"):
            hems.read_draw_profile_csv(path)

    def test_draw_profile_step_may_be_written_as_a_whole_float(self, tmp_path):
        path = tmp_path / "draws.csv"
        path.write_text("h,liters\n2.0,4.5\n1,6\n")
        assert hems.read_draw_profile_csv(path).tolist() == [6.0, 4.5]

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "hems.json"
        path.write_text('{"battery": ')
        with pytest.raises(ValueError, match="hems.json is not valid JSON"):
            HemsConfig.from_json(path)


class TestTrajectorySet:
    """The one reader of the [p_bat | p_ewh] row layout."""

    def test_rows_are_read_only_views(self):
        matrix = np.arange(12.0).reshape(3, 4)
        offers = hems.TrajectorySet(matrix)
        assert (len(offers), offers.horizon) == (3, 2)
        assert matrix.flags.writeable and not offers.matrix.flags.writeable
        row = offers[1]
        assert (row.p_bat.tolist(), row.p_ewh.tolist()) == ([4.0, 5.0], [6.0, 7.0])
        assert np.shares_memory(row.p_bat, offers.matrix) and np.shares_memory(row.p_ewh, offers.matrix)
        with pytest.raises(ValueError):
            row.p_ewh[0] = 1.0
        assert offers[-1].p_bat.tolist() == [8.0, 9.0]
        assert [t.as_vector().tolist() for t in offers] == matrix.tolist()
        with pytest.raises(TypeError):
            offers[0:2]
        with pytest.raises(IndexError):
            offers[3]

    def test_window_and_combined_match_each_row(self):
        rng = np.random.default_rng(8)
        rows = [
            FlexTrajectory(p_bat=rng.uniform(-1.5, 1.5, 6), p_ewh=rng.choice([0.0, -0.0, 0.5], 6)) for _ in range(5)
        ]
        offers = hems.TrajectorySet(np.stack([t.as_vector() for t in rows]))
        window = offers.window(2, 5)
        assert window.horizon == 3 and window.matrix.flags.c_contiguous
        expected = np.stack([np.r_[t.p_bat[2:5], t.p_ewh[2:5]] for t in rows])
        assert window.matrix.tobytes() == expected.tobytes()
        assert offers.combined.tobytes() == np.stack([t.p_bat + t.p_ewh for t in rows]).tobytes()

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 0), (1, 2, 2)])
    def test_matrix_must_have_an_even_positive_width(self, shape):
        with pytest.raises(ValueError, match="a trajectory set is an"):
            hems.TrajectorySet(np.zeros(shape))


class TestNonFiniteInput:
    """A NaN switches rules off instead of failing, so the screens, the oracle
    and the surplus readers reject it, and ±inf, naming the argument."""

    HORIZON = 6

    @staticmethod
    def _cfg(soc_init):
        battery = BatteryConfig(capacity=3.2, p_charge_max=1.5, p_discharge_max=1.5, soc_init=soc_init)
        return HemsConfig(battery=battery, ewh=EwhConfig(p_nom=0.5, theta_min=45.0, theta_max=80.0, theta_init=60.0))

    def test_nan_battery_power_is_rejected_by_kernel_and_oracle(self):
        # From SoC 3.0 the tapered limit is about 0.68 kW, so charging 1.4 kW
        # at step 3 fails in both routes. A NaN SoC from step 1 on used to
        # pass every later test in the kernel while the oracle failed it.
        cfg, dt = self._cfg(3.0), 0.25
        p_ewh, net_load, draws = np.zeros((1, self.HORIZON)), np.full((1, self.HORIZON), 0.4), np.zeros(self.HORIZON)
        finite = np.array([[0.0, 0.0, 0.0, 1.4, 0.0, 0.0]])
        zero_penalty, accommodation_ok = hems.batch_compliance(finite, p_ewh, net_load, draws, cfg, dt)
        scenario_set = scenarios.ScenarioSet(net_load)
        assert not zero_penalty[0, 0] and accommodation_ok[0, 0]
        assert analysis.oracle_check(FlexTrajectory(finite[0], p_ewh[0]), scenario_set, cfg, dt) == 0
        p_bat = finite.copy()
        p_bat[0, 1] = np.nan
        message = "^p_bat: row 1 holds a non-finite value$"
        with pytest.raises(ValueError, match=message):
            hems.batch_compliance(p_bat, p_ewh, net_load, draws, cfg, dt)
        with pytest.raises(ValueError, match=message):
            hems.screen_with_repair(p_bat, p_ewh, net_load, np.zeros(self.HORIZON), draws, cfg, dt)
        with pytest.raises(ValueError, match="^traj holds a non-finite value$"):
            analysis.oracle_check(FlexTrajectory(p_bat[0], p_ewh[0]), scenario_set, cfg, dt)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_envelope_is_rejected(self, value):
        # The row discharges at step 3. A NaN envelope used to read as no
        # surplus and leave the row unrepaired but valid; an all-inf one made
        # it invalid. A finite envelope with surplus repairs it.
        cfg, dt = self._cfg(1.92), 0.25
        p_bat, p_ewh = np.array([[0.0, 0.0, 0.0, -0.5, 0.0, 0.0]]), np.zeros((1, self.HORIZON))
        net_load, draws = np.full((1, self.HORIZON), 0.4), np.zeros(self.HORIZON)
        _, _, repaired, valid, _ = hems.screen_with_repair(p_bat, p_ewh, net_load, np.full(self.HORIZON, 0.3), draws, cfg, dt)
        assert valid[0] and not repaired.any()
        with pytest.raises(ValueError, match="^envelope holds a non-finite value$"):
            hems.screen_with_repair(p_bat, p_ewh, net_load, np.full(self.HORIZON, value), draws, cfg, dt)
        traj = FlexTrajectory(p_bat[0], p_ewh[0])
        for check in (simulate, pv_accommodation, repair_trajectory):
            with pytest.raises(ValueError, match="^surplus holds a non-finite value$"):
                check(traj, np.full(self.HORIZON, value), cfg, dt)
