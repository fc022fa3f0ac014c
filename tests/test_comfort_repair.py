"""The swarm's thermostat: `hems.comfort_repair` switches the heater off at a
step that would take the tank above its band and on at a step that would
take it below, from each row's first out-of-band step on, and returns the
repaired schedules with their tank path. The swarm's pass, `hems.swarm_pass`,
screens the repaired rows on that path, so each pass steps the tank once.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hemsflex import analysis, cli, epso, hems, scenarios
from hemsflex.hems import EPS, FlexTrajectory, ewh_step

DATA = Path(__file__).resolve().parent.parent / "data"

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _check_repair(p_ewh, ewh, dt):
    """Check `comfort_repair` of (P, T) schedules against its contract and
    return (repaired, theta, out), where `out` marks the rows whose given
    path left the band."""
    repaired, theta = hems.comfort_repair(p_ewh, ewh, dt)
    assert repaired.shape == p_ewh.shape and theta.shape == p_ewh.shape[::-1]
    # The path is the tank loop's own of the repaired schedules, bit for bit.
    assert _bits(theta) == _bits(hems._tank(repaired, ewh, dt))
    low, high = ewh.theta_min - EPS, ewh.theta_max + EPS
    given_path = hems._tank(p_ewh, ewh, dt)
    flagged = (given_path < low) | (given_path > high)
    draws = ewh.draws(p_ewh.shape[1])
    for p in range(p_ewh.shape[0]):
        if not flagged[:, p].any():
            # A row that never leaves the band keeps its bits.
            assert _bits(repaired[p]) == _bits(p_ewh[p])
            continue
        first = int(flagged[:, p].argmax())
        # No step before the first out-of-band step changes.
        assert _bits(repaired[p, :first]) == _bits(p_ewh[p, :first])
        level = ewh.theta_init if first == 0 else float(theta[first - 1, p])
        for h in range(first, p_ewh.shape[1]):
            given_power, power = float(p_ewh[p, h]), float(repaired[p, h])
            unflipped = ewh_step(level, given_power, float(draws[h]), dt, ewh)
            if _bits(power) != _bits(given_power):
                # Each flip is on -> off above the band or off -> on below it.
                above = given_power != 0.0 and power == 0.0 and unflipped > high
                below = given_power == 0.0 and power == ewh.p_nom and unflipped < low
                assert above or below, (p, h, given_power, power, unflipped)
            else:
                # The thermostat leaves no step that it should have switched.
                # A switched step may still leave the band: in a band
                # narrower than one step, off falls below it and on rises
                # above it, and the thermostat switches once.
                assert not (power != 0.0 and unflipped > high)
                assert not (power == 0.0 and unflipped < low)
            level = float(theta[h, p])
    return repaired, theta, flagged.any(axis=0)


def _reference_swarm():
    """The reference day's seeded first swarm: (p_bat, p_ewh, net_load, HEMS, dt)."""
    cfg = cli.RunConfig.load(DATA / "config_reference.json")
    values = scenarios.generate_scenarios(scenarios.read_marginals_csv(cfg.marginals_path), cfg.copula).values
    hems_cfg, horizon = cfg.hems_config(), values.shape[1]
    rows = epso.seed_initial_population(values[0], cfg.epso, hems_cfg, np.random.default_rng(cfg.seed)).x
    return rows[:, :horizon], rows[:, horizon:], values, hems_cfg, cfg.dt_hours


@st.composite
def tank_instances(draw):
    """An EWH with a band from narrow to wide, a draw profile from none to
    heavy, and P schedules of heater powers, over 1-40 steps."""
    horizon = draw(st.integers(1, 40))
    theta_min = 45.0
    theta_max = draw(st.sampled_from([45.5, 47.0, 55.0, 80.0]))
    p_nom = draw(st.sampled_from([0.5, 2.0]))
    draws = draw(
        st.none() | arrays(float, horizon, elements=st.sampled_from([0.0, 1.0, 10.0, 40.0]) | st.floats(0.0, 60.0))
    )
    ewh = hems.EwhConfig(
        p_nom=p_nom, theta_min=theta_min, theta_max=theta_max,
        theta_init=draw(st.sampled_from([theta_min, theta_max]) | st.floats(theta_min, theta_max)),
        draw_profile=draws,
    )
    count = draw(st.integers(1, 4))
    power = st.sampled_from([0.0, -0.0, p_nom]) | st.sampled_from([0.1, 0.3])
    p_ewh = draw(arrays(float, (count, horizon), elements=power))
    return p_ewh, ewh, draw(st.sampled_from([0.25, 1.0]))


class TestComfortRepair:
    def test_seeded_reference_swarm(self):
        _, p_ewh, _, hems_cfg, dt = _reference_swarm()
        repaired, _, out = _check_repair(p_ewh, hems_cfg.ewh, dt)
        assert out.any() and not out.all()
        assert np.array_equal((repaired != p_ewh).any(axis=1), out)

    def test_heater_always_on(self):
        """Every tank of the reference day overheats; the thermostat keeps
        them all in the band."""
        _, p_ewh, _, hems_cfg, dt = _reference_swarm()
        p_ewh = np.full_like(p_ewh, hems_cfg.ewh.p_nom)
        repaired, theta, out = _check_repair(p_ewh, hems_cfg.ewh, dt)
        assert out.all() and (repaired == 0.0).any(axis=1).all()
        assert not ((theta < hems_cfg.ewh.theta_min - EPS) | (theta > hems_cfg.ewh.theta_max + EPS)).any()

    def test_rows_in_band_keep_their_bits(self):
        """With no row out of band the schedules come back as given, -0.0
        included, and their path is the tank loop's."""
        _, p_ewh, _, hems_cfg, dt = _reference_swarm()
        _, _, out = _check_repair(p_ewh, hems_cfg.ewh, dt)
        calm = p_ewh[~out].copy()
        calm[calm == 0.0] = -0.0
        repaired, theta = hems.comfort_repair(calm, hems_cfg.ewh, dt)
        assert _bits(repaired) == _bits(calm) and _bits(theta) == _bits(hems._tank(calm, hems_cfg.ewh, dt))

    def test_cold_tank_switches_on(self):
        """Heavy draws with the heater off chill the tank below its band: the
        thermostat switches the heater on there and nowhere before."""
        ewh = hems.EwhConfig(p_nom=0.5, theta_min=45.0, theta_max=80.0, theta_init=46.0, draw_profile=np.full(12, 8.0))
        p_ewh = np.zeros((1, 12))
        repaired, theta, out = _check_repair(p_ewh, ewh, 0.25)
        first = int((hems._tank(p_ewh, ewh, 0.25)[:, 0] < 45.0 - EPS).argmax())
        assert out.all() and first > 0
        assert not repaired[0, :first].any() and repaired[0, first] == 0.5
        assert (theta[:, 0] >= 45.0 - EPS).all()

    def test_a_tank_the_heater_cannot_keep_warm_still_faults(self):
        """Draws so heavy that even the heater on cannot hold the tank: the
        thermostat switches it on and the screen's head still faults."""
        ewh = hems.EwhConfig(p_nom=0.5, theta_min=59.9, theta_max=60.0, theta_init=60.0, draw_profile=np.full(16, 20.0))
        cfg = hems.HemsConfig(
            battery=hems.BatteryConfig(capacity=3.2, p_charge_max=1.5, p_discharge_max=1.5, soc_init=1.92), ewh=ewh
        )
        p_ewh = np.zeros((2, 16))
        p_ewh[1, ::2] = 0.5
        repaired, theta, _ = _check_repair(p_ewh, ewh, 0.25)
        assert (theta < 59.9 - EPS).any(axis=0).all()
        net_load = np.full((3, 16), 0.4)
        result = hems.swarm_pass(np.zeros((2, 16)), p_ewh, net_load, cfg, 0.25, 3)
        assert _bits(result.p_ewh) == _bits(repaired) and result.comfort_repaired == 2
        assert result.head_faulted == 2 and not result.fitness.any() and not result.offered_fitness.any()

    @PROPERTY
    @given(tank_instances())
    def test_drawn_schedules_and_profiles(self, instance):
        _check_repair(*instance)

    def test_input_is_left_as_it_was(self):
        _, p_ewh, _, hems_cfg, dt = _reference_swarm()
        given_bits = _bits(p_ewh)
        repaired, _ = hems.comfort_repair(p_ewh, hems_cfg.ewh, dt)
        assert _bits(p_ewh) == given_bits and not np.shares_memory(repaired, p_ewh)

    @pytest.mark.parametrize("shape", [(96,), (1, 2, 96)])
    def test_schedules_must_be_a_matrix(self, shape):
        ewh = hems.EwhConfig(p_nom=0.5, theta_min=45.0, theta_max=80.0, theta_init=60.0)
        with pytest.raises(ValueError, match="^EWH schedules are a"):
            hems.comfort_repair(np.zeros(shape), ewh, 0.25)


class TestSwarmPassScreen:
    def test_equals_screen_with_repair_on_the_repaired_rows(self):
        p_bat, p_ewh, net_load, cfg, dt = _reference_swarm()
        repaired = hems.comfort_repair(p_ewh, cfg.ewh, dt)[0]
        result = hems.swarm_pass(p_bat, p_ewh, net_load, cfg, dt, epso.robust_threshold(len(net_load), 0.9))
        _assert_same_pass(result, hems.screen_with_repair(p_bat, repaired, net_load, cfg, dt))
        assert result.candidates.size and result.comfort_repaired

    def test_halves_of_another_shape_are_refused(self):
        p_bat, p_ewh, net_load, cfg, dt = _reference_swarm()
        with pytest.raises(ValueError, match="^trajectory and scenario horizons differ$"):
            hems.swarm_pass(p_bat, p_ewh[:, :-1], net_load, cfg, dt, 90)


def _assert_same_pass(result, screened):
    """A swarm pass gives the thermostat's heater and the fitness, head
    faults and, for each row it does not re-screen, the offer of
    `screen_with_repair` of its rows, bit for bit."""
    zero_penalty, compliant, repaired, valid, prefix = screened
    fitness = np.count_nonzero(compliant, axis=1)
    assert result.fitness.dtype == fitness.dtype and result.fitness.tobytes() == fitness.tobytes()
    assert result.head_faulted == int(prefix.fault.sum())
    assert valid[result.candidates].all()
    assert (fitness[result.candidates] < np.count_nonzero(zero_penalty, axis=1)[result.candidates]).all()
    assert _bits(result.p_bat[result.candidates]) == _bits(repaired[result.candidates])
    others = np.setdiff1d(np.arange(len(fitness)), result.candidates)
    assert result.offered_fitness[others].tobytes() == fitness[others].tobytes()


class TestSwarmPass:
    """Each pass of the small search repairs the heaters, writes them into
    the swarm, and screens on the thermostat's path: one tank loop a pass."""

    @staticmethod
    def _small_search(monkeypatch):
        cfg = cli.RunConfig.load(DATA / "config_small.json")
        scenario_set, hems_cfg = cli._instance(cfg)
        tank, repair, swarm_pass = hems._tank, hems.comfort_repair, hems.swarm_pass
        seen = {"tank": 0, "changed": [], "passes": []}

        def counted_tank(*args):
            seen["tank"] += 1
            return tank(*args)

        def spied_repair(p_ewh, ewh, dt):
            repaired, theta = repair(p_ewh, ewh, dt)
            seen["changed"].append(int((repaired != p_ewh).any(axis=1).sum()))
            return repaired, theta

        def spied_pass(p_bat, p_ewh, net_load, cfg, dt, threshold):
            result = swarm_pass(p_bat, p_ewh, net_load, cfg, dt, threshold)
            seen["passes"].append((p_bat.copy(), p_ewh.copy(), threshold, result))
            return result

        monkeypatch.setattr(hems, "_tank", counted_tank)
        monkeypatch.setattr(hems, "comfort_repair", spied_repair)
        monkeypatch.setattr(epso, "swarm_pass", spied_pass)
        records = []
        epso.run(cfg.epso, scenario_set, hems_cfg, cfg.dt_hours, log_sink=records.append)
        return cfg, scenario_set, hems_cfg, records, seen

    def test_one_tank_loop_a_pass_and_the_log_counts_repairs(self, monkeypatch):
        *_, records, seen = self._small_search(monkeypatch)
        assert len(records) > 10 and seen["tank"] == len(records) == len(seen["passes"]) == len(seen["changed"])
        assert [record["comfort_repaired"] for record in records] == seen["changed"]
        assert sum(seen["changed"]) > 0
        assert [r["head_faulted"] for r in records] == [p[3].head_faulted for p in seen["passes"]]

    def test_the_swarm_screens_the_rows_as_screen_with_repair_does(self, monkeypatch):
        cfg, scenario_set, hems_cfg, _, seen = self._small_search(monkeypatch)
        dt = cfg.dt_hours
        for p_bat, p_ewh, _, result in seen["passes"]:
            # The screened heater half is the thermostat's, so a second repair
            # changes nothing.
            repaired = hems.comfort_repair(p_ewh, hems_cfg.ewh, dt)[0]
            assert _bits(result.p_ewh) == _bits(repaired)
            assert _bits(hems.comfort_repair(repaired, hems_cfg.ewh, dt)[0]) == _bits(repaired)
            _assert_same_pass(result, hems.screen_with_repair(p_bat, repaired, scenario_set.values, hems_cfg, dt))

    def test_the_log_counts_the_repairs_the_pass_rescreened(self, monkeypatch):
        """Each record's `repair_candidates` and `repair_robust` are the
        candidates recomputed from `screen_with_repair` of the pass's rows and
        those of them whose repair a full `batch_compliance` finds robust."""
        cfg, scenario_set, hems_cfg, records, seen = self._small_search(monkeypatch)
        values, dt = scenario_set.values, cfg.dt_hours
        for record, (p_bat, p_ewh, threshold, _) in zip(records, seen["passes"], strict=True):
            heater = hems.comfort_repair(p_ewh, hems_cfg.ewh, dt)[0]
            zero_penalty, compliant, repaired, valid, _ = hems.screen_with_repair(p_bat, heater, values, hems_cfg, dt)
            fitness = np.count_nonzero(compliant, axis=1)
            rows = np.flatnonzero((fitness < threshold) & (np.count_nonzero(zero_penalty, axis=1) >= threshold) & valid)
            verdicts = hems.batch_compliance(repaired[rows], heater[rows], values, hems_cfg, dt)
            robust = int(np.count_nonzero(np.count_nonzero(verdicts[0] & verdicts[1], axis=1) >= threshold))
            assert (record["repair_candidates"], record["repair_robust"]) == (rows.size, robust)
        assert sum(r["repair_robust"] for r in records) > 0
        assert sum(r["repair_candidates"] for r in records) > sum(r["repair_robust"] for r in records)

    def test_oracle_scores_every_offered_row(self, monkeypatch):
        """On a seeded sample of the small search's passes, the oracle gives
        every row the pass returns its offered fitness: repaired candidates
        that stay out of the set and rows below the threshold included."""
        cfg, scenario_set, hems_cfg, _, seen = self._small_search(monkeypatch)
        passes = np.random.default_rng(34).choice(len(seen["passes"]), size=4, replace=False)
        kinds = set()
        for k in passes.tolist():
            *_, threshold, result = seen["passes"][k]
            for i in range(len(result.fitness)):
                traj = FlexTrajectory(p_bat=result.p_bat[i], p_ewh=result.p_ewh[i])
                fitness = int(result.offered_fitness[i])
                assert analysis.oracle_check(traj, scenario_set, hems_cfg, cfg.dt_hours) == fitness
                kinds.add((i in result.candidates, fitness >= threshold))
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}

    def test_oracle_agrees_on_a_seeded_sample_of_members(self):
        cfg = cli.RunConfig.load(DATA / "config_small.json")
        scenario_set, hems_cfg = cli._instance(cfg)
        result = epso.run(cfg.epso, scenario_set, hems_cfg, cfg.dt_hours)
        members, fitnesses = result.feasible.trajectories, result.feasible.fitnesses
        sample = np.random.default_rng(33).choice(len(members), size=25, replace=False)
        for i in sample.tolist():
            assert analysis.oracle_check(members[i], scenario_set, hems_cfg, cfg.dt_hours) == fitnesses[i]
