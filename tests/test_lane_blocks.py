"""The lane kernel's block schedule: each step where some row has PV surplus
is stepped on its own, and the surplus-free runs between them are stepped as
blocks of up to `hems._BLOCK_STEPS` steps. Screening, repair and simulation
must not depend on where the block boundaries fall, so these instances put
surplus at the horizon's ends and leave surplus-free runs longer than the cap.
The fused screen steps the repair envelope as one more surplus row, which
must leave the screen's verdicts as they are, and the swarm pass's re-screen
of its repairs, resumed from the pass's head at the first surplus step, must
give the full screen's verdicts.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hemsflex import analysis, cli, epso, hems, scenarios
from hemsflex.hems import EPS, FlexTrajectory

DATA = Path(__file__).resolve().parent.parent / "data"

CAP = hems._BLOCK_STEPS
CAPACITY = 3.2
P_MAX = 1.5
P_NOM = 0.5
SOC_MIN = 0.15 * CAPACITY
KNEE = 0.8 * CAPACITY
THETA_MIN, THETA_MAX = 45.0, 80.0

BLOCK_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _free_runs(active: np.ndarray) -> list[int]:
    """Lengths of the runs of steps where no row has surplus."""
    runs, length = [], 0
    for is_active in active:
        if is_active:
            runs.append(length)
            length = 0
        else:
            length += 1
    return [n for n in runs + [length] if n]


@st.composite
def block_instances(draw):
    """A HEMS, P trajectories and S net-load rows over 20-40 steps. Surplus
    sits at the first step, the last step, both or neither, with or without
    inner surplus runs, and at least one surplus-free run is longer than the
    block cap. Inner runs are parted by gaps of one to three steps, so a
    tracker drained by one run has only a short block to recover in before
    the next. Every surplus step has surplus in row 0; the other rows have it
    there or not."""
    ends = draw(st.sampled_from(["first", "last", "both", "neither"]))
    inner = []
    if ends == "neither" or draw(st.booleans()):
        runs = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        for length in runs[:-1]:
            inner += [True] * length + [False] * draw(st.integers(1, 3))
        inner += [True] * runs[-1]
    horizon = draw(st.integers(max(20, CAP + 3 + len(inner)), 40))
    active = np.zeros(horizon, dtype=bool)
    active[0] = ends in ("first", "both")
    active[-1] = ends in ("last", "both")
    if inner:
        start = draw(st.integers(CAP + 2, horizon - len(inner) - 1))
        active[start : start + len(inner)] = inner
    assert max(_free_runs(active)) > CAP

    dt = draw(st.sampled_from([0.25, 1.0]))
    efficiency = draw(st.sampled_from([1.0, 0.925]))
    soc_init = draw(
        st.sampled_from([SOC_MIN, SOC_MIN + EPS, KNEE - EPS, KNEE, KNEE + EPS, CAPACITY - EPS, CAPACITY])
        | st.floats(SOC_MIN, CAPACITY)
    )
    battery = hems.BatteryConfig(
        capacity=CAPACITY, p_charge_max=P_MAX, p_discharge_max=draw(st.sampled_from([P_MAX, 1.0])),
        soc_init=soc_init, efficiency=efficiency,
    )
    draws = draw(arrays(float, horizon, elements=st.sampled_from([0.0, 1.0, 10.0])))
    cfg = hems.HemsConfig(
        battery=battery,
        ewh=hems.EwhConfig(
            p_nom=P_NOM, theta_min=THETA_MIN, theta_max=THETA_MAX,
            theta_init=draw(st.sampled_from([THETA_MIN, 46.0, 60.0, 79.0, THETA_MAX])), draw_profile=draws,
        ),
    )

    n_traj = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 4))
    # Mostly small powers, so lanes live long enough to cross block boundaries.
    power = (
        st.sampled_from([0.0, -0.0, EPS, -EPS, 2 * EPS, -2 * EPS, P_MAX, -P_MAX])
        | st.floats(-0.3, 0.3)
        | st.floats(-P_MAX, P_MAX)
    )
    p_bat = draw(arrays(float, (n_traj, horizon), elements=power))
    p_ewh = draw(arrays(float, (n_traj, horizon), elements=st.sampled_from([0.0, P_NOM])))

    surplus = st.sampled_from([EPS / 2, EPS, 2 * EPS, P_NOM, P_NOM + EPS, P_MAX, 3.0]) | st.floats(EPS / 4, 3.0)
    load = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 2.0)
    net_load = draw(arrays(float, (n_rows, horizon), elements=load))
    for h in np.flatnonzero(active):
        net_load[0, h] = -draw(surplus)
        for s in range(1, n_rows):
            if draw(st.booleans()):
                net_load[s, h] = -draw(surplus)
    return cfg, dt, p_bat, p_ewh, net_load


class TestBlockSchedule:
    @BLOCK_SETTINGS
    @given(block_instances())
    def test_blocks_cover_the_horizon_within_the_cap(self, instance):
        cfg, dt, p_bat, p_ewh, net_load = instance
        count, horizon = p_bat.shape
        surplus = scenarios.pv_surplus(net_load)
        active = (surplus > 0.0).any(axis=0)
        first_active = int(np.argmax(active))
        h = 0
        soc = np.full((count, 1), cfg.battery.soc_init)
        for block in hems._lane_steps(p_bat, p_ewh, surplus, active, cfg, dt, soc):
            assert block.steps.start == h
            steps = block.steps.stop - h
            if active[h]:
                assert steps == 1
            else:
                assert 1 <= steps <= CAP and not active[block.steps].any()
            rows = 1 if h < first_active else net_load.shape[0]
            for name in ("charge_rate", "soc"):
                assert getattr(block, name).shape == (steps, count, rows), name
            if active[h]:
                assert block.discharge.shape == (1, count, rows)
            else:
                assert block.discharge.shape == (steps, count, 1) and not block.discharge.any()
            h = block.steps.stop
        assert h == horizon
        assert hems._tank(p_ewh, cfg.ewh, dt).shape == (horizon, count)


class TestBlockBoundaries:
    @BLOCK_SETTINGS
    @given(block_instances())
    def test_compliance_matches_row_calls_and_oracle(self, instance):
        cfg, dt, p_bat, p_ewh, net_load = instance
        zero_penalty, accommodation_ok = hems.batch_compliance(p_bat, p_ewh, net_load, cfg, dt)
        for p in range(p_bat.shape[0]):
            row_zero, row_ok = hems.batch_compliance(p_bat[p : p + 1], p_ewh[p : p + 1], net_load, cfg, dt)
            assert np.array_equal(zero_penalty[p], row_zero[0])
            assert np.array_equal(accommodation_ok[p], row_ok[0])
            traj = FlexTrajectory(p_bat=p_bat[p], p_ewh=p_ewh[p])
            for s in range(net_load.shape[0]):
                oracle = analysis.oracle_check(traj, scenarios.ScenarioSet(net_load[s : s + 1]), cfg, dt)
                assert bool(zero_penalty[p, s] and accommodation_ok[p, s]) == (oracle == 1)

    @BLOCK_SETTINGS
    @given(block_instances())
    def test_batch_repair_matches_repair_trajectory(self, instance):
        cfg, dt, p_bat, p_ewh, net_load = instance
        envelope = scenarios.pv_surplus(net_load).max(axis=0)
        _, _, fixed, valid, _ = hems.screen_with_repair(p_bat, p_ewh, net_load, cfg, dt)
        for p in range(p_bat.shape[0]):
            traj = FlexTrajectory(p_bat=p_bat[p], p_ewh=p_ewh[p])
            try:
                repaired = hems.repair_trajectory(traj, envelope, cfg, dt)
            except ValueError:
                assert not valid[p]
                assert np.array_equal(fixed[p], p_bat[p])
                continue
            assert valid[p]
            assert np.array_equal(fixed[p], repaired.p_bat)

    @BLOCK_SETTINGS
    @given(block_instances(), st.sampled_from(["envelope", "no rows"]))
    def test_fused_screen_matches_screen_and_row_repair(self, instance, kind):
        """The fused pass gives `batch_compliance`'s zero-penalty verdicts and
        their AND with its accommodation verdicts bit for bit, and
        per-row `repair_trajectory`'s rows against the rows' surplus
        envelope, also with no net-load rows at all, whose envelope is all
        zero."""
        cfg, dt, p_bat, p_ewh, net_load = instance
        if kind == "no rows":
            net_load = net_load[:0]
        envelope = scenarios.pv_surplus(net_load).max(axis=0, initial=0.0)
        zero_penalty, compliant, fixed, valid, _ = hems.screen_with_repair(p_bat, p_ewh, net_load, cfg, dt)
        expected = hems.batch_compliance(p_bat, p_ewh, net_load, cfg, dt)
        assert zero_penalty.shape == compliant.shape == (p_bat.shape[0], net_load.shape[0])
        assert np.array_equal(zero_penalty, expected[0])
        assert np.array_equal(compliant, expected[0] & expected[1])
        assert fixed.shape == p_bat.shape and valid.shape == (p_bat.shape[0],)
        for p in range(p_bat.shape[0]):
            traj = FlexTrajectory(p_bat=p_bat[p], p_ewh=p_ewh[p])
            try:
                repaired = hems.repair_trajectory(traj, envelope, cfg, dt)
            except ValueError:
                assert not valid[p]
                assert np.array_equal(fixed[p], p_bat[p])
                continue
            assert valid[p]
            assert np.array_equal(fixed[p], repaired.p_bat)
        if kind == "no rows":
            assert np.array_equal(fixed, p_bat)

    @BLOCK_SETTINGS
    @given(block_instances())
    def test_simulate_follows_the_step_route(self, instance):
        """simulate's SoC and tank paths equal the analysis step route's bit
        for bit, and its flags and pv_accommodation's are the per-step rules
        applied to those states."""
        cfg, dt, p_bat, p_ewh, net_load = instance
        bat, ewh = cfg.battery, cfg.ewh
        draws = ewh.draws(p_bat.shape[1])
        (soc0, theta0, headroom0), absorb, charge, tank, tracker = analysis._step_route(cfg, dt)
        for p in range(p_bat.shape[0]):
            traj = FlexTrajectory(p_bat=p_bat[p], p_ewh=p_ewh[p])
            for surplus in scenarios.pv_surplus(net_load):
                result = hems.simulate(traj, surplus, cfg, dt)
                ok, discharge = hems.pv_accommodation(traj, surplus, cfg, dt)
                soc, theta, headroom = soc0, theta0, headroom0
                socs, thetas, charge_rate, discharging = [], [], [], []
                for pb, pe, sur, draw in zip(p_bat[p], p_ewh[p], surplus, draws):
                    supposed = absorb(sur, pe, headroom)
                    discharging.append(supposed > EPS and pb < -EPS)
                    p_eff = pb + supposed
                    charge_rate.append(p_eff > hems._charge_limiter(bat)(soc) + EPS)
                    soc = charge(soc, p_eff)
                    theta = tank(theta, pe, draw)
                    headroom = tracker(headroom, sur, pe)
                    socs.append(soc)
                    thetas.append(theta)
                socs, thetas = np.array(socs), np.array(thetas)
                np.testing.assert_array_equal(result.soc, socs)
                np.testing.assert_array_equal(result.theta, thetas)
                flags = result.violations
                assert np.array_equal(flags["charge_rate"], charge_rate)
                assert np.array_equal(flags["soc_max"], socs > bat.soc_max + EPS)
                assert np.array_equal(flags["soc_min"], socs < bat.soc_min - EPS)
                assert np.array_equal(flags["temp"], (thetas < ewh.theta_min - EPS) | (thetas > ewh.theta_max + EPS))
                assert np.array_equal(discharge, discharging)
                assert ok == (not any(discharging))


class TestLayoutInvariance:
    @BLOCK_SETTINGS
    @given(block_instances(), st.data())
    def test_verdicts_follow_the_row_order(self, instance, data):
        """Reversing the trajectories and permuting the net-load rows permutes
        the (P, S) verdicts and the repaired rows alike, so the kernel never
        mixes the trajectory and scenario axes, not even where P == S."""
        cfg, dt, p_bat, p_ewh, net_load = instance
        order = np.array(data.draw(st.permutations(range(net_load.shape[0]))))
        screened = hems.batch_compliance(p_bat, p_ewh, net_load, cfg, dt)
        swapped = hems.batch_compliance(p_bat[::-1], p_ewh[::-1], net_load[order], cfg, dt)
        for verdict, swapped_verdict in zip(screened, swapped):
            assert np.array_equal(swapped_verdict, verdict[::-1][:, order])
        *_, fixed, valid, _ = hems.screen_with_repair(p_bat, p_ewh, net_load, cfg, dt)
        *_, swapped_fixed, swapped_valid, _ = hems.screen_with_repair(p_bat[::-1], p_ewh[::-1], net_load[order], cfg, dt)
        assert np.array_equal(swapped_fixed, fixed[::-1])
        assert np.array_equal(swapped_valid, valid[::-1])


class TestTaperKnee:
    def test_blocks_at_and_just_above_the_knee(self):
        """The first surplus-free block starts every lane exactly at the taper
        knee, where the limit is the nominal rate. It leaves trajectory 1 one
        ulp above the knee and trajectories 2 and 3 well above it, so the next
        block starts lanes at the knee, one ulp above it and inside the taper,
        while trajectory 0 stays at the knee throughout. Battery power of the
        nominal rate plus or minus 2 EPS puts lanes on both sides of the
        charge-rate rule in each block, and trajectory 2 then charges above
        its tapered limit but below the nominal rate."""
        dt = 0.25
        ulp = np.nextafter(KNEE, np.inf) - KNEE
        horizon = 2 * CAP + 1
        cfg = hems.HemsConfig(
            battery=hems.BatteryConfig(
                capacity=CAPACITY, p_charge_max=P_MAX, p_discharge_max=P_MAX, soc_init=KNEE, efficiency=1.0
            ),
            ewh=hems.EwhConfig(p_nom=P_NOM, theta_min=THETA_MIN, theta_max=THETA_MAX, theta_init=60.0),
        )
        bat = cfg.battery
        assert bat.knee_soc == KNEE
        p_bat = np.zeros((5, horizon))
        # With unit efficiency, 4 ulp of power over a quarter hour adds exactly one ulp.
        p_bat[:, CAP - 1] = [0.0, 4 * ulp, P_MAX - 2 * EPS, P_MAX + 2 * EPS, 0.0]
        p_bat[:, CAP] = [0.0, P_MAX - 2 * EPS, 1.0, 0.5, P_MAX + 2 * EPS]
        p_ewh = np.zeros_like(p_bat)
        # Surplus at the last step in row 0 only, so the rows' verdicts can differ.
        net_load = np.full((2, horizon), 0.5)
        net_load[0, -1] = -0.5
        surplus = scenarios.pv_surplus(net_load)

        (soc0, theta0, headroom0), absorb, charge, _, tracker = analysis._step_route(cfg, dt)
        starts = np.empty((5, 2, horizon))
        expected = np.empty((5, 2, horizon), dtype=bool)
        for p in range(p_bat.shape[0]):
            for s, row in enumerate(surplus):
                soc, headroom = soc0, headroom0
                for h, (pb, pe, sur) in enumerate(zip(p_bat[p], p_ewh[p], row)):
                    p_eff = pb + absorb(sur, pe, headroom)
                    starts[p, s, h] = soc
                    expected[p, s, h] = p_eff > hems._charge_limiter(bat)(soc) + EPS
                    soc = charge(soc, p_eff)
                    headroom = tracker(headroom, sur, pe)
                traj = FlexTrajectory(p_bat=p_bat[p], p_ewh=p_ewh[p])
                result = hems.simulate(traj, row, cfg, dt)
                assert np.array_equal(result.violations["charge_rate"], expected[p, s])
        assert (starts[:, :, :CAP] == KNEE).all() and (starts[0] == KNEE).all()
        assert (starts[1, :, CAP] == np.nextafter(KNEE, np.inf)).all() and (starts[4, :, CAP] == KNEE).all()
        assert (starts[2:4, :, CAP] > KNEE + 0.3).all()
        # At the knee the limit is the nominal rate exactly; one ulp above it
        # the taper takes less than 2 EPS off.
        assert expected[:, :, CAP - 1].tolist() == [[False] * 2, [False] * 2, [False] * 2, [True] * 2, [False] * 2]
        assert expected[:, :, CAP].tolist() == [[False] * 2, [False] * 2, [True] * 2, [False] * 2, [True] * 2]

        active = hems._surplus_steps(surplus)[0]
        blocks = list(hems._lane_steps(p_bat, p_ewh, surplus, active, cfg, dt, np.full((5, 1), KNEE)))
        assert [block.steps for block in blocks[:2]] == [slice(0, CAP), slice(CAP, 2 * CAP)]
        flags = np.concatenate([np.broadcast_to(block.charge_rate, block.soc.shape[:2] + (2,)) for block in blocks])
        assert np.array_equal(flags, expected.transpose(2, 0, 1))
        zero_penalty, accommodation_ok = hems.batch_compliance(p_bat, p_ewh, net_load, cfg, dt)
        assert zero_penalty.tolist() == [[True] * 2, [True] * 2, [False] * 2, [False] * 2, [False] * 2]
        for p in range(p_bat.shape[0]):
            traj = FlexTrajectory(p_bat=p_bat[p], p_ewh=p_ewh[p])
            for s in range(net_load.shape[0]):
                oracle = analysis.oracle_check(traj, scenarios.ScenarioSet(net_load[s : s + 1]), cfg, dt)
                assert bool(zero_penalty[p, s] and accommodation_ok[p, s]) == (oracle == 1)

    def test_surplus_steps_at_and_just_above_the_knee(self):
        """Two surplus steps, at the knee and one ulp above it. At step 0
        every lane starts exactly at the knee, where the limit is the nominal
        rate. Step 0 leaves trajectories 0-2 at the knee, 3-5 one ulp above
        it and 6-7 well inside the taper, so step 1 starts lanes at all
        three. Battery power of the nominal rate plus or minus 2 EPS puts
        lanes on both sides of the charge-rate rule at each step, and the
        nominal rate plus EPS is flagged one ulp above the knee but not at
        it. The EWH takes up row 0's surplus, so nothing is absorbed there,
        while row 1's larger surplus at step 1 adds absorption."""
        dt = 0.25
        ulp = np.nextafter(KNEE, np.inf) - KNEE
        cfg = hems.HemsConfig(
            battery=hems.BatteryConfig(
                capacity=CAPACITY, p_charge_max=P_MAX, p_discharge_max=P_MAX, soc_init=KNEE, efficiency=1.0
            ),
            ewh=hems.EwhConfig(p_nom=P_NOM, theta_min=THETA_MIN, theta_max=THETA_MAX, theta_init=60.0),
        )
        bat = cfg.battery
        p_bat = np.zeros((8, 3))
        # With unit efficiency, 4 ulp of power over a quarter hour adds exactly one ulp.
        p_bat[:, 0] = [0.0, 0.0, 0.0, 4 * ulp, 4 * ulp, 4 * ulp, P_MAX - 2 * EPS, P_MAX + 2 * EPS]
        p_bat[:, 1] = [P_MAX - 2 * EPS, P_MAX + EPS, P_MAX + 2 * EPS] * 2 + [0.0, 0.0]
        p_ewh = np.zeros_like(p_bat)
        p_ewh[:, :2] = P_NOM
        net_load = np.array([[-0.3, -0.3, 0.5], [0.5, -0.8, 0.5]])
        surplus = scenarios.pv_surplus(net_load)

        (soc0, theta0, headroom0), absorb, charge, _, tracker = analysis._step_route(cfg, dt)
        starts = np.empty((8, 2, 3))
        expected = np.empty((8, 2, 3), dtype=bool)
        for p in range(p_bat.shape[0]):
            traj = FlexTrajectory(p_bat=p_bat[p], p_ewh=p_ewh[p])
            for s, row in enumerate(surplus):
                soc, headroom = soc0, headroom0
                for h, (pb, pe, sur) in enumerate(zip(p_bat[p], p_ewh[p], row)):
                    p_eff = pb + absorb(sur, pe, headroom)
                    starts[p, s, h] = soc
                    expected[p, s, h] = p_eff > hems._charge_limiter(bat)(soc) + EPS
                    soc = charge(soc, p_eff)
                    headroom = tracker(headroom, sur, pe)
                result = hems.simulate(traj, row, cfg, dt)
                assert np.array_equal(result.violations["charge_rate"], expected[p, s])
        assert (starts[:, :, 0] == KNEE).all()
        assert (starts[:3, :, 1] == KNEE).all() and (starts[3:6, :, 1] == np.nextafter(KNEE, np.inf)).all()
        assert (starts[6:, :, 1] > KNEE + 0.3).all()
        assert expected[:, 0, 0].tolist() == [False] * 7 + [True]
        assert expected[:6, 0, 1].tolist() == [False, False, True, False, True, True]
        assert expected[:6, 1, 1].all()

        active = hems._surplus_steps(surplus)[0]
        blocks = list(hems._lane_steps(p_bat, p_ewh, surplus, active, cfg, dt, np.full((8, 1), KNEE)))
        assert [block.steps for block in blocks] == [slice(0, 1), slice(1, 2), slice(2, 3)]
        flags = np.concatenate([np.broadcast_to(block.charge_rate, block.soc.shape[:2] + (2,)) for block in blocks])
        assert np.array_equal(flags, expected.transpose(2, 0, 1))
        zero_penalty, accommodation_ok = hems.batch_compliance(p_bat, p_ewh, net_load, cfg, dt)
        for p in range(p_bat.shape[0]):
            traj = FlexTrajectory(p_bat=p_bat[p], p_ewh=p_ewh[p])
            for s in range(net_load.shape[0]):
                oracle = analysis.oracle_check(traj, scenarios.ScenarioSet(net_load[s : s + 1]), cfg, dt)
                assert bool(zero_penalty[p, s] and accommodation_ok[p, s]) == (oracle == 1)


class TestTaperFloor:
    """Edges of the per-lane reductions of a block: the charging taper's
    floor, at or below which the limiter is not evaluated, and the SoC band,
    which is tested on each lane's SoC extremes over the block.
    Step 0 has surplus in row 0 only, and the EWH takes all of it, so nothing
    is absorbed there, while the surplus-free blocks after it hold (P, 2)
    lanes. Every verdict must equal simulate's and pv_accommodation's
    per-step flags, the fused screen's and the oracle's."""

    HORIZON = 1 + 2 * CAP
    # A step in the middle of the first surplus-free block, and one in the second.
    STEP, LATER = 3, CAP + 3

    @classmethod
    def _instance(cls, soc_init, rows_with_surplus=True):
        cfg = hems.HemsConfig(
            battery=hems.BatteryConfig(
                capacity=CAPACITY, p_charge_max=P_MAX, p_discharge_max=P_MAX, soc_init=soc_init, efficiency=1.0
            ),
            ewh=hems.EwhConfig(p_nom=P_NOM, theta_min=THETA_MIN, theta_max=THETA_MAX, theta_init=60.0),
        )
        net_load = np.full((2, cls.HORIZON), 0.5)
        if rows_with_surplus:
            net_load[0, 0] = -P_NOM
        return cfg, net_load

    @staticmethod
    def _heater(p_bat):
        """The EWH runs at step 0 only, taking row 0's surplus there."""
        p_ewh = np.zeros_like(p_bat)
        p_ewh[:, 0] = P_NOM
        return p_ewh

    @classmethod
    def _screen(cls, cfg, dt, p_bat, net_load):
        """The zero-penalty verdicts of the screen, once they are checked
        lane by lane, and simulate's results."""
        p_ewh = cls._heater(p_bat)
        zero_penalty, accommodation_ok = hems.batch_compliance(p_bat, p_ewh, net_load, cfg, dt)
        fused = hems.screen_with_repair(p_bat, p_ewh, net_load, cfg, dt)
        assert np.array_equal(fused[0], zero_penalty) and np.array_equal(fused[1], zero_penalty & accommodation_ok)
        results = {}
        for p in range(p_bat.shape[0]):
            traj = FlexTrajectory(p_bat=p_bat[p], p_ewh=p_ewh[p])
            for s, surplus in enumerate(scenarios.pv_surplus(net_load)):
                result = results[p, s] = hems.simulate(traj, surplus, cfg, dt)
                assert zero_penalty[p, s] == (result.penalty == 0)
                assert accommodation_ok[p, s] == hems.pv_accommodation(traj, surplus, cfg, dt)[0]
                oracle = analysis.oracle_check(traj, scenarios.ScenarioSet(net_load[s : s + 1]), cfg, dt)
                assert bool(zero_penalty[p, s] and accommodation_ok[p, s]) == (oracle == 1)
        assert accommodation_ok.all()
        return zero_penalty, results

    def test_power_at_the_floor_and_one_ulp_around_it(self, monkeypatch):
        """Trajectories 0-2 charge one ulp below, at and one ulp above
        `charge_limit(capacity) + EPS` from a full battery, where the limit is
        the floor, in both surplus-free blocks. Trajectory 3 charges one ulp
        above it from just below full, where the limit is higher, and
        trajectory 4 at the nominal rate. The step is so short that SoC moves
        by less than EPS, so the charge-rate rule alone decides. Only pairs
        whose power exceeds the floor may reach the limiter."""
        dt = 2.0**-32
        cfg, net_load = self._instance(CAPACITY)
        floor = float(hems._charge_limiter(cfg.battery)(CAPACITY)) + EPS
        below, above = np.nextafter(floor, -np.inf), np.nextafter(floor, np.inf)
        p_bat = np.zeros((5, self.HORIZON))
        p_bat[:, self.STEP] = [below, floor, above, above, P_MAX]
        p_bat[:3, self.LATER] = [below, floor, above]
        p_bat[3, 1] = -P_MAX
        expected = np.zeros((5, self.HORIZON), dtype=bool)
        expected[2, [self.STEP, self.LATER]] = expected[4, self.STEP] = True

        seen = []
        limiter = hems._charge_limiter

        def recording(bat):
            limit = limiter(bat)

            def record(soc):
                seen.append(np.shape(soc))
                return limit(soc)

            return record

        monkeypatch.setattr(hems, "_charge_limiter", recording)
        for rows_with_surplus in (True, False):
            cfg, net_load = self._instance(CAPACITY, rows_with_surplus)
            zero_penalty, results = self._screen(cfg, dt, p_bat, net_load)
            assert zero_penalty.tolist() == [[True] * 2, [True] * 2, [False] * 2, [True] * 2, [False] * 2]
            for (p, _), result in results.items():
                assert np.array_equal(result.violations["charge_rate"], expected[p])
                assert not result.violations["soc_max"].any()
            surplus = scenarios.pv_surplus(net_load)
            active = hems._surplus_steps(surplus)[0]
            blocks = hems._lane_steps(p_bat, self._heater(p_bat), surplus, active, cfg, dt, np.full((5, 1), CAPACITY))
            flags = np.concatenate([block.charge_rate for block in blocks])
            assert np.array_equal(flags, np.broadcast_to(expected.T[:, :, None], flags.shape))
        # Without surplus no step is active, so every limiter call but the
        # floor's own, one per kernel pass (the screen's head and its tail),
        # is a block's: one SoC row per pair above the floor.
        cfg, net_load = self._instance(CAPACITY, rows_with_surplus=False)
        seen.clear()
        hems.batch_compliance(p_bat, self._heater(p_bat), net_load, cfg, dt)
        assert seen[0] == () and seen.count(()) == 2
        assert sum(shape[0] for shape in seen if shape) == np.count_nonzero(p_bat > floor) == 4

    @pytest.mark.parametrize("bound", ["soc_max", "soc_min"])
    def test_soc_band_touched_mid_block(self, bound):
        """In the middle of a surplus-free block, trajectories 0-2 land SoC
        one ulp inside, exactly on and one ulp outside the band edge
        (soc_max + EPS or soc_min - EPS), and step back inside before the
        block ends, so only the block's extremes see the edge. A NaN power,
        which would make every later SoC NaN, is rejected by both screens."""
        bat = self._instance(CAPACITY)[0].battery
        upper = bound == "soc_max"
        edge = bat.soc_max + EPS if upper else bat.soc_min - EPS
        start = edge - 0.05 if upper else edge + 0.05
        inside, outside = (np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf))[:: 1 if upper else -1]
        cfg, net_load = self._instance(start)
        p_bat = np.zeros((3, self.HORIZON))
        for p, target in enumerate([inside, edge, outside]):
            step = target - start
            assert start + step == target
            # With unit efficiency a quarter hour turns power 4 * step into SoC step exactly.
            p_bat[p, self.STEP] = 4 * step
            p_bat[p, self.STEP + 1] = -4 * step
        zero_penalty, results = self._screen(cfg, 0.25, p_bat, net_load)
        assert zero_penalty.tolist() == [[True] * 2, [True] * 2, [False] * 2]
        for (p, _), result in results.items():
            assert result.soc[self.STEP] == ([inside, edge, outside][p])
            assert result.violations[bound].tolist() == [p == 2 and h == self.STEP for h in range(self.HORIZON)]
            assert not np.isnan(result.soc).any()
            assert not result.violations["charge_rate"].any()
        p_bat[2, self.STEP + 1] = np.nan
        p_ewh = self._heater(p_bat)
        with pytest.raises(ValueError, match="^p_bat: row 3 holds a non-finite value$"):
            hems.batch_compliance(p_bat, p_ewh, net_load, cfg, 0.25)
        with pytest.raises(ValueError, match="^p_bat: row 3 holds a non-finite value$"):
            hems.screen_with_repair(p_bat, p_ewh, net_load, cfg, 0.25)


def _reference_population():
    """A seeded 30 x 96 population, the reference scenarios and HEMS."""
    cfg = cli.RunConfig.load(DATA / "config_reference.json")
    scenario_set = scenarios.generate_scenarios(scenarios.read_marginals_csv(cfg.marginals_path), cfg.copula)
    rng = np.random.default_rng(7)
    p_bat = rng.uniform(-0.2, 0.2, (30, scenario_set.horizon))
    p_ewh = np.where(rng.random((30, scenario_set.horizon)) < 0.1, 0.5, 0.0)
    assert (scenarios.pv_surplus(scenario_set.values) > 0.0).any(axis=0).sum() > 0
    return p_bat, p_ewh, scenario_set.values, cfg.hems_config(), cfg.dt_hours


def _seeded_swarm():
    """The reference day's seeded first swarm, as (p_bat, p_ewh, net_load,
    HEMS, dt): some of its rows fault in their head, some do not."""
    cfg = cli.RunConfig.load(DATA / "config_reference.json")
    values = scenarios.generate_scenarios(scenarios.read_marginals_csv(cfg.marginals_path), cfg.copula).values
    hems_cfg, horizon = cfg.hems_config(), values.shape[1]
    rows = epso.seed_initial_population(values[0], cfg.epso, hems_cfg, np.random.default_rng(cfg.seed)).x
    return rows[:, :horizon], rows[:, horizon:], values, hems_cfg, cfg.dt_hours


def _traced_peak(call, *args) -> int:
    """Peak traced allocation of one call, after a warm-up call."""
    call(*args)
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_population_screen_memory_is_bounded():
    """One screen of a 30 x 96 population against 100 reference scenarios
    stays under 2 MB of traced allocations: the block cap bounds the
    (R, P, S) arrays of each surplus-free run."""
    p_bat, p_ewh, net_load, hems_cfg, dt = _reference_population()
    peak = _traced_peak(hems.batch_compliance, p_bat, p_ewh, net_load, hems_cfg, dt)
    assert peak < 2_000_000, f"batch_compliance peaked at {peak / 1e6:.2f} MB"


def test_population_repair_memory_is_bounded():
    """One fused screen and repair of the same 30 rows, 30 x (100 + 1) lanes
    with the reference surplus envelope as the extra row, stays under the
    same 2 MB of traced allocations."""
    p_bat, p_ewh, net_load, hems_cfg, dt = _reference_population()
    peak = _traced_peak(hems.screen_with_repair, p_bat, p_ewh, net_load, hems_cfg, dt)
    assert peak < 2_000_000, f"screen_with_repair peaked at {peak / 1e6:.2f} MB"


def _assert_offers_match(result, net_load, cfg, dt):
    """The swarm pass's offered fitness is the compliant-scenario count of a
    full `batch_compliance` of its offered rows, bit for bit: for the repair
    candidates, resumed from the pass's head, and for the other rows, as
    screened."""
    rows = result.candidates
    zero_penalty, accommodation_ok = hems.batch_compliance(result.p_bat[rows], result.p_ewh[rows], net_load, cfg, dt)
    assert zero_penalty.shape == (rows.size, net_load.shape[0])
    assert np.array_equal(result.offered_fitness[rows], np.count_nonzero(zero_penalty & accommodation_ok, axis=1))
    zero_penalty, accommodation_ok = hems.batch_compliance(result.p_bat, result.p_ewh, net_load, cfg, dt)
    assert np.array_equal(result.offered_fitness, np.count_nonzero(zero_penalty & accommodation_ok, axis=1))


class TestResumedScreen:
    """The swarm pass re-screens its repair candidates from the head it has
    just built, at the first surplus step, and must give the full screen's
    verdicts bit for bit."""

    @staticmethod
    def _check_rows(p_bat, p_ewh, net_load, cfg, dt):
        """Run the swarm pass at every threshold from 0 to S + 1, so that
        each valid repair is a candidate at some threshold; return
        `screen_with_repair` of the rows with the thermostat's heater."""
        heater = hems.comfort_repair(p_ewh, cfg.ewh, dt)[0]
        zero_penalty, compliant, fixed, valid, prefix = hems.screen_with_repair(p_bat, heater, net_load, cfg, dt)
        assert prefix.start == hems._surplus_steps(scenarios.pv_surplus(net_load))[1]
        fitness, penalty_free = compliant.sum(axis=1), zero_penalty.sum(axis=1)
        for threshold in range(net_load.shape[0] + 2):
            result = hems.swarm_pass(p_bat, p_ewh, net_load, cfg, dt, threshold)
            rows = np.flatnonzero((fitness < threshold) & (penalty_free >= threshold) & valid)
            assert np.array_equal(result.candidates, rows) and np.array_equal(result.fitness, fitness)
            assert result.p_ewh.tobytes() == heater.tobytes()
            candidate = np.isin(np.arange(p_bat.shape[0]), rows)[:, None]
            assert result.p_bat.tobytes() == np.where(candidate, fixed, p_bat).tobytes()
            _assert_offers_match(result, net_load, cfg, dt)
        return fixed, valid, prefix

    def test_reference_population(self):
        p_bat, p_ewh, net_load, hems_cfg, dt = _reference_population()
        fixed, valid, prefix = self._check_rows(p_bat, p_ewh, net_load, hems_cfg, dt)
        # Neither end of the horizon: the pass resumes mid-day, with repairs.
        assert 0 < prefix.start < net_load.shape[1]
        assert (fixed != p_bat).any(axis=1)[valid].any()

    @BLOCK_SETTINGS
    @given(block_instances())
    def test_block_instances(self, instance):
        cfg, dt, p_bat, p_ewh, net_load = instance
        self._check_rows(p_bat, p_ewh, net_load, cfg, dt)

    def test_small_config_swarm(self, monkeypatch):
        """Every pass of the small config's search, its re-screens checked
        against the full screen of the same rows."""
        cfg = cli.RunConfig.load(DATA / "config_small.json")
        scenario_set, hems_cfg = cli._instance(cfg)
        swarm_pass, rescreened = hems.swarm_pass, []

        def twin(p_bat, p_ewh, net_load, cfg, dt, threshold):
            result = swarm_pass(p_bat, p_ewh, net_load, cfg, dt, threshold)
            rescreened.append(result.candidates.size)
            _assert_offers_match(result, net_load, cfg, dt)
            return result

        monkeypatch.setattr(epso, "swarm_pass", twin)
        epso.run(cfg.epso, scenario_set, hems_cfg, cfg.dt_hours)
        first = hems._surplus_steps(scenarios.pv_surplus(scenario_set.values))[1]
        assert sum(n > 0 for n in rescreened) > 10 and 0 < first < scenario_set.horizon

    HORIZON = 2 * CAP + 2
    FIRST = CAP + 1

    @classmethod
    def _edge_instance(cls, case):
        """Four rows over 2 * CAP + 2 steps from a half-full battery. Row 0
        discharges at the first surplus step, so its repair starts there;
        row 1 discharges at a later surplus step, row 2 idles and row 3 breaks
        the charge rate before any surplus. The EWH runs at every third step."""
        cfg = hems.HemsConfig(
            battery=hems.BatteryConfig(capacity=CAPACITY, p_charge_max=P_MAX, p_discharge_max=P_MAX, soc_init=1.6),
            ewh=hems.EwhConfig(p_nom=P_NOM, theta_min=THETA_MIN, theta_max=THETA_MAX, theta_init=60.0),
        )
        first = {"step 0": 0, "none": cls.HORIZON}.get(case, cls.FIRST)
        net_load = np.full((3, cls.HORIZON), 0.4)
        if first < cls.HORIZON:
            net_load[0, first] = -0.8
            net_load[1, first + 2] = -1.0
            net_load[2, [first, first + 2]] = -0.3
        if case == "one scenario":
            net_load = net_load[:1]
        p_bat = np.zeros((4, cls.HORIZON))
        p_bat[0, first:] = -0.2
        p_bat[1, first + 2 :] = -0.2
        p_bat[3, 1] = P_MAX + 0.1
        p_ewh = np.zeros_like(p_bat)
        p_ewh[:, ::3] = P_NOM
        return cfg, p_bat, p_ewh, net_load, first

    @pytest.mark.parametrize("case", ["step 0", "none", "mid-day", "one scenario"])
    def test_edge_instances(self, case):
        cfg, p_bat, p_ewh, net_load, first = self._edge_instance(case)
        fixed, valid, prefix = self._check_rows(p_bat, p_ewh, net_load, cfg, 0.25)
        assert prefix.start == first
        verdicts = hems.batch_compliance(fixed, p_ewh, net_load, cfg, 0.25)
        assert not verdicts[0][3].any() and verdicts[0][:3].any()
        if case == "none":
            assert np.array_equal(fixed, p_bat)
        else:
            # Row 0's repair starts exactly at the first surplus step.
            assert valid[0] and fixed[0, first] == 0.0 > p_bat[0, first]
            assert np.array_equal(fixed[0, :first], p_bat[0, :first])


class TestPrefixFault:
    """A prefix's `fault` is its row's verdict on the steps before the first
    surplus step and on the tank: some simulate `soc_max`, `soc_min` or
    `charge_rate` flag before that step, or some `temp` flag anywhere. No
    surplus row absorbs before that step, so any row's surplus gives the same
    flags there. A row with a fault fails in every lane."""

    @staticmethod
    def _check(p_bat, p_ewh, net_load, cfg, dt):
        """Check each row's fault; return whether its battery broke a rule
        before the first surplus step, and whether its tank left the band."""
        envelope = scenarios.pv_surplus(net_load).max(axis=0)
        zero_penalty, *_, prefix = hems.screen_with_repair(p_bat, p_ewh, net_load, cfg, dt)
        assert prefix.fault.shape == (p_bat.shape[0], 1)
        head, tank = np.zeros((2, p_bat.shape[0]), dtype=bool)
        for p in range(p_bat.shape[0]):
            flags = hems.simulate(FlexTrajectory(p_bat=p_bat[p], p_ewh=p_ewh[p]), envelope, cfg, dt).violations
            head[p] = any(flags[name][: prefix.start].any() for name in ("soc_max", "soc_min", "charge_rate"))
            tank[p] = flags["temp"].any()
            assert prefix.fault[p, 0] == (head[p] or tank[p])
            if prefix.fault[p, 0]:
                assert not zero_penalty[p].any()
        return head, tank

    def test_seeded_reference_swarm(self):
        """The reference day's seeded first swarm has rows whose only head
        fault is the battery's, rows whose only one is the tank's, and rows
        with neither."""
        head, tank = self._check(*_seeded_swarm())
        assert (head & ~tank).any() and (tank & ~head).any() and not (head | tank).all()

    @BLOCK_SETTINGS
    @given(block_instances())
    def test_block_instances(self, instance):
        cfg, dt, p_bat, p_ewh, net_load = instance
        self._check(p_bat, p_ewh, net_load, cfg, dt)

    def test_edge_instance(self):
        """Row 3 breaks the charge rate before any surplus, the others do
        not, and the tank stays in its band."""
        cfg, p_bat, p_ewh, net_load, _ = TestResumedScreen._edge_instance("mid-day")
        head, tank = self._check(p_bat, p_ewh, net_load, cfg, 0.25)
        assert head.tolist() == [False, False, False, True] and not tank.any()


def _full_tail_screen(p_bat, p_ewh, net_load, cfg, dt):
    """`screen_with_repair` with the tail stepped for every row, head-faulted
    ones included: (zero_penalty, accommodation_ok, repaired, valid, prefix)."""
    surplus = scenarios.pv_surplus(net_load)
    surplus = np.concatenate([surplus, surplus.max(axis=0, initial=0.0)[None]])
    active, start = hems._surplus_steps(surplus)
    prefix = hems._head(p_bat, p_ewh, surplus, active, start, cfg, dt)
    flags = np.zeros((p_bat.shape[1] - start, p_bat.shape[0]), dtype=bool)
    fault, discharge = hems._tail(
        p_bat[:, start:], p_ewh[:, start:], surplus[:, start:], active[start:], prefix.soc, cfg, dt, flags
    )
    zero_penalty = ~(prefix.fault | fault)
    valid = zero_penalty[:, -1]
    discharged = np.zeros(p_bat.shape, dtype=bool)
    discharged[:, start:] = flags.T
    repaired = np.where(discharged & valid[:, None], 0.0, p_bat)
    return zero_penalty[:, :-1], ~discharge[:, :-1], repaired, valid, prefix


class TestLiveRowTail:
    """The fused pass steps the tail only for the rows whose head passed; a
    head-faulted row fails in every lane whatever its tail does. Its outputs
    must equal a full-tail screen's bit for bit, and its `compliant` must be
    `batch_compliance`'s zero_penalty & accommodation_ok."""

    @staticmethod
    def _check(p_bat, p_ewh, net_load, cfg, dt):
        """Compare the fused pass with the full-tail screen and with
        `batch_compliance`; return the pass's prefix."""
        zero_penalty, compliant, repaired, valid, prefix = hems.screen_with_repair(p_bat, p_ewh, net_load, cfg, dt)
        want_zero, want_ok, want_repaired, want_valid, want_prefix = _full_tail_screen(p_bat, p_ewh, net_load, cfg, dt)
        screened = hems.batch_compliance(p_bat, p_ewh, net_load, cfg, dt)
        assert zero_penalty.shape == compliant.shape == (p_bat.shape[0], net_load.shape[0])
        assert np.array_equal(zero_penalty, want_zero) and np.array_equal(zero_penalty, screened[0])
        assert np.array_equal(compliant, want_zero & want_ok)
        assert np.array_equal(compliant, screened[0] & screened[1])
        assert np.array_equal(valid, want_valid)
        assert repaired.shape == p_bat.shape
        assert np.array_equal(repaired.view(np.int64), want_repaired.view(np.int64))
        assert prefix.start == want_prefix.start
        for name in ("soc", "fault"):
            got, want = getattr(prefix, name), getattr(want_prefix, name)
            assert got.shape == want.shape and got.dtype == want.dtype, name
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), name
        assert not zero_penalty[prefix.fault[:, 0]].any() and not valid[prefix.fault[:, 0]].any()
        return prefix

    def test_seeded_reference_swarm(self):
        prefix = self._check(*_seeded_swarm())
        assert prefix.fault.any() and not prefix.fault.all()

    def test_every_fused_pass_of_the_small_search(self, monkeypatch):
        """The swarm's pass screens its rows with the thermostat's heater on
        the thermostat's tank path; `_check` screens the same rows with
        `screen_with_repair`."""
        cfg = cli.RunConfig.load(DATA / "config_small.json")
        scenario_set, hems_cfg = cli._instance(cfg)
        swarm_pass, faulted = hems.swarm_pass, []

        def twin(p_bat, p_ewh, net_load, cfg, dt, threshold):
            result = swarm_pass(p_bat, p_ewh, net_load, cfg, dt, threshold)
            faulted.append(int(self._check(p_bat, result.p_ewh, net_load, cfg, dt).fault.sum()))
            assert result.head_faulted == faulted[-1]
            return result

        monkeypatch.setattr(epso, "swarm_pass", twin)
        records = []
        epso.run(cfg.epso, scenario_set, hems_cfg, cfg.dt_hours, log_sink=records.append)
        assert len(faulted) == len(records) > 10 and 0 < sum(faulted)
        assert [record["head_faulted"] for record in records] == faulted

    def test_every_row_head_faulted(self):
        """The heater always on drives every tank above its band."""
        p_bat, p_ewh, net_load, cfg, dt = _reference_population()
        p_ewh = np.full_like(p_ewh, cfg.ewh.p_nom)
        prefix = self._check(p_bat, p_ewh, net_load, cfg, dt)
        assert prefix.fault.all()

    @pytest.mark.parametrize("population", ["gentle", "live rows of the swarm"])
    def test_no_row_head_faulted(self, population):
        """The seeded gentle population, and the rows of the seeded swarm
        whose head passed."""
        if population == "gentle":
            p_bat, p_ewh, net_load, cfg, dt = _reference_population()
        else:
            p_bat, p_ewh, net_load, cfg, dt = _seeded_swarm()
        live = ~hems.screen_with_repair(p_bat, p_ewh, net_load, cfg, dt)[-1].fault[:, 0]
        prefix = self._check(p_bat[live], p_ewh[live], net_load, cfg, dt)
        assert live.sum() > 1 and not prefix.fault.any()

    def test_rows_without_surplus(self):
        """No net-load row has surplus, so neither has their envelope: the
        head is the whole horizon and the tail has no step."""
        p_bat, p_ewh, net_load, cfg, dt = _seeded_swarm()
        net_load = np.abs(net_load) + 0.1
        prefix = self._check(p_bat, p_ewh, net_load, cfg, dt)
        assert prefix.start == net_load.shape[1] and prefix.fault.any() and not prefix.fault.all()

    def test_empty_horizon(self):
        cfg = TestResumedScreen._edge_instance("none")[0]
        empty, rows = np.zeros((2, 0)), np.zeros((3, 0))
        prefix = self._check(empty, empty, rows, cfg, 0.25)
        assert prefix.start == 0 and not prefix.fault.any()

    def test_no_net_load_rows(self):
        """With no net-load row the envelope is all zero, as in the test above."""
        p_bat, p_ewh, net_load, cfg, dt = _seeded_swarm()
        prefix = self._check(p_bat, p_ewh, net_load[:0], cfg, dt)
        assert prefix.fault.any() and not prefix.fault.all()

    def test_fused_tail_steps_exactly_the_live_rows(self, monkeypatch):
        """The fused pass steps the head for every row and the tail for the
        live rows only; the swarm pass's re-screen steps the tail alone, for
        each repair candidate, from a view of their repaired rows, not a copy."""
        p_bat, p_ewh, net_load, cfg, dt = _seeded_swarm()
        lane_steps, seen = hems._lane_steps, []

        def spy(p_bat, p_ewh, *args):
            seen.append((p_bat, p_ewh))
            return lane_steps(p_bat, p_ewh, *args)

        monkeypatch.setattr(hems, "_lane_steps", spy)
        *_, prefix = hems.screen_with_repair(p_bat, p_ewh, net_load, cfg, dt)
        live = np.flatnonzero(~prefix.fault[:, 0])
        start = prefix.start
        assert 0 < live.size < p_bat.shape[0] and 0 < start < p_bat.shape[1]
        assert len(seen) == 2
        assert np.array_equal(seen[0][0], p_bat[:, :start]) and np.array_equal(seen[1][0], p_bat[live, start:])
        seen.clear()
        result = hems.swarm_pass(p_bat, p_ewh, net_load, cfg, dt, epso.robust_threshold(len(net_load), 0.9))
        rows = result.candidates
        assert rows.size > 0 and len(seen) == 3
        bat, ewh = seen[-1]
        assert np.array_equal(bat, result.p_bat[rows, start:]) and np.array_equal(ewh, result.p_ewh[rows, start:])
        assert not bat.flags.owndata
