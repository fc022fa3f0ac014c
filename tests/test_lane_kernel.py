"""Population-wide screening and repair: a (P, S) kernel call must agree with
row-by-row calls and with the independent oracle, including states that sit
exactly on, or within EPS of, a constraint limit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hemsflex import analysis, hems, scenarios
from hemsflex.hems import EPS, FlexTrajectory

CAPACITY = 3.2
P_MAX = 1.5
P_NOM = 0.5
SOC_MIN = 0.15 * CAPACITY
KNEE = 0.8 * CAPACITY
THETA_MIN, THETA_MAX = 45.0, 80.0

# Surplus powers around the absorption rule's edges: the EPS threshold on the
# supposed absorption and the EWH rating that the net surplus is taken after.
SURPLUS_EDGES = [EPS / 2, EPS, 2 * EPS, P_NOM, P_NOM + EPS, P_NOM + 2 * EPS, P_MAX, 3.0]

# Discharge ratings: equal to the charge rating, and below it, so that a rule
# reading one rating where the other belongs changes a verdict.
DISCHARGE_RATINGS = [P_MAX, 1.0]

PROPERTY_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def _first_step_edges(soc_init: float, efficiency: float, dt: float, limit: float) -> list[float]:
    """Battery powers that put the first step on, or within EPS of, each rule's
    limit when nothing is absorbed."""
    to_max = (CAPACITY - soc_init) / (efficiency * dt)
    to_min = -(soc_init - SOC_MIN) * efficiency / dt
    slack = EPS / (efficiency * dt)
    return [
        limit - EPS, limit, limit + EPS, limit + 2 * EPS,
        to_max - slack, to_max, to_max + slack, to_max + 2 * slack,
        to_min - 2 * slack, to_min - slack, to_min, to_min + slack,
        0.0, -0.0, -EPS / 2, -EPS, -2 * EPS,
        P_MAX, -P_MAX,
    ]


@st.composite
def lane_instances(draw):
    """A HEMS, a population of trajectories and net-load rows, biased toward
    constraint edges; surplus is present everywhere, nowhere, or mixed."""
    dt = draw(st.sampled_from([0.25, 1.0]))
    efficiency = draw(st.sampled_from([1.0, 0.925]))
    soc_init = draw(
        st.sampled_from([SOC_MIN, SOC_MIN + EPS, KNEE - EPS, KNEE, KNEE + EPS, CAPACITY - EPS, CAPACITY])
        | st.floats(SOC_MIN, CAPACITY)
    )
    battery = hems.BatteryConfig(
        capacity=CAPACITY, p_charge_max=P_MAX, p_discharge_max=draw(st.sampled_from(DISCHARGE_RATINGS)),
        soc_init=soc_init, efficiency=efficiency,
    )
    horizon = draw(st.integers(1, 12))
    n_traj = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 4))
    theta_init = draw(st.sampled_from([THETA_MIN, THETA_MIN + EPS, 60.0, THETA_MAX - EPS, THETA_MAX]))
    draws = draw(arrays(float, horizon, elements=st.sampled_from([0.0, 1.0, 10.0])))
    cfg = hems.HemsConfig(
        battery=battery,
        ewh=hems.EwhConfig(
            p_nom=P_NOM, theta_min=THETA_MIN, theta_max=THETA_MAX,
            theta_init=theta_init, draw_profile=draws,
        ),
    )

    limit = float(hems._charge_limiter(battery)(soc_init))
    power = st.sampled_from(_first_step_edges(soc_init, efficiency, dt, limit)) | st.floats(-P_MAX, P_MAX)
    p_bat = draw(arrays(float, (n_traj, horizon), elements=power))
    p_ewh = draw(arrays(float, (n_traj, horizon), elements=st.sampled_from([0.0, P_NOM])))

    surplus = st.sampled_from(SURPLUS_EDGES) | st.floats(EPS / 4, 3.0)
    load = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 2.0)
    mode = draw(st.sampled_from(["all", "none", "mixed"]))
    if mode == "all":
        step = surplus.map(lambda s: -s)
    elif mode == "none":
        step = load
    else:
        step = surplus.map(lambda s: -s) | load
    net_load = draw(arrays(float, (n_rows, horizon), elements=step))
    return cfg, dt, p_bat, p_ewh, net_load


# Offsets from a limit, in units of EPS, that the edge instances land on.
OFFSETS = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
# Rules whose edge is set by one power of each trajectory.
PER_TRAJECTORY = (
    "charge_rate", "taper_floor", "soc_max", "soc_min", "discharge", "recovery", "theta_min", "theta_max"
)


@st.composite
def edge_instances(draw):
    """Instances whose first step lands each trajectory a few EPS from one
    rule's limit (the charging taper from the knee up, SoC bounds, both sides
    of the discharge rule, the tank band) and keeps every other rule slack, so
    the verdict turns on that comparison alone. The taper-floor rule charges
    from a full or nearly full battery, around the floor above which the
    kernel evaluates the taper, in steps so short that SoC stays in its band.
    The headroom rule instead starts the battery empty amid hours of steady
    surplus and lets each trajectory discharge once, at its own step: the
    verdict turns on whether the tracker has run dry by then. The recovery
    rule drains the tracker in two surplus steps, then each trajectory
    discharges a few EPS around the discharge rating in one surplus-free step
    before surplus returns: the verdict turns on how much headroom the
    tracker won back."""
    rule = draw(
        st.sampled_from(
            ["charge_rate", "taper_floor", "soc_max", "soc_min", "absorb", "discharge", "headroom", "recovery",
             "theta_min", "theta_max"]
        )
    )
    dt = {"charge_rate": 0.25, "taper_floor": 2.0**-32, "headroom": 1.0, "recovery": 1.0}.get(rule) or draw(
        st.sampled_from([0.25, 1.0])
    )
    efficiency = draw(st.sampled_from([1.0, 0.925]))
    horizon = draw(st.integers(4 if rule == "recovery" else 1, 8))
    # Where the edge is per trajectory or per row, the population or the row
    # set covers every offset, or every discharge step, once.
    if rule in PER_TRAJECTORY:
        n_traj = len(OFFSETS)
    elif rule == "headroom":
        n_traj = horizon
    else:
        n_traj = draw(st.integers(1, 4))
    n_rows = len(OFFSETS) if rule == "absorb" else draw(st.integers(1, 4))
    soc_init = {
        "charge_rate": st.sampled_from([KNEE - EPS, KNEE, KNEE + EPS, 2.8, 3.0]),
        "taper_floor": st.sampled_from([CAPACITY, CAPACITY - EPS, CAPACITY - 1e-6]),
        "soc_max": st.sampled_from([KNEE, CAPACITY - 0.1, CAPACITY]),
        "soc_min": st.sampled_from([SOC_MIN, SOC_MIN + 0.1, 1.0]),
        "headroom": st.just(SOC_MIN),
        "recovery": st.just(SOC_MIN),
    }.get(rule, st.just(1.92))
    soc_init = draw(soc_init)
    battery = hems.BatteryConfig(
        capacity=CAPACITY, p_charge_max=P_MAX, p_discharge_max=draw(st.sampled_from(DISCHARGE_RATINGS)),
        soc_init=soc_init, efficiency=efficiency,
    )

    draws = draw(arrays(float, horizon, elements=st.sampled_from([0.0, 1.0, 10.0])))
    # Tank rules start a few degrees inside the band, and after the edge step
    # the heater drives the tank back inside it.
    theta_init = {"theta_min": 50.0, "theta_max": 75.0}.get(rule, 60.0)
    heat = np.full(horizon, P_NOM if rule == "theta_min" else 0.0)
    cfg = hems.HemsConfig(
        battery=battery,
        ewh=hems.EwhConfig(
            p_nom=P_NOM, theta_min=THETA_MIN, theta_max=THETA_MAX,
            theta_init=theta_init, draw_profile=draws,
        ),
    )

    p_bat = np.zeros((n_traj, horizon))
    p_ewh = np.tile(heat, (n_traj, 1))
    net_load = draw(arrays(float, (n_rows, horizon), elements=st.sampled_from([0.0, -0.0]) | st.floats(0.0, 2.0)))
    for p in range(n_traj):
        k = OFFSETS[p] * EPS
        if rule in ("charge_rate", "taper_floor"):
            p_bat[p, 0] = float(hems._charge_limiter(battery)(soc_init)) + k
        elif rule == "soc_max":
            p_bat[p, 0] = (CAPACITY + k - soc_init) / (efficiency * dt)
        elif rule == "soc_min":
            p_bat[p, 0] = (SOC_MIN - k - soc_init) * efficiency / dt
        elif rule == "absorb":
            p_bat[p, 0] = -0.1
            p_ewh[p, 0] = draw(st.sampled_from([0.0, P_NOM]))
        elif rule == "discharge":
            p_bat[p, 0] = -k
        elif rule == "headroom":
            p_bat[p, p] = -0.1
        elif rule == "recovery":
            p_bat[p, 2] = -(battery.p_discharge_max + k)
        elif rule in ("theta_min", "theta_max"):
            # a first-step heater power, continuous here, that lands the tank
            # at the offset beyond the floor or the ceiling
            target = THETA_MIN - k if rule == "theta_min" else THETA_MAX + k
            ewh = cfg.ewh
            p_ewh[p, 0] = (
                (target - theta_init) * ewh.thermal_capacity / dt
                + ewh.alpha_mag * (theta_init - ewh.theta_house)
                + ewh.c_p * draws[0] * (ewh.theta_des - ewh.theta_inl)
            )
    for s in range(n_rows):
        if rule == "absorb":
            # a few EPS above the heater's draw: the absorption sits at the
            # rule's EPS threshold
            surplus = draw(st.sampled_from([0.0, P_NOM])) + OFFSETS[s] * EPS
        elif rule == "discharge":
            surplus = draw(st.sampled_from([0.3, P_NOM]))
        elif rule == "headroom":
            # steady surplus, above the charge rate or not, after up to two
            # surplus-free steps in which the full tracker must not grow
            net_load[s] = -draw(st.sampled_from([P_NOM, 1.0, P_MAX, 2.0, 3.0]) | st.floats(P_NOM, 3.0))
            net_load[s, : draw(st.integers(0, 2))] = 0.0
            continue
        elif rule == "recovery":
            net_load[s] = -draw(st.sampled_from([P_MAX, 2.0, 3.0]) | st.floats(P_MAX, 3.0))
            net_load[s, 2] = 0.0
            continue
        else:
            continue
        if draw(st.booleans()):
            net_load[s, :] = -surplus
        else:
            net_load[s, 0] = -surplus
    return cfg, dt, p_bat, p_ewh, net_load


class TestPopulationScreen:
    @PROPERTY_SETTINGS
    @given(lane_instances() | edge_instances())
    def test_matches_row_calls_and_oracle(self, instance):
        cfg, dt, p_bat, p_ewh, net_load = instance
        draws = cfg.ewh.draws(p_bat.shape[1])
        zero_penalty, accommodation_ok = hems.batch_compliance(p_bat, p_ewh, net_load, draws, cfg, dt)
        assert zero_penalty.shape == accommodation_ok.shape == (p_bat.shape[0], net_load.shape[0])
        for p in range(p_bat.shape[0]):
            row_zero, row_ok = hems.batch_compliance(p_bat[p : p + 1], p_ewh[p : p + 1], net_load, draws, cfg, dt)
            assert row_zero.shape == (1, net_load.shape[0])
            assert np.array_equal(zero_penalty[p], row_zero[0])
            assert np.array_equal(accommodation_ok[p], row_ok[0])
            traj = FlexTrajectory(p_bat=p_bat[p], p_ewh=p_ewh[p])
            for s in range(net_load.shape[0]):
                oracle = analysis.oracle_check(traj, scenarios.ScenarioSet(net_load[s : s + 1]), cfg, dt)
                assert bool(zero_penalty[p, s] and accommodation_ok[p, s]) == (oracle == 1)

    def test_rejects_mismatched_horizons(self, hems_reference):
        with pytest.raises(ValueError):
            hems.batch_compliance(np.zeros((2, 4)), np.zeros((2, 5)), np.zeros((3, 4)), np.zeros(4), hems_reference, 0.25)
        with pytest.raises(ValueError):
            hems.batch_compliance(np.zeros((2, 4)), np.zeros((2, 4)), np.zeros((3, 5)), np.zeros(5), hems_reference, 0.25)

    def test_empty_horizon_passes_every_lane(self, hems_reference):
        # With no steps no rule can fail, and repair has nothing to change.
        empty, rows, none = np.zeros((2, 0)), np.zeros((3, 0)), np.zeros(0)
        verdicts = hems.batch_compliance(empty, empty, rows, none, hems_reference, 0.25)
        assert [v.tolist() for v in verdicts] == [[[True] * 3] * 2] * 2
        zero_penalty, compliant, repaired, valid, _ = hems.screen_with_repair(
            empty, empty, rows, none, none, hems_reference, 0.25
        )
        assert np.array_equal(zero_penalty, verdicts[0])
        assert np.array_equal(compliant, verdicts[0] & verdicts[1])
        assert repaired.shape == (2, 0) and valid.tolist() == [True, True]


class TestBatchRepair:
    @staticmethod
    def _assert_matches_rows(p_bat, p_ewh, net_load, surplus, cfg, dt) -> tuple[int, int]:
        """Compare the batched repair of the fused screen, stepped next to the
        net-load rows, with per-row repair_trajectory; return the number of
        rejected rows and of changed rows."""
        draws = cfg.ewh.draws(p_bat.shape[1])
        _, _, fixed, valid, _ = hems.screen_with_repair(p_bat, p_ewh, net_load, surplus, draws, cfg, dt)
        rejected = changed = 0
        for p in range(p_bat.shape[0]):
            traj = FlexTrajectory(p_bat=p_bat[p], p_ewh=p_ewh[p])
            try:
                repaired = hems.repair_trajectory(traj, surplus, cfg, dt)
            except ValueError:
                assert not valid[p]
                assert np.array_equal(fixed[p], p_bat[p])
                rejected += 1
                continue
            assert valid[p]
            assert np.array_equal(fixed[p], repaired.p_bat)
            changed += repaired is not traj
        return rejected, changed

    @PROPERTY_SETTINGS
    @given(lane_instances() | edge_instances())
    def test_matches_per_row_repair_at_edges(self, instance):
        cfg, dt, p_bat, p_ewh, net_load = instance
        envelope = np.maximum(0.0, -net_load).max(axis=0)
        self._assert_matches_rows(p_bat, p_ewh, net_load, envelope, cfg, dt)

    def test_matches_per_row_repair_on_random_population(self, small_instance):
        scenario_set, cfg = small_instance
        rng = np.random.default_rng(41)
        p_bat = rng.uniform(-1.5, 1.5, (300, 16))
        p_ewh = np.where(rng.random((300, 16)) < 0.2, 0.5, 0.0)
        surplus = np.maximum(0.0, -scenario_set.values[0])
        rejected, changed = self._assert_matches_rows(p_bat, p_ewh, scenario_set.values, surplus, cfg, 0.25)
        # both outcomes actually occur in the population
        assert rejected > 10 and changed > 10


@st.composite
def prefix_instances(draw):
    """A lane instance whose rows start their surplus at different steps: at
    step 0, mid-horizon, the last step, a drawn step, or never; every load
    before a row's first surplus step is non-negative. One trajectory per step
    is added that discharges far past the SoC floor at that step, so that
    walks break both inside the rows' shared surplus-free prefix and after
    it."""
    cfg, dt, p_bat, p_ewh, net_load = draw(lane_instances())
    horizon = p_bat.shape[1]
    for row in net_load:
        first = draw(st.sampled_from([0, horizon // 2, horizon - 1, None]) | st.integers(0, horizon - 1))
        stop = horizon if first is None else first
        row[:stop] = np.where(row[:stop] < 0.0, -row[:stop], row[:stop])
        if first is not None:
            row[first] = -draw(st.sampled_from(SURPLUS_EDGES))
    breakers = np.tile(p_bat[0], (horizon, 1))
    breakers[np.arange(horizon), np.arange(horizon)] = -20.0
    return (
        cfg, dt, np.vstack([p_bat, breakers]), np.vstack([p_ewh, np.tile(p_ewh[0], (horizon, 1))]), net_load,
    )


class TestOracleSharedPrefix:
    @PROPERTY_SETTINGS
    @given(prefix_instances())
    def test_multi_row_count_is_the_sum_of_row_counts(self, instance):
        # A one-row set shares its prefix with no other row, so the per-row
        # counts check the walk that the rows of one set share.
        cfg, dt, p_bat, p_ewh, net_load = instance
        oracle = analysis._oracle(cfg, scenarios.ScenarioSet(net_load), dt)
        row_oracles = [analysis._oracle(cfg, scenarios.ScenarioSet(row[None, :]), dt) for row in net_load]
        for pb, pe in zip(p_bat.tolist(), p_ewh.tolist()):
            expected = sum(row_oracle(pb, pe) for row_oracle in row_oracles)
            assert oracle(pb, pe) == expected
            for threshold in range(net_load.shape[0] + 2):
                assert (oracle(pb, pe, threshold) >= threshold) == (expected >= threshold)


# Finite powers and net loads at the ends of the float range, and signed zeros.
EXTREMES = [np.finfo(float).max, -np.finfo(float).max, 1e308, -1e308, 0.0, -0.0]


@st.composite
def extreme_instances(draw):
    """Quarter-hour instances whose battery powers and net loads are drawn
    from EXTREMES as often as from ordinary values."""
    battery = hems.BatteryConfig(
        capacity=CAPACITY, p_charge_max=P_MAX, p_discharge_max=draw(st.sampled_from(DISCHARGE_RATINGS)),
        soc_init=draw(st.sampled_from([SOC_MIN, KNEE, CAPACITY])), efficiency=draw(st.sampled_from([1.0, 0.925])),
    )
    cfg = hems.HemsConfig(
        battery=battery, ewh=hems.EwhConfig(p_nom=P_NOM, theta_min=THETA_MIN, theta_max=THETA_MAX, theta_init=60.0)
    )
    horizon = draw(st.integers(1, 12))
    value = st.sampled_from(EXTREMES) | st.floats(-2.0, 2.0)
    p_bat = draw(arrays(float, (draw(st.integers(1, 4)), horizon), elements=value))
    p_ewh = draw(arrays(float, p_bat.shape, elements=st.sampled_from([0.0, P_NOM])))
    net_load = draw(arrays(float, (draw(st.integers(1, 4)), horizon), elements=value))
    return cfg, p_bat, p_ewh, net_load


class TestExtremeFiniteInput:
    """`hems._faults` tests the SoC band on each lane's extremes with np.max
    and np.min, which a NaN SoC would turn NaN. Finite input at quarter-hour
    steps overflows SoC to ±inf at most, never to NaN, and the screens keep
    agreeing with the oracle lane for lane."""

    @PROPERTY_SETTINGS
    @given(extreme_instances())
    def test_screens_match_the_oracle_and_no_soc_is_nan(self, instance):
        cfg, p_bat, p_ewh, net_load = instance
        dt, draws = 0.25, cfg.ewh.draws(p_bat.shape[1])
        surplus = scenarios.pv_surplus(net_load)
        with np.errstate(over="ignore"):
            zero_penalty, accommodation_ok = hems.batch_compliance(p_bat, p_ewh, net_load, draws, cfg, dt)
            fused = hems.screen_with_repair(p_bat, p_ewh, net_load, surplus.max(axis=0), draws, cfg, dt)
            soc = np.full((p_bat.shape[0], 1), cfg.battery.soc_init)
            blocks = hems._lane_steps(p_bat, p_ewh, surplus, hems._surplus_steps(surplus)[0], cfg, dt, soc)
            assert not any(np.isnan(block.soc).any() for block in blocks)
        assert np.array_equal(fused[0], zero_penalty) and np.array_equal(fused[1], zero_penalty & accommodation_ok)
        for p in range(p_bat.shape[0]):
            traj = FlexTrajectory(p_bat=p_bat[p], p_ewh=p_ewh[p])
            for s in range(net_load.shape[0]):
                oracle = analysis.oracle_check(traj, scenarios.ScenarioSet(net_load[s : s + 1]), cfg, dt)
                assert bool(zero_penalty[p, s] and accommodation_ok[p, s]) == (oracle == 1)

    def test_a_nan_soc_comes_only_after_a_charge_rate_fault(self):
        """At hour steps two charges at the largest float overflow SoC to
        +inf, and a discharge at it then adds -inf: SoC turns NaN, but the
        first charge already broke the rate, so both routes fail the lane."""
        battery = hems.BatteryConfig(capacity=CAPACITY, p_charge_max=P_MAX, p_discharge_max=P_MAX, soc_init=KNEE)
        cfg = hems.HemsConfig(
            battery=battery, ewh=hems.EwhConfig(p_nom=P_NOM, theta_min=THETA_MIN, theta_max=THETA_MAX, theta_init=60.0)
        )
        big = np.finfo(float).max
        p_bat, p_ewh, net_load = np.array([[big, big, -big, 0.0]]), np.zeros((1, 4)), np.full((1, 4), 0.4)
        with np.errstate(over="ignore", invalid="ignore"):
            result = hems.simulate(FlexTrajectory(p_bat[0], p_ewh[0]), np.zeros(4), cfg, 1.0)
            zero_penalty, _ = hems.batch_compliance(p_bat, p_ewh, net_load, np.zeros(4), cfg, 1.0)
        assert result.soc[1] == np.inf and np.isnan(result.soc[2:]).all()
        assert result.violations["charge_rate"][0] and not zero_penalty[0, 0]
        assert analysis.oracle_check(FlexTrajectory(p_bat[0], p_ewh[0]), scenarios.ScenarioSet(net_load), cfg, 1.0) == 0
