"""The input contract as a property: a file the CLI reads, with one or two of
its JSON leaves, CSV cells or CSV header fields replaced by a hostile value,
makes the cheapest command that parses it exit 0, or exit 2 with a message
that names the key or the file. A `train` that exits 0 leaves a finite model
whose training rows do not all score the same r2. The in-process entry points
reject a NaN or ±inf anywhere in an array argument, naming the argument."""

import contextlib
import io
import json
import re
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemsflex import analysis, cli, epso, hems, scenarios, svdd
from hemsflex.hems import FlexTrajectory
from tests.conftest import example_inputs, make_marginals

# Hostile values, and finite ones far from the defaults that should still be
# taken or rejected cleanly.
JSON_VALUES = [True, False, None, 0, 0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e308, -1e308,
               "x", "", [], {}, 3, 0.5, 1e6, -1e6, 1e-300]
CELL_VALUES = ["nan", "inf", "-inf", "1e308", "-1e308", "0", "-0", "1.0", "1.5", "-1", "", "x", "true", "#",
               '"1"', "1;2"]
HEADER_VALUES = ["", "x", "h0", "t", "fitness", "pbat_h1", " h1"]

# Derandomized, so every run tries the same mutants.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A 12-step instance with every input file and the outputs each command
    reads: scenarios, a 40-row trajectory set and a model trained on it."""
    root = tmp_path_factory.mktemp("contract")
    work = root / "base"
    work.mkdir()
    profile = np.concatenate([np.full(4, 0.4), np.linspace(0.1, -0.25, 4), np.full(4, 0.5)])
    example_inputs.write_marginals_csv(work / "marginals.csv", make_marginals(profile, sigma=0.06))
    example_inputs.write_draw_profile_csv(work / "draws.csv", np.full(12, 1.0))
    example_inputs.write_hems_json(work / "hems.json", hems.HemsConfig(
        battery=hems.BatteryConfig(capacity=3.2, p_charge_max=1.5, p_discharge_max=1.5, soc_init=1.92),
        ewh=hems.EwhConfig(p_nom=0.5, theta_min=45.0, theta_max=80.0, theta_init=60.0),
    ))
    config = {
        "dt_hours": 0.25,
        "seed": 17,
        "out_dir": "out",
        "paths": {"marginals": "marginals.csv", "hems": "hems.json", "draws": "draws.csv"},
        "copula": {"count": 15, "nu_cov": 4.0},
        "epso": {"pop_size": 4, "max_iters": 2, "target_feasible": 1, "tau_scen": 0.9},
        "svdd": {"kernel": {"kind": "sigmoid", "gamma": 0.05, "degree": 3, "coef0": 0.0}, "nu": 0.15},
        "validate": {
            "window": [4, 8],
            "sweep_kernels": [{"kind": "rbf", "gamma": 0.5, "degree": 3, "coef0": 0.0}],
            "sweep_nus": [0.1],
            "infeasible_count": 5,
            "baseline_count": 5,
        },
    }
    (work / "config.json").write_text(json.dumps(config, indent=2))
    assert run(work, "gen-scenarios")[0] == 0
    rng = np.random.default_rng(3)
    trajectories = [
        FlexTrajectory(rng.uniform(-1.5, 1.5, 12), np.where(rng.random(12) < 0.3, 0.5, 0.0)) for _ in range(40)
    ]
    epso.write_trajectories_csv(work / "out" / "feasible.csv", trajectories, [14] * 40)
    assert run(work, "train")[0] == 0
    return root


def run(work, *args):
    """Exit code and stderr of one in-process CLI call on `work`. numpy's
    overflow and invalid-value warnings on extreme but finite values are
    expected here, so they are silenced rather than raised."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli.main(["--config", str(work / "config.json"), *args])
    return code, err.getvalue()


def fresh(root, name="mutant"):
    """A copy of the base instance to mutate."""
    work = root / name
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(root / "base", work)
    return work


def leaves(doc, path=()):
    """Paths to the scalar leaves of a JSON document, list elements included."""
    if isinstance(doc, dict):
        return [p for key, value in doc.items() for p in leaves(value, path + (key,))]
    if isinstance(doc, list):
        return [p for i, value in enumerate(doc) for p in leaves(value, path + (i,))]
    return [path]


def set_leaf(doc, path, value):
    for part in path[:-1]:
        doc = doc[part]
    doc[path[-1]] = value


def mutate_json(draw, path, keep=lambda leaf: True):
    """Replace one or two leaves of a JSON file, drawn among those `keep`
    passes, with hostile values; returns the (leaf, value) pairs."""
    doc = json.loads(path.read_text())
    paths = [leaf for leaf in leaves(doc) if keep(leaf)]
    mutations = draw(st.lists(st.tuples(st.sampled_from(paths), st.sampled_from(JSON_VALUES)), min_size=1,
                              max_size=2))
    for leaf, value in mutations:
        set_leaf(doc, leaf, value)
    path.write_text(json.dumps(doc))
    return mutations


def csv_mutations(draw, path):
    """Up to two cell or header-field replacements of a CSV file's text."""
    lines = path.read_text().splitlines()
    for _ in range(draw(st.integers(1, 2))):
        row = draw(st.integers(0, len(lines) - 1))
        cells = lines[row].split(",")
        col = draw(st.integers(0, len(cells) - 1))
        cells[col] = draw(st.sampled_from(HEADER_VALUES if row == 0 else CELL_VALUES))
        lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def assert_contract(code, err, names):
    assert code in (0, 2), err
    if code == 2:
        assert any(name in err for name in names), err


def names(mutations, file_name):
    """What a message may name: a mutated key, or the file."""
    return [[part for part in leaf if isinstance(part, str)][-1] for leaf, _ in mutations] + [file_name]


@PROPERTY
@given(st.data())
def test_run_config_leaves(base, data):
    work = fresh(base)
    mutations = mutate_json(data.draw, work / "config.json")
    code, err = run(work, "gen-scenarios")
    assert_contract(code, err, names(mutations, "config.json"))


@PROPERTY
@given(st.data())
def test_hems_config_leaves(base, data):
    work = fresh(base)
    mutations = mutate_json(data.draw, work / "hems.json")
    code, err = run(work, "search")
    assert_contract(code, err, names(mutations, "hems.json"))


@PROPERTY
@given(st.data())
def test_model_file_leaves(base, data):
    work = fresh(base)
    model = work / "out" / "model.json"
    # The first row of each matrix stands for all its rows.
    mutations = mutate_json(
        data.draw, model, keep=lambda leaf: leaf[0] not in ("norm_bounds", "support_vectors") or leaf[1] == 0
    )
    code, err = run(work, "classify", "--model", str(model), "--input", str(work / "out" / "feasible.csv"))
    assert_contract(code, err, names(mutations, "model file"))


@PROPERTY
@given(st.data())
def test_train_gives_a_usable_model_or_exits_two(base, data):
    work = fresh(base)
    mutations = mutate_json(data.draw, work / "config.json", keep=lambda leaf: leaf[0] == "svdd")
    code, err = run(work, "train")
    assert_contract(code, err, names(mutations, "config.json"))
    if code == 0:
        model = svdd.load_model(work / "out" / "model.json")
        trajectories, _ = epso.read_trajectories_csv(work / "out" / "feasible.csv")
        r2 = svdd.score_trajectories(model, trajectories.matrix)
        assert np.isfinite(r2).all() and r2.min() < r2.max()


@pytest.mark.parametrize(
    "name, command",
    [("marginals.csv", ["gen-scenarios"]), ("out/scenarios.csv", ["search"]), ("draws.csv", ["search"]),
     ("out/feasible.csv", ["classify", "--model", "{work}/out/model.json", "--input", "{work}/out/feasible.csv"])],
)
def test_csv_cells_and_headers(base, name, command):
    @PROPERTY
    @given(st.data())
    def check(data):
        work = fresh(base)
        csv_mutations(data.draw, work / name)
        code, err = run(work, *(arg.format(work=work) for arg in command))
        assert_contract(code, err, [name.split("/")[-1]])

    check()


# The in-process entry points, each with the array arguments it checks and a
# call of it on a dict of those arrays.
HORIZON = 6
HEMS = hems.HemsConfig(
    battery=hems.BatteryConfig(capacity=3.2, p_charge_max=1.5, p_discharge_max=1.5, soc_init=1.92),
    ewh=hems.EwhConfig(p_nom=0.5, theta_min=45.0, theta_max=80.0, theta_init=60.0),
)


def entry_arrays(entry):
    """Finite arguments that every entry point below takes without error; a
    `FlexTrajectory` takes one row of the screens' `p_bat` and `p_ewh`."""
    rng = np.random.default_rng(41)
    net_load = np.tile(np.r_[0.4, 0.4, -0.3, -0.6, 0.4, 0.4], (3, 1))
    arrays = {
        "p_bat": rng.uniform(-0.3, 0.3, (2, HORIZON)), "p_ewh": np.zeros((2, HORIZON)),
        "net_load": net_load, "surplus": scenarios.pv_surplus(net_load[0]),
        "matrix": rng.uniform(-0.3, 0.3, (3, 2 * HORIZON)), "row": rng.uniform(-0.3, 0.3, 2 * HORIZON),
        "traj": np.r_[rng.uniform(-0.1, 0.1, HORIZON), np.zeros(HORIZON)], "scenarios": net_load,
        "vectors": rng.random((8, 4)), "norm_bounds": np.tile([0.0, 1.0], (4, 1)),
        "z": rng.standard_normal((4, 3)),
    }
    if entry == "FlexTrajectory":
        arrays["p_bat"], arrays["p_ewh"] = arrays["p_bat"][0], arrays["p_ewh"][0]
    return arrays


def offer(arrays):
    """`FeasibleSet.add` of the row to a one-member set, which must be left
    as it was when the row is refused."""
    fs = epso.FeasibleSet(HORIZON)
    fs.add(np.zeros(2 * HORIZON), 1)

    def state():
        return fs.trajectories.matrix.tobytes(), list(fs.fitnesses), fs.mean.tobytes(), fs.distances().tobytes()

    before = state()
    try:
        fs.add(arrays["row"], 2)
    except ValueError:
        assert state() == before
        raise


def traj(arrays):
    return FlexTrajectory(arrays["traj"][:HORIZON], arrays["traj"][HORIZON:])


ENTRY_POINTS = {
    "batch_compliance": (("p_bat", "p_ewh", "net_load"), lambda a: hems.batch_compliance(
        a["p_bat"], a["p_ewh"], a["net_load"], HEMS, 0.25)),
    "screen_with_repair": (("p_bat", "p_ewh", "net_load"), lambda a: hems.screen_with_repair(
        a["p_bat"], a["p_ewh"], a["net_load"], HEMS, 0.25)),
    "swarm_pass": (("p_bat", "p_ewh", "net_load"), lambda a: hems.swarm_pass(
        a["p_bat"], a["p_ewh"], a["net_load"], HEMS, 0.25, 3)),
    "comfort_repair": (("p_ewh",), lambda a: hems.comfort_repair(a["p_ewh"], HEMS.ewh, 0.25)),
    "FlexTrajectory": (("p_bat", "p_ewh"), lambda a: FlexTrajectory(a["p_bat"], a["p_ewh"])),
    "TrajectorySet": (("matrix",), lambda a: hems.TrajectorySet(a["matrix"])),
    "ScenarioSet": (("scenarios",), lambda a: scenarios.ScenarioSet(a["scenarios"])),
    "FeasibleSet.add": (("row",), offer),
    # The oracle checks nothing itself: its trajectory and scenario set did
    # when they were built.
    "oracle_check": (("scenarios",), lambda a: analysis.oracle_check(
        traj(a), scenarios.ScenarioSet(a["scenarios"]), HEMS, 0.25)),
    "train": (("vectors", "norm_bounds"), lambda a: svdd.train(
        a["vectors"], svdd.KernelSpec("rbf", gamma=0.5), svdd.TrainingConfig(nu=0.2), a["norm_bounds"])),
    "simulate": (("surplus",), lambda a: hems.simulate(traj(a), a["surplus"], HEMS, 0.25)),
    "pv_accommodation": (("surplus",), lambda a: hems.pv_accommodation(traj(a), a["surplus"], HEMS, 0.25)),
    "repair_trajectory": (("surplus",), lambda a: hems.repair_trajectory(traj(a), a["surplus"], HEMS, 0.25)),
    "transform_to_scenarios": (("z",), lambda a: scenarios.transform_to_scenarios(
        a["z"], [scenarios.MarginalForecast(t, [0.25, 0.75], [-1.0, 1.0]) for t in (1, 2, 3)])),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry, name", [(entry, name) for entry, (names, _) in ENTRY_POINTS.items() for name in names])
def test_in_process_arrays_must_be_finite(entry, name, value):
    call = ENTRY_POINTS[entry][1]
    call(entry_arrays(entry))

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        arrays = entry_arrays(entry)
        bad = arrays[name]
        index = np.unravel_index(data.draw(st.integers(0, bad.size - 1), label="position"), bad.shape)
        bad[index] = value
        where = f": row {index[0] + 1}" if bad.ndim == 2 else ""
        with pytest.raises(ValueError, match=f"^{re.escape(name + where)} holds a non-finite value$"):
            call(arrays)

    check()
