import dataclasses
import json
import re
from operator import attrgetter

import pytest

from chainlearn.cli import main
from chainlearn.config import DatasetSpec, ExperimentSpec, load_spec, spec_from_dict
from chainlearn.experiments import build_environment, run_named_experiment
from chainlearn.sgd import TrainConfig


def small_spec(**over):
    defaults = dict(
        name="baseline",
        number_of_nodes=10,
        total_iterations=3,
        dataset=DatasetSpec(features=3, shard_size=60, validation_size=300),
        train=TrainConfig(eta0=0.008, eta_decay=0.04, weight_decay=1e-4, batch_size=32),
        seed=4,
    )
    defaults.update(over)
    return ExperimentSpec(**defaults)


def save_spec(path, spec: ExperimentSpec) -> None:
    """Write ``spec`` as the JSON config file ``load_spec`` reads."""
    path.write_text(json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def test_spec_roundtrip(tmp_path):
    spec = small_spec()
    path = tmp_path / "cfg.json"
    save_spec(path, spec)
    loaded = load_spec(path)
    assert loaded == spec


def test_spec_derived_table_values():
    spec = ExperimentSpec()  # reference defaults
    assert spec.number_of_nodes == 100
    assert spec.privacy_budget_epsilon == 2.0
    assert spec.delta == 1e-5
    assert spec.number_of_noisers == 2
    assert spec.number_of_verifiers == 3
    assert spec.number_of_aggregators == 3
    assert spec.multikrum_sample_R == 70
    assert spec.updates_per_block_u == 35
    assert spec.adversary_upper_bound_f == 33
    assert spec.initial_stake == 10
    assert spec.stake_reward == 5


def test_partial_train_object_keeps_the_other_defaults():
    """A ``train`` object that sets one field keeps the spec's defaults for
    the other three; it used to fill them from another set of defaults and
    so trained at another learning rate."""
    assert spec_from_dict({"train": {"batch_size": 128}}).train == TrainConfig(
        eta0=0.008, eta_decay=0.04, weight_decay=1e-4, batch_size=128
    )
    assert ExperimentSpec().train == TrainConfig()


def test_spec_unknown_field_rejected():
    with pytest.raises(ValueError, match="unknown config fields"):
        spec_from_dict({"number_of_peers": 10})


# The round count lives in the spec alone; stage deadlines and link latency
# are constants of protocol and simnet, and the fixed-point scale of quantize.
DELETED_FIELDS = [
    "train.total_iterations",
    "scale_bits",
    "latency_min",
    "latency_max",
    "noise_wait",
    "verify_window",
    "signature_wait",
    "aggregation_window",
    "block_wait",
]


@pytest.mark.parametrize("field", DELETED_FIELDS)
def test_spec_setting_a_deleted_field_is_refused(tmp_path, field):
    data = small_spec().to_dict()
    *section, name = field.split(".")
    (data[section[0]] if section else data)[name] = 3
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=name):
        load_spec(path)


def test_spec_bad_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x",,}')
    with pytest.raises(ValueError, match="line 1"):
        load_spec(path)


def test_cli_run_and_verify_chain(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    save_spec(cfg, small_spec())
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "chain.bin").exists()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config"]["number_of_nodes"] == 10
    assert meta["insecure_backend"] is True
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header.startswith("iteration,sim_time,validation_error")

    assert main(["verify-chain", str(out / "chain.bin")]) == 0
    ok_msg = capsys.readouterr().out
    assert "OK" in ok_msg

    data = bytearray((out / "chain.bin").read_bytes())
    data[-3] ^= 0x55
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(data))
    assert main(["verify-chain", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "block" in err


def test_cli_run_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    save_spec(cfg, small_spec())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--seed", "7", "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--seed", "7", "--out", str(out2)]) == 0
    for name in ("metrics.csv", "chain.bin"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # the sidecar's config object is the spec that ran, overrides included
    meta = json.loads((out1 / "metadata.json").read_text())
    assert spec_from_dict(meta["config"]) == small_spec(seed=7)


def test_cli_bad_config_is_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"no_such_field": 1}')
    assert main(["run", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_dataset_of_another_shape_is_refused_before_the_run(tmp_path, capsys):
    """A 2-feature CSV under a config that names 3 features is refused as
    soon as it is loaded, naming both counts, and writes nothing."""
    rows = ["a,b,label"] + [f"{i % 7 / 7},{i % 5 / 5},{i % 2}" for i in range(2400)]
    (tmp_path / "data.csv").write_text("\n".join(rows) + "\n")
    params = {"path": str(tmp_path / "data.csv")}
    dataset = dataclasses.replace(small_spec().dataset, kind="csv-tabular", params=params)
    cfg = tmp_path / "cfg.json"
    save_spec(cfg, small_spec(dataset=dataset))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert "dataset has 2 features and 2 classes; the config names 3 and 2" in capsys.readouterr().err
    assert not out.exists()


def test_cli_loader_without_its_path_is_refused_before_the_run(tmp_path, capsys):
    """A CSV loader with no ``params.path`` is refused when the data is
    loaded, naming the key, and leaves no output directory."""
    dataset = dataclasses.replace(small_spec().dataset, kind="csv-tabular")
    cfg = tmp_path / "cfg.json"
    save_spec(cfg, small_spec(dataset=dataset))
    out = tmp_path / "runs" / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert "dataset kind 'csv-tabular' needs params.path" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("key", ["number_of_noisers", "number_of_verifiers"])
def test_cli_spec_without_noisers_or_verifiers_is_refused(tmp_path, capsys, key):
    """With no noiser no update is ever masked, and with no verifier none is
    signed, so such a run sealed nothing and said nothing.  The spec is
    refused, naming its JSON key, and nothing is written."""
    data = small_spec().to_dict()
    data[key] = 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"{key} must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("number_of_aggregators", 1, "number_of_aggregators must be at least 2, got 1"),
        ("churn_per_minute", -1.0, "churn_per_minute must be non-negative, got -1.0"),
        ("privacy_budget_epsilon", 0.0, "privacy_budget_epsilon must be positive, got 0.0"),
        ("delta", 1.0, "delta must lie in (0, 1), got 1.0"),
        ("initial_stake", 0, "initial_stake must be at least 1, got 0"),
        ("total_iterations", -2, "total_iterations must be at least 1, got -2"),
        ("total_iterations", 0, "total_iterations must be at least 1, got 0"),
        ("seed", -1, "seed must be at least 0, got -1"),
        ("number_of_nodes", 0, "number_of_nodes must be at least 1, got 0"),
        ("stake_reward", -1, "stake_reward must be at least 0, got -1"),
    ],
    ids=[
        "number_of_aggregators", "churn_per_minute", "zero_epsilon", "delta_one", "zero_initial_stake",
        "negative_total_iterations", "zero_total_iterations", "negative_seed", "zero_nodes", "negative_reward",
    ],
)
def test_cli_spec_with_one_aggregator_or_negative_churn_is_refused(tmp_path, capsys, key, value, message):
    """One aggregator cannot hold a share split, a negative churn rate
    schedules nothing, and no privacy step exists at epsilon 0 or delta 1.
    These runs, and those with no stake, no peer, a negative round count,
    seed or stake reward, used to create the output directory and then
    raise mid-run; with no round the run wrote NaN metrics and exited 0.
    The spec is refused, naming its JSON key, and nothing is written."""
    data = small_spec().to_dict()
    data[key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, bits",
    [
        *((key, 32) for key in (
            "number_of_nodes", "total_iterations", "number_of_noisers", "number_of_verifiers",
            "number_of_aggregators", "stake_reward", "dataset.features", "dataset.classes", "train.batch_size",
        )),
        ("initial_stake", 64),
    ],
)
def test_cli_config_int_past_its_genesis_slot_is_refused(tmp_path, capsys, key, bits):
    """Genesis writes these ints as u32 (the peer ids run to
    number_of_nodes - 1) and the stake as u64.  One past the slot's largest
    value passed the spec and made the output directory (a ``stake_reward``
    of 2**32 then raised ``struct.error`` at the genesis hash); it is
    refused, naming its JSON key, and nothing is written.  The largest value
    itself fits its slot: it passes the spec, or, for a committee larger
    than the 10 peers or a 2-class model given more classes, is refused for
    that alone."""
    data = small_spec().to_dict()
    *outer, leaf = key.split(".")
    target = data[outer[0]] if outer else data
    target[leaf] = (1 << bits) - 1
    largest_refused = {
        "number_of_noisers": "number_of_noisers must be at most 9 with 10 nodes,",
        "number_of_verifiers": "number_of_verifiers must be at most 10 with 10 nodes,",
        "number_of_aggregators": "number_of_aggregators must be at most 10 with 10 nodes,",
        "dataset.classes": "logreg handles exactly two classes",
    }
    if key in largest_refused:
        with pytest.raises(ValueError, match=largest_refused[key]):
            spec_from_dict(data)
    else:
        assert attrgetter(key)(spec_from_dict(data)) == (1 << bits) - 1
    target[leaf] = 1 << bits
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"{key} must be at most {(1 << bits) - 1}, got {1 << bits}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rows", [500, 610])
def test_cli_dataset_too_small_for_its_split_is_refused(tmp_path, capsys, rows):
    """10 peers x 60 rows and 300 validation rows need 900 examples.  With
    500 the run trained every round and then failed on an empty validation
    set; with 610 it scored on 10 examples.  Both are refused before
    genesis, naming both counts; a short reserve pool stays allowed."""
    lines = ["a,b,c,label"] + [f"{i % 7 / 7},{i % 5 / 5},{i % 3 / 3},{i % 2}" for i in range(rows)]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    params = {"path": str(tmp_path / "data.csv")}
    dataset = dataclasses.replace(small_spec().dataset, kind="csv-tabular", params=params)
    cfg = tmp_path / "cfg.json"
    save_spec(cfg, small_spec(dataset=dataset))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"dataset has {rows} examples; 10 peers x 60 + 300 validation need 900" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "over, message",
    [
        ({"number_of_noisers": 10}, "number_of_noisers must be at most 9 with 10 nodes, got 10"),
        ({"number_of_nodes": 4, "number_of_verifiers": 5},
         "number_of_verifiers must be at most 4 with 4 nodes, got 5"),
        ({"number_of_nodes": 4, "number_of_aggregators": 5},
         "number_of_aggregators must be at most 4 with 4 nodes, got 5"),
        ({"number_of_aggregators": 7, "dataset": {"features": 1, "shard_size": 60, "validation_size": 300}},
         "7 aggregators for only 6 share points"),
    ],
    ids=["noisers", "verifiers", "aggregators", "share-points"],
)
def test_cli_committee_or_share_layout_that_cannot_be_drawn_is_refused(tmp_path, capsys, over, message):
    """A peer draws its noisers from the other peers, each committee from
    all of them, and one feature gives only 6 share points.  With 10 noisers
    among 10 peers the run sealed nothing and exited 0; the other three
    raised mid-run.  Each is refused when the spec is loaded, and nothing
    is written."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**small_spec().to_dict(), **over}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_committees_that_can_leave_too_few_updaters_are_refused(tmp_path, capsys):
    """A verifier signs off only on 3 pooled submissions.  5 peers with 2
    verifiers and 2 aggregators leave 1 to 3 updaters a round, and such a
    run sealed 1 of 3 rounds and exited 0.  It is refused when the spec is
    made or loaded, naming the keys, and nothing is written; 7 peers leave
    at least 3 and run."""
    few = {"number_of_nodes": 5, "number_of_verifiers": 2, "number_of_aggregators": 2}
    message = "number_of_nodes - number_of_verifiers - number_of_aggregators must be at least 3, got 5 - 2 - 2 = 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        small_spec(**few)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**small_spec().to_dict(), **few}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    env = build_environment(small_spec(number_of_nodes=7, number_of_verifiers=2, number_of_aggregators=2))
    assert len(env.datasets) == 7


def test_cli_noise_past_the_headroom_bound_is_refused_by_name(tmp_path, capsys):
    """At epsilon 1e-13 the genesis noise of the exponent group exceeds
    ``quantize.encode``'s headroom bound.  ``HeadroomError`` was an
    ``OverflowError``, which the command does not catch, so the run exited
    with a traceback and left its output directory.  It is a
    ``ValueError``: the run exits 1 with one error line and writes nothing."""
    cfg = tmp_path / "cfg.json"
    save_spec(cfg, small_spec(privacy_budget_epsilon=1e-13))
    out = tmp_path / "runs" / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: entry magnitude ") and "exceeds headroom bound" in err
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


def test_dataset_with_a_short_reserve_pool_runs(tmp_path):
    """901 examples fill the peers' shards and the validation set and leave
    one for the reserve: the run proceeds."""
    lines = ["a,b,c,label"] + [f"{i % 7 / 7},{i % 5 / 5},{i % 3 / 3},{i % 2}" for i in range(901)]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    dataset = dataclasses.replace(
        small_spec().dataset, kind="csv-tabular", params={"path": str(tmp_path / "data.csv")}
    )
    env = build_environment(small_spec(dataset=dataset))
    assert len(env.validation) == 300 and sum(len(d) for d in env.datasets.values()) == 600


def test_cli_collusion_prob(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    save_spec(cfg, small_spec(sweep={"trials": 500, "noisers": [3], "stake_fractions": [0.0, 0.5]}))
    out = tmp_path / "grid"
    code = main(["run", "--config", str(cfg), "--experiment", "collusion-grid", "--out", str(out)])
    assert code == 0
    lines = (out / "collusion.csv").read_text().splitlines()
    assert lines[0] == "noisers,malicious_stake_fraction,violation_probability"
    assert len(lines) == 3


def test_spec_refuses_an_infinite_churn_rate():
    """Each churn event fell due 60 / inf = 0 s after the last, so a run at
    that rate never reached its time cap; the spec refuses it when made."""
    with pytest.raises(ValueError, match=r"^churn_per_minute must be finite, got inf$"):
        small_spec(churn_per_minute=float("inf"))


@pytest.mark.parametrize(
    "name, sweep, message",
    [
        ("epsilon-sweep", {"epsilons": [0.5]}, r"'epsilons'; it reads \['epsilon', 'seeds'\]"),
        ("baseline", {"seeds": 2}, r"'seeds'; it reads \[\]"),
    ],
)
def test_unread_sweep_key_is_refused(tmp_path, name, sweep, message):
    """A sweep key the experiment does not read is refused before anything
    runs or is written; a misspelt grid would otherwise run the default one."""
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=message):
        run_named_experiment(small_spec(name=name, sweep=sweep), out)
    assert not out.exists()


def test_cli_invert(tmp_path, capsys):
    out = tmp_path / "inv"
    assert main(["run", "--experiment", "inversion", "--seed", "3", "--out", str(out)]) == 0
    assert (out / "similarity.csv").exists()
    pgms = sorted(out.glob("*.pgm"))
    assert len(pgms) == 4
    assert pgms[0].read_bytes().startswith(b"P5\n")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("privacy_budget_epsilon", "NaN", "privacy_budget_epsilon must be a finite number, got nan"),
        ("privacy_budget_epsilon", -1, "privacy_budget_epsilon must be positive, got -1"),
        ("privacy_budget_epsilon", "Infinity", "privacy_budget_epsilon must be a finite number, got inf"),
        ("delta", 2, "delta must lie in (0, 1), got 2"),
        ("delta", "NaN", "delta must be a finite number, got nan"),
        ("collect_fraction", "NaN", "collect_fraction must be a finite number, got nan"),
        ("collect_fraction", 0, "collect_fraction must lie in (0, 1], got 0"),
        ("collect_fraction", -0.2, "collect_fraction must lie in (0, 1], got -0.2"),
        ("collect_fraction", 1.5, "collect_fraction must lie in (0, 1], got 1.5"),
        ("train.eta0", "NaN", "train.eta0 must be positive, got nan"),
        ("train.eta_decay", "Infinity", "train.eta_decay must be a finite number, got inf"),
        ("churn_per_minute", "NaN", "churn_per_minute must be non-negative, got nan"),
        ("backend", "exp", "backend must be one of ['exponent', 'pairing'], got exp"),
        # a JSON integer written as a float or a bool
        ("number_of_noisers", 2.0, "number_of_noisers must be an integer, got 2.0"),
        ("stake_reward", 5.5, "stake_reward must be an integer, got 5.5"),
        ("number_of_nodes", 10.0, "number_of_nodes must be an integer, got 10.0"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("train.batch_size", 8.0, "train.batch_size must be an integer, got 8.0"),
        ("total_iterations", True, "total_iterations must be an integer, got True"),
        # a JSON string where a number is expected
        ("number_of_noisers", "2", "number_of_noisers must be an integer, got '2'"),
        ("train.eta0", "0.1", "train.eta0 must be a number, got '0.1'"),
        ("number_of_nodes", "10", "number_of_nodes must be an integer, got '10'"),
        ("privacy_budget_epsilon", "2", "privacy_budget_epsilon must be a finite number, got '2'"),
    ],
)
def test_cli_config_value_no_run_can_carry_out_is_refused_by_its_key(tmp_path, capsys, key, value, message):
    """These ran, or raised mid-run.  At epsilon infinite (sigma 0) every
    masked update carried no noise, and at a collection fraction of -0.2 each
    block summed one update; both exited 0, as did churn NaN (no churn at
    all).  A float or bool written for an integer key ended in a
    ``struct.error`` or ``TypeError`` traceback, or, as a round count of
    ``true``, ran one round.  A string for a number met a comparison first
    and exited with a ``TypeError``'s text naming no key, or was printed
    unquoted, reading as the number; the config's type check now refuses it
    before any comparison and quotes it.  Each is refused with one error
    line naming its JSON key, and nothing is written."""
    data = small_spec().to_dict()
    *outer, leaf = key.split(".")
    (data[outer[0]] if outer else data)[leaf] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data).replace('"NaN"', "NaN").replace('"Infinity"', "Infinity"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "name, sweep, message",
    [
        ("epsilon-sweep", {"epsilon": [2.0, 0], "seeds": 1}, "privacy_budget_epsilon must be positive, got 0"),
        ("sample-fraction-sweep", {"collect_fraction": [0.7, 1.5], "seeds": 1},
         "collect_fraction must lie in (0, 1], got 1.5"),
    ],
)
def test_cli_sweep_grid_point_the_spec_refuses_is_refused_before_any_runs(tmp_path, capsys, name, sweep, message):
    """The epsilon sweep over [2.0, 0] ran the 2.0 point, then exited 1 and
    left its CSV with no ``metadata.json``; the fraction sweep over
    [0.7, 1.5] exited 0.  Every grid point is built before any runs, so
    both exit 1 with one error line and leave no directory."""
    cfg = tmp_path / "cfg.json"
    save_spec(cfg, small_spec(name=name, sweep=sweep))
    out = tmp_path / "runs" / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("dataset.shard_size", "60", "dataset.shard_size must be an integer, got '60'"),
        ("dataset.validation_size", 300.0, "dataset.validation_size must be an integer, got 300.0"),
        ("dataset.separation", "6", "dataset.separation must be a number, got '6'"),
        ("dataset.kind", 3, "dataset.kind must be a string, got 3"),
        ("churn_per_minute", "1", "churn_per_minute must be a number, got '1'"),
        ("adversary.fraction", "0.3", "adversary.fraction must be a number, got '0.3'"),
        ("adversary.src_label", "1", "adversary.src_label must be an integer, got '1'"),
        ("dataset.class_weights", ["a", "b"], "dataset.class_weights must be a list of numbers, got ('a', 'b')"),
    ],
)
def test_cli_value_of_the_wrong_type_is_refused_by_its_key(tmp_path, capsys, key, value, message):
    """A string for the shard size ended in a ``TypeError`` traceback from
    ``build_environment`` and left the output directory behind; a string
    for the churn rate or the adversarial fraction met a comparison and
    exited with a ``TypeError``'s text naming no key, and strings for the
    class weights with NumPy's conversion error; a string for the
    separation was read as the number.  Each is refused by its type, with
    one error line naming its JSON key, and nothing is written."""
    data = small_spec().to_dict()
    *outer, leaf = key.split(".")
    (data[outer[0]] if outer else data)[leaf] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not out.exists()
