"""End-to-end CLI coverage: every subcommand, exit codes, determinism."""

import hashlib
import json
import pathlib
import tracemalloc

import numpy as np
import pytest
from spawn import CLI, run

from modalsim import cli, engine, nn, predictor, report, scenario_io, traceio, workload
from modalsim.core import BAD_SCHEDULE, InvalidScenario


def invoke(*args, cwd=None):
    return run(CLI + list(args), cwd=cwd, timeout=300)


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scn") / "lrw.json"
    path.write_text(scenario_io.serialize(workload.gen_scenario("lrw-like", seed=3)))
    return str(path)


@pytest.fixture(scope="module")
def motivation_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scn") / "motivation.json"
    path.write_text(scenario_io.serialize(workload.gen_scenario("motivation-av", seed=0)))
    return str(path)


@pytest.fixture(scope="module")
def predictor_file(scenario_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "predictor.json"
    res = invoke(
        "train-predictor",
        "--scenario", scenario_file,
        "--samples", "40",
        "--epochs", "800",
        "--out", str(path),
    )
    assert res.returncode == 0, res.stderr
    return str(path)


@pytest.fixture(scope="module")
def gate_file(scenario_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "gate.json"
    res = invoke(
        "train-gate",
        "--scenario", scenario_file,
        "--samples", "30",
        "--epochs", "800",
        "--out", str(path),
    )
    assert res.returncode == 0, res.stderr
    return str(path)


def test_usage_error_exit_code_1():
    res = invoke("run")  # missing required flags
    assert res.returncode == 1
    assert json.loads(res.stderr.splitlines()[-1])["error"] == "UsageError"


def test_unknown_subcommand_exit_code_1():
    res = invoke("frobnicate")
    assert res.returncode == 1


def test_validation_failure_exit_code_2(tmp_path):
    bad = tmp_path / "bad.json"
    doc = scenario_io.to_document(workload.gen_scenario("lrw-like", seed=3))
    doc["sensing_configs"][0][0]["units_per_window"] = 30  # 1e6/30 not integral
    bad.write_text(json.dumps(doc))
    res = invoke("run", "--scenario", str(bad), "--out", str(tmp_path / "t.jsonl"))
    assert res.returncode == 2
    err = json.loads(res.stderr.splitlines()[-1])
    assert "IndivisibleWindow" in str(err)


def test_missing_gate_on_checkpointed_scenario_exit_code_3(scenario_file, tmp_path):
    res = invoke("run", "--scenario", scenario_file, "--out", str(tmp_path / "t.jsonl"))
    assert res.returncode == 3
    err = json.loads(res.stderr.splitlines()[-1])
    assert err["error"] == "GateRequiredButMissing"


def test_runtime_failure_exit_code_3(scenario_file, predictor_file):
    res = invoke(
        "optimize",
        "--scenario", scenario_file,
        "--predictor", predictor_file,
        "--t-max", "1",  # 1ms: nothing is feasible
    )
    assert res.returncode == 3
    err = json.loads(res.stderr.splitlines()[-1])
    assert err["error"] == "NoFeasibleAssignment"


def test_run_blocking_and_report_waiting_scale(motivation_file, tmp_path):
    trace = tmp_path / "motivation.jsonl"
    res = invoke(
        "run",
        "--scenario", motivation_file,
        "--mode", "blocking",
        "--out", str(trace),
    )
    assert res.returncode == 0, res.stderr
    rep = invoke("report", "--trace", str(trace))
    assert rep.returncode == 0
    rows = [line.split(",") for line in rep.stdout.strip().splitlines()]
    header = rows[0]
    total = next(r for r in rows[1:] if r[header.index("modality")] == "all")
    waiting = int(total[header.index("waiting_us")])
    assert 80_000 <= waiting <= 120_000  # the ~100ms idle-waiting scale
    assert int(total[header.index("reported_latency_us")]) == 242_000


def test_run_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    plain = tmp_path / "noskip.json"
    plain.write_text(scenario_io.serialize(workload.gen_scenario("lrw-like", seed=3).without_skipping()))
    for out in (out1, out2):
        res = invoke(
            "run", "--scenario", str(plain), "--seed", "7", "--samples", "3",
            "--assignment", "1:1,1:1", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
    assert out1.read_bytes() == out2.read_bytes()


def test_run_with_gate_and_optimize(scenario_file, gate_file, predictor_file, tmp_path):
    out = tmp_path / "gated.jsonl"
    res = invoke(
        "run",
        "--scenario", scenario_file,
        "--gate", gate_file,
        "--optimize",
        "--predictor", predictor_file,
        "--samples", "2",
        "--seed", "5",
        "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    from modalsim import traceio

    traces = traceio.read_trace(out)
    assert len(traces) == 2
    # decision latency goes to stderr only; stdout and files stay deterministic
    res2 = invoke(
        "run",
        "--scenario", scenario_file,
        "--gate", gate_file,
        "--optimize",
        "--predictor", predictor_file,
        "--samples", "2",
        "--seed", "5",
        "--out", str(tmp_path / "gated2.jsonl"),
    )
    assert res2.returncode == 0
    assert (tmp_path / "gated2.jsonl").read_bytes() == out.read_bytes()


def test_optimize_prints_assignment_and_oracle_gap(scenario_file, predictor_file):
    res = invoke(
        "optimize",
        "--scenario", scenario_file,
        "--predictor", predictor_file,
        "--oracle",
    )
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert "assignment" in out and "score" in out
    assert out["gap"] >= -1e-9
    assert out["feasible_count"] > 0
    # wall-clock diagnostics live on stderr
    assert "DecisionLatency" in res.stderr


def test_optimize_oracle_over_its_limit_exit_code_1(tmp_path):
    # 6,773,760 feasible assignments: the oracle refuses before scoring any
    s = workload.gen_scenario("random", seed=0, modalities=8)
    scenario_path = tmp_path / "wide.json"
    scenario_path.write_text(scenario_io.serialize(s))
    spec = predictor.EncodingSpec.for_scenario(s)
    model = predictor.PredictorModel(
        encoding=spec,
        mlp=nn.MLP(
            w1=np.zeros((spec.dim, 2)),
            b1=np.zeros(2),
            w2=np.zeros(2),
            b2=0.0,
            x_mean=np.zeros(spec.dim),
            x_scale=np.ones(spec.dim),
        ),
        y_mean=50.0,
        info=predictor.TrainingInfo(0, 1, 0.1, 0.0, 0.0, 0.0),
    )
    model_path = tmp_path / "predictor.json"
    predictor.save_model(model, model_path)
    res = invoke(
        "optimize", "--scenario", str(scenario_path), "--predictor", str(model_path), "--oracle"
    )
    assert res.returncode == 1, res.stderr
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1, res.stderr  # one JSON line, no traceback
    err = json.loads(res.stderr)
    assert err["error"] == "UsageError"
    assert "6773760" in err["message"] and "1048576" in err["message"]


def test_presets_addressable_by_name(tmp_path):
    out = tmp_path / "sweep-preset.csv"
    res = invoke("sweep", "--scenario", "lrw-like@3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert len(out.read_text().strip().splitlines()) == 82


def test_sweep_emits_81_rows(scenario_file, tmp_path):
    out = tmp_path / "sweep.csv"
    res = invoke("sweep", "--scenario", scenario_file, "--grid", "full", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 82  # header + 81 assignments
    assert lines[0] == "assignment,latency_us,accuracy_pct"
    res2 = invoke("sweep", "--scenario", scenario_file, "--out", str(tmp_path / "sweep2.csv"))
    assert (tmp_path / "sweep2.csv").read_bytes() == out.read_bytes()


# SHA-256 of `sweep --scenario <spec>` CSVs, pinned before the sweep streamed
# its rows; a random preset saved to a file stands for the larger grids.
SWEEP_DIGESTS = {
    "lrw-like": "1bc49f137cd1f4ca9ba3c73afd3d0eae23b2119d2a956fc5321af0135bfc468a",
    "uav-like": "f974e4cc9407466873c17d3298afb4eaea22daf01fd8be763a07c6333d7ddea8",
    "random@3": "ca34b5eaf003f1508ee208487ef0d8a0eccb6e6643de39930a706d1f2489e312",
    "random-5-x4.json": "79c603667022140ba85bd8dbc6c0e8d11387f053151cfe0586b9562eb7abb6c0",
}


def _random_file(tmp_path, modalities):
    path = tmp_path / f"random-5-x{modalities}.json"
    path.write_text(scenario_io.serialize(workload.gen_scenario("random", seed=5, modalities=modalities)))
    return str(path)


@pytest.mark.parametrize("spec", sorted(SWEEP_DIGESTS))
def test_sweep_csv_pinned(spec, tmp_path, capsys):
    if spec.endswith(".json"):
        spec = _random_file(tmp_path, 4)  # 6,561 assignments
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--scenario", spec, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_DIGESTS[pathlib.Path(spec).name]


def test_sweep_memory_does_not_grow_with_the_row_count(tmp_path, capsys):
    # 729 and 6,561 rows: written as they are made, the larger sweep holds
    # no more than the smaller one (a list of rows would add about 1 MB)
    peaks = []
    for modalities in (3, 4):
        path, out = _random_file(tmp_path, modalities), tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            assert cli.main(["sweep", "--scenario", path, "--out", str(out)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(out.read_text().splitlines()) == 1 + 9**modalities
    assert peaks[1] < peaks[0] + 64 * 1024, peaks


def test_profile_materializes_lookup_table(scenario_file, tmp_path):
    out = tmp_path / "profile.json"
    res = invoke("profile", "--scenario", scenario_file, "--out", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads(out.read_text())
    assert len(doc["entries"]) == 2 * 3 * 3 * 3  # modalities x sensing x model x resources
    assert doc["fusion_us"] == 12_000


def test_report_to_file_matches_stdout(motivation_file, tmp_path):
    trace = tmp_path / "t.jsonl"
    invoke("run", "--scenario", motivation_file, "--out", str(trace))
    to_file = tmp_path / "report.csv"
    r1 = invoke("report", "--trace", str(trace), "--out", str(to_file))
    r2 = invoke("report", "--trace", str(trace))
    assert r1.returncode == 0 and r2.returncode == 0
    assert to_file.read_text() == r2.stdout


def test_report_on_a_file_of_no_traces_writes_the_csv_header(tmp_path):
    trace = tmp_path / "t.jsonl"
    traceio.write_trace([], trace)
    assert traceio.read_trace(trace) == []
    res = invoke("report", "--trace", str(trace))
    assert res.returncode == 0, res.stderr
    assert res.stdout == ",".join(report.CSV_COLUMNS) + "\n"


def test_trained_model_files_deterministic(scenario_file, tmp_path):
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    for p in (p1, p2):
        res = invoke(
            "train-predictor",
            "--scenario", scenario_file,
            "--samples", "20",
            "--epochs", "200",
            "--out", str(p),
        )
        assert res.returncode == 0, res.stderr
    assert p1.read_bytes() == p2.read_bytes()


def _set(section, key, value):
    def edit(doc):
        (doc if section is None else doc[section])[key] = value

    return edit


def _shorten(key):
    def edit(doc):
        doc["weights"][key] = doc["weights"][key][:-1]

    return edit


def _widen_layout(doc):
    doc["layout"]["fast_dim"] += 1


def _nan_weight(doc):
    doc["weights"]["w2"][0] = float("nan")


def _zero_scale(doc):
    doc["weights"]["x_scale"][0] = 0.0


# each malformed gate document, given as raw text or as an edit of a trained one
MALFORMED_GATES = {
    "invalid-json": "{not json",
    "top-level-list": "[]",
    "weights-not-object": _set(None, "weights", "x"),
    "missing-b1": lambda doc: doc["weights"].pop("b1"),
    "ill-typed-w2": _set("weights", "w2", "abc"),
    "wrong-version": _set(None, "format_version", 2),
    "wrong-kind": _set(None, "kind", "accuracy_predictor"),
    "x_mean-vs-w1-rows": _shorten("x_mean"),
    "b1-vs-hidden": _shorten("b1"),
    "w2-vs-hidden": _shorten("w2"),
    "layout-vs-w1-rows": _widen_layout,
    "non-finite-weight": _nan_weight,
    "zero-x_scale": _zero_scale,
    "missing-training-key": lambda doc: doc["training"].pop("seed"),
}


def _assert_weight_format_error(res):
    assert res.returncode == 2, res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1, res.stderr  # one JSON line, no traceback
    assert json.loads(lines[0])["error"] == "WeightFormatError"


@pytest.mark.parametrize("case", sorted(MALFORMED_GATES))
def test_malformed_gate_document_exit_code_2(case, scenario_file, gate_file, tmp_path):
    bad = tmp_path / "gate.json"
    edit = MALFORMED_GATES[case]
    if isinstance(edit, str):
        bad.write_text(edit)
    else:
        doc = json.loads(open(gate_file).read())
        edit(doc)
        bad.write_text(json.dumps(doc))
    res = invoke("run", "--scenario", scenario_file, "--gate", str(bad), "--out", str(tmp_path / "t.jsonl"))
    _assert_weight_format_error(res)


def _grow_encoding(doc):
    doc["encoding"]["sensing_counts"][0] += 1


def _true_in_b1(doc):
    doc["weights"]["b1"][0] = True


def _ragged_w1(doc):
    doc["weights"]["w1"][0].pop()


MALFORMED_PREDICTORS = {
    "encoding-vs-w1-rows": _grow_encoding,
    "y_mean-not-number": _set("weights", "y_mean", "70"),
    "training-not-object": _set(None, "training", None),
    "zero-x_scale": _zero_scale,
    "true-in-b1": _true_in_b1,
    "ragged-w1-row": _ragged_w1,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PREDICTORS))
def test_malformed_predictor_document_exit_code_2(case, scenario_file, predictor_file, tmp_path):
    doc = json.loads(open(predictor_file).read())
    MALFORMED_PREDICTORS[case](doc)
    bad = tmp_path / "predictor.json"
    bad.write_text(json.dumps(doc))
    res = invoke("optimize", "--scenario", scenario_file, "--predictor", str(bad))
    _assert_weight_format_error(res)


NESTED_JSON = b"[" * 200_000 + b"]" * 200_000 + b"\n"


def _subnormal_scale(doc):
    doc["weights"]["x_scale"][0] = 5e-324


def _extreme_mean(doc):
    doc["weights"]["x_mean"] = [(-1) ** i * 1e308 for i in range(len(doc["weights"]["x_mean"]))]


PROFILE = "profile --scenario {bad} --out {out}"
RUN = "run --scenario {bad} --out {out}"
OPTIMIZE = "optimize --scenario {scenario} --predictor {bad}"
GATE = "run --scenario {scenario} --gate {bad} --out {out}"
NOT_UTF8 = b"\xff\xfe{}"

def _lrw_bytes(edit) -> bytes:
    """The lrw-like scenario document after `edit`, as file bytes."""
    doc = scenario_io.to_document(workload.gen_scenario("lrw-like", seed=3))
    edit(doc)
    return json.dumps(doc).encode()


def _slow_encodes(doc):
    doc["t_max_us"] = 2**80
    for entry in doc["latency_profile"]["entries"]:
        entry["unit_encode_us"] = 2**62


BLOCKING = RUN + " --mode blocking"
# each a valid document but for a duration whose engine times leave int64
LONG_FUSION = _lrw_bytes(lambda doc: doc["latency_profile"].update(fusion_us=2**63))
LONG_ENCODES = _lrw_bytes(_slow_encodes)

# arguments, with {bad} the hostile file; its bytes or an edit of the trained
# predictor (of the trained gate for a --gate run); exit; error
HOSTILE_INPUTS = {
    "report-nested-trace": ("report --trace {bad}", NESTED_JSON, 3, "CorruptLine"),
    "profile-nested-scenario": (PROFILE, NESTED_JSON, 2, "ScenarioFormatError"),
    "run-nested-scenario": (RUN, NESTED_JSON, 2, "ScenarioFormatError"),
    "profile-non-utf8-scenario": (PROFILE, NOT_UTF8, 2, "ScenarioFormatError"),
    "run-non-utf8-scenario": (RUN, NOT_UTF8, 2, "ScenarioFormatError"),
    "report-non-utf8-trace": ("report --trace {bad}", NOT_UTF8 + b"\n", 3, "CorruptLine"),
    "optimize-subnormal-scale": (OPTIMIZE, _subnormal_scale, 3, "NonFiniteScore"),
    "oracle-subnormal-scale": (OPTIMIZE + " --oracle", _subnormal_scale, 3, "NonFiniteScore"),
    "optimize-extreme-mean": (OPTIMIZE, _extreme_mean, 3, "NonFiniteScore"),
    "oracle-extreme-mean": (OPTIMIZE + " --oracle", _extreme_mean, 3, "NonFiniteScore"),
    "gate-extreme-mean": (GATE, _extreme_mean, 3, "NonFiniteProbability"),
    "run-fusion-beyond-int64": (BLOCKING, LONG_FUSION, 2, "InvalidScenario"),
    "run-encodes-beyond-int64": (BLOCKING, LONG_ENCODES, 2, "InvalidScenario"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_INPUTS))
def test_hostile_input_fails_typed(case, scenario_file, predictor_file, gate_file, tmp_path):
    template, content, code, error = HOSTILE_INPUTS[case]
    if callable(content):
        doc = json.loads(open(gate_file if "--gate" in template else predictor_file).read())
        content(doc)
        content = json.dumps(doc).encode()
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    paths = {"bad": bad, "out": tmp_path / "out", "scenario": scenario_file}
    res = invoke(*(arg.format(**paths) for arg in template.split()))
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    assert len(res.stderr.splitlines()) == 1, res.stderr  # one JSON line
    assert json.loads(res.stderr)["error"] == error


def _json_lines(stderr):
    return [json.loads(line) for line in stderr.splitlines() if line.startswith("{")]


@pytest.mark.parametrize("flag", ["--gate", "--scenario"])
def test_directory_as_input_file_exit_code_2(flag, tmp_path):
    args = {"--scenario": "lrw-like", "--gate": None, flag: str(tmp_path)}
    flags = [x for k, v in args.items() if v is not None for x in (k, v)]
    res = invoke("run", *flags, "--out", str(tmp_path / "t.jsonl"))
    assert res.returncode == 2, res.stderr
    assert len(res.stderr.splitlines()) == 1, res.stderr  # one JSON line, no traceback
    assert json.loads(res.stderr)["error"] == "IsADirectoryError"


@pytest.mark.parametrize(
    "flags",
    [
        ["--assignment", "1:1:1"],
        ["--assignment", "5:0,0:0"],  # sensing level out of range
        ["--samples", "0"],
        ["--scenario", "lrw-like@x"],  # preset seed is not an integer
    ],
)
def test_unusable_flag_value_exit_code_1(flags, tmp_path):
    res = invoke("run", "--scenario", "lrw-like", *flags, "--out", str(tmp_path / "t.jsonl"))
    assert res.returncode == 1, res.stderr
    errors = _json_lines(res.stderr)
    assert [e["error"] for e in errors] == ["UsageError"]
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "flags",
    [
        ["train-predictor", "--epochs", "-1"],
        ["train-gate", "--epochs", "-3"],  # would be written into the gate document
        ["train-predictor", "--noise", "nan"],  # would mean no noise
        ["train-predictor", "--noise", "-5"],
        ["train-predictor", "--noise", "inf"],  # would train on infinite labels
    ],
)
def test_meaningless_training_flag_exit_code_1(flags, tmp_path):
    out = tmp_path / "model.json"
    res = invoke(*flags, "--scenario", "lrw-like", "--out", str(out))
    assert res.returncode == 1, res.stderr
    assert [e["error"] for e in _json_lines(res.stderr)] == ["UsageError"]
    assert "Traceback" not in res.stderr and not out.exists()


@pytest.mark.parametrize("command", ["train-predictor", "train-gate"])
def test_zero_epochs_trains_nothing_and_exits_0(command, tmp_path):
    out = tmp_path / "model.json"
    res = invoke(command, "--scenario", "lrw-like", "--samples", "5", "--epochs", "0", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert json.loads(out.read_text())["training"]["epochs"] == 0


@pytest.mark.parametrize(
    "schedule",
    [[[0, "high"], [0, "low"]], [[0, "high"], [500000, "low"], [0, "mid"]]],
    ids=["zero-twice", "back-to-zero"],
)
def test_schedule_that_repeats_time_0_exit_code_2(schedule, tmp_path):
    doc = scenario_io.to_document(workload.gen_scenario("lrw-like", seed=3))
    doc["resource_schedule"] = schedule
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidScenario) as err:
        scenario_io.load(path)
    assert [v.code for v in err.value.violations] == [BAD_SCHEDULE]
    res = invoke("run", "--scenario", str(path), "--mode", "blocking", "--out", str(tmp_path / "t.jsonl"))
    assert res.returncode == 2, res.stderr
    assert "BadResourceSchedule" in res.stderr


def test_gate_for_other_modalities_exit_code_2(tmp_path):
    gate = tmp_path / "uav-gate.json"
    res = invoke(
        "train-gate", "--scenario", "uav-like", "--samples", "4", "--epochs", "50",
        "--out", str(gate),
    )
    assert res.returncode == 0, res.stderr
    out = tmp_path / "t.jsonl"
    res = invoke("run", "--scenario", "lrw-like", "--gate", str(gate), "--out", str(out))
    _assert_weight_format_error(res)
    assert "(fast 22, slow 28)" in res.stderr
    assert not out.exists()  # rejected before the first window
    res = invoke("run", "--scenario", "uav-like", "--gate", str(gate), "--out", str(out))
    assert res.returncode == 0, res.stderr


def test_wrongly_typed_scenario_field_exit_code_2(tmp_path):
    doc = scenario_io.to_document(workload.gen_scenario("lrw-like", seed=3))
    doc["modalities"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = invoke("run", "--scenario", str(bad), "--out", str(tmp_path / "t.jsonl"))
    assert res.returncode == 2, res.stderr
    assert len(res.stderr.splitlines()) == 1, res.stderr  # one JSON line, no traceback
    assert json.loads(res.stderr)["error"] == "ScenarioFormatError"


@pytest.mark.parametrize("command", ["profile", "run"])
def test_scenario_values_of_another_json_type_exit_code_2(command, tmp_path):
    # each value would convert to a valid one, which the reader must not do
    doc = scenario_io.to_document(workload.gen_scenario("lrw-like", seed=3))
    doc["modalities"][0]["channels"] = 16.7
    doc["modalities"][1]["name"] = 7
    doc["sensing_configs"][0][0]["units_per_window"] = "10"
    doc.update(t_max_us="1180000", tau="0.5", skip_checkpoints=["0.5", 0.7])
    doc["resource_schedule"] = [[0, "high", "ignored"]]
    bad = tmp_path / "coerced.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / ("table.csv" if command == "profile" else "t.jsonl")
    res = invoke(command, "--scenario", str(bad), "--out", str(out), *["--mode", "blocking"] * (command == "run"))
    assert res.returncode == 2, res.stderr
    assert len(res.stderr.splitlines()) == 1, res.stderr  # one JSON line, no traceback
    err = json.loads(res.stderr)
    assert err["error"] == "ScenarioFormatError"
    typed = [d for d in err["detail"] if "should be" in d]
    assert len(typed) == 7, err["detail"]  # one problem per wrongly typed value
    assert not out.exists()


@pytest.mark.parametrize("field", ["channels", "units_per_window"])
def test_oversized_scenario_exit_code_2(field, tmp_path):
    # rejected at load, before anything allocates units x channels floats
    doc = scenario_io.to_document(workload.gen_scenario("lrw-like", seed=3))
    if field == "channels":
        doc["modalities"][0]["channels"] = 10**9
    else:
        doc["sensing_configs"][1][0]["units_per_window"] = 10**6
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "t.jsonl"
    res = invoke("run", "--scenario", str(bad), "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert len(res.stderr.splitlines()) == 1, res.stderr  # one JSON line, no traceback
    err = json.loads(res.stderr)
    assert err["error"] == "InvalidScenario"
    assert [d.split(":")[0] for d in err["detail"]] == ["SizeLimit"]
    assert not out.exists()


def _resummed(lines):
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    checksum = json.dumps({"record": "checksum", "sha256": digest}, sort_keys=True, separators=(",", ":"))
    return "\n".join(lines + [checksum]) + "\n"


def _edit_first(kind, edit):
    def apply(records):
        i = next(i for i, r in enumerate(records) if r["record"] == kind)
        edit(records[i])
        return i + 1

    return apply


HOSTILE_TRACE_RECORDS = {
    "event-t-list": _edit_first("event", lambda r: r.update(t=[])),
    "event-t-float": _edit_first("event", lambda r: r.update(t=r["t"] + 0.5)),
    "event-t-bool": _edit_first("event", lambda r: r.update(t=True)),
    "event-data-list": _edit_first("event", lambda r: r.update(data=[])),
    "header-without-fingerprint": _edit_first("header", lambda r: r.pop("fingerprint")),
    "header-bad-mode": _edit_first("header", lambda r: r.update(mode="sideways")),
    "summary-without-latency": _edit_first("summary", lambda r: r.pop("reported_latency_us")),
    # header and summary fields of the wrong type, which `report` would write into its CSV
    "summary-latency-str": _edit_first("summary", lambda r: r.update(reported_latency_us="x")),
    "summary-waiting-float": _edit_first("summary", lambda r: r.update(waiting_us=1.5)),
    "summary-skipped-list": _edit_first("summary", lambda r: r.update(skipped_unit_count=[3])),
    "summary-peak-items": _edit_first("summary", lambda r: r.update(peak_buffered_units=["a", None])),
    "header-sample-list": _edit_first("header", lambda r: r.update(sample_id=[1])),
    "header-window-str": _edit_first("header", lambda r: r.update(window_us="long")),
    "header-fingerprint-number": _edit_first("header", lambda r: r.update(fingerprint=7)),
    "header-assignment-str-levels": _edit_first(
        "header", lambda r: r.update(assignment=[[str(v) for v in p] for p in r["assignment"]])
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_TRACE_RECORDS))
def test_hostile_trace_record_exit_code_3(case, motivation_file, tmp_path):
    # the checksum is recomputed, so only the record's shape is wrong
    good = tmp_path / "t.jsonl"
    res = invoke("run", "--scenario", motivation_file, "--samples", "2", "--out", str(good))
    assert res.returncode == 0, res.stderr
    records = [json.loads(line) for line in good.read_text().splitlines()[:-1]]
    line_number = HOSTILE_TRACE_RECORDS[case](records)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(_resummed([json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]))
    res = invoke("report", "--trace", str(bad))
    assert res.returncode == 3, res.stderr
    assert len(res.stderr.splitlines()) == 1, res.stderr  # one JSON line, no traceback
    err = json.loads(res.stderr)
    assert err["error"] == "CorruptLine"
    assert err["message"].startswith(f"line {line_number}:")


class CommitAtOnce:
    """Commits at the first checkpoint, so the trace holds a skip_committed event."""

    def probability(self, f_fast, f_slow, fraction):
        return 1.0


@pytest.mark.parametrize(
    "key", ["sense_end_us", "encode_cost_us", "started_us", "prefix", "units_skipped"]
)
def test_trace_event_without_payload_key_exit_code_3(key, tmp_path):
    # the checksum is recomputed, so the file passes every check the reader makes
    s = workload.gen_scenario("lrw-like", seed=0)
    sample = workload.gen_samples(s, 1, "easy", seed=0)[0]
    good = tmp_path / "t.jsonl"
    traceio.write_trace(engine.run(s, s.max_assignment(), sample, gate=CommitAtOnce()), good)
    records = [json.loads(line) for line in good.read_text().splitlines()[:-1]]
    line, event = next((i, r) for i, r in enumerate(records, 1) if r["record"] == "event" and key in r["data"])
    del event["data"][key]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(_resummed([json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]))
    res = invoke("report", "--trace", str(bad))
    assert res.returncode == 3, res.stderr
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1, res.stderr  # one JSON line, no traceback
    err = json.loads(res.stderr)
    assert err["error"] == "CorruptLine"
    detail = f"no layout for a {event['kind']!r} event with payload keys {sorted(event['data'])}"
    assert err["message"] == f"line {line}: bad event: ValueError {detail}"


def test_report_on_a_non_integer_modality_exit_code_3(motivation_file, tmp_path):
    # the checksum is recomputed, so the file passes every check the reader makes
    good = tmp_path / "t.jsonl"
    res = invoke("run", "--scenario", motivation_file, "--out", str(good))
    assert res.returncode == 0, res.stderr
    records = [json.loads(line) for line in good.read_text().splitlines()[:-1]]
    line, event = next(
        (i, r) for i, r in enumerate(records, 1) if r["record"] == "event" and r["kind"] == "encode_start"
    )
    event["m"] = "x"
    bad = tmp_path / "bad.jsonl"
    bad.write_text(_resummed([json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]))
    res = invoke("report", "--trace", str(bad))
    assert res.returncode == 3, res.stderr
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1, res.stderr  # one JSON line, no traceback
    err = json.loads(res.stderr)
    assert err["error"] == "CorruptLine"
    assert err["message"] == f"line {line}: bad event: JSONTypeError m should be int, got str"


def test_sweep_over_its_limit_exit_code_1(tmp_path):
    # 43,046,721 assignments: the sweep refuses before writing any row
    scenario_path = tmp_path / "wide.json"
    scenario_path.write_text(scenario_io.serialize(workload.gen_scenario("random", seed=0, modalities=8)))
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--scenario", str(scenario_path), "--out", str(out)]
    res = run(CLI + args, timeout=60)
    assert res.returncode == 1, res.stderr
    assert res.stdout == "" and not out.exists()
    assert len(res.stderr.splitlines()) == 1, res.stderr  # one JSON line, no traceback
    err = json.loads(res.stderr)
    assert err["error"] == "UsageError"
    assert "43046721" in err["message"] and "1048576" in err["message"]
