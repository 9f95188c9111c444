"""Module boundaries: each decision is known to one module.

Only `core.memoized` keeps values in an instance's `__dict__` (no module
memoizes with `functools.cached_property`), only `aggregation` (the
operators) and `engine` (the window-feature model) name the aggregate's
width, its default specs or the prediction head, and `workload` applies the
skip label rule in its oracle gate alone, at the prefixes `gating.checkpoints`
names.  A trace's events have one form,
`EventColumns`, so no module asks which form it holds, and the report reads
the columns rather than `Event`s; and one schema, so no module keeps an
event whole and the writer writes no event line by `json.dumps`.  Only `nn`
standardizes an MLP's inputs and runs its forward pass; the predictor and
the gate each call their `nn.MLP`.  Only `optimizer.product_levels` decodes a position in the
assignment product, and the CLI scores the surface in level arrays.  Only
`nn` runs a float kernel whose bits depend on the host: a matrix or vector
product (every other module calls `nn.dot`), `np.linalg`, exp or log.  Only
`core` states the JSON type rule that every document reader applies, to
each number of a weight array too, and a trace summary and a predictor's
encoding are written from the dataclasses they are read as.  Only `core`
writes a file: every output goes through its one writer, `write_whole`.
"""

import ast
import dataclasses
import pathlib
import re

import modalsim
from modalsim.engine import TraceSummary
from modalsim.predictor import EncodingSpec

SRC = pathlib.Path(modalsim.__file__).parent
SOURCES = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
FLOAT_KERNELS = {
    "dot", "matmul", "einsum", "inner", "vdot", "tensordot", "linalg",
    "exp", "expm1", "log", "log1p", "log2", "log10",
}
FEATURE_MODEL = ("aggregate_output_dim", "DEFAULT_SHIFT", "DEFAULT_DIFF", "prediction_head")


def test_only_core_touches_instance_dicts():
    assert [name for name, text in SOURCES.items() if "__dict__" in text] == ["core.py"]


def test_only_core_names_cached_property():
    assert [name for name, text in SOURCES.items() if "cached_property" in text] == ["core.py"]


def test_only_aggregation_and_engine_name_the_feature_model():
    named = {
        name: [word for word in FEATURE_MODEL if re.search(rf"\b{word}\b", text)]
        for name, text in SOURCES.items()
        if name not in ("aggregation.py", "engine.py")
    }
    assert {name: words for name, words in named.items() if words} == {}


def test_workload_picks_the_slow_modality_and_compares_labels_once():
    # the oracle gate builds a window's skip inputs and applies the label rule
    text = SOURCES["workload.py"]
    counts = {word: len(re.findall(rf"\b{word}\b", text)) for word in ("fused_label", "slow_modality")}
    assert counts == {"fused_label": 1, "slow_modality": 1}


def test_no_module_asks_whether_events_are_columns():
    asking = re.compile(r"isinstance\([^)]*\bEventColumns\b")
    assert [name for name, text in SOURCES.items() if asking.search(text)] == []


def identifiers(tree: ast.AST) -> set[str]:
    """Every name, attribute, argument and definition named in `tree`."""
    found = set()
    for node in ast.walk(tree):
        for field in ("id", "attr", "arg", "name"):
            if type(getattr(node, field, None)) is str:
                found.add(getattr(node, field))
    return found


def test_no_module_keeps_a_second_event_path():
    # every event has a layout in the one schema: no module keeps an event
    # whole, and the writer writes each event line from its layout's
    # template; `_dump` of `_event_record` is the reference, in `_trace_records` alone
    assert [name for name, text in SOURCES.items() if "whole" in identifiers(ast.parse(text))] == []
    tree = ast.parse(SOURCES["traceio.py"])
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    callers = {name for name, node in functions.items() if "_event_record" in identifiers(node)}
    assert callers - {"_event_record"} == {"_trace_records"}
    assert not {"_dump", "dumps", "json"} & identifiers(functions["_column_lines"])


def test_report_does_not_read_events():
    assert not re.search(r"\.events\b", SOURCES["report.py"])


def test_only_nn_standardizes_and_runs_the_mlp():
    naming = re.compile(r"\bx_mean\b|\bx_scale\b|\bforward\(")
    assert [name for name, text in SOURCES.items() if naming.search(text)] == ["nn.py"]


def test_the_assignment_product_is_decoded_in_one_place():
    assert [name for name, text in SOURCES.items() if "unravel_index" in text] == []
    assert [name for name, text in SOURCES.items() if re.search(r"\bdivmod\(", text)] == ["optimizer.py"]
    # sweep decodes chunks and scores them with `surface.scores`, never one row per call
    assert not re.search(r"\bsurface\(|\.assignments\(\)", SOURCES["cli.py"])


def test_checkpoints_and_the_skip_label_are_defined_once():
    # `gating.checkpoints` is the one schedule of prefixes and
    # `OracleGate.label` the one label of a prefix
    assert [name for name in ("engine.py", "workload.py") if "ceil(" in SOURCES[name]] == []
    retired = re.compile(r"\bcheckpoint_indices\b|\bagrees\(")
    assert [name for name, text in SOURCES.items() if retired.search(text)] == []


def test_one_module_defines_the_json_type_rule():
    # `core.json_value` checks a value's JSON type and `core.read_record`
    # reads a record by its type hints; the readers' own rules are gone
    defining = re.compile(r"^def (json_value|read_record)\b|\bget_type_hints\b", re.M)
    assert [name for name, text in SOURCES.items() if defining.search(text)] == ["core.py"]
    retired = re.compile(r"\b(_is_number|_KINDS|_exact|_record|_json_str|_json_float|_typed)\b|\bnn\.fields\(")
    assert [name for name, text in SOURCES.items() if retired.search(text)] == []


def string_literals(text: str) -> set[str]:
    nodes = ast.walk(ast.parse(text))
    return {node.value for node in nodes if isinstance(node, ast.Constant) and type(node.value) is str}


def test_weight_arrays_and_written_records_follow_their_one_statement():
    # each weight-array number is read by `core.json_value`, not by its
    # numpy dtype, and a trace summary and a predictor's encoding are written
    # from their dataclasses, which name their fields once for writer and reader
    assert "dtype.kind" not in SOURCES["nn.py"]
    for module, cls in (("traceio.py", TraceSummary), ("predictor.py", EncodingSpec)):
        fields = {field.name for field in dataclasses.fields(cls)}
        assert fields & string_literals(SOURCES[module]) == set(), module


def float_kernels(text: str) -> list[str]:
    """Each `@` product and each `np.`/`numpy.` float kernel in `text`, by
    line; a decorator's `@` and an attribute such as `columns.log` are not."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in FLOAT_KERNELS
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_only_nn_runs_float_kernels():
    found = {name: float_kernels(text) for name, text in SOURCES.items() if name != "nn.py"}
    assert {name: kernels for name, kernels in found.items() if kernels} == {}
    assert float_kernels(SOURCES["nn.py"])  # the scan sees the kernels where they are


def test_the_float_kernel_scan_skips_decorators_and_fields():
    text = "@memoized\ndef f(a, b, c):\n    a @= b\n    return c.log, np.linalg.norm(a @ b), numpy.exp(c)\n"
    assert sorted(float_kernels(text)) == ["3: @", "4: @", "4: np.linalg", "4: numpy.exp"]


def file_writes(text: str) -> list[str]:
    """Each call in `text` that writes a file, by line: `write_text`,
    `write_bytes`, and an `open` whose mode writes, appends, creates or
    updates, or is not a literal."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.Call):
            continue
        name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        if name in ("write_text", "write_bytes"):
            found.append(f"{node.lineno}: {name}")
        elif name == "open":
            at = 1 if isinstance(node.func, ast.Name) else 0  # open(path, mode), path.open(mode)
            modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[at : at + 1]
            mode = modes[0] if modes else ast.Constant("r")
            if not (isinstance(mode, ast.Constant) and type(mode.value) is str) or set(mode.value) & set("wax+"):
                found.append(f"{node.lineno}: open")
    return found


def test_only_core_writes_files():
    found = {name: file_writes(text) for name, text in SOURCES.items() if name != "core.py"}
    assert {name: writes for name, writes in found.items() if writes} == {}
    assert len(file_writes(SOURCES["core.py"])) == 1  # the scan sees `write_whole`'s one open


def test_the_file_write_scan_skips_reads():
    text = (
        "open(p)\nopen(p, 'rb')\nPath(p).open()\nPath(p).read_text()\nopen(p, mode='r')\n"
        "open(p, 'ab')\nPath(p).open('w')\nopen(p, mode=m)\nio.open(p, 'r+')\np.write_text(t)\np.write_bytes(b)\n"
    )
    assert file_writes(text) == ["6: open", "7: open", "8: open", "9: open", "10: write_text", "11: write_bytes"]
