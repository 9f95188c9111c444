"""Command-line entry points.

Exit codes: 0 success, 1 usage error (including a flag value the scenario
cannot use, such as --oracle or a full sweep over more assignments than
brute force scores), 2 scenario/input validation failure (including a
malformed or unreadable model or scenario file, or a gate built for other
modalities), 3 runtime failure (including a trace file the reader or the
report cannot use, or a predictor whose score or a gate whose probability
is not a finite number).  Failures print one machine-readable JSON line on
stderr.  Wall-clock measurements (optimizer decision latency) also go to
stderr so every file and stdout byte is a pure function of the flags and
seeds.

Every `--out` file is written whole or not at all (`core.write_whole`), as
its pieces are made: a command that fails leaves its `--out` as it was.  An
`--out` that is a directory fails (exit 2) before any command does work.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import core, engine, gating, optimizer, predictor, report, scenario_io, traceio, workload
from .core import (
    ConfigAssignment,
    Difficulty,
    ExecutionMode,
    InvalidScenario,
    ModalsimError,
    check_assignment,
    validate_scenario,
)
from .latency import unimodal_table
from .nn import WeightFormatError
from .scenario_io import ScenarioFormatError

USAGE_ERROR = 1
VALIDATION_ERROR = 2
RUNTIME_ERROR = 3


class UsageError(Exception):
    """A flag value that parses but that the command cannot use."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        _diag("UsageError", message)
        raise SystemExit(USAGE_ERROR)


def _diag(code: str, message: str, **extra) -> None:
    print(json.dumps({"error": code, "message": message, **extra}, sort_keys=True), file=sys.stderr)


def _note(kind: str, **extra) -> None:
    print(json.dumps({"diagnostic": kind, **extra}, sort_keys=True), file=sys.stderr)


def _at_least(low: int, kind=int):
    """The argparse type of a finite `kind` value of at least `low`."""

    def parse(text: str):
        value = kind(text)
        if not low <= value < math.inf:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be finite and at least {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="modalsim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    scenario_help = "scenario file, or a preset name like lrw-like / motivation-av@7"

    run = sub.add_parser("run", help="simulate samples and write a trace file")
    run.add_argument("--scenario", required=True, help=scenario_help)
    run.add_argument("--mode", choices=[m.value for m in ExecutionMode])
    run.add_argument("--gate", help="gate model file enabling speculative skipping")
    run.add_argument("--optimize", action="store_true", help="pick the assignment per sample")
    run.add_argument(
        "--predictor",
        help="predictor model file for --optimize; defaults to the scenario's accuracy surface",
    )
    run.add_argument("--t-max", type=int, help="override latency budget, in ms")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--samples", type=_at_least(1), default=1)
    run.add_argument("--difficulty", default="easy", choices=[d.value for d in Difficulty])
    run.add_argument("--assignment", default="max", help='"min", "max", or "s:m,s:m,..."')
    run.add_argument("--out", required=True)

    opt = sub.add_parser("optimize", help="print the chosen assignment for one sample")
    opt.add_argument("--scenario", required=True)
    opt.add_argument("--predictor", required=True)
    opt.add_argument("--oracle", action="store_true", help="also run brute force and print the gap")
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--t-max", type=int, help="override latency budget, in ms")

    sweep = sub.add_parser("sweep", help="per-assignment latency/accuracy CSV over the full grid")
    sweep.add_argument("--scenario", required=True)
    sweep.add_argument("--grid", default="full", choices=["full"])
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", required=True)

    prof = sub.add_parser("profile", help="materialize the latency lookup table")
    prof.add_argument("--scenario", required=True)
    prof.add_argument("--out", required=True)

    tp = sub.add_parser("train-predictor", help="train the accuracy predictor offline")
    tp.add_argument("--scenario", required=True)
    tp.add_argument("--seed", type=int, default=0)
    tp.add_argument("--samples", type=_at_least(1), default=120)
    tp.add_argument("--epochs", type=_at_least(0), default=4000)
    tp.add_argument("--noise", type=_at_least(0, float), default=0.0, help="label noise sigma, percent")
    tp.add_argument("--out", required=True)

    tg = sub.add_parser("train-gate", help="train the skip gate offline")
    tg.add_argument("--scenario", required=True)
    tg.add_argument("--seed", type=int, default=0)
    tg.add_argument("--samples", type=_at_least(1), default=60)
    tg.add_argument("--epochs", type=_at_least(0), default=3000)
    tg.add_argument("--out", required=True)

    rep = sub.add_parser("report", help="latency breakdown CSV from a trace file")
    rep.add_argument("--trace", required=True)
    rep.add_argument("--out", help="write CSV here instead of stdout")

    return p


def _load_scenario(spec: str, mode: str | None = None, t_max_ms: int | None = None):
    """Load a scenario file, or build a preset given `name` / `name@seed`."""
    import dataclasses

    name, at, seed_text = spec.partition("@")
    if name in workload.PRESETS:
        try:
            seed = int(seed_text) if at else 0
        except ValueError:
            raise UsageError(f"--scenario {spec!r}: preset seed must be an integer") from None
        scenario = workload.gen_scenario(name, seed=seed)
    else:
        scenario = scenario_io.load(spec)
    if mode:
        scenario = dataclasses.replace(scenario, execution_mode=ExecutionMode(mode))
    if t_max_ms is not None:
        scenario = dataclasses.replace(scenario, t_max_us=t_max_ms * 1000)
    return validate_scenario(scenario)


def _parse_assignment(text: str, scenario):
    if text == "min":
        return scenario.min_assignment()
    if text == "max":
        return scenario.max_assignment()
    try:
        pairs = []
        for part in text.split(","):
            s, m = part.split(":")
            pairs.append((int(s), int(m)))
        assignment = ConfigAssignment(tuple(pairs))
        check_assignment(scenario, assignment)
    except ValueError as exc:
        raise UsageError(f"--assignment {text!r}: {exc}") from None
    return assignment


def _check_gate(gate, scenario) -> None:
    """The gate must read the fused features of all but one modality (fast)
    and of that one (slow), as the engine builds them for this scenario."""
    widths = engine.feature_widths(scenario)
    if not any((gate.fast_dim, gate.slow_dim) == (sum(widths) - w, w) for w in widths):
        raise WeightFormatError(
            f"gate dims (fast {gate.fast_dim}, slow {gate.slow_dim}) do not fit "
            f"scenario {scenario.name!r}, whose modality feature widths are {widths}"
        )


def _cmd_run(args) -> int:
    scenario = _load_scenario(args.scenario, args.mode, args.t_max)
    gate = gating.load_gate(args.gate) if args.gate else None
    if gate is not None:
        _check_gate(gate, scenario)
    model = predictor.load_model(args.predictor) if args.predictor else None
    samples = workload.iter_samples(scenario, args.samples, args.difficulty, seed=args.seed)

    scorer = model
    if args.optimize and model is None:
        scorer = workload.gen_accuracy_surface(scenario)

    def windows():
        for sample in samples:  # made as its window is, and dropped once the window is written
            decision = None
            if args.optimize:
                decision = optimizer.optimizer_step(
                    sample, scenario, scorer, engine.apply_resource_schedule(scenario, 0)
                )
                _note(
                    "DecisionLatency",
                    sample_id=sample.id,
                    decision_latency_us=decision.decision_latency_us,
                )
                assignment = decision.assignment
            else:
                assignment = _parse_assignment(args.assignment, scenario)
            yield engine.run(scenario, assignment, sample, gate=gate, config_decision=decision)

    traceio.write_trace(windows(), args.out)
    print(f"wrote {args.samples} trace(s) to {args.out}")
    return 0


def _cmd_optimize(args) -> int:
    scenario = _load_scenario(args.scenario, None, args.t_max)
    model = predictor.load_model(args.predictor)
    sample = workload.gen_samples(scenario, 1, "easy", seed=args.seed)[0]
    resource = engine.apply_resource_schedule(scenario, 0)
    decision = optimizer.optimizer_step(sample, scenario, model, resource)
    out = {
        "assignment": [list(p) for p in decision.assignment.pairs],
        "score": decision.score,
    }
    if args.oracle:
        ind = optimizer.probe_indicators(scenario, sample)
        try:
            oracle = optimizer.brute_force(scenario, ind, model, resource)
        except optimizer.SearchSpaceTooLarge as exc:
            raise UsageError(f"--oracle: {exc}") from None
        out["oracle_score"] = oracle.best_score
        out["oracle_assignment"] = [list(p) for p in oracle.best.pairs]
        out["gap"] = oracle.best_score - decision.score
        out["feasible_count"] = oracle.feasible_count
    print(json.dumps(out, sort_keys=True))
    _note("DecisionLatency", decision_latency_us=decision.decision_latency_us)
    return 0


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args.scenario)
    options = [np.array(scenario.level_pairs(i)) for i in range(len(scenario.modalities))]
    count = math.prod(len(pairs) for pairs in options)
    if count > optimizer.BRUTE_FORCE_LIMIT:
        limit = optimizer.BRUTE_FORCE_LIMIT
        raise UsageError(f"--grid full: {count} assignments exceed the limit of {limit}")
    surface = workload.gen_accuracy_surface(scenario)
    sample = workload.gen_samples(scenario, 1, "easy", seed=args.seed)[0]
    ind = optimizer.probe_indicators(scenario, sample)
    # end-to-end latency is the slowest modality's unimodal latency plus fusion
    tables = unimodal_table(scenario, engine.apply_resource_schedule(scenario, 0))
    fusion_us = scenario.latency_profile.fusion_us
    row = ";".join(["%d:%d"] * len(options)) + ",%d,%r\n"
    chunk = optimizer.BRUTE_FORCE_CHUNK

    def chunks():  # one chunk at a time, as it is made
        yield b"assignment,latency_us,accuracy_pct\n"
        for start in range(0, count, chunk):
            levels = optimizer.product_levels(options, np.arange(start, min(start + chunk, count)))
            lat = np.max([t[tuple(levels[:, i].T)] for i, t in enumerate(tables)], axis=0) + fusion_us
            ints = np.column_stack((levels.reshape(len(levels), -1), lat)).tolist()  # levels, latency
            yield "".join(row % (*r, a) for r, a in zip(ints, surface.scores(ind, levels).tolist())).encode()

    core.write_whole(args.out, chunks())
    print(f"wrote {count} rows to {args.out}")
    return 0


def _cmd_profile(args) -> int:
    scenario = _load_scenario(args.scenario)
    doc = scenario_io.to_document(scenario)["latency_profile"]
    core.write_whole(args.out, [(json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()])
    print(f"wrote profile ({len(doc['entries'])} entries) to {args.out}")
    return 0


def _cmd_train_predictor(args) -> int:
    scenario = _load_scenario(args.scenario)
    surface = workload.gen_accuracy_surface(scenario)
    samples = workload.gen_samples(
        scenario, args.samples, {"easy": 1.0, "medium": 1.0, "hard": 1.0}, seed=args.seed
    )
    dataset = workload.predictor_dataset(scenario, surface, samples, seed=args.seed, noise_pct=args.noise)
    spec = predictor.EncodingSpec.for_scenario(scenario)
    model = predictor.train(dataset, spec, predictor.TrainConfig(seed=args.seed, epochs=args.epochs))
    predictor.save_model(model, args.out)
    print(
        json.dumps(
            {
                "rows": len(dataset),
                "holdout_r2": model.info.holdout_r2,
                "holdout_mse": model.info.holdout_mse,
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_train_gate(args) -> int:
    scenario = _load_scenario(args.scenario)
    samples = workload.gen_samples(
        scenario, args.samples, {"easy": 1.0, "hard": 1.0}, seed=args.seed
    )
    dataset = workload.gate_dataset(scenario, samples)
    model = gating.gate_train(dataset, gating.GateTrainConfig(seed=args.seed, epochs=args.epochs))
    gating.save_gate(model, args.out)
    print(
        json.dumps(
            {
                "rows": len(dataset),
                "train_accuracy": model.info.train_accuracy,
                "holdout_accuracy": model.info.holdout_accuracy,
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_report(args) -> int:
    # each trace's lines are made as it is read; a file is kept once the last is read good
    traces = traceio.iter_traces(args.trace)
    lines = report.csv_lines(row for trace in traces for row in report.breakdown(trace))
    if args.out:
        core.write_whole(args.out, (line.encode() for line in lines))
        print(f"wrote report to {args.out}")
    else:
        sys.stdout.write("".join(lines))  # stdout cannot be taken back: held until the last is read good
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "profile": _cmd_profile,
    "train-predictor": _cmd_train_predictor,
    "train-gate": _cmd_train_gate,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "out", None) and Path(args.out).is_dir():  # every command but optimize has --out
            raise IsADirectoryError(f"Is a directory: {args.out!r}")
        return _COMMANDS[args.command](args)
    except (InvalidScenario, ScenarioFormatError, WeightFormatError) as exc:
        detail = getattr(exc, "violations", None) or getattr(exc, "problems", None)
        _diag(type(exc).__name__, str(exc), detail=[str(v) for v in detail] if detail else None)
        return VALIDATION_ERROR
    except UsageError as exc:
        _diag("UsageError", str(exc))
        return USAGE_ERROR
    except FileNotFoundError as exc:
        _diag("FileNotFound", str(exc))
        return VALIDATION_ERROR
    except OSError as exc:
        _diag(type(exc).__name__, str(exc))
        return VALIDATION_ERROR
    except ModalsimError as exc:
        _diag(type(exc).__name__, str(exc))
        return RUNTIME_ERROR
    except ValueError as exc:
        _diag("ValueError", str(exc))
        return RUNTIME_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
