"""Command-line front end: generate datasets, run scenarios, verify oracles.

Scenarios live in an INI-style file (one section per named experiment) so a
whole experiment is reproducible from its name and seed alone. Traces are
plain CSV meant for external plotting.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

from . import datagen
from .engine import RunConfig, run
from .oec import OecConfig
from .stream_io import (
    EventRecord,
    StreamSchema,
    read_stream,
    write_events,
    write_trace,
)

DEFAULT_SCENARIO_FILE = Path(__file__).resolve().parents[2] / "scenarios.ini"

# Scenario key -> (config class, field, parser). A key a section leaves out
# takes the field's default, so RunConfig and OecConfig own every default.
CONFIG_KEYS = {
    "algorithm": (RunConfig, "algorithm", str),
    "k": (RunConfig, "k", int),
    "indices": (RunConfig, "indices",
                lambda s: tuple(f.strip() for f in s.split(",") if f.strip())),
    "lambda": (RunConfig, "lam", float),
    "gamma_out": (OecConfig, "gamma_out", float),
    "n_s": (OecConfig, "n_s", int),
    "lambda_oec": (OecConfig, "lambda_oec", float),
}
# The other keys pick the stream: a generated dataset (and its seed) or a CSV.
SCENARIO_KEYS = ("dataset", "input", "features", "seed") + tuple(CONFIG_KEYS)


def nonnegative_int(text: str) -> int:
    """argparse type of --seed and --trials, which numpy rejects below 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def cmd_generate(args) -> int:
    gen = datagen.GENERATORS[args.dataset]
    seed = args.seed if args.seed is not None else datagen.DEFAULT_SEEDS[args.dataset]
    stream = gen(seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="\n", encoding="utf-8") as fh:
        for x, label in zip(stream.X(), stream.labels):
            coords = ",".join(repr(float(c)) for c in x)
            fh.write(f"{coords},{label}\n")
    events_path = out.with_suffix(out.suffix + ".events")
    write_events(
        [EventRecord(n=c, kind="ground_truth_change", detail="") for c in stream.change_events],
        events_path,
    )
    print(f"{args.dataset}: wrote {stream.n} samples to {out} "
          f"({len(stream.change_events)} change events in {events_path})")
    return 0


def _load_scenario(path: Path, name: str) -> configparser.SectionProxy:
    parser = configparser.ConfigParser()
    if not path.exists():
        raise SystemExit(f"scenario file not found: {path}")
    parser.read(path)
    if name not in parser:
        known = ", ".join(parser.sections())
        raise SystemExit(f"unknown scenario {name!r} in {path} (known: {known})")
    for key in parser[name]:
        if key not in SCENARIO_KEYS:
            raise SystemExit(
                f"scenario {name!r} in {path}: unknown key {key!r} "
                f"(known: {', '.join(SCENARIO_KEYS)})"
            )
    return parser[name]


def _scenario_config(sec) -> RunConfig:
    fields = {RunConfig: {}, OecConfig: {}}
    for key, (cls, name, parse) in CONFIG_KEYS.items():
        if key in sec:
            fields[cls][name] = parse(sec[key])
    return RunConfig(oec=OecConfig(**fields[OecConfig]), **fields[RunConfig])


def _load_points(sec):
    """The scenario's points, as vectors, and its ground-truth change events."""
    if "dataset" in sec:
        name = sec["dataset"]
        if name not in datagen.GENERATORS:
            known = ", ".join(datagen.GENERATORS)
            raise ValueError(f"unknown dataset {name!r} (known: {known})")
        seed = int(sec["seed"]) if "seed" in sec else datagen.DEFAULT_SEEDS[name]
        stream = datagen.GENERATORS[name](seed)
        return stream.X(), stream.change_events
    if "input" not in sec:
        raise ValueError("needs either 'dataset' or 'input'")
    schema = StreamSchema()
    if "features" in sec:
        schema = StreamSchema(feature_columns=tuple(int(c) for c in sec["features"].split(",")))
    points, _ = read_stream(sec["input"], schema)
    return [pt.x for pt in points], ()


def cmd_run(args) -> int:
    path = Path(args.scenario_file) if args.scenario_file else DEFAULT_SCENARIO_FILE
    sec = _load_scenario(path, args.scenario)
    try:
        config = _scenario_config(sec)
        points, change_events = _load_points(sec)
        trace, events = run(points, config, change_events)
    except (OSError, ValueError) as exc:
        print(f"scenario {args.scenario}: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{args.scenario}.trace.csv"
    events_path = out_dir / f"{args.scenario}.events.log"
    write_trace(trace, trace_path)
    write_events(events, events_path)
    undefined = sum(
        1 for r in trace for fam in config.indices if r.values.get(fam) is None
    )
    final_k = trace[-1].k if trace else 0
    print(f"{args.scenario}: {len(trace)} trace rows, final k={final_k}, "
          f"{undefined} undefined index values -> {trace_path}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verification

    report = run_verification(n_trials=args.trials, seed=args.seed or 0)
    for fam, err in sorted(report.max_rel_err.items()):
        print(f"{fam:<10} max relative error {err:.3e}")
    print(f"stacked vs one-row updates max |diff| {report.lambda_one_err:.3e}")
    print(f"k=1 fallback  max relative error {report.k1_err:.3e}")
    if report.passed:
        print(f"PASS ({len(report.trials)} trials)")
        return 0
    for tr in report.failures():
        worst_fam = max(tr.max_rel_err, key=tr.max_rel_err.get)
        print(f"FAIL seed={tr.seed} family={worst_fam} "
              f"err={tr.max_rel_err[worst_fam]:.3e} step={tr.worst_step[worst_fam]}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamcvi",
        description="Incremental cluster validity indices over data streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic stream")
    g.add_argument("dataset", choices=("s1", "s2", "s3"))
    g.add_argument("--seed", type=nonnegative_int, default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", help="run a named scenario")
    r.add_argument("scenario")
    r.add_argument("--scenario-file", default=None)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="run the incremental-vs-batch oracle suite")
    v.add_argument("--trials", type=nonnegative_int, default=100)
    v.add_argument("--seed", type=nonnegative_int, default=0)
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
