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

# Every key _scenario_config reads; any other key in a scenario is an error.
SCENARIO_KEYS = (
    "dataset", "input", "features", "seed",
    "algorithm", "k", "indices", "lambda",
    "gamma_out", "n_s", "lambda_oec",
)


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


def _scenario_config(sec, args) -> tuple[RunConfig, dict]:
    indices = args.indices or sec.get("indices", "xb,xb_lambda,db,db_lambda")
    lam = args.lam if args.lam is not None else sec.getfloat("lambda", 0.9)
    seed = args.seed if args.seed is not None else sec.getint("seed", 0)
    oec = OecConfig(
        gamma_out=sec.getfloat("gamma_out", 0.999),
        n_s=sec.getint("n_s", 20),
        lambda_oec=sec.getfloat("lambda_oec", 0.9),
    )
    config = RunConfig(
        algorithm=sec.get("algorithm", "skmeans"),
        k=args.k if args.k is not None else sec.getint("k", 2),
        oec=oec,
        indices=tuple(s.strip() for s in indices.split(",") if s.strip()),
        lam=lam,
    )
    source = {
        "dataset": sec.get("dataset", fallback=None),
        "input": sec.get("input", fallback=None),
        "features": sec.get("features", "0,1"),
        "seed": seed,
    }
    return config, source


def _load_points(source):
    if source["dataset"]:
        stream = datagen.GENERATORS[source["dataset"]](source["seed"])
        return stream.X(), stream.change_events
    if not source["input"]:
        raise SystemExit("scenario needs either 'dataset' or 'input'")
    schema = StreamSchema(
        feature_columns=tuple(int(c) for c in source["features"].split(",")))
    points, _ = read_stream(source["input"], schema)
    return points, ()


def cmd_run(args) -> int:
    path = Path(args.scenario_file) if args.scenario_file else DEFAULT_SCENARIO_FILE
    sec = _load_scenario(path, args.scenario)
    config, source = _scenario_config(sec, args)
    try:
        points, change_events = _load_points(source)
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
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", help="run a named scenario")
    r.add_argument("scenario")
    r.add_argument("--scenario-file", default=None)
    r.add_argument("--out", default=None)
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--lambda", dest="lam", type=float, default=None)
    r.add_argument("--k", type=int, default=None)
    r.add_argument("--indices", default=None,
                   help="comma-separated subset of xb,xb_lambda,db,db_lambda")
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="run the incremental-vs-batch oracle suite")
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
