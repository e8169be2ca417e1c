"""Command-line entry point: one subcommand per experiment kind, plus replay.

Exit status is 0 exactly when every configured assertion passed (for replay:
when every replayed record matched bit-exactly).
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import KINDS, ExperimentConfig, load_records, replay, run_experiment


def _parse_seeds(spec: str) -> list:
    """Seed list syntax: comma-separated values and start:stop ranges."""
    seeds = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            lo, hi = token.split(":")
            seeds.extend(range(int(lo), int(hi)))
        else:
            seeds.append(int(token))
    if not seeds:
        raise ValueError(f"no seeds in {spec!r}")
    return seeds


def _load_config(args, kind: str) -> ExperimentConfig:
    with open(args.config) as fh:
        data = json.load(fh)
    if "kind" in data and data["kind"] != kind:
        raise ValueError(f"config kind {data['kind']!r} does not match subcommand {kind!r}")
    data["kind"] = kind
    if args.seeds:
        data["seeds"] = _parse_seeds(args.seeds)
    if args.workers is not None:
        data["workers"] = args.workers
    if args.out:
        data["out_dir"] = args.out
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="powercycle",
        description="seeded experiments on clique expansion and cycle-power embedding",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind, help=f"run a {kind} experiment")
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--seeds", help="override seeds, e.g. 0:100 or 1,2,5")
        sp.add_argument("--workers", type=int, help="worker processes")
        sp.add_argument("--out", help="output directory for JSONL/CSV")
    rp = sub.add_parser("replay", help="re-run stored trial records and compare bit-exactly")
    rp.add_argument("--config", required=True)
    rp.add_argument("--records", required=True, help="JSONL file of trial records")
    rp.add_argument("--limit", type=int, default=0, help="replay at most this many records")

    args = parser.parse_args(argv)

    if args.command == "replay":
        config = ExperimentConfig.from_file(args.config)
        records = load_records(args.records)
        if args.limit:
            records = records[: args.limit]
        mismatches = 0
        for record in records:
            match, _ = replay(config, record)
            mismatches += not match
        print(f"replayed {len(records)} records, {mismatches} mismatches")
        return 1 if mismatches else 0

    config = _load_config(args, args.command)
    summary = run_experiment(config)
    print(
        json.dumps(
            {
                "kind": summary.kind,
                "trials": summary.n_trials,
                "ok_fraction": summary.ok_fraction,
                "stages": summary.stats["stages"],
                "errors": summary.stats["errors"],
                "assertions_passed": summary.assertions_passed,
            },
            indent=2,
        )
    )
    return 0 if summary.assertions_passed else 1


if __name__ == "__main__":
    sys.exit(main())
