"""Command-line entry point: one subcommand per experiment kind, plus replay.

Exit status is 0 exactly when every configured assertion passed (for replay:
when every replayed record matched bit-exactly).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .harness import KINDS, ExperimentConfig, check_replayable, load_records, replay, run_experiment


def _parse_seeds(spec: str) -> list:
    """Seed list syntax: comma-separated values and nonempty start:stop ranges."""
    seeds = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        match = re.fullmatch(r"(\d+)(?::(\d+))?", token)
        if match:
            lo = int(match[1])
            hi = int(match[2]) if match[2] else lo + 1
        if not match or hi <= lo:
            raise ValueError(f"--seeds: bad token {token!r}; expected N or START:STOP with STOP above START")
        seeds.extend(range(lo, hi))
    if not seeds:
        raise ValueError(f"--seeds: no seeds in {spec!r}")
    return seeds


def _load_config(args, kind: str) -> ExperimentConfig:
    with open(args.config) as fh:
        data = json.load(fh)
    if kind == "replay":
        return ExperimentConfig.from_dict(data)
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
        sp.add_argument("--out", help="output directory for the JSONL records and JSON summary")
    rp = sub.add_parser("replay", help="re-run stored trial records and compare bit-exactly")
    rp.add_argument("--config", required=True)
    rp.add_argument("--records", required=True, help="JSONL file of trial records")
    rp.add_argument("--limit", type=int, default=0, help="replay at most this many records")

    args = parser.parse_args(argv)
    try:
        config = _load_config(args, args.command)
        if args.command == "replay":
            if args.limit < 0:
                raise ValueError(f"--limit: must be a non-negative integer (0 replays every record), got {args.limit}")
            records = load_records(args.records)
            for record in records:  # every record, before the first replay
                check_replayable(config, record)
            records = records[: args.limit or None]
        else:
            summary = run_experiment(config)
    except ValueError as err:  # a bad config, seed list, limit, records file or out_dir: usage error
        parser.error(str(err))

    if args.command == "replay":
        mismatches = 0
        for record in records:
            match, _ = replay(config, record)
            mismatches += not match
        print(f"replayed {len(records)} records, {mismatches} mismatches")
        return 1 if mismatches else 0

    print(
        json.dumps(
            {
                "kind": config.kind,
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
