"""Child processes of the benchmark; run.py starts each one fresh.

    python3 child.py setup COMMAND CONFIG
        Import treebench, parse the config and load the input the command
        starts from, then exit: the set-up cost of one CLI process.
    python3 child.py trace SUMMARY -- CLI-ARGS...
        Run ``treebench.cli.main(CLI-ARGS)`` under the span tracer and write
        the per-layer summary to SUMMARY as JSON.

Both print the path treebench was imported from, so run.py can check that
the sources under test are the checkout's own.
"""
from __future__ import annotations

import json
import sys


def setup(command: str, config_path: str) -> int:
    import treebench
    from treebench.cli import load_config
    from treebench.dataset import CategoricalTable, RecodeRuleSet, schema_from_json

    config = load_config(config_path)
    if command == "ingest":
        # The raw extract is the work being measured; set-up ends at the rules.
        RecodeRuleSet.from_json(config.rules.read_text())
    else:
        CategoricalTable.from_csv(config.table, schema_from_json(config.schema.read_text()))
    print(treebench.__file__)
    return 0


def trace(summary_path: str, cli_args: list[str]) -> int:
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    import treebench
    from treebench.cli import main

    try:
        code = main(cli_args)
    finally:
        tracer.uninstall()
    with open(summary_path, "w") as fh:
        json.dump({"metrics": tracer.summary(), "skipped": tracer.skipped,
                   "spans": len(tracer.spans)}, fh)
    print(treebench.__file__)
    return code


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        sys.exit(setup(*rest))
    if mode == "trace" and rest[1:2] == ["--"]:
        sys.exit(trace(rest[0], rest[2:]))
    sys.exit(f"usage: {sys.argv[0]} setup COMMAND CONFIG | trace SUMMARY -- CLI-ARGS")
