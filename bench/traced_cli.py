"""Run one ``prefixlab`` CLI command under the layer tracer.

Usage: python3 bench/traced_cli.py REPORT_JSON CLI_ARG...

Writes the tracer's report (see ``tracer.Tracer.report``) to REPORT_JSON and
exits with the CLI's own exit code. ``prefixlab`` must be importable.
"""

import json
import sys
import time

from tracer import Tracer


def main(argv) -> int:
    report_path, cli_args = argv[0], argv[1:]
    from prefixlab import cli

    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        code = cli.main(cli_args)
        wall = time.perf_counter() - start
    with open(report_path, "w") as fh:
        json.dump(tracer.report(wall), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
