"""Run one `weldlab` CLI command with the tracer installed.

Usage: python cli_child.py SUMMARY_JSON ARGV...

Behaves like `python -m weldlab.cli ARGV...` (same stdout, stderr and exit
code) and writes the per-layer summary of the process to SUMMARY_JSON.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, op_summary  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import weldlab.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = weldlab.cli.main(argv)
    finally:
        tracer.uninstall()
        Path(out_path).write_text(json.dumps(op_summary(tracer.spans, tracer.counters)))
    return code


if __name__ == "__main__":
    sys.exit(main())
