"""Run one ``ribboncells`` command in this interpreter with every layer
traced, and write the spans out when it ends.

    python bench/traced_cli.py SPANS.json OP_ID -- <ribboncells arguments>

The exit code and standard output are the command's own.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json OP_ID -- ARGS...")
    tracer = Tracer()
    tracer.current_op = int(op_id)
    tracer.install()
    import ribboncells.cli

    try:
        return ribboncells.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
