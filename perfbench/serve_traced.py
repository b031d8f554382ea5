"""``python -m repro.serve`` with the layer wrappers installed.

Usage: ``python perfbench/serve_traced.py --spans OUT.json <serve args>``.
Stop it with SIGINT: the server drains, its main returns, and the spans
recorded in this process are written to ``OUT.json``.
"""

import sys

import tracing


def main() -> None:
    argv = sys.argv[1:]
    at = argv.index("--spans")
    spans_path = argv[at + 1]
    del argv[at:at + 2]
    rec = tracing.Recorder()
    tracing.install(rec)
    from repro.serve.httpd import main as serve

    try:
        serve(argv)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    main()
