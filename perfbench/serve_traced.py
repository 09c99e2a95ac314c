"""``repro serve`` with the benchmark's span tracer installed.

    python perfbench/serve_traced.py SPANS.json serve --store DIR ...

Runs the CLI with the remaining arguments and, once the server has drained
(SIGTERM), writes every span it recorded to ``SPANS.json``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402

if __name__ == "__main__":
    tracer = spans.Tracer()
    spans.install(tracer)
    from repro.cli import main

    try:
        code = main(sys.argv[2:])
    finally:
        spans.dump(tracer, sys.argv[1])
    sys.exit(code)
