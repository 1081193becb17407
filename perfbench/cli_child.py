"""Traced CLI process: `python3 perfbench/cli_child.py SPANS.json ARGS...`
runs `factordiff ARGS...` with the tracer installed and writes the spans it
recorded to SPANS.json before exiting with the CLI's exit code.

The span `cli.main` covers the CLI's own work; a linear-family path built by
`track` is wrapped so its evaluations show as `path.evaluate`.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import factordiff.cli as cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    path_spec = cli.PathSpec

    def traced_path_spec(evaluate, **kwargs):
        return path_spec(evaluate=tracer.wrap_evaluate(evaluate), **kwargs)

    cli.PathSpec = traced_path_spec
    idx = tracer.begin("cli.main")
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.end(idx)
        tracer.uninstall()
        cli.PathSpec = path_spec
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    sys.exit(code)
