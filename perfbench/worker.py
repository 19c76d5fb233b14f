"""One benchmark worker: a fresh interpreter that serves one pass of requests.

    python perfbench/worker.py '<config json>'       serve requests on stdin
    python perfbench/worker.py cli-trace '<argv json>'  run one traced `toda` command

The worker imports ``toda_spectrum`` (with ``src`` on ``PYTHONPATH``), installs
the span wrappers only when the config asks for tracing, computes the library
reference masses the oracle needs for `spectrum` commands, then prints a ready
line. After that it answers one JSON request per stdin line with one JSON line
on stdout, and on end of input prints a final line with its peak RSS and, when
traced, its spans. CLI requests run `python -m toda_spectrum.cli` as a child
process, so the peak RSS of a CLI pass is that of the largest child.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import subprocess
import sys

CLI_TIMEOUT_S = 120


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _handlers(ts):
    # look names up on the package at call time, so installed wrappers are used
    def spectrum_both(alg):
        pf = ts.spectrum_method1(alg)
        mm = ts.spectrum_method2(alg)
        spread = ts.mass_ratio_spread(alg)
        return {"pf": list(pf.mass_squares), "massmatrix": list(mm.mass_squares), "spread": spread}

    def charpoly_b(alg):
        return [str(c) for c in ts.mass_char_poly(alg).coefficients]

    def spectrum_massmatrix(alg):
        return list(ts.spectrum_method2(alg).mass_squares)

    def perron(alg):
        return list(ts.perron_components(alg))

    def exponents(alg):
        eig = ts.adjacency_eigen(alg)
        return list(ts.recover_exponents(eig.eigenvalues, ts.root_system(alg).coxeter_number))

    return {
        "spectrum_both": spectrum_both,
        "charpoly_b": charpoly_b,
        "spectrum_massmatrix": spectrum_massmatrix,
        "perron": perron,
        "exponents": exponents,
    }


def _run_cli(argv: list[str], traced: bool) -> dict:
    if traced:
        cmd = [sys.executable, os.path.abspath(__file__), "cli-trace", json.dumps(argv)]
    else:
        cmd = [sys.executable, "-m", "toda_spectrum.cli", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    answer = {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-400:]}
    if traced and proc.returncode == 0:
        answer.update(json.loads(proc.stdout), stdout="")
    return answer


def _references(ts, argvs: list[list[str]]) -> dict:
    """Library masses for each `spectrum` command, keyed by the joined argv."""
    refs = {}
    for argv in argvs:
        alg, method, norm = argv[1], argv[argv.index("--method") + 1], argv[argv.index("--normalize") + 1]
        routes = {"pf": ts.spectrum_method1, "massmatrix": ts.spectrum_method2}
        if method != "both":
            routes = {method: routes[method]}
        refs[" ".join(argv)] = {m: list(f(alg).rescaled(norm).masses) for m, f in routes.items()}
    return refs


def serve(config: dict) -> None:
    import toda_spectrum as ts

    tracer = None
    if config["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    handlers = _handlers(ts)
    _emit({"ready": True, "refs": _references(ts, config["prepare"])})

    for line in iter(sys.stdin.readline, ""):
        req = json.loads(line)
        if tracer:
            tracer.request = req["id"]
        try:
            if req["kind"] == "cli":
                answer = _run_cli(req["argv"], config["trace"])
            else:
                answer = handlers[req["kind"]](req["algebra"])
        except Exception as exc:  # a failed request is counted, and the pass goes on
            _emit({"id": req["id"], "error": f"{type(exc).__name__}: {exc}"})
            continue
        _emit({"id": req["id"], "answer": answer})

    usage = resource.RUSAGE_CHILDREN if config["cli"] else resource.RUSAGE_SELF
    final = {"maxrss_kb": resource.getrusage(usage).ru_maxrss, "tracer_loaded": "tracer" in sys.modules}
    if tracer:
        final.update(tracer.export())
    _emit(final)


def traced_cli(argv: list[str]) -> int:
    """Run one `toda` command in-process with spans, stdout discarded."""
    import toda_spectrum.cli as cli
    from tracer import CLI_COMMAND, Tracer

    tracer = Tracer()
    tracer.install()
    rc = 0
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            tracer.call(CLI_COMMAND, cli.main, argv, standalone_mode=False)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    _emit(tracer.export())
    return rc


if __name__ == "__main__":
    if sys.argv[1] == "cli-trace":
        sys.exit(traced_cli(json.loads(sys.argv[2])))
    serve(json.loads(sys.argv[1]))
