"""Tests of the benchmark itself: oracle, request generator, tracing.

    python3 -m pytest perfbench/tests -q     (from the root of the repository)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import toda_spectrum as ts  # noqa: E402
from toda_spectrum import classical  # noqa: E402

ALGEBRAS = ["A1", "A6", "B2", "B5", "C3", "C6", "D4", "D7", "E6", "E7", "E8", "F4", "G2"]
SMALL_REQUESTS = [
    {"id": 0, "kind": "spectrum_both", "algebra": "E6"},
    {"id": 1, "kind": "charpoly_b", "algebra": "D5"},
    {"id": 2, "kind": "perron", "algebra": "B4"},
    {"id": 3, "kind": "exponents", "algebra": "G2"},
    {"id": 4, "kind": "spectrum_massmatrix", "algebra": "C3"},
]


def _answers(name: str) -> dict:
    return {
        "spectrum_both": {
            "pf": list(ts.spectrum_method1(name).mass_squares),
            "massmatrix": list(ts.spectrum_method2(name).mass_squares),
            "spread": ts.mass_ratio_spread(name),
        },
        "charpoly_b": [str(c) for c in ts.mass_char_poly(name).coefficients],
        "spectrum_massmatrix": list(ts.spectrum_method2(name).mass_squares),
        "perron": list(ts.perron_components(name)),
        "exponents": list(
            ts.recover_exponents(ts.adjacency_eigen(name).eigenvalues,
                                 ts.root_system(name).coxeter_number)
        ),
    }


class OracleDataTest(unittest.TestCase):
    """The oracle's own tables agree with the package's constructive data."""

    def test_algebra_data_matches_package(self):
        for name in ALGEBRAS:
            alg, rs = oracle.algebra(name), ts.root_system(name)
            self.assertEqual(alg.cartan, rs.cartan.entries, name)
            self.assertEqual(alg.gram, rs.gram, name)
            self.assertEqual(alg.marks, rs.marks, name)
            self.assertEqual(alg.coxeter, rs.coxeter_number, name)
            self.assertEqual(alg.positive_roots, len(rs.positive_roots), name)
            self.assertEqual(alg.exponents, classical.exponents(name[0], int(name[1:])), name)

    def test_mass_determinant_and_trace_match_exact_charpoly(self):
        for name in ALGEBRAS:
            coeffs = ts.mass_char_poly(name).coefficients
            alg = oracle.algebra(name)
            self.assertEqual(coeffs[0], (-1) ** alg.rank * alg.mass_det, name)
            self.assertEqual(coeffs[-2], -alg.mass_trace, name)
            self.assertEqual(sum(coeffs), alg.mass_charpoly_at_1, name)


class OracleSelfTest(unittest.TestCase):
    """Correct answers pass; slightly wrong ones are counted as failures."""

    def test_correct_answers_pass(self):
        for name in ALGEBRAS:
            for kind, answer in _answers(name).items():
                self.assertIsNone(oracle.check_answer(kind, name, answer), (name, kind))

    def test_perturbed_mass_fails(self):
        for name in ("E8", "B5", "D7"):
            answers = _answers(name)
            for kind in ("spectrum_both", "spectrum_massmatrix"):
                bad = json.loads(json.dumps(answers[kind]))
                squares = bad["pf"] if kind == "spectrum_both" else bad
                squares[2] *= (1 + 1e-6) ** 2  # one mass scaled by 1 + 1e-6
                self.assertIsNotNone(oracle.check_answer(kind, name, bad), (name, kind))

    def test_changed_charpoly_coefficient_fails(self):
        for name in ("E8", "C6", "G2"):
            good = _answers(name)["charpoly_b"]
            for k in range(len(good) - 1):
                bad = list(good)
                bad[k] = str(Fraction(bad[k]) + 1)
                self.assertIsNotNone(oracle.check_answer("charpoly_b", name, bad), (name, k))

    def test_wrong_perron_and_exponents_fail(self):
        answers = _answers("D6")
        perron = list(answers["perron"])
        perron[1] *= 1 + 1e-6
        self.assertIsNotNone(oracle.check_answer("perron", "D6", perron))
        self.assertIsNotNone(oracle.check_answer("exponents", "D6", [1, 3, 5, 7, 9, 11]))
        spread = dict(answers["spectrum_both"], spread=2e-9)
        self.assertIsNotNone(oracle.check_answer("spectrum_both", "D6", spread))

    def test_cli_spectrum_json_checked_against_library(self):
        argv = ["spectrum", "E7", "--method", "both", "--normalize", "first", "--format", "json"]
        proc = subprocess.run([sys.executable, "-m", "toda_spectrum.cli", *argv], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
        ref = {m: list(f("E7").rescaled("first").masses)
               for m, f in (("pf", ts.spectrum_method1), ("massmatrix", ts.spectrum_method2))}
        self.assertIsNone(oracle.check_cli(argv, proc.returncode, proc.stdout, ref))
        doc = json.loads(proc.stdout)
        doc["particles"][3]["pf"]["mass"] *= 1 + 1e-6
        self.assertIsNotNone(oracle.check_cli(argv, 0, json.dumps(doc), ref))
        self.assertIsNotNone(oracle.check_cli(argv, 1, proc.stdout, ref))


class GeneratorTest(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for name in workloads.GENERATORS:
            self.assertEqual(workloads.generate(name, 7), workloads.generate(name, 7))
            self.assertNotEqual(workloads.generate(name, 7), workloads.generate(name, 8))

    def test_pool_properties(self):
        exact = workloads.generate("exact_midrank", 3)
        pairs = {(r["algebra"], r["kind"]) for r in exact}
        self.assertEqual(len(pairs), len(exact))
        self.assertEqual({k for _, k in pairs}, set(workloads.EXACT_KINDS))
        self.assertTrue(all((a, k) in pairs for a, _ in pairs for k in workloads.EXACT_KINDS))

        floats = workloads.generate("float_highrank", 3)
        names = [r["algebra"] for r in floats]
        self.assertEqual(len(names), len(set(names)))
        per_kind = len(workloads.HIGHRANK_RANKS) // len(workloads.FLOAT_KINDS)
        for family in "ABCD":
            kinds = [r["kind"] for r in floats if r["algebra"][0] == family]
            self.assertEqual(len(kinds), len(workloads.HIGHRANK_RANKS))
            for kind in workloads.FLOAT_KINDS:
                self.assertGreaterEqual(kinds.count(kind), per_kind, (family, kind))

        argvs = [r["argv"] for r in workloads.generate("cli_cold", 3)]
        spectra = [a for a in argvs if a[0] == "spectrum"]
        self.assertEqual({a[a.index("--normalize") + 1] for a in spectra}, set(workloads.NORMALIZE))
        self.assertEqual({a[a.index("--format") + 1] for a in spectra}, set(workloads.FORMATS))
        self.assertTrue(all(oracle.algebra(a[1]).rank <= 10 for a in argvs if a[0] != "verify"))


class TracingTest(unittest.TestCase):
    def test_self_times_subtract_children(self):
        spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0],
                 ["d", 5.0, 6.0, 0, 0]]
        self.assertEqual(tracer.self_times(spans), [6.0, 2.0, 1.0, 1.0])

    def test_tracing_is_inert_and_records_spans(self):
        runner = run.Runner("exact_midrank", 0, ROOT)
        runner.requests = SMALL_REQUESTS
        plain = runner.run_pass(traced=False)
        traced = runner.run_pass(traced=True)
        self.assertEqual(plain.answers, traced.answers)
        self.assertEqual(runner.check(plain, plain), [])
        self.assertEqual(runner.check(traced, plain), [])
        self.assertFalse(plain.final["tracer_loaded"])
        self.assertTrue(traced.final["tracer_loaded"])
        names = {s[0] for s in traced.final["spans"]}
        self.assertIn("exact_poly.char_poly_exact", names)
        self.assertIn(tracer.MATMUL, names)
        self.assertIn("spectral.perron_vector", names)
        self.assertEqual({s[4] for s in traced.final["spans"]}, {r["id"] for r in SMALL_REQUESTS})
        metrics, _, by_algebra = run.layer_metrics(runner, traced)
        self.assertEqual(metrics["exact_poly.char_poly_exact.calls"], 2)  # D5 and E6's scale
        self.assertLess(metrics["spectral.jacobi_eigen.max_residual"], 1e-10)
        self.assertEqual(set(by_algebra), {"E6", "D5", "B4", "G2", "C3"})


class RunnerTest(unittest.TestCase):
    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as empty:
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
                 "cli_cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=empty, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
