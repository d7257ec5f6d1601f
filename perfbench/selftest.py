"""Self-tests of the benchmark: the oracles, and every check on wrong answers.

    python3 perfbench/selftest.py

Each workload check must accept the program's real output and reject a
deliberately wrong one.  Small hosts keep this under a minute.
"""

import json
import os
import random
import shutil
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
from layertrace import (  # noqa: E402
    HIGHER_IS_BETTER, LAYER_METRICS, layer_metrics)
import workloads as wl  # noqa: E402
import voaforms.forms as fm  # noqa: E402
from voaforms.voa import EvenLattice, TruncatedVOA  # noqa: E402


class OracleTests(unittest.TestCase):
    def test_dimensions_from_theta_series(self):
        self.assertEqual(oracles.graded_dimensions(wl.A2, 3), [1, 8, 17, 46])
        self.assertEqual(oracles.graded_dimensions(wl.A1, 5),
                         [1, 3, 4, 7, 13, 19])
        for gram, cutoff in ((wl.A1, 6), (wl.A2, 4), ([[4]], 4),
                             ([[2, 0], [0, 4]], 3)):
            V = TruncatedVOA(EvenLattice(gram), cutoff)
            self.assertEqual(oracles.graded_dimensions(gram, cutoff),
                             [V.dim(d) for d in range(cutoff + 1)])

    def test_inverse(self):
        inv = oracles.inverse(wl.A2)
        self.assertEqual(inv, [[Fraction(2, 3), Fraction(-1, 3)],
                               [Fraction(-1, 3), Fraction(2, 3)]])
        self.assertEqual(oracles.lcm_of_denominators(inv), 3)
        self.assertIsNone(oracles.inverse([[1, 2], [2, 4]]))

    def test_membership_and_exponent(self):
        basis = [[2, 0, 0], [0, 3, 0]]
        self.assertTrue(oracles.members(basis, [[2, 3, 0], [4, -6, 0]]))
        self.assertFalse(oracles.members(basis, [[1, 0, 0]]))
        self.assertFalse(oracles.members(basis, [[0, 0, 1]]))
        self.assertEqual(oracles.quotient_exponent(
            [[1, 0], [0, 1]], [[2, 0], [0, 6]]), 6)
        self.assertEqual(oracles.quotient_exponent(
            [[1, 1], [0, 1]], [[1, 1], [0, 1]]), 1)


class MetricListTests(unittest.TestCase):
    def test_benchmark_json_lists_what_the_runs_report(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOAD_NAMES))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         list(LAYER_METRICS))
        units = layer_metrics(({}, {}, {}, {}), 1.0)
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], units[m["name"]][1], m["name"])
            want = "higher" if m["name"] in HIGHER_IS_BETTER else "lower"
            self.assertEqual(m["better"], want, m["name"])


class CheckTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        cls.workdir = tempfile.mkdtemp(prefix="selftest-", dir=out)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def test_build_check(self):
        V = TruncatedVOA(EvenLattice(wl.A1), 3)
        J = fm.standard_form(V)
        dims = oracles.graded_dimensions(wl.A1, 3)

        def problems(form):
            return wl.check_built_form(form, fm.check_lattice_integral(form),
                                       dims, random.Random(1), 12)

        self.assertEqual(problems(J), [])
        self.assertTrue(problems(J.with_scaled_degree(1, Fraction(1, 2))))
        self.assertTrue(problems(J.with_scaled_degree(0, 2)))
        self.assertTrue(wl.check_built_form(
            J, fm.check_lattice_integral(J), [1, 3, 4, 8],
            random.Random(1), 0))

    def test_invariant_check(self):
        st = wl.invariant_setup(0, self.workdir, cutoff=2)
        r = wl.invariant_op(st)
        self.assertEqual(wl.invariant_check(st, r), [])
        bad_exps = dict(r["exps"])
        bad_exps[1] *= 2
        m1, m2 = r["rescale"]
        for change in ({"exps": bad_exps}, {"rescale": (m1, 2 * m2)},
                       {"rescale": (2, m2)}, {"tel": {1: 4}},
                       {"stable": [True, False, True]}, {"K": st["J"]}):
            self.assertTrue(wl.invariant_check(st, {**r, **change}), change)

    def test_diverge_check(self):
        st = {**wl.diverge_setup(0, self.workdir), "cutoff": 2,
              "iter_bound": 3}
        err = wl.diverge_op(st)
        self.assertEqual(wl.diverge_check(st, err), [])
        converging = {**st, "generators": ("1 * e(1)", "1 * e(-1)")}
        self.assertTrue(wl.diverge_check(st, wl.diverge_op(converging)))
        self.assertTrue(wl.diverge_check({**st, "iter_bound": 4}, err))
        flat = fm.SaturationError("x", [{0: 4}, {0: 4}, {0: 16}])
        self.assertTrue(wl.diverge_check(st, flat))
        odd = fm.SaturationError("x", [{0: 4}, {0: 12}, {0: 16}])
        self.assertTrue(wl.diverge_check(st, odd))

    def test_verify_check(self):
        st = wl.verify_setup(0, self.workdir, cutoff=3)
        rc, out = wl.verify_op(st)
        self.assertEqual(wl.verify_check(st, (rc, out)), [])
        self.assertTrue(wl.verify_check(st, (3, out)))
        self.assertTrue(wl.verify_check(st, (0, "")))
        failed = out.replace('"passed": true', '"passed": false', 1)
        self.assertNotEqual(failed, out)
        self.assertTrue(wl.verify_check(st, (0, failed)))
        self.assertTrue(wl.verify_check(st, (rc, out.replace(
            '"degrees<=3"', '"degrees<=2"'))))
        self.assertTrue(wl.verify_check({**st, "dims": [1, 3, 4, 8]},
                                        (rc, out)))


if __name__ == "__main__":
    unittest.main()
