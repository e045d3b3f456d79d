"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

Run from the root of a checkout.  They check that a seed fixes the operation
list, that the bench-side references agree with the library at small n,
that a wrong expected value shows up as a non-zero error rate, and that the
traced run counts levels where the spectra layer delivers them.
"""

import copy
import os
import sys
import unittest
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import run  # noqa: E402
from worker import Worker  # noqa: E402

SMALL_N = 40


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_operations(self):
        for stream, n in ((run.deep_ops, 60), (run.verify_passes, 3), (run.cli_ops, 40)):
            self.assertEqual(run.take(stream(7), n), run.take(stream(7), n))
            self.assertNotEqual(run.take(stream(7), n), run.take(stream(8), n))

    def test_rounds_are_balanced(self):
        def stratum(op):
            if op["kind"] == "lens":
                return op["group"], op["gen"]
            spinor = op["twist"] in run.IRREPS[op["group"]]["spinor"]
            return op["group"], "spinor" if spinor else "nonspinor"
        lo, hi = run.DEPTH_BAND
        for round_ in run.take(run.deep_ops(3), 4):
            self.assertEqual(len({stratum(op) for op in round_}), 18)
            depths = sorted(op["n_max"] for op in round_)
            self.assertTrue(all(lo + (hi - lo) * i / 18 - 1 <= n <= lo + (hi - lo) * (i + 1) / 18 + 1
                                for i, n in enumerate(depths)))
        for block in run.take(run.cli_ops(3), 3):
            self.assertEqual(sorted(mode for _, mode in block), sorted(run.CLI_MODES * 3))
            groups = [argv[1] for argv, _ in block if argv[0] != "torsion"]
            self.assertTrue(all(groups.count(g) <= 3 for g in run.GROUPS))


class ReferencesAgree(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.w = Worker(run.SRC, trace=False)
        cls.ref = cls.w.reference_data()
        run.check_irrep_names(cls.ref)

    def test_float_and_klein_references(self):
        spectra = self.w.sf.spectra
        for g, G in self.w.groups.items():
            for name in self.ref[g]["irreps"]:
                got = list(spectra.degeneracy_series(G, name, SMALL_N).entries)
                mult = reference.irrep_multiplicities(self.ref[g], name, SMALL_N)
                self.assertEqual(got, [(n + 1) * m for n, m in enumerate(mult)], (g, name))
            klein = reference.klein_multiplicities(g, SMALL_N)
            self.assertEqual(klein, reference.irrep_multiplicities(self.ref[g], "1", SMALL_N))

    def test_lens_reference(self):
        spectra = self.w.sf.spectra
        for g, G in self.w.groups.items():
            for gen, q in run.LENS_ORDERS[g].items():
                H = G.cyclic_subgroup(gen)
                for r in range(q):
                    got = list(spectra.degeneracy_series(H, r, SMALL_N).entries)
                    self.assertEqual(got, reference.lens_degeneracies(q, r, SMALL_N), (g, gen, r))

    def test_deep_check_accepts_library_output(self):
        for op in run.take(run.deep_ops(5), 1)[0]:
            op = dict(op, n_max=SMALL_N, count_lambda=500.0)
            self.assertIsNone(reference.check_deep(op, self.w.deep(op), self.ref), op)


class LayerMetrics(unittest.TestCase):
    def test_levels_are_counted_where_they_are_delivered(self):
        os.makedirs(run.WORK, exist_ok=True)
        trace_file = os.path.join(run.WORK, "selftest-trace.json")
        op = dict(run.take(run.deep_ops(2), 1)[0][0], n_max=SMALL_N)
        with run.Session(trace_file) as sess:
            sess.request(op)
        spans, counts = run.tracing.load([trace_file])
        layer = run.layer_metrics(run.tracing.span_stats(spans), counts)
        self.assertEqual(layer["spectra.levels"], SMALL_N + 1)
        self.assertGreater(layer["spectra.ip_per_level"], 0)

    def test_zero_counts_are_reported_not_filled(self):
        # a series that delivers its levels without a single inner product
        stats = {"spectra.degeneracy_series": {"calls": 1, "incl_s": 0.1, "self_s": 0.1}}
        layer = run.layer_metrics(stats, Counter({"spectra.levels": 1001}))
        self.assertEqual(layer["spectra.levels"], 1001)
        self.assertEqual(layer["characters.inner_product_calls"], 0)
        self.assertEqual(layer["spectra.ip_per_level"], 0)
        self.assertEqual(layer["spectra.series_self_s"], 0.1)
        self.assertEqual(layer["spectra.oracle_calls"], 0)
        # times of code never run come from the layer probe
        self.assertIsNone(layer["characters.inner_product_s"])
        self.assertIsNone(layer["spectra.oracle_s"])


class WrongExpectationFails(unittest.TestCase):
    def setUp(self):
        self.golden = run.load_golden()
        os.makedirs(run.WORK, exist_ok=True)

    def test_deep_spectrum(self):
        saved = reference.klein_multiplicities
        reference.klein_multiplicities = lambda g, n: [1] * (n + 1)
        saved_lens = reference.lens_degeneracies
        reference.lens_degeneracies = lambda q, r, n: [0] * (n + 1)
        try:
            ops = [dict(op, n_max=60) for op in run.take(run.deep_ops(1), 1)[0]
                   if op["kind"] == "lens"][:2]
            ops.append(dict(ops[0], kind="irrep", gen=None, twist="1"))
            res = run.DeepSpectrum(1, 0, self.golden).run(replay=[ops])
        finally:
            reference.klein_multiplicities = saved
            reference.lens_degeneracies = saved_lens
        self.assertEqual(run.error_rate(res["ops"]), 1.0)

    def test_verify_harness(self):
        golden = copy.deepcopy(self.golden)
        golden["verify"]["torsion"][0][1] = not golden["verify"]["torsion"][0][1]
        res = run.VerifyHarness(1, 0, golden).run(replay=[["torsion", "mckay"]])
        self.assertEqual(run.error_rate(res["ops"]), 0.5)

    def test_cold_cli(self):
        golden = copy.deepcopy(self.golden)
        golden["cli"]["torsion --q 6 --r 3"] = "0" * 64 + ":0"
        ops = [(["torsion", "--q", "6", "--r", "3"], "none"), (["group", "2T", "order"], "fresh")]
        res = run.ColdCli(1, 0, golden).run(replay=[ops])
        self.assertEqual(run.error_rate(res["ops"]), 0.5)


if __name__ == "__main__":
    unittest.main()
