"""Self-test of the benchmark (about ten seconds):

    python3 -m unittest discover -s perfbench -p "test_*.py"

It checks that each mutant fails only in its intended axiom family, that
the isomorphism checker rejects corrupted maps, that a wrong expected
answer is counted as a failed operation, that the tracer wraps and restores
every lookup of a public function, that the speed gauge samples during an
operation, and that BENCHMARK.json names exactly the metrics the benchmark
prints.
"""

import json
import random
import shutil
import signal
import sys
import time
import unittest
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import groupoids  # noqa: E402
import groupoids.cli  # noqa: E402
import groupoids.morphisms  # noqa: E402
import groupoids.structured  # noqa: E402
import inputs  # noqa: E402
from gauge import BEFORE, REFERENCE_S, SpeedGauge  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Mutants(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.a5 = groupoids.alternating_groupoid(5)

    def test_g1_mutant_fails_only_associativity(self):
        for seed in range(2):
            mutant = inputs.g1_mutant(self.a5, random.Random(seed))
            tags = {v.axiom for v in groupoids.validate(mutant).violations}
            self.assertEqual(tags, {"G1"})

    def test_payload_mutant_keeps_the_axioms_and_fails_only_payloads(self):
        for seed in range(2):
            mutant = inputs.payload_mutant(self.a5, random.Random(seed))
            self.assertTrue(groupoids.validate(mutant).passed)
            report = groupoids.check_quasiperm_payloads(mutant)
            self.assertEqual({v.axiom for v in report.violations}, {"payload"})


class IsomorphismChecker(unittest.TestCase):
    def setUp(self):
        self.g = inputs.iso_groupoids()["iso.z2q8+z2q8"]
        order = list(range(len(self.g)))
        random.Random(3).shuffle(order)
        self.h = inputs.permuted(self.g, order)
        # old element x now sits at position order.index(x)
        self.f = tuple(order.index(x) for x in range(len(self.g)))

    def test_accepts_the_relabelling_and_the_found_map(self):
        self.assertIsNone(workloads.isomorphism_error(self.g, self.h, self.f))
        found = groupoids.is_isomorphic(self.g, self.h)
        self.assertIsNone(workloads.isomorphism_error(self.g, self.h, found))

    def test_rejects_corrupted_maps(self):
        unit = self.g.units[0]
        other = next(x for x in range(len(self.g)) if not self.g.is_unit(x))
        swapped = list(self.f)
        swapped[unit], swapped[other] = swapped[other], swapped[unit]
        duplicated = list(self.f)
        duplicated[other] = duplicated[unit]
        for bad in (tuple(swapped), tuple(duplicated), self.f[:-1], None):
            self.assertIsNotNone(workloads.isomorphism_error(self.g, self.h, bad))


class WrongAnswerCounts(unittest.TestCase):
    def test_wrong_expected_answer_makes_ops_failed_frac_positive(self):
        answers = workloads.known_answers()
        answers["build.digests"]["product golden z4"] = "0" * 64
        args = SimpleNamespace(workload="build", seed=0, seconds=0.1, trace=0)
        with mock.patch.object(workloads, "known_answers", lambda: answers):
            metrics, _, failures, attempted = run.run_workload(args)
        self.assertEqual([name for name, _ in failures], ["build product golden z4"])
        self.assertEqual(metrics["ops_failed_frac"], 1 / attempted)


class Tracer(unittest.TestCase):
    def test_wraps_every_lookup_and_restores_it(self):
        originals = {
            (groupoids.cli, "validate"): groupoids.cli.validate,
            (groupoids.structured, "validate"): groupoids.structured.validate,
            (groupoids.morphisms, "enumerate_subgroupoids"):
                groupoids.morphisms.enumerate_subgroupoids,
            (groupoids, "is_isomorphic"): groupoids.is_isomorphic,
        }
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for (module, name), fn in originals.items():
                self.assertIsNot(getattr(module, name), fn)
            op = tracer.begin_op("pair 3")
            groupoids.validate(groupoids.pair_groupoid(3))
            tracer.close(op)
        finally:
            tracer.uninstall()
        for (module, name), fn in originals.items():
            self.assertIs(getattr(module, name), fn)
        names = [s.name for s in tracer.spans]
        # pair_groupoid calls pair_groupoid_over, which is wrapped too
        self.assertEqual(names, [tracing.OP_SPAN, "constructions.build", "constructions.build",
                                 "core.validate", tracing.COUNT_SPAN])
        wall = tracer.spans[0].end - tracer.spans[0].start
        metrics = tracer.pass_metrics(0, len(tracer.spans), wall)
        self.assertAlmostEqual(metrics["trace.accounted_frac"], 1.0, places=6)
        self.assertEqual(metrics["core.validate.triples"], 3 ** 4)  # pair(3): a->b->c->d


class Gauge(unittest.TestCase):
    def test_samples_during_an_operation_and_restores_the_handler(self):
        previous = signal.getsignal(signal.SIGALRM)
        gauge = SpeedGauge()
        gauge.start()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        gauge.stop()
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)
        self.assertGreater(len(gauge.samples), BEFORE + 2)
        self.assertGreater(gauge.busy_s, 0)
        self.assertAlmostEqual(gauge.at_reference_speed(gauge.reference_s), REFERENCE_S)


class BenchmarkJson(unittest.TestCase):
    def test_lists_exactly_the_printed_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E)
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         tracing.per_layer_metric_names())
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.unit_of(m["name"]), m["name"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


class SetUp(unittest.TestCase):
    def test_build_inputs_match_their_pins_and_repeat(self):
        work = run.WORK / "selftest-setup"
        try:
            times, out = run.run_setups("build", 0, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.assertGreaterEqual(len(times), run.SETUPS)


if __name__ == "__main__":
    unittest.main()
