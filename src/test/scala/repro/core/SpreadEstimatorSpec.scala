package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

/** Monte-Carlo estimator vs the exhaustive possible-world oracle. */
class SpreadEstimatorSpec extends AnyFunSuite {

  test("deterministic edges: probability 1 chain is fully reached") {
    val g = TestGraphs.chain3(1.0)
    assert(TestGraphs.exactSpread(g, g.mixedProbs(Array(1.0)), Seq(0)) == 3.0)
    assert(SpreadEstimator.mcSpread(g, g.mixedProbs(Array(1.0)), Seq(0), 50, 1) == 3.0)
  }

  test("probability 0 edges: only seeds are reached") {
    val g = TestGraphs.chain3(0.0)
    val p = g.mixedProbs(Array(1.0))
    assert(TestGraphs.exactSpread(g, p, Seq(0)) == 1.0)
    assert(SpreadEstimator.mcSpread(g, p, Seq(0), 50, 1) == 1.0)
  }

  test("chain: exact spread is 1 + p + p^2") {
    val g = TestGraphs.chain3(0.5)
    val p = g.mixedProbs(Array(1.0))
    assert(math.abs(TestGraphs.exactSpread(g, p, Seq(0)) - (1 + 0.5 + 0.25)) < 1e-12)
  }

  test("diamond: exact spread matches the closed form") {
    val p = 0.3
    val g = TestGraphs.diamond(p)
    val probs = g.mixedProbs(Array(1.0))
    // σ(0) = 1 + 2p + P(3), with P(3) = 1 - (1 - p²)²
    val expected = 1 + 2 * p + (1 - math.pow(1 - p * p, 2))
    assert(math.abs(TestGraphs.exactSpread(g, probs, Seq(0)) - expected) < 1e-12)
  }

  test("MC converges to the exact spread on random graphs") {
    for (seed <- 1 to 5) {
      val g = TestGraphs.random(seed, n = 6, maxEdges = 12)
      val probs = g.mixedProbs(TestGraphs.randomGamma(seed, 2))
      val exact = TestGraphs.exactSpread(g, probs, Seq(0))
      val mc = SpreadEstimator.mcSpread(g, probs, Seq(0), 20000, seed)
      assert(math.abs(mc - exact) < 0.08, s"seed=$seed exact=$exact mc=$mc")
    }
  }

  test("MC converges for multi-node seed sets") {
    val g = TestGraphs.random(11, n = 6, maxEdges = 12)
    val probs = g.mixedProbs(Array(0.5, 0.5))
    val exact = TestGraphs.exactSpread(g, probs, Seq(0, 3))
    val mc = SpreadEstimator.mcSpread(g, probs, Seq(0, 3), 20000, 4)
    assert(math.abs(mc - exact) < 0.08)
  }

  test("seeding every node yields spread n") {
    val g = TestGraphs.random(12, n = 7)
    val probs = g.mixedProbs(Array(0.3, 0.7))
    assert(SpreadEstimator.mcSpread(g, probs, 0 until 7, 100, 2) == 7.0)
  }

  test("duplicate seeds do not inflate the spread") {
    val g = TestGraphs.chain3(0.5)
    val p = g.mixedProbs(Array(1.0))
    val a = SpreadEstimator.mcSpread(g, p, Seq(0, 0, 0), 500, 3)
    val b = SpreadEstimator.mcSpread(g, p, Seq(0), 500, 3)
    assert(a == b)
  }

  test("mcSpread is deterministic in (seed, numSamples)") {
    val g = TestGraphs.random(13)
    val probs = g.mixedProbs(Array(0.4, 0.6))
    val a = SpreadEstimator.mcSpread(g, probs, Seq(1), 777, 42)
    val b = SpreadEstimator.mcSpread(g, probs, Seq(1), 777, 42)
    assert(a == b)
  }

  test("different seeds give different (but close) estimates") {
    val g = TestGraphs.random(14)
    val probs = g.mixedProbs(Array(0.4, 0.6))
    val a = SpreadEstimator.mcSpread(g, probs, Seq(1), 5000, 1)
    val b = SpreadEstimator.mcSpread(g, probs, Seq(1), 5000, 2)
    assert(a != b && math.abs(a - b) < 0.3)
  }

  test("monotone: adding a seed never lowers spread (same worlds)") {
    val g = TestGraphs.random(15, n = 8)
    val probs = g.mixedProbs(Array(0.5, 0.5))
    for (u <- 0 until 8) {
      val s1 = SpreadEstimator.mcSpread(g, probs, Seq(0), 300, 5)
      val s2 = SpreadEstimator.mcSpread(g, probs, Seq(0, u), 300, 5)
      assert(s2 >= s1 - 1e-12)
    }
  }

  test("submodular: marginal gains shrink as the set grows (same worlds)") {
    val g = TestGraphs.random(16, n = 8)
    val probs = g.mixedProbs(Array(0.5, 0.5))
    val u = 5
    val gainEmpty = SpreadEstimator.mcSpread(g, probs, Seq(u), 400, 6) -
      0.0
    val base = SpreadEstimator.mcSpread(g, probs, Seq(0, 1), 400, 6)
    val gainLater = SpreadEstimator.mcSpread(g, probs, Seq(0, 1, u), 400, 6) - base
    assert(gainLater <= gainEmpty + 1e-12)
  }

  test("spread is bounded by n") {
    val g = TestGraphs.random(17, n = 6)
    val probs = g.mixedProbs(Array(1.0, 0.0))
    assert(SpreadEstimator.mcSpread(g, probs, Seq(0, 1), 200, 7) <= 6.0)
    assert(TestGraphs.exactSpread(g, probs, Seq(0, 1)) <= 6.0)
  }

  test("mcSpread equals the average of the per-world forward walks") {
    val g = TestGraphs.random(18)
    val probs = g.mixedProbs(Array(0.6, 0.4))
    val r = 50
    val walk = new LiveWalk(g.n)
    val manual = (0 until r).map(s => walk.forward(g, probs, 9, s, Array(2), null)).sum.toDouble / r
    assert(SpreadEstimator.mcSpread(g, probs, Seq(2), r, 9) == manual)
  }

  test("mcSpread rejects a non-positive sample count") {
    val g = TestGraphs.chain3(0.5)
    intercept[IllegalArgumentException] {
      SpreadEstimator.mcSpread(g, g.mixedProbs(Array(1.0)), Seq(0), 0, 1)
    }
  }

  test("exactSpread refuses graphs too large to enumerate") {
    val edges = (0 until 25).map(i => (i, i + 1, 0.5))
    val g = TestGraphs.single(26, edges: _*)
    intercept[IllegalArgumentException] {
      TestGraphs.exactSpread(g, g.mixedProbs(Array(1.0)), Seq(0))
    }
  }

  test("isolated seed has spread exactly 1") {
    val g = TestGraphs.single(4, (0, 1, 0.9), (1, 2, 0.9))
    val p = g.mixedProbs(Array(1.0))
    assert(TestGraphs.exactSpread(g, p, Seq(3)) == 1.0)
    assert(SpreadEstimator.mcSpread(g, p, Seq(3), 100, 11) == 1.0)
  }

  test("exact linearity check: two disconnected components add up") {
    val g = TestGraphs.single(6, (0, 1, 0.4), (3, 4, 0.7))
    val p = g.mixedProbs(Array(1.0))
    val both = TestGraphs.exactSpread(g, p, Seq(0, 3))
    val a = TestGraphs.exactSpread(g, p, Seq(0))
    val b = TestGraphs.exactSpread(g, p, Seq(3))
    assert(math.abs(both - (a + b)) < 1e-12)
  }
}
