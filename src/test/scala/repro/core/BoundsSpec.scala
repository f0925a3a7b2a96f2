package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

/** Soundness of the best-effort framework's upper bounds: every bound
  * must dominate the *exact* expected spread (2^E oracle) for every user
  * and every topic mixture.
  */
class BoundsSpec extends AnyFunSuite {

  test("precomputed bound dominates exact spread under any gamma") {
    for (gSeed <- 1 to 6) {
      val g = TestGraphs.random(gSeed * 13, n = 7, z = 2, maxEdges = 12)
      val ub = Bounds.precomputedUB(g)
      for (s <- 0 until 3) {
        val gamma = TestGraphs.randomGamma(1000 + gSeed * 10 + s, 2)
        val probs = g.mixedProbs(gamma)
        for (u <- 0 until g.n) {
          val exact = TestGraphs.exactSpread(g, probs, Seq(u))
          assert(ub(u) >= exact - 1e-9, s"g=$gSeed u=$u ub=${ub(u)} exact=$exact")
        }
      }
    }
  }

  test("precomputed bound dominates exact spread under pure topics") {
    val g = TestGraphs.random(91, n = 7, z = 3, maxEdges = 12)
    val ub = Bounds.precomputedUB(g)
    for (z <- 0 until 3; u <- 0 until g.n) {
      val probs = g.mixedProbs(Array.tabulate(3)(t => if (t == z) 1.0 else 0.0))
      assert(ub(u) >= TestGraphs.exactSpread(g, probs, Seq(u)) - 1e-9)
    }
  }

  test("local bound is sound for the query gamma") {
    for (gSeed <- 1 to 5) {
      val g = TestGraphs.random(gSeed * 17, n = 7, z = 2, maxEdges = 12)
      val base = Bounds.precomputedUB(g)
      val gamma = TestGraphs.randomGamma(gSeed, 2)
      val probs = g.mixedProbs(gamma)
      for (hops <- Seq(1, 2, 4)) {
        val ub = Bounds.localUB(g, probs, base, hops)
        for (u <- 0 until g.n) {
          val exact = TestGraphs.exactSpread(g, probs, Seq(u))
          assert(ub(u) >= exact - 1e-9, s"hops=$hops u=$u")
        }
      }
    }
  }

  test("query-aware refinement never loosens the precomputed bound") {
    val g = TestGraphs.random(24, n = 9)
    val base = Bounds.precomputedUB(g)
    val probs = g.mixedProbs(Array(0.2, 0.8))
    val local = Bounds.localUB(g, probs, base, 3)
    (0 until g.n).foreach(u => assert(local(u) <= base(u) + 1e-12))
  }

  test("more hops never loosen the bound") {
    val g = TestGraphs.random(25, n = 9)
    val base = Bounds.precomputedUB(g)
    val probs = g.mixedProbs(Array(0.5, 0.5))
    val h1 = Bounds.localUB(g, probs, base, 1)
    val h2 = Bounds.localUB(g, probs, base, 2)
    val h4 = Bounds.localUB(g, probs, base, 4)
    (0 until g.n).foreach { u =>
      assert(h2(u) <= h1(u) + 1e-12)
      assert(h4(u) <= h2(u) + 1e-12)
    }
  }

  test("bounds are at least 1 (a seed always activates itself)") {
    val g = TestGraphs.random(26, n = 8)
    val base = Bounds.precomputedUB(g)
    val probs = g.mixedProbs(Array(0.5, 0.5))
    assert(base.forall(_ >= 1.0 - 1e-12))
    assert(Bounds.localUB(g, probs, base, 3).forall(_ >= 1.0 - 1e-12))
  }

  test("bounds are capped by n") {
    val g = TestGraphs.random(27, n = 6)
    assert(Bounds.precomputedUB(g).forall(_ <= 6.0 + 1e-12))
  }

  test("value iteration has converged by the default iteration count") {
    val g = TestGraphs.random(28, n = 10)
    val a = Bounds.precomputedUB(g)
    val b = Bounds.localUB(g, g.maxProbs(), Array.fill(g.n)(g.n.toDouble), 100)
    (0 until g.n).foreach(u => assert(math.abs(a(u) - b(u)) < 1e-6))
  }

  test("bound is exact on a deterministic chain") {
    // 0 →1.0→ 1 →1.0→ 2: spread(0)=3, and the union bound is tight.
    val g = TestGraphs.chain3(1.0)
    val ub = Bounds.precomputedUB(g)
    assert(math.abs(ub(0) - 3.0) < 1e-9)
    assert(math.abs(ub(1) - 2.0) < 1e-9)
    assert(math.abs(ub(2) - 1.0) < 1e-9)
  }

  test("precomputed bound is deterministic") {
    val g = TestGraphs.random(29, n = 9)
    assert(Bounds.precomputedUB(g).sameElements(Bounds.precomputedUB(g)))
  }

  test("a higher-degree hub gets a larger bound than a sink") {
    val g = TestGraphs.single(5, (0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.5), (3, 4, 0.5))
    val ub = Bounds.precomputedUB(g)
    assert(ub(0) > ub(3) && ub(3) > ub(4))
  }

  test("bound under gamma with zero-probability topic collapses correctly") {
    val g = TestGraphs.multi(3, 2, (0, 1, Seq(0.9, 0.0)), (1, 2, Seq(0.9, 0.0)))
    val base = Bounds.precomputedUB(g)
    val probsZero = g.mixedProbs(Array(0.0, 1.0)) // all edges dead
    val local = Bounds.localUB(g, probsZero, base, 5)
    assert(math.abs(local(0) - 1.0) < 1e-9)
  }
}
