package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.CompactGraph

/** Materialized worlds hold exactly the live edges of their coins, and a
  * walk on them visits what the coin walk visits, for every split of the
  * worlds across processors.
  */
class LiveWorldsSpec extends AnyFunSuite {

  private val seed = 17L
  private val g: CompactGraph = {
    val rnd = new java.util.Random(5)
    val n = 40
    val edges = (0 until 160).map { _ =>
      val s = rnd.nextInt(n)
      val d = (s + 1 + rnd.nextInt(n - 1)) % n
      (s, d, Array.fill(2)(rnd.nextDouble() * 0.6))
    }
    CompactGraph.fromEdgeSeq(n, 2, edges)
  }
  private val probs = g.mixedProbs(Array(0.3, 0.7))

  private val cores = Runtime.getRuntime.availableProcessors
  // fewer worlds than processors, a multiple of them and not a multiple
  private val sampleCounts = Seq(1, math.max(1, cores - 1), 2 * cores, 2 * cores + 3, 37).distinct

  test("every world holds exactly its live out-edges, in CSR order") {
    for (r <- sampleCounts) {
      val w = LiveWorlds.build(g, probs, r, seed)
      assert(w.offsets.length == r && w.dst.length == r)
      for (s <- 0 until r) {
        val off = w.offsets(s)
        assert(off.length == g.n + 1 && off(0) == 0 && off(g.n) == w.dst(s).length)
        for (u <- 0 until g.n) {
          val expected = (g.outOffsets(u) until g.outOffsets(u + 1))
            .filter(e => WorldSampler.u01(seed, s, e) < probs(e))
            .map(g.outDst)
          assert(w.dst(s).slice(off(u), off(u + 1)).toSeq == expected, s"r=$r world=$s node=$u")
        }
      }
    }
  }

  test("a walk on a materialized world visits what the coin walk visits") {
    val rnd = new java.util.Random(9)
    val coinWalk = new LiveWalk(g.n)
    val worldWalk = new LiveWalk(g.n)
    for (r <- sampleCounts) {
      val w = LiveWorlds.build(g, probs, r, seed)
      for (s <- 0 until r; u <- 0 until g.n) {
        val stop = new java.util.BitSet(g.n)
        (0 until g.n).foreach(v => if (rnd.nextDouble() < 0.2) stop.set(v))
        for (st <- Seq(null, stop)) {
          val source = Array(u)
          val a = coinWalk.forward(g, probs, seed, s, source, st)
          val b = worldWalk.forward(w, s, source, st)
          assert(a == b, s"r=$r world=$s source=$u stop=${st != null}")
          assert((0 until g.n).forall(v => coinWalk.visited(v) == worldWalk.visited(v)),
            s"r=$r world=$s source=$u stop=${st != null}")
        }
      }
    }
  }

  test("a non-positive sample count is rejected") {
    intercept[IllegalArgumentException](LiveWorlds.build(g, probs, 0, seed))
  }

  test("a probability vector that is not one per edge is rejected") {
    for (len <- Seq(0, g.numEdges - 1, g.numEdges + 1))
      intercept[IllegalArgumentException](LiveWorlds.build(g, new Array[Double](len), 5, seed))
  }
}
