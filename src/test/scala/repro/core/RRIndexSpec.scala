package repro.core

import java.lang.Double.doubleToLongBits

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.WorldSampler.u01

/** The influencer index: construction independent of how the samples are
  * split across processors, superset property, and RIS unbiasedness
  * against the exact oracle.
  */
class RRIndexSpec extends AnyFunSuite {

  private lazy val g = TestGraphs.random(40, n = 8, z = 2, maxEdges = 13)
  private lazy val index = RRIndex.build(g, numSamples = 200, seed = 77L)

  test("build produces the requested number of samples in order") {
    assert(index.numSamples == 200)
    assert(index.samples.map(_.sampleId).toSeq == (0L until 200L))
  }

  test("roots are valid and deterministic") {
    index.samples.foreach(s => assert(s.root >= 0 && s.root < g.n))
    val again = RRIndex.build(g, numSamples = 200, seed = 77L)
    assert(again.samples.map(_.root).toSeq == index.samples.map(_.root).toSeq)
    assert(again.samples.map(_.inEdges.view.mapValues(_.toSeq).toMap).toSeq ==
      index.samples.map(_.inEdges.view.mapValues(_.toSeq).toMap).toSeq)
  }

  test("each sample is the same for every split of the samples across processors") {
    val cores = Runtime.getRuntime.availableProcessors
    // fewer samples than processors, a multiple of them and not a multiple
    val sampleCounts = Seq(1, math.max(1, cores - 1), 2 * cores, 2 * cores + 3, 37).distinct
    def boxed(idx: RRIndex.Index) =
      idx.samples.toSeq.map(s => (s.sampleId, s.root, s.truncated, s.inEdges.view.mapValues(_.toSeq).toMap))
    for (cap <- Seq(20000, 2)) {
      val full = boxed(RRIndex.build(g, sampleCounts.max + 1, seed = 77L, maxNodesPerSample = cap))
      if (cap == 2) assert(full.exists(_._3) && full.exists(!_._3))
      for (r <- sampleCounts) {
        val prefix = boxed(RRIndex.build(g, r, seed = 77L, maxNodesPerSample = cap))
        assert(prefix == full.take(r), s"r=$r cap=$cap")
      }
    }
  }

  test("roots are uniformly distributed") {
    val big = RRIndex.build(g, numSamples = 2000, seed = 5L)
    val counts = big.samples.groupBy(_.root).view.mapValues(_.length)
    (0 until g.n).foreach { u =>
      val c = counts.getOrElse(u, 0)
      assert(c > 2000 / g.n * 0.6 && c < 2000 / g.n * 1.5, s"root $u count $c")
    }
  }

  /** Driver-side reference for the build walk of `s` (seed 77): the LIFO
    * reverse walk under `p^max` from its root, as `(src, dst, edgeId)`
    * triples, and whether more than `cap` nodes were reached. The walk
    * finishes the node that crossed the cap and scans no other.
    */
  private def referenceStored(s: RRIndex.Sample, cap: Int): (Set[(Int, Int, Int)], Boolean) = {
    val pmax = g.maxProbs()
    val visited = scala.collection.mutable.Set(s.root)
    val stack = scala.collection.mutable.ArrayDeque(s.root)
    val expect = scala.collection.mutable.Set.empty[(Int, Int, Int)]
    var truncated = false
    while (stack.nonEmpty && !truncated) {
      val v = stack.removeLast()
      for (i <- g.inOffsets(v) until g.inOffsets(v + 1)) {
        val src = g.inSrc(i); val e = g.inEdgeId(i)
        if (u01(77L, s.sampleId, e) < pmax(e)) {
          expect += ((src, v, e))
          if (!visited.contains(src)) { visited += src; stack.append(src) }
        }
      }
      truncated = visited.size > cap
    }
    (expect.toSet, truncated)
  }

  private def storedTriples(s: RRIndex.Sample): Set[(Int, Int, Int)] =
    s.inEdges.toSeq.flatMap { case (dst, es) => es.map(p => (p._1, dst, p._2)) }.toSet

  test("stored edges are exactly the live-superset reverse closure") {
    for (s <- index.samples.take(10))
      assert(storedTriples(s) == referenceStored(s, Int.MaxValue)._1, s"sample ${s.sampleId}")
  }

  test("a truncated sample keeps the edges its walk scanned before the cap") {
    val samples = RRIndex.build(g, numSamples = 200, seed = 77L, maxNodesPerSample = 1).samples
    for (s <- samples)
      assert((storedTriples(s), s.truncated) == referenceStored(s, cap = 1), s"sample ${s.sampleId}")
    assert(samples.exists(_.truncated) && samples.exists(!_.truncated))
  }

  /** The full RR set of sample `s` under `probs`, by the index's walk. */
  private def rrSet(s: Int, probs: Array[Double]): Set[Int] =
    (0 until g.n).filter(index.reaches(s, _, probs)).toSet

  /** Reference RR set: a breadth-first walk over the boxed stored edges
    * of `s` that hashes every coin again.
    */
  private def referenceRRSet(s: RRIndex.Sample, probs: Array[Double], seed: Long): Set[Int] = {
    val seen = scala.collection.mutable.Set(s.root)
    val queue = scala.collection.mutable.Queue(s.root)
    while (queue.nonEmpty) {
      for ((src, e) <- s.inEdges.getOrElse(queue.dequeue(), Array.empty[(Int, Int)])
           if !seen(src) && u01(seed, s.sampleId, e) < probs(e)) {
        seen += src
        queue += src
      }
    }
    seen.toSet
  }

  test("the root is always in its own RR set") {
    val probs = g.mixedProbs(Array(0.5, 0.5))
    index.samples.foreach(s => assert(index.reaches(s.sampleId.toInt, s.root, probs)))
  }

  test("rrSet under gamma is contained in the p^max superset nodes") {
    val probs = g.mixedProbs(Array(0.3, 0.7))
    val pmaxProbs = g.maxProbs()
    (0 until 20).foreach { s =>
      val under = rrSet(s, probs)
      val sup = rrSet(s, pmaxProbs)
      assert(under.subsetOf(sup))
    }
  }

  test("the early-exit walk agrees with full RR-set membership") {
    val probs = g.mixedProbs(Array(0.6, 0.4))
    index.samples.take(30).foreach { s =>
      val full = referenceRRSet(s, probs, index.seed)
      (0 until g.n).foreach(u => assert(index.reaches(s.sampleId.toInt, u, probs) == full.contains(u)))
    }
  }

  test("the gamma walk equals the array walk and the boxed reference bit for bit") {
    val numSamples = 70
    var unsampled = 0
    var roots = 0
    var truncated = 0
    for (seed <- 1L to 4L; (n, maxEdges) <- Seq((8, 14), (40, 20)); cap <- Seq(20000, 2)) {
      val rg = TestGraphs.random(seed, n = n, z = 3, maxEdges = maxEdges)
      val idx = RRIndex.build(rg, numSamples, seed = seed, maxNodesPerSample = cap)
      val samples = idx.samples
      truncated += idx.truncatedSamples
      val gamma = TestGraphs.randomGamma(seed, 3)
      val probs = rg.mixedProbs(gamma)
      val rrSets = samples.map(referenceRRSet(_, probs, seed))
      for (u <- 0 until n) {
        val holding = samples.count(s => s.root == u || s.inEdges.contains(u) ||
          s.inEdges.valuesIterator.exists(_.exists(_._1 == u)))
        if (holding == 0) unsampled += 1
        roots += samples.count(_.root == u)
        for (r <- Seq(1, 60, numSamples, numSamples + 5)) {
          val used = math.min(r, numSamples)
          val expected = n.toDouble * rrSets.take(used).count(_.contains(u)) / used
          val viaArray = idx.estimateUserSpread(probs, u, r)
          val viaGamma = idx.estimateUserSpreadUnder(gamma, u, r)
          assert(doubleToLongBits(viaArray) == doubleToLongBits(expected), s"seed $seed n $n cap $cap u $u r $r")
          assert(doubleToLongBits(viaGamma) == doubleToLongBits(viaArray), s"seed $seed n $n cap $cap u $u r $r")
        }
      }
    }
    assert(unsampled > 0 && roots > 0 && truncated > 0, s"unsampled $unsampled roots $roots truncated $truncated")
  }

  test("an out-of-range target is rejected") {
    val gamma = Array(0.5, 0.5)
    val probs = g.mixedProbs(gamma)
    for (u <- Seq(-1, g.n)) {
      intercept[IllegalArgumentException](index.estimateUserSpread(probs, u))
      intercept[IllegalArgumentException](index.estimateUserSpreadUnder(gamma, u))
    }
  }

  test("a non-positive sample prefix is rejected") {
    intercept[IllegalArgumentException] {
      index.estimateUserSpread(g.mixedProbs(Array(0.5, 0.5)), 0, restrict = 0)
    }
  }

  test("a non-positive sample count is rejected") {
    for (n <- Seq(0, -1)) intercept[IllegalArgumentException](RRIndex.build(g, numSamples = n))
  }

  test("RIS estimate is unbiased: matches exact spread within tolerance") {
    val big = RRIndex.build(g, numSamples = 6000, seed = 3L)
    val gamma = Array(0.5, 0.5)
    val probs = g.mixedProbs(gamma)
    for (u <- 0 until g.n) {
      val exact = TestGraphs.exactSpread(g, probs, Seq(u))
      val est = big.estimateUserSpread(probs, u)
      assert(math.abs(est - exact) < 0.25, s"u=$u exact=$exact est=$est")
    }
  }

  test("restricting to the full sample count changes nothing") {
    val probs = g.mixedProbs(Array(0.5, 0.5))
    (0 until g.n).foreach { u =>
      assert(index.estimateUserSpread(probs, u, restrict = 200) ==
        index.estimateUserSpread(probs, u))
    }
  }

  test("no truncation on small graphs") {
    assert(index.samples.forall(!_.truncated))
  }

  test("truncation flag fires when the cap is tiny") {
    val dense = TestGraphs.single(6,
      (0, 1, 0.99), (1, 2, 0.99), (2, 3, 0.99), (3, 4, 0.99), (4, 5, 0.99), (5, 0, 0.99))
    val idx = RRIndex.build(dense, numSamples = 20, seed = 1L, maxNodesPerSample = 2)
    assert(idx.samples.exists(_.truncated))
    assert(idx.truncatedSamples == idx.samples.count(_.truncated))
  }
}
