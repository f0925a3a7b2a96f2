package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.core.WorldSampler.u01

/** The influencer index: distributed construction, superset property,
  * and RIS unbiasedness against the exact oracle.
  */
class RRIndexSpec extends SparkSpec {

  private lazy val g = TestGraphs.random(40, n = 8, z = 2, maxEdges = 13)
  private lazy val index = RRIndex.build(spark, g, numSamples = 200, seed = 77L)

  test("build produces the requested number of samples in order") {
    assert(index.numSamples == 200)
    assert(index.samples.map(_.sampleId).toSeq == (0L until 200L))
  }

  test("roots are valid and deterministic") {
    index.samples.foreach(s => assert(s.root >= 0 && s.root < g.n))
    val again = RRIndex.build(spark, g, numSamples = 200, seed = 77L)
    assert(again.samples.map(_.root).toSeq == index.samples.map(_.root).toSeq)
    assert(again.samples.map(_.inEdges.view.mapValues(_.toSeq).toMap).toSeq ==
      index.samples.map(_.inEdges.view.mapValues(_.toSeq).toMap).toSeq)
  }

  test("roots are uniformly distributed") {
    val big = RRIndex.build(spark, g, numSamples = 2000, seed = 5L)
    val counts = big.samples.groupBy(_.root).view.mapValues(_.length)
    (0 until g.n).foreach { u =>
      val c = counts.getOrElse(u, 0)
      assert(c > 2000 / g.n * 0.6 && c < 2000 / g.n * 1.5, s"root $u count $c")
    }
  }

  test("stored edges are exactly the live-superset reverse closure") {
    // Driver-side reference reconstruction for a few samples.
    val pmax = g.maxProbs()
    for (s <- index.samples.take(10)) {
      val visited = scala.collection.mutable.Set(s.root)
      val stack = scala.collection.mutable.ArrayDeque(s.root)
      val expect = scala.collection.mutable.Set.empty[(Int, Int, Int)]
      while (stack.nonEmpty) {
        val v = stack.removeLast()
        for (i <- g.inOffsets(v) until g.inOffsets(v + 1)) {
          val src = g.inSrc(i); val e = g.inEdgeId(i)
          if (u01(77L, s.sampleId, e) < pmax(e)) {
            expect += ((src, v, e))
            if (!visited.contains(src)) { visited += src; stack.append(src) }
          }
        }
      }
      val stored = s.inEdges.toSeq.flatMap { case (dst, es) => es.map(p => (p._1, dst, p._2)) }.toSet
      assert(stored == expect.toSet, s"sample ${s.sampleId}")
    }
  }

  private lazy val walk = new LiveWalk(g.n)

  /** The full RR set of `s` under `probs`. */
  private def rrSet(s: RRIndex.Sample, probs: Array[Double]): Set[Int] = {
    walk.stored(s, probs, index.seed, -1)
    (0 until g.n).filter(walk.visited).toSet
  }

  test("the root is always in its own RR set") {
    val probs = g.mixedProbs(Array(0.5, 0.5))
    index.samples.foreach(s => assert(walk.stored(s, probs, index.seed, s.root)))
  }

  test("rrSet under gamma is contained in the p^max superset nodes") {
    val probs = g.mixedProbs(Array(0.3, 0.7))
    val pmaxProbs = g.maxProbs()
    index.samples.take(20).foreach { s =>
      val under = rrSet(s, probs)
      val sup = rrSet(s, pmaxProbs)
      assert(under.subsetOf(sup))
    }
  }

  test("the early-exit walk agrees with full RR-set membership") {
    val probs = g.mixedProbs(Array(0.6, 0.4))
    index.samples.take(30).foreach { s =>
      val full = rrSet(s, probs)
      (0 until g.n).foreach(u => assert(walk.stored(s, probs, index.seed, u) == full.contains(u)))
    }
  }

  test("a non-positive sample prefix is rejected") {
    intercept[IllegalArgumentException] {
      index.estimateUserSpread(g.mixedProbs(Array(0.5, 0.5)), 0, restrict = 0)
    }
  }

  test("RIS estimate is unbiased: matches exact spread within tolerance") {
    val big = RRIndex.build(spark, g, numSamples = 6000, seed = 3L)
    val gamma = Array(0.5, 0.5)
    val probs = g.mixedProbs(gamma)
    for (u <- 0 until g.n) {
      val exact = SpreadEstimator.exactSpread(g, probs, Seq(u))
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
    val idx = RRIndex.build(spark, dense, numSamples = 20, seed = 1L, maxNodesPerSample = 2)
    assert(idx.samples.exists(_.truncated))
  }
}
