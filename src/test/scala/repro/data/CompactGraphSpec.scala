package repro.data

import repro.{SparkSpec, TestGraphs}

/** CSR construction, edge-id determinism, and the DataFrame round trip. */
class CompactGraphSpec extends SparkSpec {

  private def sampleEdges: Seq[(Int, Int, Array[Double])] = Seq(
    (2, 0, Array(0.1, 0.2)),
    (0, 1, Array(0.3, 0.4)),
    (0, 2, Array(0.5, 0.6)),
    (1, 2, Array(0.7, 0.8)),
  )

  test("fromEdgeSeq: node and edge counts") {
    val g = CompactGraph.fromEdgeSeq(3, 2, sampleEdges)
    assert(g.n == 3)
    assert(g.numEdges == 4)
    assert(g.numTopics == 2)
  }

  test("fromEdgeSeq: out-degrees") {
    val g = CompactGraph.fromEdgeSeq(3, 2, sampleEdges)
    assert(g.outDegree(0) == 2 && g.outDegree(1) == 1 && g.outDegree(2) == 1)
  }

  test("fromEdgeSeq: in-degrees") {
    val g = CompactGraph.fromEdgeSeq(3, 2, sampleEdges)
    assert((0 until 3).map(TestGraphs.inDegree(g, _)) == Seq(1, 1, 2))
  }

  test("edge ids are assigned in (src, dst) sorted order") {
    val g = CompactGraph.fromEdgeSeq(3, 2, sampleEdges)
    // sorted order: (0,1), (0,2), (1,2), (2,0)
    assert(g.outDst(0) == 1 && g.topicProb(0, 0) == 0.3)
    assert(g.outDst(1) == 2 && g.topicProb(1, 0) == 0.5)
    assert(g.outDst(2) == 2 && g.topicProb(2, 0) == 0.7)
    assert(g.outDst(3) == 0 && g.topicProb(3, 0) == 0.1)
  }

  test("in-CSR mirrors the same edges with correct global edge ids") {
    val g = CompactGraph.fromEdgeSeq(3, 2, sampleEdges)
    for (v <- 0 until g.n; i <- g.inOffsets(v) until g.inOffsets(v + 1)) {
      val src = g.inSrc(i)
      val e = g.inEdgeId(i)
      assert(g.outDst(e) == v)
      assert((g.outOffsets(src) until g.outOffsets(src + 1)).contains(e))
    }
  }

  test("sum of degrees equals edge count on both sides") {
    val g = TestGraphs.random(1, n = 9, maxEdges = 14)
    assert((0 until g.n).map(g.outDegree).sum == g.numEdges)
    assert((0 until g.n).map(TestGraphs.inDegree(g, _)).sum == g.numEdges)
  }

  test("mixedProb is the γ dot product") {
    val g = CompactGraph.fromEdgeSeq(3, 2, sampleEdges)
    val gamma = Array(0.25, 0.75)
    assert(math.abs(g.mixedProb(0, gamma) - (0.3 * 0.25 + 0.4 * 0.75)) < 1e-12)
    // a pure topic selects exactly that topic's probabilities
    assert(g.mixedProbs(Array(0.0, 1.0)).toSeq == (0 until g.numEdges).map(g.topicProb(_, 1)))
  }

  test("mixedProbs array agrees with per-edge mixedProb") {
    val g = TestGraphs.random(2, z = 3)
    val gamma = TestGraphs.randomGamma(5, 3)
    val arr = g.mixedProbs(gamma)
    (0 until g.numEdges).foreach(e => assert(arr(e) == g.mixedProb(e, gamma)))
  }

  test("maxProb takes the per-edge topic maximum") {
    val g = CompactGraph.fromEdgeSeq(3, 2, sampleEdges)
    assert(g.maxProb(0) == 0.4 && g.maxProb(3) == 0.2)
  }

  test("maxProbs dominates any mixed gamma") {
    val g = TestGraphs.random(3, z = 4)
    val pmax = g.maxProbs()
    for (s <- 0 until 5) {
      val mixed = g.mixedProbs(TestGraphs.randomGamma(100 + s, 4))
      (0 until g.numEdges).foreach(e => assert(mixed(e) <= pmax(e) + 1e-12))
    }
  }

  test("toEdges round-trips through fromEdgeSeq") {
    val g = TestGraphs.random(4, n = 8, z = 2)
    val g2 = TestGraphs.fromRows(CompactGraph.toEdges(spark, g), g.n, g.numTopics)
    assert(g2.outOffsets.sameElements(g.outOffsets))
    assert(g2.outDst.sameElements(g.outDst))
    assert(g2.outProbs.sameElements(g.outProbs))
  }

  test("explicit numNodes keeps trailing isolated nodes") {
    val g = CompactGraph.fromEdgeSeq(5, 1, Seq((0, 1, Array(0.5))))
    assert(g.n == 5 && g.outDegree(4) == 0 && TestGraphs.inDegree(g, 4) == 0)
  }

  test("ragged probs arrays are rejected") {
    intercept[IllegalArgumentException] {
      CompactGraph.fromEdgeSeq(3, 2, Seq((0, 1, Array(0.1)), (1, 2, Array(0.1, 0.2))))
    }
  }

  test("out-of-range node ids are rejected") {
    intercept[IllegalArgumentException] {
      CompactGraph.fromEdgeSeq(2, 1, Seq((0, 5, Array(0.1))))
    }
  }

  test("toEdges emits one row per edge with matching edgeId") {
    val g = TestGraphs.random(6, n = 6, z = 2)
    val rows = CompactGraph.toEdges(spark, g).collect()
    assert(rows.length == g.numEdges)
    rows.foreach { r =>
      val e = r.getInt(2)
      assert(g.outDst(e) == r.getLong(1).toInt)
      assert(g.topicProb(e, 0) == r.getSeq[Double](3).head)
    }
  }
}
