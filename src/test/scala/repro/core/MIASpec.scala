package repro.core

import repro.{SparkSpec, TestGraphs}

/** MIA arborescences vs brute-force max-probability paths. */
class MIASpec extends SparkSpec {

  test("chain: path probabilities are products along the chain") {
    val g = TestGraphs.chain3(0.5)
    val t = MIA.mioa(g, g.mixedProbs(Array(1.0)), 0, theta = 0.01)
    assert(t.size == 3)
    assert(t.byNode(0).prob == 1.0)
    assert(t.byNode(1).prob == 0.5)
    assert(t.byNode(2).prob == 0.25)
    assert(t.byNode(2).parent == 1 && t.byNode(1).parent == 0)
  }

  test("theta prunes low-probability paths") {
    val g = TestGraphs.chain3(0.5)
    val t = MIA.mioa(g, g.mixedProbs(Array(1.0)), 0, theta = 0.3)
    assert(t.byNode.keySet == Set(0, 1))
  }

  test("theta = 1 keeps only probability-1 paths") {
    val g = TestGraphs.single(4, (0, 1, 1.0), (1, 2, 0.9), (0, 3, 0.5))
    val t = MIA.mioa(g, g.mixedProbs(Array(1.0)), 0, theta = 1.0)
    assert(t.byNode.keySet == Set(0, 1))
  }

  test("max-probability path wins over shorter weaker path") {
    // 0→3 direct with 0.2; 0→1→2→3 with 0.9³ = 0.729
    val g = TestGraphs.single(4, (0, 3, 0.2), (0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9))
    val t = MIA.mioa(g, g.mixedProbs(Array(1.0)), 0, theta = 0.01)
    assert(math.abs(t.byNode(3).prob - 0.729) < 1e-12)
    assert(t.byNode(3).parent == 2)
  }

  test("agrees with brute-force best path on random graphs") {
    for (seed <- 1 to 6) {
      val g = TestGraphs.random(seed * 3, n = 7, maxEdges = 14)
      val probs = g.mixedProbs(Array(0.5, 0.5))
      val root = 0
      val t = MIA.mioa(g, probs, root, theta = 1e-6)
      val brute = bruteBestPath(g, probs, root)
      for (v <- 0 until g.n) {
        val bp = brute.getOrElse(v, 0.0)
        val tp = t.byNode.get(v).map(_.prob).getOrElse(0.0)
        if (bp >= 1e-6) assert(math.abs(bp - tp) < 1e-12, s"seed=$seed v=$v brute=$bp tree=$tp")
      }
    }
  }

  test("the tree under gamma equals mioa/miia on the mixed probabilities bit for bit") {
    for (seed <- 1 to 6) {
      val g = TestGraphs.random(seed * 5, n = 8, z = 3, maxEdges = 16)
      val gamma = TestGraphs.randomGamma(seed, 3)
      val probs = g.mixedProbs(gamma)
      def bits(t: MIA.MiaTree) =
        t.nodes.map(n => (n.node, n.parent, java.lang.Double.doubleToLongBits(n.prob), n.depth))
      for (root <- 0 until g.n; theta <- Seq(0.001, 0.2); outward <- Seq(true, false)) {
        val ref = if (outward) MIA.mioa(g, probs, root, theta) else MIA.miia(g, probs, root, theta)
        assert(bits(MIA.treeUnder(g, gamma, root, theta, outward)) == bits(ref), s"seed $seed root $root")
      }
    }
  }

  test("miia equals mioa on the edge-reversed graph") {
    val g = TestGraphs.multi(5, 2,
      (0, 1, Seq(0.5, 0.1)), (1, 2, Seq(0.4, 0.2)), (3, 2, Seq(0.9, 0.9)), (2, 4, Seq(0.3, 0.3)))
    val probs = g.mixedProbs(Array(0.5, 0.5))
    val inward = MIA.miia(g, probs, 2, theta = 0.01)
    // reversed graph carrying the same per-edge mixed probabilities;
    // global edge ids in g are (0,1)=0, (1,2)=1, (2,4)=2, (3,2)=3.
    val rev = TestGraphs.multi(5, 1,
      (1, 0, Seq(probs(0))), (2, 1, Seq(probs(1))), (4, 2, Seq(probs(2))), (2, 3, Seq(probs(3))))
    val outward = MIA.mioa(rev, rev.mixedProbs(Array(1.0)), 2, theta = 0.01)
    assert(inward.byNode.keySet == outward.byNode.keySet)
    inward.nodes.foreach(n => assert(math.abs(n.prob - outward.byNode(n.node).prob) < 1e-12))
  }

  test("tree structure: every non-root has its parent in the tree") {
    val g = TestGraphs.random(91, n = 8)
    val t = MIA.mioa(g, g.mixedProbs(Array(0.5, 0.5)), 1, theta = 0.01)
    t.nodes.filterNot(_.node == t.root).foreach { n =>
      assert(t.byNode.contains(n.parent))
      assert(t.byNode(n.parent).depth == n.depth - 1)
    }
    assert(t.byNode(t.root).parent == -1 && t.byNode(t.root).depth == 0)
  }

  test("pathTo returns a root-to-node path along tree parents") {
    val g = TestGraphs.random(92, n = 8)
    val t = MIA.mioa(g, g.mixedProbs(Array(0.5, 0.5)), 0, theta = 0.001)
    t.nodes.foreach { n =>
      val p = t.pathTo(n.node)
      assert(p.head == t.root && p.last == n.node)
      assert(p.length == n.depth + 1)
    }
  }

  test("pathTo on MIIA runs node-to-root") {
    val g = TestGraphs.chain3(0.5)
    val t = MIA.miia(g, g.mixedProbs(Array(1.0)), 2, theta = 0.01)
    assert(t.pathTo(0) == Seq(0, 1, 2))
  }

  test("pathTo rejects nodes outside the tree") {
    val g = TestGraphs.chain3(0.5)
    val t = MIA.mioa(g, g.mixedProbs(Array(1.0)), 0, theta = 0.3)
    intercept[IllegalArgumentException] { t.pathTo(2) }
  }

  test("treeSpread is the sum of path probabilities") {
    val g = TestGraphs.chain3(0.5)
    val t = MIA.mioa(g, g.mixedProbs(Array(1.0)), 0, theta = 0.01)
    assert(math.abs(t.treeSpread - 1.75) < 1e-12)
  }

  test("treeSpread lower-bounds the exact spread") {
    for (seed <- 1 to 5) {
      val g = TestGraphs.random(seed * 19, n = 7, maxEdges = 12)
      val probs = g.mixedProbs(Array(0.5, 0.5))
      val t = MIA.mioa(g, probs, 0, theta = 1e-9)
      val exact = TestGraphs.exactSpread(g, probs, Seq(0))
      assert(t.treeSpread <= exact + 1e-9, s"seed=$seed tree=${t.treeSpread} exact=$exact")
    }
  }

  test("smaller theta never shrinks the tree") {
    val g = TestGraphs.random(93, n = 9)
    val probs = g.mixedProbs(Array(0.5, 0.5))
    val sizes = Seq(0.3, 0.1, 0.01, 0.001).map(th => MIA.mioa(g, probs, 0, th).size)
    sizes.sliding(2).foreach(p => assert(p(1) >= p(0)))
  }

  test("invalid theta is rejected") {
    val g = TestGraphs.chain3(0.5)
    intercept[IllegalArgumentException] { MIA.mioa(g, g.mixedProbs(Array(1.0)), 0, 0.0) }
    intercept[IllegalArgumentException] { MIA.mioa(g, g.mixedProbs(Array(1.0)), 0, 1.5) }
  }

  test("toDataFrame exports one row per tree node with names and paths") {
    val g = TestGraphs.chain3(0.8)
    val t = MIA.mioa(g, g.mixedProbs(Array(1.0)), 0, theta = 0.1)
    val df = MIA.toDataFrame(spark, t, i => s"user_$i")
    val rows = df.collect()
    assert(rows.length == t.size)
    val r2 = rows.find(_.getLong(0) == 2L).get
    assert(r2.getString(1) == "user_2")
    assert(r2.getSeq[Long](5) == Seq(0L, 1L, 2L))
  }

  test("disconnected nodes never appear in the tree") {
    val g = TestGraphs.single(5, (0, 1, 0.9), (2, 3, 0.9))
    val t = MIA.mioa(g, g.mixedProbs(Array(1.0)), 0, theta = 0.01)
    assert(t.byNode.keySet == Set(0, 1))
  }

  private def bruteBestPath(g: repro.data.CompactGraph, probs: Array[Double], root: Int): Map[Int, Double] = {
    // exhaustive DFS over simple paths
    val best = scala.collection.mutable.Map(root -> 1.0)
    def dfs(u: Int, p: Double, seen: Set[Int]): Unit = {
      for (e <- g.outOffsets(u) until g.outOffsets(u + 1)) {
        val v = g.outDst(e)
        if (!seen.contains(v)) {
          val np = p * probs(e)
          if (np > best.getOrElse(v, 0.0)) best(v) = np
          if (np > 1e-9) dfs(v, np, seen + v)
        }
      }
    }
    dfs(root, 1.0, Set(root))
    best.toMap
  }
}
