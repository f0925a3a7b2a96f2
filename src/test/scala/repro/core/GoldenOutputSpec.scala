package repro.core

import java.lang.Double.doubleToLongBits

import repro.SparkSpec
import repro.engine.Octopus
import repro.exp.Experiments

/** Pins the deterministic outputs of the live-edge walks and of MIA on
  * CiteLite SF 0.01: every possible world is fixed by `(seed, sample,
  * edge)`, so seeds, evaluation counts and spreads are pure functions of
  * the configuration, and MIA trees are pure functions of the mixed
  * probabilities. A refactor must reproduce these values bit for bit;
  * doubles are compared as raw `doubleToLongBits`.
  */
class GoldenOutputSpec extends SparkSpec {

  private lazy val c = Experiments.ctx(spark, Experiments.Network(0.01))
  private lazy val queries = Experiments.keywordQueries(c.model, 2)
  private lazy val precomp = Bounds.precomputedUB(c.model.graph)
  private val cfg = BestEffortKIM.Config()

  /** (query, k) -> (seeds, spreadEvals, spread bits) of plain CELF, then of
    * best-effort KIM, then `mcSpread` bits of the CELF seeds on 500 fresh worlds.
    */
  private val expectedKim = Map[(Int, Int), ((Seq[Int], Long, Long), (Seq[Int], Long, Long), Long)](
    (0, 1) -> ((Seq(166), 500L, 4626996849785564037L), (Seq(166), 137L, 4626996849785564037L),
      4627021901058491286L),
    (0, 3) -> ((Seq(166, 225, 417), 541L, 4630967054332067840L),
      (Seq(166, 225, 417), 263L, 4630967054332067840L), 4631015749503038783L),
    (1, 1) -> ((Seq(169), 500L, 4633125967403438572L), (Seq(169), 153L, 4633125967403438572L),
      4633031391811263791L),
    (1, 3) -> ((Seq(169, 170, 360), 631L, 4635036126964141261L),
      (Seq(169, 170, 360), 428L, 4635036126964141261L), 4634994257561355551L),
  )

  /** Stored-edge count, and a hash of every sample's root and in-edge
    * arrays in stored order.
    */
  private val expectedStoredEdges = 8929L
  private val expectedStoredHash = -1883875458

  /** `estimateUserSpread` bits (full, first 60 samples) for the three
    * highest-out-degree users under each query.
    */
  private val expectedUsers = Seq[(Int, Long, Long)](
    (42, 4614688418178968235L, 4620880867666602667L),
    (58, 4610184818551597739L, 0L),
    (467, 0L, 0L),
    (42, 4623695617433709227L, 4625384467293973163L),
    (58, 4617315517961601024L, 4620880867666602667L),
    (467, 4632468254207858005L, 4632233691727265792L),
  )

  /** MIA trees of the three highest-out-degree users, under the topic
    * prior and then under the first query, for θ ∈ {0.01, 0.001} and both
    * directions: (size, hash of `(node, parent, prob bits, depth)` in
    * `nodes` order). The node order is the max-heap's settle order.
    */
  private val expectedMia = Seq[(Int, Int)](
    (65, -1942045414), (10, -1775418879), (284, -1640513498), (59, -736538200),
    (48, -2022832065), (7, -118036444), (234, -1868465466), (48, 25152418),
    (44, 1182533329), (11, 1119168759), (216, -958348744), (82, 1866825307),
    (81, -1599862764), (10, -815534229), (164, -1050327321), (11, -1790356922),
    (54, 1853296384), (7, -2086867613), (129, 494003635), (8, 1524007215),
    (51, -1732049886), (11, -634093640), (112, 565966991), (13, 649832848),
  )

  /** `suggestWithIndex` on a 300-sample index for the three
    * highest-out-degree users at k ∈ {1, 2}: (user, k, keywords, hash of
    * the γ bits, estSpread bits, evaluatedSets).
    */
  private val expectedSuggest = Seq[(Int, Int, Seq[String], Int, Long, Int)](
    (42, 1, Seq("kw_t2_0"), -543403683, 4633875629091411285L, 8),
    (42, 2, Seq("kw_t2_0", "kw_t2_1"), -1248017957, 4633875629091411285L, 8),
    (58, 1, Seq("kw_t2_0"), -543403683, 4629137466983448576L, 8),
    (58, 2, Seq("kw_t2_0", "kw_t2_1"), -1248017957, 4629137466983448576L, 8),
    (467, 1, Seq("kw_t1_0"), -345986339, 4632468254207858005L, 8),
    (467, 2, Seq("kw_t1_0", "kw_t1_1"), 1411174968, 4632468254207858005L, 8),
  )

  test("CELF, best-effort KIM and mcSpread reproduce their recorded outputs") {
    val g = c.model.graph
    val got = for ((q, qi) <- queries.zipWithIndex; k <- Seq(1, 3)) yield {
      val gamma = c.model.gammaFor(q)
      val probs = g.mixedProbs(gamma)
      val celf = GreedyIM.celf(g, probs, k, cfg.numSamples, cfg.seed)
      val be = BestEffortKIM.queryGamma(g, precomp, gamma, k, cfg)
      val mc = SpreadEstimator.mcSpread(g, probs, celf.seeds, 500, 99L)
      (qi, k) -> ((celf.seeds, celf.spreadEvals, doubleToLongBits(celf.spread)),
        (be.seeds, be.spreadEvals, doubleToLongBits(be.spread)), doubleToLongBits(mc))
    }
    assert(got.toMap == expectedKim)
  }

  test("the RR index stores and estimates its recorded values") {
    val g = c.model.graph
    val index = RRIndex.build(g, 300)
    val stored = index.samples.iterator.map(_.inEdges.valuesIterator.map(_.length.toLong).sum).sum
    val hash = index.samples.toSeq.map { s =>
      (s.root, s.truncated, s.inEdges.toSeq.sortBy(_._1).map { case (v, es) => (v, es.toSeq) })
    }.hashCode
    val users = GreedyIM.topDegree(g, 3)
    val got = for (q <- queries; u <- users) yield {
      val probs = g.mixedProbs(c.model.gammaFor(q))
      (u, doubleToLongBits(index.estimateUserSpread(probs, u)),
        doubleToLongBits(index.estimateUserSpread(probs, u, restrict = 60)))
    }
    assert(stored == expectedStoredEdges)
    assert(hash == expectedStoredHash)
    assert(got == expectedUsers)
  }

  test("MIA reproduces its recorded trees in settle order") {
    val g = c.model.graph
    val got = for {
      gamma <- Seq(c.model.prior, c.model.gammaFor(queries.head))
      probs = g.mixedProbs(gamma)
      u <- GreedyIM.topDegree(g, 3)
      theta <- Seq(0.01, 0.001)
      outward <- Seq(true, false)
    } yield {
      val t = if (outward) MIA.mioa(g, probs, u, theta) else MIA.miia(g, probs, u, theta)
      (t.size, t.nodes.map(n => (n.node, n.parent, doubleToLongBits(n.prob), n.depth)).hashCode)
    }
    assert(got == expectedMia, got.mkString(", "))
  }

  test("keyword suggestion reproduces its recorded answers") {
    val g = c.model.graph
    val index = RRIndex.build(g, 300)
    val got = for (u <- GreedyIM.topDegree(g, 3); k <- Seq(1, 2)) yield {
      val r = KeywordSuggest.suggestWithIndex(c.model, index, u, k)
      (u, k, r.keywords, r.gamma.map(doubleToLongBits).toSeq.hashCode, doubleToLongBits(r.estSpread),
        r.evaluatedSets)
    }
    assert(got == expectedSuggest, got.mkString(", "))
  }

  test("the MIA service reproduces the recorded trees") {
    val g = c.model.graph
    val sys = new Octopus(spark, c.model, Array.tabulate(g.n)(i => s"u$i"), 300, 0, cfg)
    val got = for {
      keywords <- Seq(Seq.empty[String], queries.head)
      u <- GreedyIM.topDegree(g, 3)
      theta <- Seq(0.01, 0.001)
      outward <- Seq(true, false)
    } yield {
      val t = sys.influencePaths(u, keywords, theta, outward)
      (t.size, t.nodes.map(n => (n.node, n.parent, doubleToLongBits(n.prob), n.depth)).hashCode)
    }
    assert(got == expectedMia, got.mkString(", "))
  }
}
