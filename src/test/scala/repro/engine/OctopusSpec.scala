package repro.engine

import java.lang.Double.doubleToLongBits

import repro.{SparkSpec, TestGraphs}
import repro.core.BestEffortKIM
import repro.data.SocialDataGen

/** End-to-end integration: the three demo scenarios on a small CiteLite
  * network (ground-truth model path and EM path).
  */
class OctopusSpec extends SparkSpec {

  private lazy val ds = repro.SynthData.citeLite(spark, 0.005, seed = 21)
  private lazy val sys = Octopus.build(spark, ds, rrSamples = 200,
    kimConfig = repro.core.BestEffortKIM.Config(numSamples = 100))

  private lazy val primaryOf: Map[Int, Int] =
    ds.users.collect().map(r => r.getLong(0).toInt -> r.getInt(2)).toMap

  test("scenario 1: influential users for a keyword query") {
    val kws = Seq(SocialDataGen.keywordName(0, 0), SocialDataGen.keywordName(0, 1))
    val (names, res, gamma) = sys.influentialUsers(kws, 5)
    assert(names.size == 5 && names.forall(_.startsWith("user_")))
    assert(res.seeds.distinct.size == 5)
    assert(gamma(0) > 0.5, s"pure topic-0 query should concentrate gamma, got ${gamma.toSeq}")
    // build passes its sample counts through to the index and to KIM
    assert(sys.rrIndex.numSamples == 200)
    val direct = BestEffortKIM.queryGamma(sys.model.graph, sys.precomp, gamma, 5,
      BestEffortKIM.Config(numSamples = 100))
    assert(res.seeds == direct.seeds && res.spreadEvals == direct.spreadEvals)
    assert(doubleToLongBits(res.spread) == doubleToLongBits(direct.spread))
  }

  test("scenario 1: seeds lean toward the queried topic's community") {
    val kws = Seq(SocialDataGen.keywordName(1, 0), SocialDataGen.keywordName(1, 1))
    val (_, res, _) = sys.influentialUsers(kws, 5)
    val own = res.seeds.count(primaryOf(_) == 1)
    assert(own >= 3, s"only $own/5 seeds from community 1: ${res.seeds.map(primaryOf)}")
  }

  test("scenario 1: different topics give different seed sets") {
    val a = sys.influentialUsers(Seq(SocialDataGen.keywordName(0, 0)), 5)._2.seeds.toSet
    val b = sys.influentialUsers(Seq(SocialDataGen.keywordName(2, 0)), 5)._2.seeds.toSet
    assert(a != b)
  }

  test("scenario 2: suggested keywords are topically coherent with the target") {
    val g = sys.model.graph
    val hub = (0 until g.n).maxBy(g.outDegree)
    val res = sys.suggestKeywords(hub, 2)
    assert(res.keywords.size == 2)
    val t = primaryOf(hub)
    assert(res.keywords.exists(_.startsWith(s"kw_t$t")),
      s"suggestions ${res.keywords} ignore the hub's topic $t")
  }

  test("scenario 3: outward influence tree is rooted and bounded by theta") {
    val g = sys.model.graph
    val hub = (0 until g.n).maxBy(g.outDegree)
    val tree = sys.influencePaths(hub, Seq.empty, theta = 0.05)
    assert(tree.root == hub && tree.outward)
    assert(tree.nodes.forall(_.prob >= 0.05))
    assert(tree.byNode(hub).prob == 1.0)
  }

  test("scenario 3: inward tree finds the influencers of a target") {
    val g = sys.model.graph
    val sink = (0 until g.n).maxBy(TestGraphs.inDegree(g, _))
    val tree = sys.influencePaths(sink, Seq.empty, theta = 0.05, outward = false)
    assert(!tree.outward && tree.root == sink)
    if (tree.size > 1) {
      val other = tree.nodes.find(_.node != sink).get
      assert(tree.pathTo(other.node).last == sink)
    }
  }

  test("scenario 3: DataFrame export matches the tree") {
    val tree = sys.influencePaths(0, Seq.empty, theta = 0.02)
    val df = sys.influencePathsDf(0, Seq.empty, theta = 0.02)
    assert(df.count() == tree.size)
    assert(df.columns.toSeq == Seq("node", "name", "parent", "depth", "pathProb", "path"))
  }

  test("userIdOf resolves display names") {
    assert(sys.userIdOf("user_7").contains(7))
    assert(sys.userIdOf("nobody").isEmpty)
  }

  test("keyword-conditioned paths differ from prior paths") {
    val g = sys.model.graph
    val hub = (0 until g.n).maxBy(g.outDegree)
    val prior = sys.influencePaths(hub, Seq.empty, theta = 0.03)
    val topical = sys.influencePaths(hub, Seq(SocialDataGen.keywordName(primaryOf(hub), 0)), theta = 0.03)
    // conditioning on the hub's own topic should not shrink its reach
    assert(topical.size >= prior.size)
  }

  test("services reject out-of-range users, k and unknown-only keywords") {
    val n = sys.model.graph.n
    val kws = Seq(SocialDataGen.keywordName(0, 0))
    def rejected(call: => Any): IllegalArgumentException = intercept[IllegalArgumentException](call)
    rejected(sys.suggestKeywords(-1, 2))
    rejected(sys.suggestKeywords(n, 2))
    rejected(sys.suggestKeywords(0, 13))
    rejected(sys.suggestKeywords(0, 0))
    rejected(sys.influencePaths(n, Seq.empty, theta = 0.05))
    rejected(sys.influencePaths(-1, Seq.empty, theta = 0.05))
    for (theta <- Seq(0.0, -0.1, 1.0 + 1e-9, Double.NaN, Double.PositiveInfinity)) {
      val e = rejected(sys.influencePaths(0, Seq.empty, theta))
      assert(e.getMessage.contains("theta"), e.getMessage)
    }
    rejected(sys.influentialUsers(kws, 0))
    rejected(sys.influentialUsers(kws, -2))
    rejected(sys.influentialUsers(kws, n + 1))
    val e = rejected(sys.influentialUsers(Seq("no_such_kw"), 2))
    assert(e.getMessage.contains("no_such_kw"))
    // one known keyword is enough, and an empty list still means the prior
    assert(sys.influentialUsers(kws :+ "no_such_kw", 2)._2.seeds.size == 2)
    assert(sys.influencePaths(0, Seq.empty, theta = 0.05).root == 0)
    assert(sys.influencePaths(0, Seq.empty, theta = 1.0).root == 0)
  }

  test("the constructor rejects sample counts below 1") {
    def make(rrSamples: Int = 10, cfg: BestEffortKIM.Config = BestEffortKIM.Config()): Octopus =
      new Octopus(spark, sys.model, sys.userNames, rrSamples, topicSamples = 0, cfg)
    intercept[IllegalArgumentException](make(rrSamples = 0))
    intercept[IllegalArgumentException](make(cfg = BestEffortKIM.Config(numSamples = 0)))
    make(rrSamples = 1, BestEffortKIM.Config(numSamples = 1))
  }

  test("full pipeline with EM-learned model runs end to end") {
    val tiny = repro.SynthData.citeLite(spark, 0.002, seed = 22)
    val sysEm = Octopus.build(spark, tiny, learnEM = true, emIterations = 3,
      rrSamples = 100, kimConfig = repro.core.BestEffortKIM.Config(numSamples = 60))
    val (names, res, _) = sysEm.influentialUsers(Seq(SocialDataGen.keywordName(0, 0)), 3)
    assert(names.size == 3 && res.spread >= 1.0)
    val sug = sysEm.suggestKeywords(res.seeds.head, 2)
    assert(sug.keywords.size == 2)
  }
}
