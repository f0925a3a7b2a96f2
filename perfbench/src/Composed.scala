package perfbench

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.core.{BestEffortKIM, Bounds, GreedyIM, KeywordSuggest, MIA}
import repro.data.SocialDataset
import repro.engine.Octopus
import repro.topic.TopicEM

/** Each service and the offline build, re-issued as the composition of
  * the public layer calls `Octopus` makes, every call wrapped in a span.
  * The traced run asserts that the composed answer equals the service's,
  * so a refactor that changes the composition is reported instead of
  * silently timing a different program.
  */
final class Composed(t: Tracer) {

  // Internal parameters of the service paths, at the values `Octopus` uses.
  private val kimCfg = BestEffortKIM.Config()
  private val rrSamples = 300
  private val topicSamples = 20
  private val stage1Frac = 0.2
  private val keepTop = 8

  /** Counters that do not depend on the machine, summed over calls. */
  var spreadEvals = 0L
  var naiveEvals = 0L
  var cappedUsers = 0L
  var boundedUsers = 0L
  var mixedEdges = 0L
  var rrWalks = 0L
  var candidateSets = 0L
  var treeNodes = 0L

  def resetCounters(): Unit = {
    spreadEvals = 0; naiveEvals = 0; cappedUsers = 0; boundedUsers = 0
    mixedEdges = 0; rrWalks = 0; candidateSets = 0; treeNodes = 0
  }

  /** `Octopus.build` plus forcing `precomp` and `rrIndex`. */
  def setup(spark: SparkSession, wl: Workload): (SocialDataset, Octopus) = t.request("setup", -1) {
    val ds = t.span("data.generate")(SynthData.citeLite(spark, wl.sf, Workload.GeneratorSeed))
    val model = t.span("topic.em") {
      if (wl.learnEM)
        TopicEM.learn(spark, ds.edges, ds.items, ds.actions, ds.vocab, Workload.NumTopics, Workload.EmIterations).model
      else TopicEM.fromTruth(ds)
    }
    val sys = t.span("engine.build") {
      val names = ds.users.select("userId", "name").collect().sortBy(_.getLong(0)).map(_.getString(1))
      new Octopus(spark, model, names, rrSamples, topicSamples, kimCfg)
    }
    t.span("core.bounds.precomp")(sys.precomp)
    t.span("core.rr.build")(sys.rrIndex)
    (ds, sys)
  }

  def serve(sys: Octopus, r: Request): Answer = r match {
    case q: Kim     => KimAnswer(kim(sys, q))
    case q: Suggest => SuggestAnswer(suggest(sys, q))
    case q: Mia     => MiaAnswer(mia(sys, q))
  }

  private def mix(sys: Octopus, gamma: Array[Double]): Array[Double] = {
    mixedEdges += sys.model.graph.numEdges
    t.span("data.mix")(sys.model.graph.mixedProbs(gamma))
  }

  /** `BestEffortKIM.query`: γ, mixing, local bounds, CELF. */
  def kim(sys: Octopus, q: Kim): GreedyIM.IMResult = {
    val g = sys.model.graph
    val gamma = t.span("topic.gamma")(sys.model.gammaFor(q.keywords))
    val probs = mix(sys, gamma)
    val ub = t.span("core.bounds.local") {
      Bounds.localUB(g, probs, sys.precomp, kimCfg.boundHops).map(_ * kimCfg.slack)
    }
    cappedUsers += ub.count(_ >= g.n * kimCfg.slack)
    boundedUsers += g.n
    val res = t.span("core.celf") {
      GreedyIM.celf(g, probs, q.k, kimCfg.numSamples, kimCfg.seed, initialUpper = Some(ub))
    }
    spreadEvals += res.spreadEvals
    naiveEvals += q.k.toLong * g.n - q.k.toLong * (q.k - 1) / 2
    res
  }

  /** `KeywordSuggest.suggestWithIndex`: pool, then a screening pass on a
    * prefix of the index and a full pass on the survivors.
    */
  def suggest(sys: Octopus, q: Suggest): KeywordSuggest.SuggestResult = {
    val index = sys.rrIndex
    val pool = t.span("core.suggest.pool")(KeywordSuggest.candidatePool(sys.model, q.user, q.pool))
    val sets = KeywordSuggest.kSubsets(pool, q.k).toVector
    candidateSets += sets.length
    val stage1 = math.max(1, (index.numSamples * stage1Frac).toInt)
    val screened = sets
      .map { w =>
        val gamma = t.span("topic.gamma")(sys.model.gammaFor(w))
        val probs = mix(sys, gamma)
        rrWalks += math.min(stage1, index.numSamples)
        (w, gamma, t.span("core.rr.walk")(index.estimateUserSpread(probs, q.user, restrict = stage1)))
      }
      .sortBy(-_._3)
      .take(keepTop)
    val winner = screened
      .map { case (w, gamma, _) =>
        val probs = mix(sys, gamma)
        rrWalks += index.numSamples
        (w, gamma, t.span("core.rr.walk")(index.estimateUserSpread(probs, q.user)))
      }
      .maxBy(_._3)
    KeywordSuggest.SuggestResult(winner._1, winner._2, winner._3, screened.length, 0L)
  }

  /** `Octopus.influencePaths`: γ, mixing, Dijkstra. */
  def mia(sys: Octopus, q: Mia): MIA.MiaTree = {
    val g = sys.model.graph
    val gamma = t.span("topic.gamma")(sys.model.gammaFor(q.keywords))
    val probs = mix(sys, gamma)
    val tree = t.span("core.mia") {
      if (q.outward) MIA.mioa(g, probs, q.user, q.theta) else MIA.miia(g, probs, q.user, q.theta)
    }
    treeNodes += tree.size
    tree
  }
}
