package perfbench

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.core.{GreedyIM, KeywordSuggest, MIA}
import repro.data.{SocialDataGen, SocialDataset}
import repro.engine.Octopus

/** A benchmark workload: one CiteLite network, one way of obtaining the
  * model, and a request mix drawn from the run's seed.
  *
  * @param sf      CiteLite scale factor (50 000 users per unit)
  * @param learnEM learn the model by EM (the write path) instead of
  *                adopting the generator's ground truth
  */
final case class Workload(name: String, sf: Double, learnEM: Boolean)

object Workload {

  // Both workloads run all three services, so every end-to-end metric is
  // measured on both. They differ in what dominates: on `cite-kim` CELF
  // takes most of every pass and set-up is cheap; on `cite-refresh` EM is
  // most of set-up, and the flatter learned probabilities make every
  // query layer see larger RR samples and looser bounds.
  val all: Seq[Workload] = Seq(
    Workload("cite-kim", sf = 0.05, learnEM = false),
    Workload("cite-refresh", sf = 0.02, learnEM = true),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Set-up repetitions per run; `setup_s` is their median. */
  val SetupReps = 3

  // The network is fixed per workload (CiteLite's default generator seed),
  // and so are the request parameters that set a request's cost and the
  // request order. With the generator seeded per run, KIM latency moved by
  // up to 50% between seeds from graph structure alone; drawing the
  // cross-topic pair or the users per seed moved it by 15%; shuffling the
  // order per seed moved suggestion p50 by 40%, because the JIT compiled
  // differently. The run's seed draws which keywords stand for each topic.
  val GeneratorSeed = 42L

  // Model-learning parameters of `Octopus.build` that the traced set-up
  // replays. EM runs half of its default 8 iterations, which keeps a
  // `cite-refresh` run near one minute. The request parameters follow the
  // service defaults.
  val NumTopics = 4
  val EmIterations = 4
  val KimKs: Seq[Int] = Seq(1, 5)
  // Suggestion gets 4x the users of MIA, for enough samples to steady its
  // latency percentiles.
  val SuggestUsers = 32
  val MiaUsers = 8
  val SuggestK = 2
  val SuggestPool = 12
  val MiaTopics = 2
  val MiaThetas: Seq[Double] = Seq(0.01, 0.001)

  /** The offline phase: generate, build, and force the lazy indexes the
    * requests use, so no request pays for them.
    */
  def setup(spark: SparkSession, wl: Workload): (SocialDataset, Octopus) = {
    val ds = SynthData.citeLite(spark, wl.sf, GeneratorSeed)
    val sys = Octopus.build(spark, ds, learnEM = wl.learnEM, numTopics = NumTopics, emIterations = EmIterations)
    sys.precomp
    sys.rrIndex
    (ds, sys)
  }

  /** The request list of one pass, drawn from `seed`:
    *   - KIM: a keyword pair from each topic's band (pure-topic queries)
    *     and a same-rank pair from the bands of topics 0 and 1
    *     (cross-topic), each at k = 1 and 5;
    *   - suggestion: the 32 users with the highest out-degree;
    *   - MIA: the 8 users with the highest out-degree × the pure-topic
    *     queries of topics 0 and 1 × θ × direction.
    * Services are interleaved so that each one's calls spread evenly over
    * the pass.
    */
  def requests(sys: Octopus, seed: Long): Vector[Request] = {
    val model = sys.model
    val rnd = new java.util.Random(seed)
    val bandSize = model.vocab.length / model.numTopics
    def band(t: Int): IndexedSeq[String] =
      (0 until bandSize).map(SocialDataGen.keywordName(t, _)).filter(model.keywordIndex.contains)
    def pair(t: Int): Seq[String] = {
      val kws = band(t)
      val i = rnd.nextInt(kws.length)
      val j = (i + 1 + rnd.nextInt(kws.length - 1)) % kws.length
      Seq(kws(i), kws(j))
    }
    val pure = (0 until model.numTopics).map(pair)
    val rank = rnd.nextInt(math.min(band(0).length, band(1 % model.numTopics).length))
    val cross = Seq(band(0)(rank), band(1 % model.numTopics)(rank))
    val users = GreedyIM.topDegree(model.graph, SuggestUsers)

    val kim = for (q <- pure :+ cross; k <- KimKs) yield Kim(q, k)
    val suggest = users.map(u => Suggest(u, SuggestK, SuggestPool))
    val mia = for {
      u <- users.take(MiaUsers)
      q <- pure.take(MiaTopics)
      theta <- MiaThetas
      outward <- Seq(true, false)
    } yield Mia(u, q, theta, outward)
    def positioned(rs: Seq[Request]) = rs.zipWithIndex.map { case (r, i) => ((i + 0.5) / rs.length, r) }
    (positioned(kim) ++ positioned(suggest) ++ positioned(mia)).sortBy(_._1).map(_._2).toVector
  }

  /** Answer one request through the public `Octopus` service API. */
  def serve(sys: Octopus, r: Request): Answer = r match {
    case Kim(q, k)              => KimAnswer(sys.influentialUsers(q, k)._2)
    case Suggest(u, k, pool)    => SuggestAnswer(sys.suggestKeywords(u, k, pool))
    case Mia(u, q, theta, out)  => MiaAnswer(sys.influencePaths(u, q, theta, out))
  }
}

sealed trait Request { def service: String }
final case class Kim(keywords: Seq[String], k: Int) extends Request { def service = "kim" }
final case class Suggest(user: Int, k: Int, pool: Int) extends Request { def service = "suggest" }
final case class Mia(user: Int, keywords: Seq[String], theta: Double, outward: Boolean) extends Request {
  def service = "mia"
}

/** A service answer with the parts that must repeat exactly; wall-clock
  * fields such as `millis` are left out of equality and digests.
  */
sealed trait Answer { def canonical: String }

final case class KimAnswer(res: GreedyIM.IMResult) extends Answer {
  def canonical: String =
    s"kim ${res.seeds.mkString(",")} ${java.lang.Double.doubleToLongBits(res.spread)} ${res.spreadEvals}"
}

final case class SuggestAnswer(res: KeywordSuggest.SuggestResult) extends Answer {
  def canonical: String =
    s"suggest ${res.keywords.mkString(",")} ${res.gamma.map(java.lang.Double.doubleToLongBits).mkString(",")} " +
      s"${java.lang.Double.doubleToLongBits(res.estSpread)} ${res.evaluatedSets}"
}

final case class MiaAnswer(tree: MIA.MiaTree) extends Answer {
  def canonical: String =
    s"mia ${tree.root} ${tree.outward} ${tree.theta} " +
      tree.nodes.map(n => s"${n.node}:${n.parent}:${java.lang.Double.doubleToLongBits(n.prob)}:${n.depth}").mkString(";")
}
