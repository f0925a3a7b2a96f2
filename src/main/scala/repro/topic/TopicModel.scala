package repro.topic

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.CompactGraph

/** The topic-aware influence model OCTOPUS operates on (Section II-B).
  *
  * Holds the three learned parameter groups of the TIC model:
  *   - `prior`   — p(z), the topic prior;
  *   - `phi`     — p(w|z), keyword distribution per topic (Z × V);
  *   - `graph`   — the social graph whose edges carry the learned
  *                 per-topic activation probabilities `pp^z_{u,v}`.
  *
  * `gammaFor` is the paper's keyword-to-topic bridge: given user keywords
  * W it derives the item topic distribution γ by Bayes' rule,
  * `γ_z ∝ p(z) · Π_{w∈W} p(w|z)`, computed in log-domain.
  */
final case class TopicModel(
    numTopics: Int,
    vocab: Array[String],
    prior: Array[Double],
    phi: Array[Array[Double]],
    graph: CompactGraph,
) {
  require(phi.length == numTopics && prior.length == numTopics)
  require(phi.forall(_.length == vocab.length))

  /** keyword string -> dense keyword id */
  lazy val keywordIndex: Map[String, Int] = vocab.zipWithIndex.toMap

  /** Bayesian topic posterior for a keyword set (log-domain softmax).
    * Unknown keywords are ignored; an empty known set yields the prior.
    */
  def gammaFor(keywords: Seq[String]): Array[Double] = {
    val known = keywords.flatMap(keywordIndex.get)
    if (known.isEmpty) return prior.clone()
    val logScore = Array.tabulate(numTopics) { z =>
      math.log(prior(z)) + known.map(w => math.log(math.max(phi(z)(w), 1e-12))).sum
    }
    softmaxFromLogs(logScore)
  }

  /** Persist parameters as DataFrames (what a deployment would write). */
  def toDataFrames(spark: SparkSession): (DataFrame, DataFrame, DataFrame) = {
    import spark.implicits._
    val priorDf = prior.indices.map(z => (z, prior(z))).toDF("topic", "p")
    val phiDf = (for { z <- phi.indices; w <- vocab.indices } yield (z, vocab(w), phi(z)(w)))
      .toDF("topic", "keyword", "p")
    val edgesDf = CompactGraph.toEdges(spark, graph)
    (priorDf, phiDf, edgesDf)
  }

  private def softmaxFromLogs(logs: Array[Double]): Array[Double] = {
    val m = logs.max
    val exps = logs.map(l => math.exp(l - m))
    val s = exps.sum
    exps.map(_ / s)
  }
}
