package repro.core

import org.apache.spark.sql.SparkSession
import repro.data.CompactGraph

/** The "influencer index" behind personalized influential keyword
  * suggestion (paper §II-D): "a novel index structure that maintains
  * influencers of uniformly sampled users to avoid online sampling from
  * scratch".
  *
  * Offline (a distributed Spark job over the broadcast graph): for each
  * of R uniformly sampled target users, run a *reverse* traversal in the
  * possible world `(seed, sampleId)` under the dominating probabilities
  * `p^max_e = max_z pp^z_e`, and store the traversed edge set. Because
  * every coin is fixed by [[WorldSampler]] and `p_γ(e) ≤ p^max(e)` for
  * any simplex γ, the true reverse-reachable (RR) set of the sample under
  * *any* query γ is contained in the stored subgraph — so the online side
  * never touches the full graph, it just re-walks a few stored edges
  * comparing the same coins against the γ-mixed probabilities (the
  * paper's lazy propagation: edges are only "materialized" as the walk
  * reaches them, and membership tests exit early once the target is
  * found).
  *
  * Standard RIS identity, for the single users suggestion scores:
  * `σ_γ({u}) = n · Pr[ u ∈ RR_γ ]` — the estimator is unbiased, which
  * tests check against exact spreads.
  */
object RRIndex {

  /** One stored sample: root plus the reverse-live-superset edges,
    * grouped by destination for reverse walking.
    */
  final case class Sample(
      sampleId: Long,
      root: Int,
      // in-adjacency over the stored subgraph: node -> (src, globalEdgeId)*
      inEdges: Map[Int, Array[(Int, Int)]],
      truncated: Boolean,
  )

  final class Index(
      val samples: Array[Sample],
      val n: Int,
      val seed: Long,
  ) extends Serializable {

    def numSamples: Int = samples.length

    /** RIS spread estimate for a single user over a sample prefix —
      * `restrict` < numSamples is the cheap first stage of the
      * suggestion engine's two-stage pruning. Each membership test
      * exits as soon as `u` is reached (the paper's pruning).
      */
    def estimateUserSpread(probs: Array[Double], u: Int, restrict: Int = Int.MaxValue): Double = {
      require(restrict > 0, s"restrict must be positive, got $restrict")
      val r = math.min(restrict, samples.length)
      val walk = new LiveWalk(n)
      var hit = 0
      var i = 0
      while (i < r) {
        if (walk.stored(samples(i), probs, seed, u)) hit += 1
        i += 1
      }
      n.toDouble * hit / r
    }
  }

  /** Build the index as a distributed job: sample ids are partitioned
    * across executors, each walks the broadcast graph reverse-wise under
    * `p^max` with deterministic coins and returns its (small) samples,
    * which the driver collects in sample-id order.
    *
    * @param maxNodesPerSample safety valve against a supercritical
    *        `p^max` graph. A truncated sample carries `truncated = true`,
    *        but no caller reads that flag yet, so the cap is silent to
    *        the services (ROADMAP open item 3).
    */
  def build(
      spark: SparkSession,
      g: CompactGraph,
      numSamples: Int,
      seed: Long = 23L,
      maxNodesPerSample: Int = 20000,
  ): Index = {
    val bcast = spark.sparkContext.broadcast(g)
    val samples = spark.sparkContext
      .parallelize(0L until numSamples.toLong, math.min(numSamples, 64))
      .mapPartitions { js =>
        val graph = bcast.value
        val pmax = graph.maxProbs() // hoisted: once per partition, not per sample
        val walk = new LiveWalk(graph.n)
        js.map { j =>
          walk.record(graph, pmax, seed, j, WorldSampler.uniformInt(seed, j, graph.n), maxNodesPerSample)
        }
      }
      .collect()
    bcast.destroy()
    new Index(samples, g.n, seed)
  }
}
