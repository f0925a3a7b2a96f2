package repro

import org.apache.spark.sql.DataFrame
import repro.data.CompactGraph

/** Handcrafted and random tiny graphs shared across test suites.
  *
  * Everything here is driver-side — the graphs are small enough for the
  * exhaustive 2^E spread oracle ([[repro.core.SpreadEstimator.exactSpread]])
  * that most algorithmic correctness tests diff against.
  */
object TestGraphs {

  /** Single-topic graph from an edge list with per-edge probability. */
  def single(n: Int, edges: (Int, Int, Double)*): CompactGraph =
    CompactGraph.fromEdgeSeq(n, 1, edges.map { case (s, d, p) => (s, d, Array(p)) })

  /** The graph of `n` nodes and `z` topics whose edges are the collected
    * `src`, `dst`, `probs` rows of an edges DataFrame.
    */
  def fromRows(edges: DataFrame, n: Int, z: Int): CompactGraph =
    CompactGraph.fromEdgeSeq(n, z, edges.select("src", "dst", "probs").collect().toSeq
      .map(r => (r.getLong(0).toInt, r.getLong(1).toInt, r.getSeq[Double](2).toArray)))

  /** Multi-topic graph from an edge list with per-edge prob vectors. */
  def multi(n: Int, z: Int, edges: (Int, Int, Seq[Double])*): CompactGraph =
    CompactGraph.fromEdgeSeq(n, z, edges.map { case (s, d, p) =>
      require(p.length == z); (s, d, p.toArray)
    })

  /** 0 → 1 → 2 chain with uniform probability `p`. */
  def chain3(p: Double): CompactGraph = single(3, (0, 1, p), (1, 2, p))

  /** Diamond 0→{1,2}→3 with uniform probability `p`. */
  def diamond(p: Double): CompactGraph =
    single(4, (0, 1, p), (0, 2, p), (1, 3, p), (2, 3, p))

  /** Random small graph for property tests: at most `maxEdges` edges so
    * the exact oracle stays feasible. Deterministic in `seed`.
    */
  def random(seed: Long, n: Int = 7, z: Int = 2, maxEdges: Int = 14): CompactGraph = {
    val rnd = new java.util.Random(seed)
    val pairs = scala.collection.mutable.LinkedHashSet.empty[(Int, Int)]
    val target = 3 + rnd.nextInt(math.max(1, maxEdges - 3))
    var tries = 0
    while (pairs.size < target && tries < 200) {
      tries += 1
      val s = rnd.nextInt(n); val d = rnd.nextInt(n)
      if (s != d) pairs += ((s, d))
    }
    val edges = pairs.toSeq.map { case (s, d) =>
      (s, d, Array.fill(z)(0.05 + 0.85 * rnd.nextDouble()))
    }
    CompactGraph.fromEdgeSeq(n, z, edges)
  }

  /** Random point on the `z`-simplex, deterministic in `seed`. */
  def randomGamma(seed: Long, z: Int): Array[Double] = {
    val rnd = new java.util.Random(seed)
    val draws = Array.fill(z)(-math.log(1.0 - rnd.nextDouble()))
    val s = draws.sum
    draws.map(_ / s)
  }
}
