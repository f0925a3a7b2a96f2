package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Compact in-driver CSR representation of a topic-aware social graph.
  *
  * OCTOPUS splits work into offline builds (model learning by Spark EM,
  * the influencer index, the spread bounds) and an online query engine
  * that must answer in interactive time. The index and bound builds and
  * the online side walk this structure, which is built once from an edge
  * list ([[CompactGraph.fromEdgeSeq]]: by the generator for the ground
  * truth, by EM for the learned model).
  *
  * Node ids must be dense `0 until n`. Each directed edge has a global
  * edge id (its position in the out-CSR) and `Z` per-topic activation
  * probabilities stored flattened in `outProbs` (edge `e` occupies
  * `e*Z until (e+1)*Z`). The in-CSR mirrors the same edges for reverse
  * traversal and carries, per in-edge, the global edge id so random coins
  * drawn per (sample, edgeId) agree between forward and reverse walks.
  */
final class CompactGraph(
    val n: Int,
    val numTopics: Int,
    val outOffsets: Array[Int],
    val outDst: Array[Int],
    val outProbs: Array[Double],
    val inOffsets: Array[Int],
    val inSrc: Array[Int],
    val inEdgeId: Array[Int],
) {

  /** Number of directed edges. */
  def numEdges: Int = outDst.length

  /** Out-degree of node `u`. */
  def outDegree(u: Int): Int = outOffsets(u + 1) - outOffsets(u)

  /** Activation probability of edge `e` on topic `z`. */
  def topicProb(e: Int, z: Int): Double = outProbs(e * numTopics + z)

  /** Mixed activation probability of edge `e` under topic distribution γ:
    * `pp_e = Σ_z γ_z · pp^z_e` (Section II-B of the paper).
    */
  def mixedProb(e: Int, gamma: Array[Double]): Double = {
    var z = 0; var acc = 0.0
    val base = e * numTopics
    while (z < numTopics) { acc += outProbs(base + z) * gamma(z); z += 1 }
    acc
  }

  /** Per-edge upper bound `max_z pp^z_e`, valid for any simplex γ. */
  def maxProb(e: Int): Double = {
    var z = 0; var m = 0.0
    val base = e * numTopics
    while (z < numTopics) { val p = outProbs(base + z); if (p > m) m = p; z += 1 }
    m
  }

  /** All mixed edge probabilities under γ, indexed by global edge id. */
  def mixedProbs(gamma: Array[Double]): Array[Double] = {
    val out = new Array[Double](numEdges)
    var e = 0
    while (e < numEdges) { out(e) = mixedProb(e, gamma); e += 1 }
    out
  }

  /** All per-edge `max_z` probabilities, indexed by global edge id. */
  def maxProbs(): Array[Double] = {
    val out = new Array[Double](numEdges)
    var e = 0
    while (e < numEdges) { out(e) = maxProb(e); e += 1 }
    out
  }
}

/** Building a [[CompactGraph]] from an edge list, and emitting it as a DataFrame. */
object CompactGraph {

  /** Build the CSR form from an explicit edge list. Edge ids are
    * assigned in (src, dst) order, independent of the input order (and so
    * of how Spark partitioned the rows it was collected from), so coins
    * keyed by edge id agree no matter how the list was assembled.
    */
  def fromEdgeSeq(n: Int, z: Int, edges: Seq[(Int, Int, Array[Double])]): CompactGraph = {
    require(edges.forall(e => e._3.length == z), "ragged probs arrays")
    require(edges.forall(e => e._1 >= 0 && e._1 < n && e._2 >= 0 && e._2 < n), "node id out of range")
    val sorted = edges.sortBy(e => (e._1, e._2))
    val m = sorted.length
    val outDeg = new Array[Int](n)
    val inDeg = new Array[Int](n)
    sorted.foreach { case (s, d, _) => outDeg(s) += 1; inDeg(d) += 1 }
    val outOff = new Array[Int](n + 1)
    val inOff = new Array[Int](n + 1)
    (0 until n).foreach { i => outOff(i + 1) = outOff(i) + outDeg(i); inOff(i + 1) = inOff(i) + inDeg(i) }
    val outDst = new Array[Int](m)
    val outProbs = new Array[Double](m * z)
    val cur = java.util.Arrays.copyOf(outOff, n)
    sorted.foreach { case (s, d, probs) =>
      val e = cur(s); cur(s) += 1
      outDst(e) = d
      System.arraycopy(probs, 0, outProbs, e * z, z)
    }
    val inSrc = new Array[Int](m)
    val inEdgeId = new Array[Int](m)
    val inCur = java.util.Arrays.copyOf(inOff, n)
    var u = 0
    while (u < n) {
      var e = outOff(u)
      while (e < outOff(u + 1)) {
        val v = outDst(e)
        val slot = inCur(v); inCur(v) += 1
        inSrc(slot) = u; inEdgeId(slot) = e
        e += 1
      }
      u += 1
    }
    new CompactGraph(n, z, outOff, outDst, outProbs, inOff, inSrc, inEdgeId)
  }

  /** Emit `(src, dst, edgeId, probs)` rows, used by jobs that persist a
    * graph or feed it back into DataFrame pipelines.
    */
  def toEdges(spark: SparkSession, g: CompactGraph): DataFrame = {
    val rows = (0 until g.n).flatMap { u =>
      (g.outOffsets(u) until g.outOffsets(u + 1)).map { e =>
        (u.toLong, g.outDst(e).toLong, e, (0 until g.numTopics).map(z => g.topicProb(e, z)))
      }
    }
    import spark.implicits._
    rows.toDF("src", "dst", "edgeId", "probs")
  }
}
