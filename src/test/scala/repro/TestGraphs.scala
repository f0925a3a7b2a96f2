package repro

import org.apache.spark.sql.DataFrame
import repro.core.GreedyIM.IMResult
import repro.core.{LiveWalk, LiveWorlds}
import repro.data.CompactGraph

import scala.collection.mutable

/** Handcrafted and random tiny graphs shared across test suites, and
  * small helpers the suites share.
  *
  * Everything here is driver-side — the graphs are small enough for the
  * exhaustive 2^E spread oracle ([[exactSpread]]) that most algorithmic
  * correctness tests diff against.
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

  /** Pure-topic distribution e_z over `numTopics` topics. */
  def pureTopic(numTopics: Int, z: Int): Array[Double] =
    Array.tabulate(numTopics)(t => if (t == z) 1.0 else 0.0)

  /** In-degree of node `u`. */
  def inDegree(g: CompactGraph, u: Int): Int = g.inOffsets(u + 1) - g.inOffsets(u)

  /** The CELF loop that evaluates one marginal at a time on the calling
    * thread, as `GreedyIM.celf` did before it evaluated marginals in
    * parallel batches: the oracle its seeds, spread bits and evaluation
    * count are checked against.
    */
  def sequentialCelf(
      g: CompactGraph,
      probs: Array[Double],
      k: Int,
      numSamples: Int,
      seed: Long,
      initialUpper: Option[Array[Double]] = None,
  ): IMResult = {
    require(numSamples > 0, s"numSamples must be positive, got $numSamples")
    var evals = 0L

    // per-world reached set of the current seed set S (empty at start)
    val reached = Array.fill(numSamples)(new java.util.BitSet(g.n))
    val worlds = LiveWorlds.build(g, probs, numSamples, seed)
    val walk = new LiveWalk(g.n)

    // Nodes newly reachable from u, per world, stopping at reached nodes.
    def marginal(u: Int): Double = {
      val source = Array(u)
      var s = 0; var acc = 0L
      while (s < numSamples) { acc += walk.forward(worlds, s, source, reached(s)); s += 1 }
      acc.toDouble / numSamples
    }

    // queue entries: (value, node, roundEvaluated); value is an upper
    // bound unless roundEvaluated == current round.
    val order = Ordering.by[(Double, Int, Int), Double](_._1)
    val pq = mutable.PriorityQueue.empty[(Double, Int, Int)](order)
    initialUpper match {
      case Some(ub) => (0 until g.n).foreach(u => pq.enqueue((ub(u), u, -1)))
      case None =>
        (0 until g.n).foreach { u =>
          evals += 1
          pq.enqueue((marginal(u), u, 0))
        }
    }
    val seeds = mutable.ArrayBuffer.empty[Int]
    var round = 0
    while (seeds.length < k && pq.nonEmpty) {
      val (_, u, evalRound) = pq.dequeue()
      if (evalRound == round) {
        seeds += u
        val source = Array(u)
        var s = 0
        while (s < numSamples) {
          walk.forward(worlds, s, source, reached(s))
          walk.addVisitedTo(reached(s))
          s += 1
        }
        round += 1
      } else {
        evals += 1
        pq.enqueue((marginal(u), u, round))
      }
    }
    // σ̂(S): the per-world reached sets of S, averaged.
    val total = reached.foldLeft(0L)(_ + _.cardinality)
    IMResult(seeds.toSeq, total.toDouble / numSamples, evals)
  }

  /** Exact expected spread by enumerating every live-edge world — only
    * feasible for graphs with at most ~20 edges.
    */
  def exactSpread(g: CompactGraph, probs: Array[Double], seeds: Seq[Int]): Double = {
    val m = g.numEdges
    require(m <= 22, s"exactSpread is 2^E; got E=$m")
    var total = 0.0
    var mask = 0L
    val worlds = 1L << m
    while (mask < worlds) {
      var w = 1.0
      var e = 0
      while (e < m && w > 0.0) {
        w *= (if (((mask >> e) & 1L) == 1L) probs(e) else 1.0 - probs(e))
        e += 1
      }
      if (w > 0.0) total += w * reachForMask(g, mask, seeds)
      mask += 1
    }
    total
  }

  private def reachForMask(g: CompactGraph, mask: Long, seeds: Seq[Int]): Int = {
    val visited = new java.util.BitSet(g.n)
    val stack = scala.collection.mutable.ArrayDeque.empty[Int]
    var count = 0
    seeds.foreach { s => if (!visited.get(s)) { visited.set(s); count += 1; stack.append(s) } }
    while (stack.nonEmpty) {
      val u = stack.removeLast()
      var e = g.outOffsets(u)
      while (e < g.outOffsets(u + 1)) {
        val v = g.outDst(e)
        if (((mask >> e) & 1L) == 1L && !visited.get(v)) {
          visited.set(v); count += 1; stack.append(v)
        }
        e += 1
      }
    }
    count
  }
}
