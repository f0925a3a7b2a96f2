package repro.core

import repro.data.CompactGraph

import scala.collection.mutable

/** Driver-side influence spread computation under the IC model.
  *
  * `mcSpread` is the workhorse the online engine calls: Monte-Carlo
  * estimation over possible worlds drawn from [[WorldSampler]] (common
  * random numbers — see there). `exactSpread` enumerates all 2^E live-edge
  * worlds and is the correctness oracle for every sampling component on
  * tiny graphs.
  */
object SpreadEstimator {

  /** Monte-Carlo spread estimate `σ̂(seeds)`: the reach of `seeds` in
    * each world `(seed, sample)`, `sample < numSamples`, averaged.
    * Deterministic in `(seed, numSamples)`.
    */
  def mcSpread(
      g: CompactGraph,
      probs: Array[Double],
      seeds: Seq[Int],
      numSamples: Int,
      seed: Long,
  ): Double = {
    require(numSamples > 0, s"numSamples must be positive, got $numSamples")
    val walk = new LiveWalk(g.n)
    val sources = seeds.toArray
    var s = 0L
    var acc = 0L
    while (s < numSamples) { acc += walk.forward(g, probs, seed, s, sources, null); s += 1 }
    acc.toDouble / numSamples
  }

  /** Exact expected spread by enumerating every live-edge world — only
    * feasible for graphs with at most ~20 edges; used as the test oracle.
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
    val stack = mutable.ArrayDeque.empty[Int]
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
