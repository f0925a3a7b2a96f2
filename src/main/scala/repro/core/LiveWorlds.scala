package repro.core

import repro.data.CompactGraph

import java.util.stream.IntStream

/** The live-edge graphs of the possible worlds `(seed, s)`, `s < numSamples`,
  * under one probability vector, sampled once so that many walks can run
  * on them without hashing a coin or scanning a dead edge.
  *
  * World `s` is a CSR of its live out-edges: `offsets(s)` has `n + 1`
  * entries and `dst(s)` holds the head of every edge `e` with
  * `WorldSampler.u01(seed, s, e) < probs(e)`, in the graph's CSR order.
  * This is the snapshot idea of PMC (Ohsaka et al., AAAI'14) on the
  * common-random-number worlds every estimator here shares. Memory is
  * `numSamples · (n + 1)` ints plus one int per live edge.
  */
final class LiveWorlds private (val offsets: Array[Array[Int]], val dst: Array[Array[Int]])

object LiveWorlds {

  /** Sample the worlds `(seed, s)`, `s < numSamples`, of `g` under `probs`.
    * Contiguous chunks of worlds are built in parallel, one per available
    * processor; each world is a pure function of `(seed, s, probs)`, so
    * the result does not depend on the split.
    */
  def build(g: CompactGraph, probs: Array[Double], numSamples: Int, seed: Long): LiveWorlds = {
    require(numSamples > 0, s"numSamples must be positive, got $numSamples")
    val offsets = new Array[Array[Int]](numSamples)
    val dst = new Array[Array[Int]](numSamples)
    val parts = math.min(numSamples, Runtime.getRuntime.availableProcessors)
    IntStream.range(0, parts).parallel().forEach { (p: Int) =>
      val live = new Array[Int](g.numEdges)
      var s = (numSamples.toLong * p / parts).toInt
      val end = (numSamples.toLong * (p + 1) / parts).toInt
      while (s < end) {
        val off = new Array[Int](g.n + 1)
        var size = 0
        var u = 0
        while (u < g.n) {
          var e = g.outOffsets(u)
          val last = g.outOffsets(u + 1)
          while (e < last) {
            if (WorldSampler.u01(seed, s, e) < probs(e)) { live(size) = g.outDst(e); size += 1 }
            e += 1
          }
          u += 1
          off(u) = size
        }
        offsets(s) = off
        dst(s) = java.util.Arrays.copyOf(live, size)
        s += 1
      }
    }
    new LiveWorlds(offsets, dst)
  }
}
