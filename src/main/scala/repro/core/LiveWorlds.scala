package repro.core

import repro.data.CompactGraph

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

  /** Sample the worlds `(seed, s)`, `s < numSamples`, of `g` under `probs`,
    * in parallel chunks ([[WorldSampler.tabulate]]).
    */
  def build(g: CompactGraph, probs: Array[Double], numSamples: Int, seed: Long): LiveWorlds = {
    require(numSamples > 0, s"numSamples must be positive, got $numSamples")
    require(probs.length == g.numEdges,
      s"probs must hold one probability per edge (${g.numEdges}), got ${probs.length}")
    val worlds = WorldSampler.tabulate(numSamples)(new Array[Int](g.numEdges)) { (live, s) =>
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
      (off, java.util.Arrays.copyOf(live, size))
    }
    new LiveWorlds(worlds.map(_._1), worlds.map(_._2))
  }
}
