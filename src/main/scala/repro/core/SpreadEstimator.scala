package repro.core

import repro.data.CompactGraph

/** Driver-side influence spread computation under the IC model.
  *
  * `mcSpread` is the workhorse the online engine calls: Monte-Carlo
  * estimation over possible worlds drawn from [[WorldSampler]] (common
  * random numbers — see there).
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
}
