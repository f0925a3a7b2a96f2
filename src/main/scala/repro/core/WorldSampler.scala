package repro.core

/** Deterministic per-(run, sample, edge) uniform coins.
  *
  * Every Monte-Carlo component in the engine (spread estimation, RR-set /
  * influencer-index construction) draws its edge coins
  * from this hash instead of a stateful RNG. Consequences the system
  * design leans on:
  *
  *   - **Common random numbers**: a "possible world" is fixed by
  *     `(seed, sampleId)` alone; changing the query topic distribution γ
  *     only changes which side of the threshold each edge's fixed coin
  *     falls on. This is the substrate for the paper's lazy propagation
  *     sampling — an index built once can be re-evaluated under any γ
  *     without resampling (§II-D).
  *   - **Offline/online agreement**: the distributed index build walks
  *     exactly the worlds the online walks re-evaluate.
  */
object WorldSampler {

  /** splitmix64 finalizer — spec-fixed, stable across JVMs. */
  private def mix(x0: Long): Long = {
    var x = x0 + 0x9E3779B97F4A7C15L
    x = (x ^ (x >>> 30)) * 0xBF58476D1CE4E5B9L
    x = (x ^ (x >>> 27)) * 0x94D049BB133111EBL
    x ^ (x >>> 31)
  }

  /** Uniform double in [0, 1) for edge `edge` in possible world
    * `(seed, sample)`.
    */
  def u01(seed: Long, sample: Long, edge: Long): Double = {
    val h = mix(mix(mix(seed) ^ sample) ^ edge)
    (h >>> 11) * (1.0 / (1L << 53))
  }

  /** Uniform int in [0, n) — used to pick RR-set roots. */
  def uniformInt(seed: Long, sample: Long, n: Int): Int = {
    val x = u01(seed, sample, -1L)
    math.min(n - 1, (x * n).toInt)
  }
}
