package repro.core

import java.util.stream.IntStream

import scala.reflect.ClassTag

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
  *   - **Offline/online agreement**: the index build walks exactly the
  *     worlds the online walks re-evaluate.
  *   - **Split independence**: per-sample work ([[ranges]], [[tabulate]])
  *     can run in parallel chunks without changing any result.
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

  /** The number of chunks [[ranges]] splits `numSamples` samples into:
    * one per available processor, and never more than the samples.
    */
  def chunks(numSamples: Int): Int = math.min(numSamples, Runtime.getRuntime.availableProcessors)

  /** Runs `f(chunk, from, until)` in parallel over `parts` contiguous
    * ranges of the samples `s < numSamples`, chunk `p` taking
    * `[numSamples·p/parts, numSamples·(p+1)/parts)`. Every sample lies in
    * exactly one range, and the ranges ascend with the chunk index. Each
    * chunk index runs on one thread, and every write a chunk makes is
    * visible to the caller when this returns, so state indexed by the
    * chunk (a walk scratch, a row of partial sums) can be kept across
    * calls with the same `parts`.
    */
  def ranges(numSamples: Int, parts: Int)(f: (Int, Int, Int) => Unit): Unit = {
    require(parts >= 1 && parts <= numSamples, s"parts must be in 1..$numSamples, got $parts")
    IntStream.range(0, parts).parallel().forEach { (p: Int) =>
      f(p, (numSamples.toLong * p / parts).toInt, (numSamples.toLong * (p + 1) / parts).toInt)
    }
  }

  /** The array of `f(scratch, s)` over the samples `s < numSamples`,
    * computed over the [[ranges]] of `chunks(numSamples)`; each chunk
    * makes its own `scratch`. When `f` depends only on `s` (a world is
    * fixed by `(seed, s)`) and reads nothing an earlier sample left in
    * the scratch, the result does not depend on the split.
    */
  def tabulate[S, A: ClassTag](numSamples: Int)(scratch: => S)(f: (S, Int) => A): Array[A] = {
    val out = new Array[A](numSamples)
    ranges(numSamples, chunks(numSamples)) { (_, from, until) =>
      val own = scratch
      var s = from
      while (s < until) { out(s) = f(own, s); s += 1 }
    }
    out
  }
}
