package repro.core

import repro.data.CompactGraph

/** Reusable scratch for forward walks over the live edges of one
  * possible world.
  *
  * Spread estimation rests on one primitive: reachability over the edges
  * that are live in the world `(seed, sample)`, where edge `e` is live iff
  * `WorldSampler.u01(seed, sample, e) < probs(e)`. The walks below run on
  * the same two arrays: epoch-stamped visit marks (bumping the epoch
  * clears them in O(1)) and an `Int` array that holds the visit order (a
  * queue). The influencer index walks its own flat layout ([[RRIndex]]).
  *
  * A forward walk either hashes the coin of every out-edge it scans (one
  * estimate over worlds built for it alone), or runs on a world that
  * [[LiveWorlds]] has already sampled: then it scans live edges only and
  * hashes no coin (many walks on the same worlds, as in CELF).
  *
  * One instance belongs to one thread at a time and is reused across its
  * walks; it is not thread-safe. CELF keeps one per parallel chunk of
  * worlds for the whole call.
  *
  * @param n number of nodes; ids must lie in `0 until n`
  */
final class LiveWalk(n: Int) {
  private val mark = new Array[Int](n)
  private var epoch = 0
  private val nodes = new Array[Int](n)
  private var size = 0

  private def visit(v: Int): Unit = { mark(v) = epoch; nodes(size) = v; size += 1 }

  /** Was `v` visited by the last walk? */
  def visited(v: Int): Boolean = mark(v) == epoch

  /** Set every node the last [[forward]] walk visited in `bits`. */
  def addVisitedTo(bits: java.util.BitSet): Unit = {
    var i = 0
    while (i < size) { bits.set(nodes(i)); i += 1 }
  }

  private def startAt(sources: Array[Int], stop: java.util.BitSet): Unit = {
    if (epoch == Int.MaxValue) { java.util.Arrays.fill(mark, 0); epoch = 0 }
    epoch += 1
    size = 0
    var i = 0
    while (i < sources.length) {
      val s = sources(i)
      if (!visited(s) && (stop == null || !stop.get(s))) visit(s)
      i += 1
    }
  }

  /** Forward walk from `sources` in the world `(seed, sample)`, hashing
    * the coin of every out-edge it scans. Nodes in `stop` (may be null)
    * are neither visited nor walked through: their downstream is already
    * covered. Returns the number of nodes visited.
    */
  def forward(
      g: CompactGraph,
      probs: Array[Double],
      seed: Long,
      sample: Long,
      sources: Array[Int],
      stop: java.util.BitSet,
  ): Int = {
    startAt(sources, stop)
    var head = 0
    while (head < size) {
      val u = nodes(head); head += 1
      var e = g.outOffsets(u)
      val end = g.outOffsets(u + 1)
      while (e < end) {
        val v = g.outDst(e)
        if (mark(v) != epoch && (stop == null || !stop.get(v)) &&
            WorldSampler.u01(seed, sample, e) < probs(e)) visit(v)
        e += 1
      }
    }
    size
  }

  /** The same walk in the materialized world `sample` of `worlds`: it
    * scans that world's live out-edges only and hashes no coin. Visits
    * the same nodes as the coin walk in the world `worlds` was built from.
    */
  def forward(worlds: LiveWorlds, sample: Int, sources: Array[Int], stop: java.util.BitSet): Int = {
    startAt(sources, stop)
    val off = worlds.offsets(sample)
    val dst = worlds.dst(sample)
    var head = 0
    while (head < size) {
      val u = nodes(head); head += 1
      var i = off(u)
      val end = off(u + 1)
      while (i < end) {
        val v = dst(i)
        if (mark(v) != epoch && (stop == null || !stop.get(v))) visit(v)
        i += 1
      }
    }
    size
  }
}
