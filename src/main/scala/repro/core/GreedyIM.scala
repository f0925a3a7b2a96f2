package repro.core

import repro.data.CompactGraph

import scala.collection.mutable

/** Greedy influence-maximization baselines.
  *
  * OCTOPUS's online algorithms are measured against the "naïve solution"
  * its introduction calls extremely expensive: materialize the γ-induced
  * graph, then run traditional greedy IM with Monte-Carlo estimation.
  * Two flavours are provided — plain greedy (re-evaluates every candidate
  * each round) and CELF lazy greedy (valid because IC spread is monotone
  * submodular per possible world) — plus the individual-influence ranking
  * that Scenario 1 contrasts against ("finds users with non-overlapping
  * influence ... instead of ranking users with their individual
  * influence").
  *
  * All estimators share [[WorldSampler]] coins, so any two algorithms run
  * with the same `(seed, numSamples)` see identical possible worlds and
  * their outputs are comparable without sampling noise between them.
  */
object GreedyIM {

  /** Result of a seed-selection run.
    *
    * @param spreadEvals number of full MC spread evaluations performed —
    *                    the pruning-power metric reported in table T2
    */
  final case class IMResult(seeds: Seq[Int], spread: Double, spreadEvals: Long)

  /** Plain greedy: k rounds, each evaluating σ(S ∪ {u}) for every
    * remaining candidate. The paper's "naïve" baseline.
    */
  def naiveGreedy(
      g: CompactGraph,
      probs: Array[Double],
      k: Int,
      numSamples: Int,
      seed: Long,
  ): IMResult = {
    require(k >= 1 && k <= g.n, s"k must be in 1..${g.n}, got $k")
    var evals = 0L
    val seeds = mutable.ArrayBuffer.empty[Int]
    var best = 0.0
    for (_ <- 0 until k) {
      var bestU = -1
      var bestS = -1.0
      var u = 0
      while (u < g.n) {
        if (!seeds.contains(u)) {
          val s = SpreadEstimator.mcSpread(g, probs, seeds.toSeq :+ u, numSamples, seed)
          evals += 1
          if (s > bestS) { bestS = s; bestU = u }
        }
        u += 1
      }
      seeds += bestU
      best = bestS
    }
    IMResult(seeds.toSeq, best, evals)
  }

  /** CELF lazy greedy, optionally starting from externally supplied
    * optimistic bounds (`initialUpper`) instead of a full first-round
    * evaluation — exactly what [[BestEffortKIM]] passes in. `k` must lie
    * in `[1, n]`.
    *
    * The `numSamples` worlds are sampled once per call into
    * [[LiveWorlds]], so every walk scans live edges only and hashes no
    * coin; they are dropped when the call returns.
    *
    * Marginal gains are computed incrementally: the per-world reached
    * set of the current seeds is cached, and a candidate's marginal BFS
    * terminates at already-reached nodes (their whole downstream is
    * already covered in that world). The estimates are *bit-identical*
    * to `mcSpread(S ∪ u) − mcSpread(S)` on the same coins — only the
    * cost changes: an evaluation costs the live out-edges of the new
    * nodes it reaches in each world, not every out-edge of them.
    *
    * The lazy-greedy queue is a [[CelfQueue]]: a max-heap on primitive
    * arrays that takes the steps of Scala's `PriorityQueue` ordered by
    * value, so it dequeues the same entries, ties included.
    *
    * Marginals are evaluated in batches: plain CELF's first round
    * evaluates all n nodes in one batch, and when a popped stale entry
    * has no marginal for the current round yet, it is evaluated together
    * with the stale entries that have the highest queue values, up to 4
    * per available processor, picked by a best-first walk of the heap
    * from its root ([[CelfQueue.staleTop]]). The results are kept for the
    * round, and the queue then sees the same dequeues and enqueues, in
    * the same order, as a one-at-a-time evaluation would give it; that
    * order breaks ties between equal values, so the batch is never picked
    * by popping and re-pushing. Which entries join a batch only decides
    * which marginals are computed ahead of their pop, never an answer:
    * `spreadEvals` counts the evaluations the queue consumes, not the
    * speculative ones a round ends without.
    *
    * Each batch, and each seed's walk that extends the reached sets, runs
    * in parallel over contiguous ranges of worlds ([[WorldSampler.ranges]]),
    * so every chunk walks the whole batch and none waits on another's
    * heavy candidates. Chunk p keeps one walk scratch for the call and
    * counts each candidate's newly reached nodes on its worlds as a
    * `Long`; a marginal is the sum of those counts divided by R. Integer
    * addition is exact in any order, and a world's reached set is only
    * written by the one chunk that owns it, so the marginals, the seeds,
    * the spread's bits and `spreadEvals` do not depend on the batching or
    * the split. `initialUpper`, if given, holds one bound per node and
    * no NaN.
    */
  def celf(
      g: CompactGraph,
      probs: Array[Double],
      k: Int,
      numSamples: Int,
      seed: Long,
      initialUpper: Option[Array[Double]] = None,
  ): IMResult = {
    require(numSamples > 0, s"numSamples must be positive, got $numSamples")
    require(k >= 1 && k <= g.n, s"k must be in 1..${g.n}, got $k")
    initialUpper.foreach { ub =>
      require(ub.length == g.n, s"initialUpper must hold one bound per node (${g.n}), got ${ub.length}")
      require(!ub.exists(_.isNaN), "initialUpper must not hold NaN")
    }
    var evals = 0L

    // per-world reached set of the current seed set S (empty at start)
    val reached = Array.fill(numSamples)(new java.util.BitSet(g.n))
    val worlds = LiveWorlds.build(g, probs, numSamples, seed)
    // chunk p of every parallel step walks its own range of worlds with walks(p)
    val parts = WorldSampler.chunks(numSamples)
    val walks = Array.fill(parts)(new LiveWalk(g.n))

    val seeds = mutable.ArrayBuffer.empty[Int]
    var round = 0
    // memo(u) is u's marginal in round memoRound(u)
    val memo = new Array[Double](g.n)
    val memoRound = Array.fill(g.n)(-1)

    // Memoises this round's marginals of nodes(0 until width): the nodes
    // newly reachable from each, per world, stopping at reached nodes.
    // Each chunk counts every node on its worlds into its row of partial
    // sums, and the rows are added per node.
    def evaluate(nodes: Array[Int], width: Int): Unit = {
      val partial = new Array[Long](parts * width)
      WorldSampler.ranges(numSamples, parts) { (p, from, until) =>
        val walk = walks(p)
        val source = new Array[Int](1)
        val row = p * width
        var s = from
        while (s < until) {
          var i = 0
          while (i < width) {
            source(0) = nodes(i)
            partial(row + i) += walk.forward(worlds, s, source, reached(s))
            i += 1
          }
          s += 1
        }
      }
      var i = 0
      while (i < width) {
        var acc = 0L
        var p = 0
        while (p < parts) { acc += partial(p * width + i); p += 1 }
        memo(nodes(i)) = acc.toDouble / numSamples
        memoRound(nodes(i)) = round
        i += 1
      }
    }

    // Extends every world's reached set by what `u` reaches in it.
    def addSeed(u: Int): Unit =
      WorldSampler.ranges(numSamples, parts) { (p, from, until) =>
        val walk = walks(p)
        val source = Array(u)
        var s = from
        while (s < until) {
          walk.forward(worlds, s, source, reached(s))
          walk.addVisitedTo(reached(s))
          s += 1
        }
      }

    // queue entries: (value, node, roundEvaluated); value is an upper
    // bound unless roundEvaluated == current round.
    val queue = new CelfQueue(g.n)
    initialUpper match {
      case Some(ub) =>
        var u = 0
        while (u < g.n) { queue.enqueue(ub(u), u, -1); u += 1 }
      case None =>
        evaluate(Array.range(0, g.n), g.n)
        var u = 0
        while (u < g.n) { evals += 1; queue.enqueue(memo(u), u, 0); u += 1 }
    }

    // a batch: the popped node, then the best stale entries of the queue
    val batch = new Array[Int](4 * Runtime.getRuntime.availableProcessors)

    while (seeds.length < k && queue.nonEmpty) {
      val u = queue.headNode
      val evalRound = queue.headRound
      queue.dequeue()
      if (evalRound == round) {
        seeds += u
        addSeed(u)
        round += 1
      } else {
        if (memoRound(u) != round) {
          batch(0) = u
          evaluate(batch, queue.staleTop(round, memoRound, batch, 1))
        }
        evals += 1
        queue.enqueue(memo(u), u, round)
      }
    }
    // σ̂(S): the per-world reached sets of S, averaged.
    val total = reached.foldLeft(0L)(_ + _.cardinality)
    IMResult(seeds.toSeq, total.toDouble / numSamples, evals)
  }

  /** Top-k users by *individual* spread — the ranking Scenario 1 argues
    * produces redundant (overlapping-influence) results.
    */
  def topIndividual(
      g: CompactGraph,
      probs: Array[Double],
      k: Int,
      numSamples: Int,
      seed: Long,
  ): IMResult = {
    val scored = (0 until g.n).map(u => (u, SpreadEstimator.mcSpread(g, probs, Seq(u), numSamples, seed)))
    val seeds = scored.sortBy(-_._2).take(k).map(_._1)
    val spread = SpreadEstimator.mcSpread(g, probs, seeds, numSamples, seed)
    IMResult(seeds, spread, g.n.toLong)
  }

  /** Top-k by out-degree — the cheapest heuristic baseline. */
  def topDegree(g: CompactGraph, k: Int): Seq[Int] =
    (0 until g.n).sortBy(u => -g.outDegree(u)).take(k)
}

/** CELF's lazy-greedy queue of `(value, node, round)` entries: a max-heap
  * of at most `capacity` entries on three primitive arrays.
  *
  * `enqueue` and `dequeue` take the steps of Scala 2.13's mutable
  * `PriorityQueue` ordered by value with `java.lang.Double.compare`:
  * 1-based slots, sift-up from the new last slot on add, and on removal
  * the last entry moved to the root and sifted down, the larger child
  * taken and the left one on a tie. So a sequence of operations dequeues
  * the same entries, ties included, as that queue does, without a boxed
  * tuple per entry. `celf` rejects NaN bounds, which this order would put
  * above every other value.
  */
private[core] final class CelfQueue(capacity: Int) {
  private val values = new Array[Double](capacity + 1)
  private val nodes = new Array[Int](capacity + 1)
  private val rounds = new Array[Int](capacity + 1)
  // entries occupy slots 1..last
  private var last = 0
  // staleTop's frontier, slots 1..frontier of `open`: a max-heap of queue
  // slots keyed by their values. A walk adds each slot at most once.
  private val open = new Array[Int](capacity + 1)
  private var frontier = 0

  def nonEmpty: Boolean = last > 0
  def headValue: Double = values(1)
  def headNode: Int = nodes(1)
  def headRound: Int = rounds(1)

  def enqueue(value: Double, node: Int, round: Int): Unit = {
    last += 1
    var k = last
    while (k > 1 && java.lang.Double.compare(values(k / 2), value) < 0) {
      move(k / 2, k)
      k /= 2
    }
    values(k) = value; nodes(k) = node; rounds(k) = round
  }

  /** Removes the head entry. */
  def dequeue(): Unit = {
    if (last == 0) throw new NoSuchElementException("dequeue on an empty CelfQueue")
    val value = values(last); val node = nodes(last); val round = rounds(last)
    last -= 1
    var k = 1
    var sifting = true
    while (sifting && 2 * k <= last) {
      var j = 2 * k
      if (j < last && java.lang.Double.compare(values(j), values(j + 1)) < 0) j += 1
      if (java.lang.Double.compare(value, values(j)) >= 0) sifting = false
      else { move(j, k); k = j }
    }
    values(k) = value; nodes(k) = node; rounds(k) = round
  }

  /** Writes into `batch`, from index `from` on, the nodes of the entries
    * whose round and whose `memoRound` both differ from `round`, highest
    * values first, until `batch` is full or no entry is left; returns the
    * length filled. The walk starts at the root and opens a slot's
    * children only once the slot leaves the frontier, so by the heap
    * order it meets entries in descending value order and stops after the
    * skipped entries that outrank the last one written.
    */
  def staleTop(round: Int, memoRound: Array[Int], batch: Array[Int], from: Int): Int = {
    var filled = from
    frontier = 0
    if (last > 0) pushOpen(1)
    while (filled < batch.length && frontier > 0) {
      val slot = popOpen()
      if (rounds(slot) != round && memoRound(nodes(slot)) != round) {
        batch(filled) = nodes(slot)
        filled += 1
      }
      if (2 * slot <= last) pushOpen(2 * slot)
      if (2 * slot + 1 <= last) pushOpen(2 * slot + 1)
    }
    filled
  }

  private def pushOpen(slot: Int): Unit = {
    frontier += 1
    var k = frontier
    while (k > 1 && values(open(k / 2)) < values(slot)) { open(k) = open(k / 2); k /= 2 }
    open(k) = slot
  }

  private def popOpen(): Int = {
    val top = open(1)
    val slot = open(frontier)
    frontier -= 1
    var k = 1
    var sifting = true
    while (sifting && 2 * k <= frontier) {
      var j = 2 * k
      if (j < frontier && values(open(j)) < values(open(j + 1))) j += 1
      if (values(slot) >= values(open(j))) sifting = false
      else { open(k) = open(j); k = j }
    }
    open(k) = slot
    top
  }

  // copies the entry in slot `from` to slot `to`
  private def move(from: Int, to: Int): Unit = {
    values(to) = values(from); nodes(to) = nodes(from); rounds(to) = rounds(from)
  }
}
