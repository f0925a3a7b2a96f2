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
    * Marginals are evaluated in batches: plain CELF's first round
    * evaluates all n nodes in one batch, and when a popped stale entry
    * has no marginal for the current round yet, it is evaluated together
    * with the stale entries that have the highest queue values, up to 4
    * per available processor, found by a read-only scan of the queue. The
    * results are kept for the round, and the queue then sees the same
    * dequeues and enqueues, in the same order, as a one-at-a-time
    * evaluation would give it; that order breaks ties between equal
    * values, so the batch is never picked by popping and re-pushing.
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
    * the split. `initialUpper`, if given, holds one bound per node.
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
    }
    var evals = 0L

    // per-world reached set of the current seed set S (empty at start)
    val reached = Array.fill(numSamples)(new java.util.BitSet(g.n))
    val worlds = LiveWorlds.build(g, probs, numSamples, seed)
    // chunk p of every parallel step walks its own range of worlds with walks(p)
    val parts = WorldSampler.chunks(numSamples)
    val walks = Array.fill(parts)(new LiveWalk(g.n))

    // Nodes newly reachable from each node, per world, stopping at
    // reached nodes: each chunk counts every node on its worlds into its
    // row of partial sums, and the rows are added per node.
    def marginals(nodes: Array[Int]): Array[Double] = {
      val width = nodes.length
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
      Array.tabulate(width) { i =>
        var acc = 0L
        var p = 0
        while (p < parts) { acc += partial(p * width + i); p += 1 }
        acc.toDouble / numSamples
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
    val order = Ordering.by[(Double, Int, Int), Double](_._1)
    val pq = mutable.PriorityQueue.empty[(Double, Int, Int)](order)
    initialUpper match {
      case Some(ub) => (0 until g.n).foreach(u => pq.enqueue((ub(u), u, -1)))
      case None =>
        val first = marginals(Array.range(0, g.n))
        (0 until g.n).foreach { u =>
          evals += 1
          pq.enqueue((first(u), u, 0))
        }
    }
    val seeds = mutable.ArrayBuffer.empty[Int]
    var round = 0

    // memo(u) is u's marginal in round memoRound(u)
    val memo = new Array[Double](g.n)
    val memoRound = Array.fill(g.n)(-1)
    val batchWidth = 4 * Runtime.getRuntime.availableProcessors

    // u and the stale queue entries without a marginal for this round
    // that have the highest queue values, at most batchWidth nodes.
    def batchFrom(u: Int): Array[Int] = {
      val nodes = new Array[Int](batchWidth)
      val values = new Array[Double](batchWidth)
      nodes(0) = u
      var size = 1
      pq.iterator.foreach { case (value, v, evalRound) =>
        if (evalRound != round && memoRound(v) != round &&
            (size < batchWidth || value > values(size - 1))) {
          if (size < batchWidth) size += 1
          var i = size - 1
          while (i > 1 && values(i - 1) < value) {
            values(i) = values(i - 1); nodes(i) = nodes(i - 1); i -= 1
          }
          values(i) = value; nodes(i) = v
        }
      }
      java.util.Arrays.copyOf(nodes, size)
    }

    while (seeds.length < k && pq.nonEmpty) {
      val (_, u, evalRound) = pq.dequeue()
      if (evalRound == round) {
        seeds += u
        addSeed(u)
        round += 1
      } else {
        if (memoRound(u) != round) {
          val batch = batchFrom(u)
          val gains = marginals(batch)
          var i = 0
          while (i < batch.length) { memo(batch(i)) = gains(i); memoRound(batch(i)) = round; i += 1 }
        }
        evals += 1
        pq.enqueue((memo(u), u, round))
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
