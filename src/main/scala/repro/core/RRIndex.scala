package repro.core

import org.apache.logging.log4j.LogManager
import repro.data.CompactGraph

import scala.collection.mutable
import scala.reflect.ClassTag

/** The "influencer index" behind personalized influential keyword
  * suggestion (paper §II-D): "a novel index structure that maintains
  * influencers of uniformly sampled users to avoid online sampling from
  * scratch".
  *
  * Offline (once per system, samples walked in parallel): for each of R
  * uniformly sampled target users, run a *reverse* traversal in the
  * possible world `(seed, sampleId)` under the dominating probabilities
  * `p^max_e = max_z pp^z_e`, and store the traversed edge set with each
  * edge's coin. Because every coin is fixed by [[WorldSampler]] and
  * `p_γ(e) ≤ p^max(e)` for any simplex γ, the true reverse-reachable (RR)
  * set of the sample under *any* query γ is contained in the stored
  * subgraph — so the online side never touches the full graph. It
  * re-walks a few stored edges, comparing their stored coins against
  * γ-mixed probabilities, and mixes an edge only when the walk tests it
  * (the paper's lazy propagation: edges are "materialized" as the walk
  * reaches them). A walk for user u visits only the samples whose stored
  * subgraph holds u, and exits as soon as it reaches u.
  *
  * Standard RIS identity, for the single users suggestion scores:
  * `σ_γ({u}) = n · Pr[ u ∈ RR_γ ]` — the estimator is unbiased, which
  * tests check against exact spreads.
  */
object RRIndex {

  private val log = LogManager.getLogger(getClass.getName.stripSuffix("$"))

  /** One stored sample in boxed form: root plus the reverse-live-superset
    * edges, grouped by destination.
    */
  final case class Sample(
      sampleId: Long,
      root: Int,
      // in-adjacency over the stored subgraph: node -> (src, globalEdgeId)*
      inEdges: Map[Int, Array[(Int, Int)]],
      truncated: Boolean,
  )

  /** The index in one flat layout. Sample `s` owns the slots
    * `nodeStart(s) until nodeStart(s + 1)`: slot `nodeStart(s) + l` holds
    * the global id of the sample's local node `l` (local 0 is the root)
    * and owns its stored in-edges `edgeStart(slot) until edgeStart(slot + 1)`.
    * A stored edge keeps its source's local id, its global edge id and its
    * coin `u01(seed, s, edgeId)`. Each user also has the ascending list of
    * (sample, local id) slots that hold it.
    */
  final class Index private[RRIndex] (
      graph: CompactGraph,
      val seed: Long,
      truncated: Array[Boolean],
      nodeStart: Array[Int],
      node: Array[Int],
      edgeStart: Array[Int],
      edgeSrc: Array[Int],
      edgeId: Array[Int],
      coin: Array[Double],
  ) {

    val n: Int = graph.n

    def numSamples: Int = truncated.length

    /** Samples whose build walk hit the node cap: their stored subgraph
      * lacks part of the superset, so their RR sets may be too small.
      */
    val truncatedSamples: Int = truncated.count(identity)

    // user -> the slots holding it, by ascending sample
    private val listStart = new Array[Int](n + 1)
    private val listSample = new Array[Int](node.length)
    private val listLocal = new Array[Int](node.length)
    locally {
      node.foreach(v => listStart(v + 1) += 1)
      for (v <- 0 until n) listStart(v + 1) += listStart(v)
      val next = java.util.Arrays.copyOf(listStart, n)
      for (s <- 0 until numSamples; slot <- nodeStart(s) until nodeStart(s + 1)) {
        val v = node(slot)
        listSample(next(v)) = s
        listLocal(next(v)) = slot - nodeStart(s)
        next(v) += 1
      }
    }

    private val maxLocal = (0 until numSamples).map(s => nodeStart(s + 1) - nodeStart(s)).maxOption.getOrElse(0)

    /** The samples in boxed form, built on each call. */
    def samples: Array[Sample] = Array.tabulate(numSamples) { s =>
      val base = nodeStart(s)
      val inEdges = (base until nodeStart(s + 1)).iterator
        .filter(slot => edgeStart(slot) < edgeStart(slot + 1))
        .map { slot =>
          val ins = (edgeStart(slot) until edgeStart(slot + 1)).map(j => (node(base + edgeSrc(j)), edgeId(j)))
          node(slot) -> ins.toArray
        }
        .toMap
      Sample(s.toLong, node(base), inEdges, truncated(s))
    }

    /** RIS spread estimate for user `u` over a sample prefix under the
      * mixed edge probabilities `probs` — `restrict` < numSamples is the
      * cheap first stage of the suggestion engine's two-stage pruning.
      */
    def estimateUserSpread(probs: Array[Double], u: Int, restrict: Int = Int.MaxValue): Double =
      estimate(probs(_), u, restrict)

    /** The same estimate under topic distribution γ: each stored edge is
      * mixed (`mixedProb(e, γ)`) when a walk tests it, so the estimate
      * equals `estimateUserSpread(graph.mixedProbs(γ), u, restrict)` bit
      * for bit without mixing the whole graph.
      */
    def estimateUserSpreadUnder(gamma: Array[Double], u: Int, restrict: Int = Int.MaxValue): Double =
      estimate(graph.mixedProb(_, gamma), u, restrict)

    /** Is `u` in the RR set of sample `s` under `probs`? */
    private[core] def reaches(s: Int, u: Int, probs: Array[Double]): Boolean = {
      val local = (nodeStart(s) until nodeStart(s + 1)).indexWhere(node(_) == u)
      local >= 0 && new Walk().reaches(s, local, probs(_))
    }

    /** A sample whose stored subgraph lacks `u` cannot reach it, so only
      * `u`'s own slots are walked.
      */
    private def estimate(prob: Int => Double, u: Int, restrict: Int): Double = {
      require(restrict > 0, s"restrict must be positive, got $restrict")
      require(u >= 0 && u < n, s"user $u is not in [0, $n)")
      val r = math.min(restrict, numSamples)
      val walk = new Walk
      var hit = 0
      var i = listStart(u)
      while (i < listStart(u + 1) && listSample(i) < r) {
        if (walk.reaches(listSample(i), listLocal(i), prob)) hit += 1
        i += 1
      }
      n.toDouble * hit / r
    }

    /** Scratch for the walks of one call: epoch-stamped marks and a queue,
      * both over local ids.
      */
    private final class Walk {
      private val mark = new Array[Int](maxLocal)
      private val queue = new Array[Int](maxLocal)
      private var epoch = 0

      /** Reverse walk from the root of sample `s` over the stored in-edges
        * whose coin falls below `prob(edgeId)`; true as soon as local node
        * `target` is reached.
        */
      def reaches(s: Int, target: Int, prob: Int => Double): Boolean = {
        if (target == 0) return true
        epoch += 1
        val base = nodeStart(s)
        mark(0) = epoch
        queue(0) = 0
        var size = 1
        var head = 0
        while (head < size) {
          val slot = base + queue(head)
          head += 1
          var j = edgeStart(slot)
          val end = edgeStart(slot + 1)
          while (j < end) {
            val src = edgeSrc(j)
            if (mark(src) != epoch && coin(j) < prob(edgeId(j))) {
              if (src == target) return true
              mark(src) = epoch
              queue(size) = src
              size += 1
            }
            j += 1
          }
        }
        false
      }
    }
  }

  /** One sample as the build walk returns it: the global ids of its
    * local nodes, the end of each local node's in-edge run, and per stored
    * in-edge the source's local id, the global edge id and the coin.
    */
  private final case class Recorded(
      truncated: Boolean,
      nodes: Array[Int],
      edgeEnd: Array[Int],
      src: Array[Int],
      edgeId: Array[Int],
      coin: Array[Double],
  )

  private final val Unseen = -1
  private final val Pushed = -2

  /** Scratch for the build walks of one chunk of samples. */
  private final class Recorder(g: CompactGraph, pmax: Array[Double], seed: Long, maxNodes: Int) {
    // node -> Unseen, Pushed, or its local id once popped
    private val local = Array.fill(g.n)(Unseen)
    private val stack = new Array[Int](g.n)

    /** Depth-first (LIFO) reverse walk from the root of sample `sample`
      * over the full graph in the world `(seed, sample)` under `pmax`. Each
      * node is popped once and gets the next local id then (the root 0);
      * all its in-edges are scanned then, so its live in-edges are kept
      * together in in-CSR order. The sample is truncated if more than
      * `maxNodes` nodes were reached; the walk then finishes the current
      * node and scans no further one, so the nodes reached but not yet
      * popped get the last local ids and no in-edges.
      */
    def record(sample: Long): Recorded = {
      val root = WorldSampler.uniformInt(seed, sample, g.n)
      val nodes = mutable.ArrayBuilder.make[Int]
      val edgeEnd = mutable.ArrayBuilder.make[Int]
      val src = mutable.ArrayBuilder.make[Int]
      val ids = mutable.ArrayBuilder.make[Int]
      val coins = mutable.ArrayBuilder.make[Double]
      stack(0) = root
      local(root) = Pushed
      var size = 1
      var reached = 1
      var truncated = false
      while (size > 0) {
        size -= 1
        val v = stack(size)
        local(v) = nodes.length
        nodes += v
        if (!truncated) {
          var i = g.inOffsets(v)
          while (i < g.inOffsets(v + 1)) {
            val s = g.inSrc(i)
            val e = g.inEdgeId(i)
            val c = WorldSampler.u01(seed, sample, e)
            if (c < pmax(e)) {
              src += s; ids += e; coins += c
              if (local(s) == Unseen) {
                local(s) = Pushed
                stack(size) = s
                size += 1
                reached += 1
                if (reached > maxNodes) truncated = true
              }
            }
            i += 1
          }
        }
        edgeEnd += ids.length
      }
      val srcLocal = src.result()
      var j = 0
      while (j < srcLocal.length) { srcLocal(j) = local(srcLocal(j)); j += 1 }
      val ns = nodes.result()
      ns.foreach(local(_) = Unseen)
      Recorded(truncated, ns, edgeEnd.result(), srcLocal, ids.result(), coins.result())
    }
  }

  /** Build the index: contiguous chunks of sample ids are walked in
    * parallel ([[WorldSampler.tabulate]]), each reverse-wise under `p^max`
    * with deterministic coins, and the samples are laid out flat in
    * sample-id order.
    *
    * @param maxNodesPerSample safety valve against a supercritical
    *        `p^max` graph. The index counts the truncated samples in
    *        `truncatedSamples`, and the build logs a warning when there
    *        are any.
    */
  def build(
      g: CompactGraph,
      numSamples: Int,
      seed: Long = 23L,
      maxNodesPerSample: Int = 20000,
  ): Index = {
    require(numSamples > 0, s"numSamples must be positive, got $numSamples")
    val pmax = g.maxProbs()
    val recorded =
      WorldSampler.tabulate(numSamples)(new Recorder(g, pmax, seed, maxNodesPerSample))(_.record(_))
    val nodeStart = recorded.map(_.nodes.length).scanLeft(0)(_ + _)
    val edgeBase = recorded.map(_.edgeId.length).scanLeft(0)(_ + _)
    val edgeStart = new Array[Int](nodeStart.last + 1)
    for (s <- recorded.indices; l <- recorded(s).edgeEnd.indices)
      edgeStart(nodeStart(s) + l + 1) = edgeBase(s) + recorded(s).edgeEnd(l)
    def flat[A: ClassTag](field: Recorded => Array[A]): Array[A] = Array.concat(recorded.toSeq.map(field): _*)
    val index = new Index(g, seed, recorded.map(_.truncated), nodeStart, flat(_.nodes), edgeStart,
      flat(_.src), flat(_.edgeId), flat(_.coin))
    if (index.truncatedSamples > 0)
      log.warn(s"${index.truncatedSamples} of $numSamples samples truncated at " +
        s"$maxNodesPerSample nodes; their RR sets may be too small")
    index
  }
}
