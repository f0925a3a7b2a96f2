package perfbench

import repro.core.{BestEffortKIM, GreedyIM, KeywordSuggest}
import repro.engine.Octopus

/** Output checks, run once per distinct request outside the timed loop.
  * Each returns the list of violated properties (empty when the answer
  * is correct).
  */
object Checks {

  def check(sys: Octopus, r: Request, a: Answer): Seq[String] = (r, a) match {
    case (q: Kim, KimAnswer(res))         => kim(sys, q, res)
    case (q: Suggest, SuggestAnswer(res)) => suggest(sys, q, res)
    case (q: Mia, MiaAnswer(tree))        => mia(sys, q, tree)
    case _                                => Seq(s"answer of the wrong kind for $r")
  }

  /** k distinct in-range seeds, equal to plain CELF (no pruning bounds)
    * on the same possible worlds.
    */
  def kim(sys: Octopus, q: Kim, res: GreedyIM.IMResult): Seq[String] = {
    val g = sys.model.graph
    val cfg = BestEffortKIM.Config()
    val probs = g.mixedProbs(sys.model.gammaFor(q.keywords))
    val plain = GreedyIM.celf(g, probs, q.k, cfg.numSamples, cfg.seed)
    Seq(
      (res.seeds.length == math.min(q.k, g.n)) -> s"expected ${q.k} seeds, got ${res.seeds.length}",
      (res.seeds.distinct.length == res.seeds.length) -> "repeated seed",
      res.seeds.forall(u => u >= 0 && u < g.n) -> "seed out of range",
      (res.seeds == plain.seeds) -> s"seeds ${res.seeds} differ from plain CELF ${plain.seeds}",
    ).collect { case (false, msg) => s"kim ${q.keywords.mkString(",")} k=${q.k}: $msg" }
  }

  /** k distinct keywords from the candidate pool, and an estimated spread
    * equal to the index estimate recomputed for the chosen set.
    */
  def suggest(sys: Octopus, q: Suggest, res: KeywordSuggest.SuggestResult): Seq[String] = {
    val pool = KeywordSuggest.candidatePool(sys.model, q.user, q.pool).toSet
    val probs = sys.model.graph.mixedProbs(sys.model.gammaFor(res.keywords))
    val recomputed = sys.rrIndex.estimateUserSpread(probs, q.user)
    Seq(
      (res.keywords.length == q.k) -> s"expected ${q.k} keywords, got ${res.keywords.length}",
      (res.keywords.distinct.length == res.keywords.length) -> "repeated keyword",
      res.keywords.forall(pool) -> "keyword outside the candidate pool",
      (res.estSpread == recomputed) -> s"estSpread ${res.estSpread} != recomputed $recomputed",
    ).collect { case (false, msg) => s"suggest user=${q.user}: $msg" }
  }

  /** A well-formed arborescence: the root has probability 1, every
    * parent is in the tree, each probability is its parent's times the
    * connecting edge's, and none is below θ.
    */
  def mia(sys: Octopus, q: Mia, tree: repro.core.MIA.MiaTree): Seq[String] = {
    val g = sys.model.graph
    val probs = g.mixedProbs(sys.model.gammaFor(q.keywords))
    val byNode = tree.byNode
    def edgeProb(from: Int, to: Int): Option[Double] =
      (g.outOffsets(from) until g.outOffsets(from + 1)).find(e => g.outDst(e) == to).map(probs)
    val errors = Seq.newBuilder[String]
    if (tree.root != q.user) errors += s"root ${tree.root} != ${q.user}"
    if (byNode.size != tree.nodes.length) errors += "node listed twice"
    byNode.get(tree.root) match {
      case Some(root) if root.prob == 1.0 && root.parent == -1 =>
      case other => errors += s"bad root entry $other"
    }
    tree.nodes.filter(_.node != tree.root).foreach { n =>
      byNode.get(n.parent) match {
        case None => errors += s"node ${n.node}: parent ${n.parent} not in tree"
        case Some(p) =>
          val e = if (q.outward) edgeProb(p.node, n.node) else edgeProb(n.node, p.node)
          if (e.isEmpty || n.prob != p.prob * e.get)
            errors += s"node ${n.node}: prob ${n.prob} != parent ${p.prob} x edge $e"
      }
      if (n.prob < q.theta) errors += s"node ${n.node}: prob ${n.prob} below theta"
    }
    errors.result().take(3).map(m => s"mia user=${q.user} theta=${q.theta} outward=${q.outward}: $m")
  }

  /** Number of candidate keyword sets the suggestion service scores. */
  def candidateSets(sys: Octopus, q: Suggest): Int =
    KeywordSuggest.kSubsets(KeywordSuggest.candidatePool(sys.model, q.user, q.pool), q.k).size
}
