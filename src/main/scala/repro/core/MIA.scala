package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.CompactGraph

import scala.collection.mutable

/** Maximum Influence Arborescence path exploration (paper §II-E, after
  * Chen, Wang, Wang, KDD 2010).
  *
  * All influence paths of a user u are restricted to a tree rooted at u
  * where the u→v path is the *maximum activation probability* path among
  * all u-to-v paths, and paths with probability below a threshold θ are
  * pruned. MIOA (outward) answers "how does u influence the network";
  * MIIA (inward, over reversed edges) answers "who influences u". The
  * tree — node set, parent pointers, path probabilities (the node-size
  * "effect" in the d3js UI), and full paths — is exported as a DataFrame
  * in [[toDataFrame]]; rendering is out of scope (DESIGN.md §2).
  *
  * Implementation: max-product Dijkstra on a max-heap of path
  * probabilities. Edge probabilities are at most 1, so a path's product
  * only shrinks as it grows and the first pop of a node settles its best
  * path; the θ cut makes the search local and interactive.
  */
object MIA {

  /** One tree node: `parent == -1` for the root; `prob` is the product of
    * edge probabilities along the tree path from the root.
    */
  final case class MiaNode(node: Int, parent: Int, prob: Double, depth: Int)

  /** An arborescence (outward MIOA if `outward`, else inward MIIA). */
  final case class MiaTree(root: Int, outward: Boolean, theta: Double, nodes: Seq[MiaNode]) {
    lazy val byNode: Map[Int, MiaNode] = nodes.map(n => n.node -> n).toMap

    /** Number of nodes including the root. */
    def size: Int = nodes.length

    /** Σ path probabilities — the MIA approximation of the root's
      * influence (outward) or susceptibility (inward). Includes the
      * root's own activation (prob 1).
      */
    def treeSpread: Double = nodes.map(_.prob).sum

    /** Root-to-v (or v-to-root, for MIIA) node sequence. */
    def pathTo(v: Int): Seq[Int] = {
      require(byNode.contains(v), s"node $v not in tree")
      val buf = mutable.ArrayBuffer.empty[Int]
      var cur = v
      while (cur != -1) { buf += cur; cur = byNode(cur).parent }
      val fromRoot = buf.toSeq.reverse
      if (outward) fromRoot else fromRoot.reverse
    }
  }

  /** Maximum Influence Out-Arborescence: how `root` influences others. */
  def mioa(g: CompactGraph, probs: Array[Double], root: Int, theta: Double): MiaTree =
    dijkstra(g, probs(_), root, theta, outward = true)

  /** Maximum Influence In-Arborescence: who influences `root`. */
  def miia(g: CompactGraph, probs: Array[Double], root: Int, theta: Double): MiaTree =
    dijkstra(g, probs(_), root, theta, outward = false)

  /** The MIOA (`outward`) or MIIA tree of `root` under topic distribution
    * γ. Each edge is mixed (`g.mixedProb(e, γ)`) when the search scans it,
    * so the tree equals `mioa`/`miia` on `g.mixedProbs(γ)` bit for bit
    * while mixing only the edges the θ-bounded search reaches.
    */
  def treeUnder(g: CompactGraph, gamma: Array[Double], root: Int, theta: Double, outward: Boolean): MiaTree =
    dijkstra(g, g.mixedProb(_, gamma), root, theta, outward)

  /** One loop for both directions: MIOA scans out-edges, MIIA scans
    * in-edges (edge id `inEdgeId(i)`). `prob` gives an edge's probability
    * by global edge id. The per-node state lives in arrays allocated per
    * call, so concurrent calls share nothing.
    */
  private def dijkstra(
      g: CompactGraph,
      prob: Int => Double,
      root: Int,
      theta: Double,
      outward: Boolean,
  ): MiaTree = {
    require(theta > 0.0 && theta <= 1.0, "theta must be in (0, 1]")
    val (offsets, neighbour) = if (outward) (g.outOffsets, g.outDst) else (g.inOffsets, g.inSrc)
    val bestProb = new Array[Double](g.n)
    val parent = new Array[Int](g.n)
    val depth = new Array[Int](g.n)
    val settled = new Array[Boolean](g.n)
    bestProb(root) = 1.0
    parent(root) = -1
    val pq = mutable.PriorityQueue((1.0, root))(Ordering.by(_._1))
    val result = mutable.ArrayBuffer.empty[MiaNode]
    while (pq.nonEmpty) {
      val (p, u) = pq.dequeue()
      if (!settled(u)) {
        settled(u) = true
        result += MiaNode(u, parent(u), p, depth(u))
        var i = offsets(u)
        while (i < offsets(u + 1)) {
          val v = neighbour(i)
          val pv = p * prob(if (outward) i else g.inEdgeId(i))
          if (!settled(v) && pv >= theta && pv > bestProb(v)) {
            bestProb(v) = pv
            parent(v) = u
            depth(v) = depth(u) + 1
            pq.enqueue((pv, v))
          }
          i += 1
        }
      }
    }
    MiaTree(root, outward, theta, result.toSeq)
  }

  /** Export a tree as the DataFrame the UI layer would render:
    * `(node, name, parent, depth, pathProb, path)`.
    */
  def toDataFrame(spark: SparkSession, tree: MiaTree, names: Int => String): DataFrame = {
    import spark.implicits._
    tree.nodes
      .map { n =>
        (n.node.toLong, names(n.node), n.parent.toLong, n.depth, n.prob,
          tree.pathTo(n.node).map(_.toLong))
      }
      .toDF("node", "name", "parent", "depth", "pathProb", "path")
  }
}
