package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable

/** One recorded layer call: wall interval, allocation on the calling
  * thread, the enclosing span (`parent == -1` for a request root) and the
  * request it belongs to.
  */
final case class Span(
    name: String,
    start: Long,
    end: Long,
    allocBytes: Long,
    parent: Int,
    request: Int,
) {
  def nanos: Long = end - start
}

/** In-memory span recorder. Spans are only appended during a run and
  * written out once at the end, so recording costs two clock reads and
  * two allocation-counter reads per call.
  */
final class Tracer {
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private var current = -1
  private var request = -1

  /** Open a request root span; its children are the layer calls in `f`. */
  def request[A](name: String, id: Int)(f: => A): A = {
    request = id
    span(name)(f)
  }

  def span[A](name: String)(f: => A): A = {
    val idx = spans.length
    val parent = current
    spans += null
    current = idx
    val a0 = Meters.allocatedBytes()
    val t0 = System.nanoTime()
    try f
    finally {
      val t1 = System.nanoTime()
      spans(idx) = Span(name, t0, t1, Meters.allocatedBytes() - a0, parent, request)
      current = parent
    }
  }

  /** Self time per span: its duration minus the time its direct children cover. */
  def selfNanos(from: Int = 0): Array[Long] = {
    val self = Array.tabulate(spans.length)(i => if (i < from) 0L else spans(i).nanos)
    var i = from
    while (i < spans.length) {
      val p = spans(i).parent
      if (p >= from) self(p) -= spans(i).nanos
      i += 1
    }
    self
  }

  /** Time the direct children of span `idx` cover. */
  def childNanos(idx: Int): Long = {
    var sum = 0L
    var i = idx + 1
    while (i < spans.length) { if (spans(i).parent == idx) sum += spans(i).nanos; i += 1 }
    sum
  }

  /** Spans as JSON lines (`name`, `start_ns`, `end_ns`, `alloc_bytes`, `parent`, `request`). */
  def writeJsonLines(path: java.nio.file.Path): Unit = {
    val sb = new StringBuilder
    spans.zipWithIndex.foreach { case (s, i) =>
      sb ++= s"""{"id":$i,"name":"${s.name}","start_ns":${s.start},"end_ns":${s.end},""" +
        s""""alloc_bytes":${s.allocBytes},"parent":${s.parent},"request":${s.request}}""" + "\n"
    }
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.writeString(path, sb.toString)
  }
}

/** JVM-level counters read around calls from outside the program. */
object Meters {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans

  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  /** (collections, collection milliseconds) summed over all collectors. */
  def gc(): (Long, Long) = {
    var n = 0L; var ms = 0L
    gcBeans.forEach { b => n += math.max(0L, b.getCollectionCount); ms += math.max(0L, b.getCollectionTime) }
    (n, ms)
  }

  /** Heap still in use after full collections, in MB. */
  def liveHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, System.nanoTime() - t0)
  }
}

/** Order statistics used for every reported timing. */
object Stats {

  /** Linear-interpolated percentile, `q` in [0, 1]. */
  def percentile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)
}
