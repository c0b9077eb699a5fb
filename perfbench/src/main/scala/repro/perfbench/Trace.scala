package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer. `parent` is the enclosing span's id (-1 at
  * top level); `op` is the operation the call belongs to (-1 for set-up).
  */
final case class Span(id: Int, name: String, layer: String, start: Long, end: Long,
                      parent: Int, op: Long) {
  def nanos: Long = end - start
}

/** Spans recorded by the benchmark around each call it makes into a layer.
  * Single-threaded: the benchmark calls the layers from one thread. Spans
  * are kept in memory and written out when the run ends.
  */
final class Tracer {
  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  /** While false, [[span]] only runs its body. */
  var enabled = false
  /** Operation id stamped on new spans. */
  var op: Long = -1

  def span[A](layer: String, name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = spans.size
      val parent = open.headOption.getOrElse(-1)
      spans += null // reserve the id; filled in when the span closes
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        spans(id) = Span(id, name, layer, t0, System.nanoTime(), parent, op)
        open = open.tail
      }
    }

  def recorded: Seq[Span] = spans.toSeq

  /** Forgets every span after the first `n`. */
  def truncate(n: Int): Unit = spans.dropRightInPlace(spans.size - n)
}

object Tracer {
  /** A span's duration minus the part of it its child spans cover. */
  def selfNanos(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil).sortBy(_.start)
      var covered = 0L
      var reach = s.start
      kids.foreach { k =>
        val from = math.max(k.start, reach)
        val to = math.min(k.end, s.end)
        if (to > from) { covered += to - from; reach = to }
      }
      s.id -> (s.nanos - covered)
    }.toMap
  }

  /** Self time summed per layer, in seconds. */
  def selfSecondsByLayer(spans: Seq[Span]): Map[String, Double] = {
    val self = selfNanos(spans)
    spans.groupBy(_.layer).map { case (l, ss) => l -> ss.map(s => self(s.id)).sum / 1e9 }
  }

  def toJson(spans: Seq[Span]): Seq[Map[String, Any]] = spans.map { s =>
    Map("id" -> s.id, "name" -> s.name, "layer" -> s.layer, "start_ns" -> s.start,
      "end_ns" -> s.end, "parent" -> s.parent, "op" -> s.op)
  }
}
