package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class TracerSpec extends AnyFunSuite {

  private def span(id: Int, layer: String, start: Long, end: Long, parent: Int) =
    Span(id, s"s$id", layer, start, end, parent, op = 0)

  test("self time is the duration minus what the children cover") {
    val spans = Seq(
      span(0, "bench", 0, 100, -1),
      span(1, "spark", 10, 30, 0),
      span(2, "spark", 20, 50, 0), // overlaps span 1: 10..50 is covered once
      span(3, "core", 60, 70, 0),
      span(4, "kg", 62, 65, 3))
    val self = Tracer.selfNanos(spans)
    assert(self(0) == 100 - 40 - 10)
    assert(self(1) == 20 && self(2) == 30)
    assert(self(3) == 10 - 3 && self(4) == 3)
    val byLayer = Tracer.selfSecondsByLayer(spans)
    assert(byLayer("spark") == 50 / 1e9)
    assert(byLayer("bench") == 50 / 1e9 && byLayer("core") == 7 / 1e9 && byLayer("kg") == 3 / 1e9)
  }

  test("recorded spans carry their parent and operation") {
    val t = new Tracer
    t.enabled = true
    t.op = 7
    t.span("bench", "outer") {
      t.span("spark", "inner")(())
      t.span("core", "next")(())
    }
    t.enabled = false
    t.span("core", "unrecorded")(())
    val spans = t.recorded
    assert(spans.map(_.name) == Seq("outer", "inner", "next"))
    assert(spans.map(_.parent) == Seq(-1, 0, 0))
    assert(spans.forall(_.op == 7))
    assert(spans.tail.forall(s => s.start >= spans.head.start && s.end <= spans.head.end))
  }
}
