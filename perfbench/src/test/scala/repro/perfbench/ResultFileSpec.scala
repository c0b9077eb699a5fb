package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

import java.nio.file.{Files, Paths}

class ResultFileSpec extends AnyFunSuite {

  private val metrics = Catalogue.endToEnd.zipWithIndex.map { case (d, i) => d.name -> (i + 0.123456789) }.toMap

  test("a result record survives a write and a read") {
    val checks = new Checks
    checks.op(true -> "fine")
    checks.op(false -> "broken \"quoted\"\n")
    val details = scala.collection.mutable.LinkedHashMap("eval_ms.tail" -> (12.5, "ms"))
    val meta = Map[String, Any]("workload" -> "static-mc", "seed" -> 0L, "trace" -> false)
    val record = Main.resultRecord(meta, checks, Catalogue.endToEnd, metrics, details)
    val back = Json.read(Json.write(record)).asInstanceOf[collection.Map[String, Any]]

    val ms = back("metrics").asInstanceOf[Seq[collection.Map[String, Any]]]
    assert(ms.map(_("name")) == Catalogue.endToEnd.map(_.name))
    assert(ms.map(_("value")) == Catalogue.endToEnd.map(d => metrics(d.name)))
    assert(ms.map(_("better")) == Catalogue.endToEnd.map(_.better))
    val ds = back("details").asInstanceOf[Seq[collection.Map[String, Any]]]
    assert(ds.head("name") == "eval_ms.tail" && ds.head("value") == 12.5 && ds.head("unit") == "ms")
    val cs = back("checks").asInstanceOf[collection.Map[String, Any]]
    assert(cs("attempted") == 2.0 && cs("failed") == 1.0)
    assert(cs("messages") == Seq("broken \"quoted\"\n"))
    assert(back("meta").asInstanceOf[collection.Map[String, Any]]("trace") == false)
  }

  test("the result line has exactly its four keys and every metric with its unit") {
    val checks = new Checks
    checks.op(true -> "fine")
    val line = Json.read(Main.resultLine(checks, Catalogue.endToEnd, metrics))
      .asInstanceOf[collection.Map[String, Any]]
    assert(line.keySet == Set("correct", "attempted", "failed", "metrics"))
    assert(line("correct") == true && line("attempted") == 1.0 && line("failed") == 0.0)
    val ms = line("metrics").asInstanceOf[collection.Map[String, collection.Map[String, Any]]]
    assert(ms.keySet == Catalogue.endToEnd.map(_.name).toSet)
    Catalogue.endToEnd.foreach { d =>
      assert(ms(d.name)("unit") == d.unit)
      assert(ms(d.name)("value") == metrics(d.name))
    }
  }

  test("BENCHMARK.json lists the metrics the runs report") {
    val bench = Json.read(new String(Files.readAllBytes(Paths.get("..", "BENCHMARK.json")), "UTF-8"))
      .asInstanceOf[collection.Map[String, Any]]
    def defs(key: String) = bench(key).asInstanceOf[Seq[collection.Map[String, Any]]]
      .map(m => MetricDef(m("name").toString, m("unit").toString, m("better").toString))
    assert(defs("end_to_end") == Catalogue.endToEnd)
    assert(defs("per_layer") == Catalogue.perLayer)
    val workloads = bench("workloads").asInstanceOf[Seq[collection.Map[String, Any]]].map(_("name"))
    assert(workloads == Workload.benchmarked.map(_.name))
  }
}
