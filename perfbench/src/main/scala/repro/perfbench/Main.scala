package repro.perfbench

import org.apache.spark.sql.SparkSession


import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** A metric the result line carries. */
final case class MetricDef(name: String, unit: String, better: String)

object Catalogue {
  /** Reported by every untraced run (`--trace 0`). */
  val endToEnd: Seq[MetricDef] = Seq(
    MetricDef("setup_s", "s", "lower"),
    MetricDef("setup_heap_mb", "MB", "lower"),
    MetricDef("ops_per_s", "1/s", "higher"),
    MetricDef("annotation_h", "h", "lower"))

  /** Reported by every traced run (`--trace 1`). */
  val perLayer: Seq[MetricDef] = Seq(
    MetricDef("kg.gen_s", "s", "lower"),
    MetricDef("summary.s", "s", "lower"),
    MetricDef("self_s.kg", "s", "lower"),
    MetricDef("self_s.core", "s", "lower"),
    MetricDef("op.draws", "count", "lower"),
    MetricDef("op.us_per_draw", "us", "lower"),
    MetricDef("ci_coverage", "share", "higher"),
    MetricDef("trace.overhead_s", "s", "lower"),
    MetricDef("trace.spans", "count", "lower"))
}

final case class Options(workload: Workload, seed: Long, seconds: Double, trace: Boolean, out: Path)

object Options {
  def parse(args: Array[String]): Options = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace", "out")
    require(unknown.isEmpty, s"unknown options: ${unknown.mkString(", ")}")
    val name = kv.getOrElse("workload", throw new IllegalArgumentException("--workload is required"))
    val w = Workload.all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload $name; one of ${Workload.all.map(_.name).mkString(", ")}"))
    val trace = kv.getOrElse("trace", "0") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    val seconds = kv.getOrElse("seconds", "10").toDouble
    require(seconds > 0, "--seconds must be positive")
    Options(w, kv.getOrElse("seed", "0").toLong, seconds, trace,
      Paths.get(kv.getOrElse("out", ".bench_build/perfbench")))
  }
}

/** Runs one workload and prints its result; see perfbench/README.md. */
object Main {
  /** Set-up repetitions; the first also pays Spark's lazy start. */
  val SetupReps = 5

  def main(args: Array[String]): Unit = {
    val opts = try Options.parse(args) catch {
      case e: IllegalArgumentException => Console.err.println(e.getMessage); sys.exit(2)
    }
    val status = try { run(opts); 0 } catch {
      case e: Throwable => e.printStackTrace(); 1
    }
    sys.exit(status)
  }

  private def session(out: Path): SparkSession = {
    val nproc = Runtime.getRuntime.availableProcessors
    val s = SparkSession.builder
      .master(s"local[$nproc]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", out.resolve("warehouse").toAbsolutePath.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def usedHeapMb(): Double = {
    val rt = Runtime.getRuntime
    System.gc(); System.gc()
    (rt.totalMemory - rt.freeMemory) / 1e6
  }

  def run(opts: Options): Unit = {
    Files.createDirectories(opts.out)
    val spark = session(opts.out)
    try {
      val tracer = new Tracer
      val stats = if (opts.trace) {
        val st = new TaskStats(spark); spark.sparkContext.addSparkListener(st); Some(st)
      } else None
      val ctx = new Ctx(spark, opts.seed, tracer, stats)
      val metrics =
        if (opts.trace) traced(ctx, opts.workload) else untraced(ctx, opts.workload, opts.seconds)
      val defs = if (opts.trace) Catalogue.perLayer else Catalogue.endToEnd
      report(ctx, opts, spark, defs, metrics)
    } finally spark.stop()
  }

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def untraced(ctx: Ctx, w: Workload, window: Double): Map[String, Double] = {
    var in: w.In = null.asInstanceOf[w.In]
    val setups = (1 to SetupReps).map { _ =>
      if (in != null) w.release(in)
      val t0 = System.nanoTime()
      in = w.setup(ctx)
      seconds(t0)
    }
    val heap = usedHeapMb()
    val tw = System.nanoTime()
    w.warmUp(ctx, in)
    ctx.detail("warm_up_s", seconds(tw), "s")
    val ops = ArrayBuffer.empty[Op]
    System.gc()
    val t0 = System.nanoTime()
    val deadline = t0 + (window * 1e9).toLong
    var k = 0
    while (k < w.minUnits || System.nanoTime() < deadline) { ops ++= w.unit(ctx, in, k); k += 1 }
    val windowS = seconds(t0)
    val (hours, coverage) = w.figures(ctx, in)
    setups.zipWithIndex.foreach { case (s, i) => ctx.detail(s"setup_s.rep${i + 1}", s, "s") }
    ctx.detail("ci_coverage", coverage, "share")
    ctx.detail("window_s", windowS, "s")
    ctx.detail("window_units", k.toDouble, "count")
    Workload.timing(ctx, "op_ms", ops.map(_.ms).toSeq)
    w.windowDetails(ctx, ops.toSeq)
    Map("setup_s" -> Summ.median(setups), "setup_heap_mb" -> heap,
      "ops_per_s" -> ops.size / windowS,
      "annotation_h" -> hours)
  }

  private def traced(ctx: Ctx, w: Workload): Map[String, Double] = {
    val tracer = ctx.tracer
    tracer.enabled = true
    val t0 = System.nanoTime()
    val in = w.setup(ctx)
    ctx.detail("setup_s", seconds(t0), "s")
    tracer.enabled = false
    ctx.detail("setup_heap_mb", usedHeapMb(), "MB")
    w.warmUp(ctx, in)
    (0 until w.checkedUnits).foreach(w.unit(ctx, in, _))

    // Untraced, traced, traced, untraced: a JIT that still speeds up adds
    // the same to both sides. The spans of the first traced pass are kept.
    def pass(traced: Boolean): (Seq[Op], Double) = {
      tracer.enabled = traced
      val t = System.nanoTime()
      val ops = w.tracedPass(ctx, in)
      tracer.enabled = false
      (ops, seconds(t))
    }
    val (_, plain1) = pass(traced = false)
    val (ops, traced1) = pass(traced = true)
    val spans = tracer.recorded
    val (_, traced2) = pass(traced = true)
    tracer.truncate(spans.size)
    val (_, plain2) = pass(traced = false)
    val plain = (plain1 + plain2) / 2
    val withSpans = (traced1 + traced2) / 2
    val (hours, coverage) = w.figures(ctx, in)
    ctx.detail("annotation_h", hours, "h")
    ctx.detail("trace.untraced_pass_s", plain, "s")
    ctx.detail("trace.traced_pass_s", withSpans, "s")

    val setup = spans.filter(_.op < 0)
    def setupSum(prefix: String) = setup.filter(_.name.startsWith(prefix)).map(_.nanos).sum / 1e9
    setup.foreach { s =>
      if (s.name.startsWith("kg.gen:")) ctx.detail(s"kg.gen_s.${s.name.drop(7)}", s.nanos / 1e9, "s")
      if (s.name.startsWith("summary:")) ctx.detail(s"summary.s.${s.name.drop(8)}", s.nanos / 1e9, "s")
    }
    ctx.stats.get.tags.filter(_.startsWith("summary:")).foreach { tag =>
      ctx.detail(s"summary.shuffle_mb.${tag.drop(8)}", ctx.stats.get.bucket(tag).shuffleMb, "MB")
    }
    val self = Tracer.selfSecondsByLayer(spans)
    self.toSeq.sortBy(_._1).foreach { case (l, s) => ctx.detail(s"self_s.$l", s, "s") }
    w.traceDetails(ctx, in, ops, spans)
    Map("kg.gen_s" -> setupSum("kg.gen:"), "summary.s" -> setupSum("summary:"),
      "self_s.kg" -> self.getOrElse("kg", 0.0), "self_s.core" -> self.getOrElse("core", 0.0),
      "op.draws" -> Summ.mean(ops.map(_.draws)),
      "op.us_per_draw" -> ops.map(_.nanos).sum / 1e3 / ops.map(_.draws).sum,
      "ci_coverage" -> coverage, "trace.overhead_s" -> (withSpans - plain),
      "trace.spans" -> spans.size.toDouble)
  }

  private def meta(opts: Options, spark: SparkSession): Map[String, Any] = Map(
    "workload" -> opts.workload.name,
    "seed" -> opts.seed,
    "seconds" -> opts.seconds,
    "trace" -> opts.trace,
    "nproc" -> Runtime.getRuntime.availableProcessors,
    "spark_master_env" -> sys.env.getOrElse("SPARK_MASTER", ""),
    "spark_master" -> spark.sparkContext.master,
    "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1e6,
    "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
    "spark_version" -> spark.version,
    "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
    "git_commit" -> sys.env.getOrElse("PERFBENCH_GIT_COMMIT", "unknown"))

  /** The result line: the last line the run prints. */
  def resultLine(checks: Checks, defs: Seq[MetricDef], metrics: Map[String, Double]): String =
    Json.write(mutable.LinkedHashMap[String, Any](
      "correct" -> (checks.failed == 0),
      "attempted" -> checks.attempted,
      "failed" -> checks.failed,
      "metrics" -> mutable.LinkedHashMap(defs.map(d =>
        d.name -> mutable.LinkedHashMap[String, Any]("value" -> metrics(d.name), "unit" -> d.unit)): _*)))

  /** Everything a run measured, as written to its result file. */
  def resultRecord(meta: Map[String, Any], checks: Checks, defs: Seq[MetricDef],
                   metrics: Map[String, Double],
                   details: collection.Map[String, (Double, String)]): Map[String, Any] = Map(
    "meta" -> meta,
    "metrics" -> defs.map(d => Map("name" -> d.name, "value" -> metrics(d.name), "unit" -> d.unit,
      "better" -> d.better)),
    "details" -> details.toSeq.map { case (n, (v, u)) => Map("name" -> n, "value" -> v, "unit" -> u) },
    "checks" -> Map("attempted" -> checks.attempted, "failed" -> checks.failed,
      "messages" -> checks.messages.toSeq))

  private def report(ctx: Ctx, opts: Options, spark: SparkSession, defs: Seq[MetricDef],
                     metrics: Map[String, Double]): Unit = {
    val m = meta(opts, spark)
    val stem = s"${opts.workload.name}-seed${opts.seed}-trace${if (opts.trace) 1 else 0}"
    def write(name: String, v: Any): Path = {
      val f = opts.out.resolve(name)
      Files.write(f, Json.write(v).getBytes(StandardCharsets.UTF_8))
      f
    }
    val file = write(s"$stem.json", resultRecord(m, ctx.checks, defs, metrics, ctx.details))
    if (opts.trace) write(s"$stem-spans.json", Tracer.toJson(ctx.tracer.recorded))
    println(s"== perfbench ${opts.workload.name}: seed ${opts.seed}, trace ${opts.trace}, result in $file ==")
    m.toSeq.sortBy(_._1).foreach { case (k, v) => println(f"  $k%-20s $v") }
    println("metrics:")
    defs.foreach(d => println(f"  ${d.name}%-34s ${metrics(d.name)}%14.6f ${d.unit}%-6s (${d.better} is better)"))
    println("details:")
    ctx.details.foreach { case (n, (v, u)) => println(f"  $n%-34s $v%14.6f $u") }
    println(s"checks: ${ctx.checks.attempted} operations, ${ctx.checks.failed} failed")
    ctx.checks.messages.foreach(msg => println(s"  FAILED $msg"))
    println(resultLine(ctx.checks, defs, metrics))
  }
}
