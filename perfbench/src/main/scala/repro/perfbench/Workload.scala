package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.KGSummary

import scala.collection.mutable

/** One timed operation: an evaluation, an update or a DataFrame operation.
  * `extra` carries workload-specific counts for the traced figures.
  */
final case class Op(kind: String, nanos: Long, draws: Double,
                    extra: Map[String, Double] = Map.empty) {
  def ms: Double = nanos / 1e6
}

/** Output checks: each operation attempted either passes all its checks or
  * counts once as failed; a failed aggregate check (over a cell, a method or
  * a stream set) counts as one more failed operation.
  */
final class Checks {
  var attempted = 0L
  var failed    = 0L
  val messages  = mutable.ArrayBuffer.empty[String]

  private def fail(msg: String): Unit = {
    failed += 1
    if (messages.size < 20) messages += msg
  }

  /** One operation, correct iff every condition holds. */
  def op(conds: (Boolean, String)*): Unit = {
    attempted += 1
    conds.find(!_._1).foreach(c => fail(c._2))
  }

  def aggregate(ok: Boolean, msg: => String): Unit = if (!ok) fail(msg)
}

/** Per-run state the workloads share. */
final class Ctx(val spark: SparkSession, val seed: Long, val tracer: Tracer,
                val stats: Option[TaskStats]) {
  val checks = new Checks
  /** Every named figure of the run, beyond the result line's metrics. */
  val details = mutable.LinkedHashMap.empty[String, (Double, String)]
  def detail(name: String, value: Double, unit: String): Unit = details(name) = (value, unit)

  /** Runs `body`; returns its result and wall time in ns. */
  def measure[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = body
    (a, System.nanoTime() - t0)
  }

  /** Seeds of a run: the harness seed at the default `--seed 0`. */
  def shifted(harnessSeed: Long): Long = harnessSeed + seed * 1000000L

  /** Tags the Spark jobs of `body` for the task statistics of a traced pass. */
  def tagged[A](tag: String)(body: => A): A = stats match {
    case Some(s) if tracer.enabled => s.tagged(tag)(body)
    case _                         => body
  }

  /** Builds a KG's cluster summary. Untraced, generation runs inside the
    * summary job, as the harnesses do; traced, the triples are cached and
    * counted first so generation and summary time separate. `keep` leaves
    * the cached triples for the caller (the DataFrame workload samples them).
    */
  def summarise(name: String, triples: => DataFrame, keep: Boolean = false): (KGSummary, DataFrame) =
    if (!tracer.enabled && !keep) (KGSummary.fromTriples(triples), null)
    else {
      val df = tracer.span("kg", s"kg.gen:$name") {
        val d = triples.cache()
        tagged(s"gen:$name")(d.count())
        d
      }
      val kg = tracer.span("core", s"summary:$name")(tagged(s"summary:$name")(KGSummary.fromTriples(df)))
      if (keep) (kg, df) else { df.unpersist(blocking = true); (kg, null) }
    }
}

/** A benchmark workload: set-up, an untimed warm-up pass, and units of timed
  * work. Every operation's output is checked.
  */
trait Workload {
  type In
  def name: String
  def setup(ctx: Ctx): In
  /** Frees what a set-up cached, before the next set-up repetition. */
  def release(in: In): Unit = ()
  /** The untimed warm-up pass, which also checks its outputs. */
  def warmUp(ctx: Ctx, in: In): Unit
  /** The k-th unit of timed work: the ops it ran, each checked. */
  def unit(ctx: Ctx, in: In, k: Int): Seq[Op]
  /** Units the timed window runs at least. */
  def minUnits: Int = 1
  /** Units whose first run fixes the figures; the traced run runs them too. */
  def checkedUnits: Int = 0
  /** (mean Eq 4 hours per operation, CI coverage) once the timed units have
    * run, with any check that needs them all.
    */
  def figures(ctx: Ctx, in: In): (Double, Double)
  /** The work the traced run times, once untraced and once traced. */
  def tracedPass(ctx: Ctx, in: In): Seq[Op]
  /** Named figures of the timed window. */
  def windowDetails(ctx: Ctx, ops: Seq[Op]): Unit
  /** Named per-layer figures of the traced units. */
  def traceDetails(ctx: Ctx, in: In, ops: Seq[Op], spans: Seq[Span]): Unit
}

object Workload {
  /** The workloads BENCHMARK.json lists. `static-mc` runs on its own: a
    * third workload would not fit the benchmark's time budget, and
    * `evolving` already measures every driver-side layer.
    */
  val benchmarked: Seq[Workload] = Seq(Evolving, DataFrameOps)
  val all: Seq[Workload] = benchmarked :+ StaticMc

  /** Records `<prefix>.p50` and `<prefix>.tail` (with its percentile and
    * sample count) for a set of timings in ms.
    */
  def timing(ctx: Ctx, prefix: String, ms: Seq[Double], withTail: Boolean = true): Unit = {
    ctx.detail(s"$prefix.p50", Summ.median(ms), "ms")
    ctx.detail(s"$prefix.count", ms.size.toDouble, "count")
    if (withTail) Summ.tail(ms).foreach { case (p, v) =>
      ctx.detail(s"$prefix.tail", v, "ms")
      ctx.detail(s"$prefix.tail_percentile", p, "%")
    }
  }
}
