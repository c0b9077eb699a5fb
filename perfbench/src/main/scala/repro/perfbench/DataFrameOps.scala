package repro.perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

import repro.core._
import repro.kg.KGData
import repro.spark.{SparkEstimators, SparkSamplers}

import scala.collection.mutable.ArrayBuffer

/** `dataframe`: the DataFrame samplers and estimators on the cached
  * MOVIE-like KG at scale 1.0. A timed unit is one pass: TWCS (n=60, m=5),
  * SRS (n=200), RCS (n=200) and a reservoir merge (capacity 50) of the base
  * with a scale-0.1 update whose subjects lie above the base's.
  *
  * The warm-up pass runs on a 1%-scale KG. Each timed pass draws with its
  * own seeds, and the figures cover them all. Untraced, each sampler's
  * output is cached once so the estimate and the checks see the same
  * sample. Traced, every intermediate DataFrame is cached and counted in
  * its own span, which splits sampler from estimator time; the cost of that
  * shows in the tracing overhead.
  */
object DataFrameOps extends Workload {
  val name = "dataframe"

  val TwcsN = 60
  val TwcsM = 5
  val SrsN = 200
  val RcsN = 200
  val Capacity = 50
  /** Update subjects start above every base subject. */
  val Shift = 10000000L

  final class In(val kg: KGSummary, val triples: DataFrame, val update: DataFrame) {
    /** Passes run so far; pass n samples with seeds shifted by 10·n. */
    var passes = 0
    /** Eq 4 hours and CI coverage of every timed estimate. */
    val hours   = ArrayBuffer.empty[Double]
    val covered = ArrayBuffer.empty[Boolean]
  }

  private val z = Stats.zAlpha(0.05)

  /** The cached KG at `scale`, its summary, and the cached update at a tenth of it. */
  private def build(ctx: Ctx, name: String, scale: Double): In = {
    val (kg, triples) = ctx.summarise(name, KGData.movieLike(ctx.spark, scale), keep = true)
    val update = ctx.tracer.span("kg", s"kg.gen:$name-update") {
      val d = KGData.movieLike(ctx.spark, scale = scale / 10, seed = 29)
        .withColumn("subject", col("subject") + Shift).cache()
      ctx.tagged(s"gen:$name-update")(d.count())
      d
    }
    new In(kg, triples, update)
  }

  def setup(ctx: Ctx): In = build(ctx, "MOVIE", 1.0)

  override def release(in: In): Unit = {
    in.triples.unpersist(blocking = true)
    in.update.unpersist(blocking = true)
  }

  /** Materialises a cached DataFrame inside a span (traced passes only). */
  private def stage(ctx: Ctx, name: String)(df: => DataFrame): DataFrame =
    ctx.tracer.span("spark", name) { val d = df.cache(); d.count(); d }

  /** A two-step sample: untraced as the program composes it, cached once;
    * traced with each step materialised in its own span.
    */
  private def twoStep(ctx: Ctx, first: String, second: String)(draws: => DataFrame)
                     (expand: DataFrame => DataFrame): DataFrame =
    if (!ctx.tracer.enabled) expand(draws).cache()
    else {
      val d = stage(ctx, first)(draws)
      val s = stage(ctx, second)(expand(d))
      d.unpersist()
      s
    }

  private def sparkSpan[A](ctx: Ctx, name: String)(body: => A): A =
    ctx.tracer.span("spark", name)(body)

  private def close(v: Double, w: Double): Boolean =
    (v.isInfinite && w == v) || math.abs(v - w) < 1e-9

  private def same(a: Estimate, b: Estimate): Boolean = close(a.value, b.value) && close(a.moe, b.moe)

  /** Eq 4 hours of annotating a collected sample: distinct subjects and rows. */
  private def hours(rows: Seq[org.apache.spark.sql.Row]): Double = {
    val entities = rows.map(_.getAs[Long]("subject")).distinct.size
    val triples = rows.map(r => (r.getAs[Long]("subject"), r.getAs[String]("predicate"),
      r.getAs[String]("object"), r.getAs[Int]("label"))).distinct.size
    (45.0 * entities + 25.0 * triples) / 3600
  }

  /** Per-draw values in draw order, from a collected (draw_id, label) sample. */
  private def perDraw(rows: Seq[org.apache.spark.sql.Row])(f: Seq[Int] => Double): Seq[Double] =
    rows.groupBy(_.getAs[Long]("draw_id")).toSeq.sortBy(_._1).map { case (_, rs) =>
      f(rs.map(_.getAs[Int]("label")))
    }

  private def timed(ctx: Ctx, kind: String, draws: Double)(body: => Unit): Op = {
    val (_, dt) = ctx.measure(ctx.tracer.span("bench", s"op:$kind")(ctx.tagged(kind)(body)))
    Op(kind, dt, draws)
  }

  /** The four operations, each checked. Pass 0 uses the harness seeds. */
  def unit(ctx: Ctx, in: In, k: Int): Seq[Op] = {
    val base = ctx.shifted(24) + 10L * in.passes
    in.passes += 1
    val truth = in.kg.accuracy
    var sample: DataFrame = null
    var est: Estimate = null
    ctx.tracer.op = 4L * k

    val twcs = timed(ctx, "twcs", TwcsN) {
      // twcsSample(triples, n, m, seed) is these two steps
      sample = twoStep(ctx, "wcs_draws", "second_stage")(
        SparkSamplers.wcsClusterDraws(in.triples, TwcsN, base))(
        SparkSamplers.secondStage(_, in.triples, TwcsM, base + 1))
      est = sparkSpan(ctx, "cluster_estimate")(SparkEstimators.clusterEstimate(sample, z))
    }
    val twcsRows = sample.collect().toSeq
    sample.unpersist()
    val perDrawRows = twcsRows.groupBy(_.getAs[Long]("draw_id")).values.map(_.size)
    ctx.checks.op(
      (perDrawRows.size == TwcsN) -> s"TWCS: ${perDrawRows.size} draws, not $TwcsN",
      (perDrawRows.max <= TwcsM) -> s"TWCS: a draw holds ${perDrawRows.max} rows",
      same(est, Estimators.meanOfDraws(perDraw(twcsRows)(ls => ls.sum.toDouble / ls.size), z)) ->
        s"TWCS: estimate $est differs from meanOfDraws over the sample")
    in.hours += hours(twcsRows); in.covered += Summ.covers(est.value, est.moe, truth)

    ctx.tracer.op += 1
    val srs = timed(ctx, "srs", SrsN) {
      sample =
        if (ctx.tracer.enabled) stage(ctx, "srs_sample")(SparkSamplers.srsTriples(in.triples, SrsN, base + 1))
        else SparkSamplers.srsTriples(in.triples, SrsN, base + 1).cache()
      est = sparkSpan(ctx, "srs_estimate")(SparkEstimators.srsEstimate(sample, z))
    }
    val srsRows = sample.collect().toSeq
    sample.unpersist()
    ctx.checks.op(
      (srsRows.size == SrsN) -> s"SRS: ${srsRows.size} rows, not $SrsN",
      same(est, Estimators.srs(srsRows.count(_.getAs[Int]("label") == 1).toLong, srsRows.size.toLong, z)) ->
        s"SRS: estimate $est differs from Estimators.srs over the sample")
    in.hours += hours(srsRows); in.covered += Summ.covers(est.value, est.moe, truth)

    ctx.tracer.op += 1
    val rcs = timed(ctx, "rcs", RcsN) {
      sample = twoStep(ctx, "rcs_draws", "expand")(
        SparkSamplers.rcsClusterDraws(in.triples, RcsN, base + 2))(
        SparkSamplers.expandDraws(_, in.triples))
      est = sparkSpan(ctx, "rcs_estimate")(
        SparkEstimators.rcsEstimate(sample, in.kg.numClusters.toLong, in.kg.numTriples, z))
    }
    val rcsRows = sample.collect().toSeq
    sample.unpersist()
    val scale = in.kg.numClusters.toDouble / in.kg.numTriples
    ctx.checks.op(
      same(est, Estimators.meanOfDraws(perDraw(rcsRows)(ls => scale * ls.sum), z)) ->
        s"RCS: estimate $est differs from meanOfDraws over the sample")
    in.hours += hours(rcsRows); in.covered += Summ.covers(est.value, est.moe, truth)

    ctx.tracer.op += 1
    var kept = 0
    val res = timed(ctx, "reservoir", Capacity) {
      kept = sparkSpan(ctx, "reservoir_merge") {
        SparkSamplers.reservoirMerge(
          SparkSamplers.aResKeys(SparkSamplers.clusterSummary(in.triples), base + 3),
          SparkSamplers.aResKeys(SparkSamplers.clusterSummary(in.update), base + 6),
          Capacity).collect().length
      }
    }
    ctx.checks.op((kept == Capacity) -> s"reservoir: $kept rows, not $Capacity")

    Seq(twcs, srs, rcs, res)
  }

  /** One pass on a 1%-scale KG: Spark plans and compiles the same queries. */
  def warmUp(ctx: Ctx, in: In): Unit = {
    val small = build(ctx, "MOVIE-0.01", 0.01)
    unit(ctx, small, 0)
    release(small)
  }

  /** Two passes, each with its own samples: sample size moves the
    * operations' time and the Eq 4 hours.
    */
  override def minUnits: Int = 2

  /** Over every timed pass, each drawn with its own seeds. */
  def figures(ctx: Ctx, in: In): (Double, Double) =
    (Summ.mean(in.hours.toSeq), in.covered.count(identity).toDouble / in.covered.size)

  /** The harness-seed pass, so every traced-run pass draws the same samples. */
  def tracedPass(ctx: Ctx, in: In): Seq[Op] = { in.passes = 0; unit(ctx, in, 0) }

  def windowDetails(ctx: Ctx, ops: Seq[Op]): Unit =
    ops.groupBy(_.kind).toSeq.sortBy(_._1).foreach { case (kind, os) =>
      ctx.detail(s"df_${kind}_s", Summ.median(os.map(_.nanos / 1e9)), "s")
      ctx.detail(s"df_${kind}_s.count", os.size.toDouble, "count")
    }

  def traceDetails(ctx: Ctx, in: In, ops: Seq[Op], spans: Seq[Span]): Unit = {
    def spanS(name: String) = spans.filter(s => s.name == name && s.op >= 0).map(_.nanos).sum / 1e9
    Seq("wcs_draws", "second_stage", "cluster_estimate", "srs_sample", "srs_estimate",
        "rcs_draws", "expand", "rcs_estimate", "reservoir_merge")
      .foreach(n => ctx.detail(s"df.${n}_s", spanS(n), "s"))
    ctx.stats.foreach { st =>
      Seq("twcs", "srs", "rcs", "reservoir").foreach { kind =>
        val b = st.bucket(kind)
        ctx.detail(s"df.$kind.shuffle_mb", b.shuffleMb, "MB")
        ctx.detail(s"df.$kind.max_task_share", b.maxTaskShare, "share")
      }
    }
  }
}
