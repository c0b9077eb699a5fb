package repro.perfbench

import repro.core._
import repro.evolve.IncrementalEval._
import repro.evolve.SnapshotResult
import repro.exp.Experiments
import repro.kg.{KGData, LabelModels, LocalKGGen}

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** `evolving`: Fig 9's setting. A 50%-scale MOVIE-like base (REM 0.1, m=5,
  * ε=5%) grows by 30 update batches of 10% of the base at 90% accuracy;
  * RS, SS and Baseline see the same batches, each evaluator seeded alike.
  *
  * A timed unit is one whole stream with all three evaluators, so every
  * window holds the same spread of KG sizes. The window runs at least the
  * 8 checked streams; their results fix the figures, and later replays of a
  * stream must reproduce them. The warm-up is one stream of its own.
  */
object Evolving extends Workload {
  val name = "evolving"

  val Batches = 30
  val M = 5
  /** Checked streams. The unbiasedness check averages RS and SS over them:
    * one stream's mean error has a standard deviation near 0.015.
    */
  val Streams = 8
  val Methods = Seq("RS", "SS", "Baseline")

  final class In(val base: KGSummary) {
    val baseCorrect: Long = base.clusters.iterator.map(_.tau.toLong).sum
    /** Checked-pass results per (stream, method): one per batch. */
    val results = mutable.Map.empty[(Int, String), IndexedSeq[SnapshotResult]]
    val truths  = mutable.Map.empty[Int, IndexedSeq[Double]]
    val genMs   = ArrayBuffer.empty[Double]
  }

  private val cfg = Experiments.DefaultCfg

  private def streamSeed(ctx: Ctx, k: Int): Long = ctx.shifted(6001L + 97L * k)

  private final class Evaluators(base: KGSummary, seed: Long, t: Tracer) {
    val rs: ReservoirEvaluator = t.span("evolve", "init:RS") {
      val rng = new Random(seed)
      val init = t.span("core", "rs.capacity")(StaticEval.twcs(base, M, cfg, rng))
      val ev = new ReservoirEvaluator(math.max(cfg.minClusterDraws, init.clusterDraws), M, cfg, rng)
      ev.initialize(base)
      ev
    }
    val ss: StratifiedEvaluator = t.span("evolve", "init:SS") {
      val ev = new StratifiedEvaluator(M, cfg, new Random(seed)); ev.initialize(base); ev
    }
    val bl: BaselineEvaluator = t.span("evolve", "init:Baseline") {
      val ev = new BaselineEvaluator(M, cfg, new Random(seed)); ev.initialize(base); ev
    }
  }

  def setup(ctx: Ctx): In = {
    val in = new In(ctx.summarise("MOVIE-0.5", KGData.movieLike(ctx.spark, scale = 0.5))._1)
    new Evaluators(in.base, streamSeed(ctx, 0) + 1, ctx.tracer)
    in
  }

  /** Runs stream `k`, checking every update. The first run of a checked
    * stream (k ≥ 0) records what later replays must reproduce.
    */
  private def stream(ctx: Ctx, in: In, k: Int): Seq[Op] = {
    val record = k >= 0 && !in.truths.contains(k)
    val seed = streamSeed(ctx, k)
    val t = ctx.tracer
    val target = (in.base.numTriples * 0.1).toLong
    val gen = new Random(seed)
    val batches = (0 until Batches).map { b =>
      val t0 = System.nanoTime()
      val batch = t.span("kg", "gen.batch")(
        LocalKGGen.movieClustersByTriples(target, LabelModels.REM(0.1), gen, 10000000L + b * 1000000L))
      in.genMs += (System.nanoTime() - t0) / 1e6
      batch
    }
    var triples  = in.base.numTriples
    var correct  = in.baseCorrect
    var clusters = in.base.numClusters.toLong
    val truths = batches.map { batch =>
      triples += batch.iterator.map(_.size.toLong).sum
      correct += batch.iterator.map(_.tau.toLong).sum
      correct.toDouble / triples
    }
    val ev = new Evaluators(in.base, seed + 1, t)
    val ops = ArrayBuffer.empty[Op]
    val got = mutable.Map.empty[String, ArrayBuffer[SnapshotResult]]

    def update(method: String, b: Int, batch: Array[Cluster])(apply: => SnapshotResult,
                                                             extra: => Map[String, Double]): Unit = {
      t.op = (k.toLong * Batches + b) * Methods.size + Methods.indexOf(method)
      val (r, dt) = ctx.measure(t.span("evolve", s"update:$method")(apply))
      val expected = in.results.get((k, method)).map(_(b))
      ctx.checks.op(
        StaticMc.eq4Holds(r.costSeconds, r.newEntities, r.newTriples) ->
          s"$method stream $k batch $b: cost is not Eq 4",
        expected.forall(_ == r) -> s"$method stream $k batch $b: replay differs")
      got.getOrElseUpdate(method, ArrayBuffer.empty) += r
      ops += Op(method, dt, r.newEntities.toDouble,
        extra ++ Map("kg_clusters" -> clusters.toDouble, "offered" -> batch.length.toDouble))
    }

    batches.zipWithIndex.foreach { case (batch, b) =>
      clusters += batch.length
      val before = ev.rs.totalInsertions
      update("RS", b, batch)(ev.rs.applyUpdate(batch),
        Map("admitted" -> (ev.rs.totalInsertions - before).toDouble))
      update("SS", b, batch)(ev.ss.applyUpdate(batch), Map.empty)
      update("Baseline", b, batch)(ev.bl.applyUpdate(batch), Map.empty)
    }
    if (record) {
      in.truths(k) = truths
      got.foreach { case (method, rs) => in.results((k, method)) = rs.toIndexedSeq }
    }
    ops.toSeq
  }

  def warmUp(ctx: Ctx, in: In): Unit = stream(ctx, in, -1)

  override def checkedUnits: Int = Streams
  override def minUnits: Int = Streams

  def figures(ctx: Ctx, in: In): (Double, Double) = {
    // Fig 9-1: both incremental estimators stay unbiased once the stream is under way.
    Seq("RS", "SS").foreach { method =>
      val errs = (0 until Streams).flatMap { k =>
        (5 until Batches).map(b => in.results((k, method))(b).estimate - in.truths(k)(b))
      }
      val bias = Summ.mean(errs)
      ctx.checks.aggregate(math.abs(bias) < 0.025,
        f"$method: mean estimate misses the truth by $bias%.4f after batch 5")
    }
    val hours = Methods.map(m => Summ.mean(snapshots(in, m).map(_._1.costHours)))
    (Summ.mean(hours), Summ.coverage(Methods.flatMap(intervals(in, _))))
  }

  /** (result, truth) of every checked-pass snapshot of a method. */
  private def snapshots(in: In, method: String): Seq[(SnapshotResult, Double)] =
    in.results.toSeq.filter(_._1._2 == method).sortBy(_._1._1).flatMap { case ((k, _), rs) =>
      rs.zip(in.truths(k))
    }

  private def intervals(in: In, method: String): Seq[(Double, Double, Double)] =
    snapshots(in, method).map { case (r, truth) => (r.estimate, r.moe, truth) }

  def unit(ctx: Ctx, in: In, k: Int): Seq[Op] = stream(ctx, in, k % Streams)

  def tracedPass(ctx: Ctx, in: In): Seq[Op] = unit(ctx, in, 0)

  def windowDetails(ctx: Ctx, ops: Seq[Op]): Unit = {
    val by = ops.groupBy(_.kind)
    Workload.timing(ctx, "rs_update_ms", by("RS").map(_.ms))
    Workload.timing(ctx, "ss_update_ms", by("SS").map(_.ms))
    Workload.timing(ctx, "baseline_update_ms", by("Baseline").map(_.ms), withTail = false)
  }

  def traceDetails(ctx: Ctx, in: In, ops: Seq[Op], spans: Seq[Span]): Unit = {
    val setupSpans = spans.filter(_.op < 0)
    Seq("RS" -> "rs", "SS" -> "ss", "Baseline" -> "baseline").foreach { case (m, p) =>
      val init = setupSpans.find(_.name == s"init:$m").get
      ctx.detail(s"$p.init_ms", init.nanos / 1e6, "ms")
      val snaps = snapshots(in, m)
      ctx.detail(s"$p.hours", Summ.mean(snaps.map(_._1.costHours)), "h")
      ctx.detail(s"$p.coverage", Summ.coverage(intervals(in, m)), "share")
    }
    val by = ops.groupBy(_.kind)
    val rs = by("RS")
    val admitted = rs.map(_.extra("admitted")).sum
    ctx.detail("rs.admit_ratio", admitted / rs.map(_.extra("offered")).sum, "share")
    ctx.detail("rs.topup_draws", Summ.mean(rs.map(o => o.draws - o.extra("admitted"))), "count")
    def usPerCluster(os: Seq[Op]) = Summ.mean(os.map(o => o.nanos / 1e3 / o.extra("kg_clusters")))
    ctx.detail("rs.us_per_kg_cluster", usPerCluster(rs), "us")
    ctx.detail("baseline.us_per_kg_cluster", usPerCluster(by("Baseline")), "us")
    ctx.detail("ss.draws_per_update", Summ.mean(by("SS").map(_.draws)), "count")
    ctx.detail("baseline.draws_per_update", Summ.mean(by("Baseline").map(_.draws)), "count")
    ctx.detail("gen.batch_ms", Summ.mean(in.genMs.toSeq), "ms")
  }
}
