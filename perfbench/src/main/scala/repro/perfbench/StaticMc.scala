package repro.perfbench

import repro.core._
import repro.exp.Experiments
import repro.kg.KGData

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** `static-mc`: the Monte-Carlo evaluations of the 12 Table 5 cells and the 7
  * extra Table 7 cells, with the harnesses' trial counts and seeds. Spark
  * only builds the summaries during set-up; the Fig 2 loop does the rest.
  *
  * A timed unit is 40 rounds; round r evaluates every cell once, replaying
  * trial `r mod trials` with the seed `StaticEval.monteCarlo` gave it, so
  * any window holds the same cell mix.
  */
object StaticMc extends Workload {
  val name = "static-mc"

  final class Cell(val kg: String, val design: String, val trials: Int, val seed: Long,
                   val gold: Double, val run: Random => EvalResult) {
    val id = s"$kg.$design"
    /** Per-trial seeds, drawn from the master RNG as `monteCarlo` draws them. */
    val trialSeeds: Array[Long] = { val m = new Random(seed); Array.fill(trials)(m.nextLong()) }
    val results = new Array[EvalResult](trials)
    var stats: StaticEval.McStats = _
  }

  final case class In(cells: Seq[Cell])

  private val MovieCap = 5.0 * 3600

  def setup(ctx: Ctx): In = {
    val spark = ctx.spark
    val nell  = ctx.summarise("NELL", KGData.nellLike(spark))._1
    val yago  = ctx.summarise("YAGO", KGData.yagoLike(spark))._1
    val movie = ctx.summarise("MOVIE", KGData.movieLike(spark))._1
    val syn   = ctx.summarise("MOVIE-SYN", KGData.movieSyn(spark))._1
    val t = ctx.tracer
    val strata = t.span("core", "strata") {
      Map("NELL.size" -> Stratification.sizeStrata(nell, 2),
          "NELL.oracle" -> Stratification.oracleStrata(nell, 2),
          "MOVIE-SYN.size" -> Stratification.sizeStrata(syn, 4),
          "MOVIE-SYN.oracle" -> Stratification.oracleStrata(syn, 4),
          "MOVIE.size" -> Stratification.sizeStrata(movie, 4))
    }
    val m = t.span("core", "optimal_m") {
      Map("MOVIE" -> Experiments.optimalM(movie), "NELL" -> Experiments.optimalM(nell),
          "YAGO" -> Experiments.optimalM(yago), "MOVIE-SYN" -> Experiments.optimalM(syn))
    }
    val cfg = Experiments.DefaultCfg
    val capped = cfg.copy(maxCostSeconds = MovieCap)
    val kgs = Map("NELL" -> nell, "YAGO" -> yago, "MOVIE" -> movie, "MOVIE-SYN" -> syn)

    def cell(kg: String, design: String, trials: Int, harnessSeed: Long)
            (run: Random => EvalResult): Cell =
      new Cell(kg, design, trials, ctx.shifted(harnessSeed), kgs(kg).accuracy, run)

    // Table 5: seed 2001, 100 MOVIE trials and 200 on the small KGs.
    val t5 = 2001L
    val table5 = Seq(
      cell("MOVIE", "SRS", 100, t5 + 1)(StaticEval.srs(movie, cfg, _)),
      cell("MOVIE", "RCS", 100, t5 + 2)(StaticEval.rcs(movie, capped, _)),
      cell("MOVIE", "WCS", 100, t5 + 3)(StaticEval.wcs(movie, capped, _)),
      cell("MOVIE", "TWCS", 100, t5 + 4)(StaticEval.twcs(movie, m("MOVIE"), cfg, _)),
      cell("NELL", "SRS", 200, t5 + 5)(StaticEval.srs(nell, cfg, _)),
      cell("NELL", "RCS", 200, t5 + 6)(StaticEval.rcs(nell, cfg, _)),
      cell("NELL", "WCS", 200, t5 + 7)(StaticEval.wcs(nell, cfg, _)),
      cell("NELL", "TWCS", 200, t5 + 8)(StaticEval.twcs(nell, m("NELL"), cfg, _)),
      cell("YAGO", "SRS", 200, t5 + 9)(StaticEval.srs(yago, cfg, _)),
      cell("YAGO", "RCS", 200, t5 + 10)(StaticEval.rcs(yago, cfg, _)),
      cell("YAGO", "WCS", 200, t5 + 11)(StaticEval.wcs(yago, cfg, _)),
      cell("YAGO", "TWCS", 200, t5 + 12)(StaticEval.twcs(yago, m("YAGO"), cfg, _)))
    // Table 7: seed 4001 for NELL, +100 for MOVIE-SYN, +200 for MOVIE.
    def strat(key: String, kg: String) =
      StaticEval.twcsStratified(strata(key), m(kg), cfg, _: Random)
    val table7 = Seq(
      cell("NELL", "TWCS-size", 200, 4001 + 3)(strat("NELL.size", "NELL")),
      cell("NELL", "TWCS-oracle", 200, 4001 + 4)(strat("NELL.oracle", "NELL")),
      cell("MOVIE-SYN", "SRS", 100, 4101 + 1)(StaticEval.srs(syn, cfg, _)),
      cell("MOVIE-SYN", "TWCS", 100, 4101 + 2)(StaticEval.twcs(syn, m("MOVIE-SYN"), cfg, _)),
      cell("MOVIE-SYN", "TWCS-size", 100, 4101 + 3)(strat("MOVIE-SYN.size", "MOVIE-SYN")),
      cell("MOVIE-SYN", "TWCS-oracle", 100, 4101 + 4)(strat("MOVIE-SYN.oracle", "MOVIE-SYN")),
      cell("MOVIE", "TWCS-size", 100, 4201 + 3)(strat("MOVIE.size", "MOVIE")))
    In(table5 ++ table7)
  }

  /** Eq 4 with the paper's constants, independent of `CostModel`. */
  def eq4Holds(costSeconds: Double, entities: Long, triples: Long): Boolean =
    math.abs(costSeconds - (45.0 * entities + 25.0 * triples)) < 1e-6

  private def intervals(c: Cell): Seq[(Double, Double, Double)] =
    c.results.toSeq.map(r => (r.estimate, r.moe, c.gold))

  private def draws(c: Cell, r: EvalResult): Double =
    if (c.design == "SRS") r.triples.toDouble else r.clusterDraws.toDouble

  /** The Monte-Carlo runs themselves: they fix the figures and the results
    * every replay must reproduce.
    */
  def warmUp(ctx: Ctx, in: In): Unit = {
    in.cells.foreach { c =>
      var t = 0
      c.stats = StaticEval.monteCarlo(c.trials, c.seed) { rng =>
        val r = c.run(rng)
        ctx.checks.op(eq4Holds(r.costSeconds, r.entities, r.triples) -> s"${c.id} trial $t: cost is not Eq 4")
        c.results(t) = r
        t += 1
        r
      }
      if (c.stats.convergedFrac > 0.9)
        ctx.checks.aggregate(math.abs(c.stats.meanEstimate - c.gold) < 0.03,
          f"${c.id}: mean estimate ${c.stats.meanEstimate}%.4f vs gold ${c.gold}%.4f")
    }
  }

  def figures(ctx: Ctx, in: In): (Double, Double) =
    (Summ.mean(in.cells.map(_.stats.meanCostHours)), Summ.coverage(in.cells.flatMap(intervals)))

  val Rounds = 40

  def unit(ctx: Ctx, in: In, k: Int): Seq[Op] =
    (k * Rounds until (k + 1) * Rounds).flatMap(round(ctx, in, _))

  private def round(ctx: Ctx, in: In, i: Int): Seq[Op] = in.cells.map { c =>
    val t = i % c.trials
    val rng = new Random(c.trialSeeds(t))
    ctx.tracer.op = i.toLong * in.cells.size + in.cells.indexOf(c)
    val (r, dt) = ctx.measure(ctx.tracer.span("core", s"eval:${c.id}")(c.run(rng)))
    ctx.checks.op(
      eq4Holds(r.costSeconds, r.entities, r.triples) -> s"${c.id} trial $t: cost is not Eq 4",
      (r == c.results(t)) -> s"${c.id} trial $t: replay differs from the Monte-Carlo run")
    Op(c.id, dt, draws(c, r))
  }

  /** Enough rounds for every trial of every cell. */
  def tracedPass(ctx: Ctx, in: In): Seq[Op] = (0 until 200).flatMap(round(ctx, in, _))

  def windowDetails(ctx: Ctx, ops: Seq[Op]): Unit = {
    ctx.detail("evals_per_s", ops.size / (ops.map(_.nanos).sum / 1e9), "1/s")
    Workload.timing(ctx, "eval_ms", ops.map(_.ms))
  }

  def traceDetails(ctx: Ctx, in: In, ops: Seq[Op], spans: Seq[Span]): Unit = {
    val byCell = ops.groupBy(_.kind)
    in.cells.foreach { c =>
      val os = byCell(c.id)
      val p = s"mc.${c.id}"
      ctx.detail(s"$p.ms_per_eval", Summ.mean(os.map(_.ms)), "ms")
      ctx.detail(s"$p.draws_per_eval", Summ.mean(os.map(_.draws)), "count")
      ctx.detail(s"$p.hours", c.stats.meanCostHours, "h")
      ctx.detail(s"$p.coverage", Summ.coverage(intervals(c)), "share")
      if (c.kg == "MOVIE" && (c.design == "RCS" || c.design == "WCS"))
        ctx.detail(s"$p.converged", c.stats.convergedFrac, "share")
    }
    def spanS(name: String) = spans.filter(_.name == name).map(_.nanos).sum / 1e9
    ctx.detail("strata.s", spanS("strata"), "s")
    ctx.detail("optimal_m.s", spanS("optimal_m"), "s")
  }
}
