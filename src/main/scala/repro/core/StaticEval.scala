package repro.core

import scala.util.Random

/** Configuration of the iterative evaluation framework (Fig 2): the user's
  * task. The batch sizes, sample floors and cost model are the paper's fixed
  * constants.
  *
  * @param eps             user-required margin of error (default 5%)
  * @param alpha           1 - confidence level (default 5% -> 95% CI)
  * @param maxCostSeconds  annotation budget; exceeded => stop unconverged
  *                        (the paper caps RCS/WCS on MOVIE at 5 hours)
  */
final case class EvalConfig(eps: Double = 0.05,
                            alpha: Double = 0.05,
                            maxCostSeconds: Double = Double.PositiveInfinity) {
  require(eps > 0 && eps < 1 && alpha > 0 && alpha < 1)
  def z: Double = Stats.zAlpha(alpha)
  /** Triples per SRS iteration; also the CLT minimum n. */
  val srsBatch: Int = 30
  /** First-stage cluster draws per iteration. */
  val clusterBatch: Int = 5
  /** Fewest first-stage draws of a static cluster-design run: its first batch. */
  val minClusterDraws: Int = clusterBatch
  /** Minimum annotated triples before the MoE stop rule for cluster designs
    * (the CLT n>30 rule of thumb — reproduces the paper's ~30-triple YAGO
    * samples and its ~24-draw TWCS(m=10) run on MOVIE).
    */
  val minTriples: Long = 30
  /** Eq (4) with the constants fitted in §7.1.3. */
  val cost: CostModel = CostModel.default
}

/** Outcome of one evaluation run. Costs follow Eq (4) on distinct sets. */
final case class EvalResult(estimate: Double,
                            moe: Double,
                            clusterDraws: Int,
                            entities: Int,
                            triples: Long,
                            costSeconds: Double,
                            converged: Boolean) {
  def costHours: Double = costSeconds / 3600.0
}

/** Static Evaluation (§4): iteratively sample, annotate, estimate and stop as
  * soon as MoE <= eps — one method per sampling design of §5.
  */
object StaticEval {

  /** SRS: batches of `srsBatch` triples without replacement, Eq (5) estimator. */
  def srs(kg: KGSummary, cfg: EvalConfig, rng: Random): EvalResult = {
    val z       = cfg.z
    val stream  = new LocalSamplers.SrsStream(kg, rng)
    val tracker = new CostTracker(cfg.cost)
    var n       = 0L
    var correct = 0L
    var est     = Estimate(0.0, Double.PositiveInfinity)
    var stop    = false
    while (!stop) {
      var i = 0
      while (i < cfg.srsBatch && n < kg.numTriples) {
        val (idx, ok) = stream.next()
        val c = kg.clusters(idx)
        tracker.record(c.id, c.size, 1)
        n += 1
        if (ok) correct += 1
        i += 1
      }
      est = Estimators.srs(correct, n, z)
      stop = (n >= cfg.srsBatch && est.moe <= cfg.eps) ||
             n >= kg.numTriples ||
             tracker.seconds >= cfg.maxCostSeconds
    }
    EvalResult(est.value, est.moe, 0, tracker.entities, tracker.triples,
      tracker.seconds, est.moe <= cfg.eps)
  }

  /** Static evaluation of one cluster design: its single stratum runs the
    * Fig 2 loop from `clusterBatch` draws, under the triple floor and budget.
    * The stratum keeps its values.
    */
  def run(s: EvalLoop.Stratum, cfg: EvalConfig): EvalResult =
    EvalLoop.run(Nil, Seq(s), cfg.clusterBatch, cfg.minTriples, cfg, new CostTracker(cfg.cost))

  /** RCS (§5.2.1): uniform cluster draws, v_k = (N/M)·τ_{I_k}. */
  def rcs(kg: KGSummary, cfg: EvalConfig, rng: Random): EvalResult = {
    val scale = kg.numClusters.toDouble / kg.numTriples
    run(new EvalLoop.Stratum(kg.numTriples, () => {
      val d = LocalSamplers.rcsDraw(kg, rng)
      (d, scale * d.hits)
    }), cfg)
  }

  /** WCS (§5.2.2): size-weighted draws, v_k = μ_{I_k} (Hansen–Hurwitz). */
  def wcs(kg: KGSummary, cfg: EvalConfig, rng: Random): EvalResult =
    run(new EvalLoop.Stratum(kg.numTriples, () => {
      val d = LocalSamplers.wcsDraw(kg, rng)
      (d, d.cluster.accuracy)
    }), cfg)

  /** TWCS (§5.2.3): size-weighted draws + second-stage SRS of <= m triples. */
  def twcs(kg: SizeWeighted, m: Int, cfg: EvalConfig, rng: Random): EvalResult =
    run(twcsStratum(kg, m, rng), cfg)

  /** A TWCS stratum over `kg`: v_k = μ̂_{I_k}, the within-draw sample mean. */
  def twcsStratum(kg: SizeWeighted, m: Int, rng: Random): EvalLoop.Stratum =
    new EvalLoop.Stratum(kg.numTriples, () => {
      val d = LocalSamplers.twcsDraw(kg, m, rng)
      (d, d.sampleMean)
    })

  /** TWCS with stratification (§5.3): per-stratum TWCS estimators combined by
    * Eq (13), each further draw going to the stratum with the largest marginal
    * variance reduction. Every stratum first gets enough draws for a usable
    * variance estimate — stopping off 2 agreeing draws would bias the
    * estimator.
    */
  def twcsStratified(strata: Seq[KGSummary], m: Int,
                     cfg: EvalConfig, rng: Random): EvalResult = {
    require(strata.nonEmpty)
    val perStratum = math.max(3, math.ceil(20.0 / strata.size).toInt)
    EvalLoop.run(Nil, strata.map(twcsStratum(_, m, rng)), perStratum, cfg.minTriples, cfg,
      new CostTracker(cfg.cost))
  }

  // ------------------------------------------------------------------
  // Monte-Carlo replication (the paper averages 1000 random runs)
  // ------------------------------------------------------------------

  /** Aggregate statistics over repeated evaluation runs. */
  final case class McStats(trials: Int,
                           meanEstimate: Double, sdEstimate: Double,
                           estP2p5: Double, estP97p5: Double,
                           meanCostHours: Double, sdCostHours: Double,
                           meanTriples: Double, sdTriples: Double,
                           meanEntities: Double, meanClusterDraws: Double,
                           convergedFrac: Double)

  /** Run `trials` independent evaluations. Per-trial seeds come from a master
    * RNG — sequential raw seeds (seed+t) correlate java.util.Random's first
    * outputs enough to visibly bias Monte-Carlo means.
    */
  def monteCarlo(trials: Int, seed: Long)(run: Random => EvalResult): McStats = {
    require(trials >= 1)
    val master  = new Random(seed)
    val results = (0 until trials).map(_ => run(new Random(master.nextLong())))
    val ests  = results.map(_.estimate)
    val costs = results.map(_.costHours)
    val trs   = results.map(_.triples.toDouble)
    val sortedEst = ests.sorted
    def pct(p: Double): Double = sortedEst(math.min(ests.size - 1, (p * ests.size).toInt))
    McStats(
      trials,
      Stats.mean(ests), math.sqrt(Stats.sampleVariance(ests)),
      pct(0.025), pct(0.975),
      Stats.mean(costs), math.sqrt(Stats.sampleVariance(costs)),
      Stats.mean(trs), math.sqrt(Stats.sampleVariance(trs)),
      Stats.mean(results.map(_.entities.toDouble)),
      Stats.mean(results.map(_.clusterDraws.toDouble)),
      results.count(_.converged).toDouble / trials)
  }
}
