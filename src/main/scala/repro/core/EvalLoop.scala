package repro.core

import scala.collection.mutable.ArrayBuffer

/** The iterative evaluation framework (Fig 2), written once: draw a batch,
  * charge its annotation to a [[CostTracker]], re-estimate μ̂ and its MoE by
  * Eq (13), and stop once MoE <= ε, the budget is spent, or the closed strata
  * alone keep the MoE above ε.
  *
  * Every cluster design is a caller. RCS, WCS and TWCS run one open stratum;
  * stratified TWCS runs H; SS runs the newest update's stratum beside its
  * closed earlier ones; the RS top-up runs one stratum preloaded with the
  * reservoir. With one stratum W = N/N = 1 exactly, so Eq (13) gives the
  * mean-of-draws estimate and MoE bit for bit.
  */
object EvalLoop {

  /** One stratum: its triple count N_h, one unit's draw (a first-stage
    * cluster draw and its per-draw value v_k), and the values drawn so far.
    */
  final class Stratum(val triples: Long,
                      val draw: () => (LocalSamplers.ClusterDraw, Double),
                      val values: ArrayBuffer[Double] = ArrayBuffer.empty[Double])

  // Allocation variance floor: keeps exploring strata whose few draws happened to agree.
  private val varFloor = 1e-4

  /** Run the loop to its stop.
    *
    * @param closed     strata that count in the estimate but are never drawn
    * @param open       strata to draw from
    * @param initial    draws per open stratum before the first stop check
    * @param minTriples annotated triples the tracker must hold before the MoE
    *                   rule may stop the run (the CLT rule of thumb)
    * @param tracker    cost ledger of the run; charges it already holds count
    *                   towards `minTriples` and `cfg.maxCostSeconds`
    * @return the estimate over all strata; `clusterDraws` counts this run's
    *         draws, cost and counts are the tracker's
    */
  def run(closed: Seq[Stratum], open: Seq[Stratum], initial: Int, minTriples: Long,
          cfg: EvalConfig, tracker: CostTracker): EvalResult = {
    require(open.nonEmpty, "no open stratum")
    val z      = cfg.z
    val strata = (closed ++ open).toIndexedSeq
    val total  = strata.map(_.triples).sum.toDouble
    val ws     = strata.map(_.triples / total)
    val openH  = closed.size until strata.size
    var draws  = 0

    def drawIn(h: Int): Unit = {
      val (d, v) = strata(h).draw()
      tracker.record(d.cluster.id, d.cluster.size, d.annotated)
      strata(h).values += v
      draws += 1
    }

    // The open stratum with the largest marginal variance reduction
    // W_h²·s_h²·(1/n_h - 1/(n_h+1)).
    def next(): Int =
      if (openH.size == 1) openH.head
      else openH.maxBy { h =>
        val nH = strata(h).values.size.toDouble
        val s2 = math.max(Stats.sampleVariance(strata(h).values), varFloor)
        ws(h) * ws(h) * s2 * (1.0 / nH - 1.0 / (nH + 1.0))
      }

    def estimate(): Estimate =
      Estimators.stratified(strata.indices.map { h =>
        val vs = strata(h).values
        Estimators.Stratum(ws(h), Stats.mean(vs), Estimators.varOfMean(vs))
      }, z)

    // The closed strata's share of Eq 13's z²·Σ W_h²·Var̂_h never changes in a
    // run; above ε², no number of open draws can bring the MoE to ε.
    val unreachable = z * z * closed.indices.map { h =>
      ws(h) * ws(h) * Estimators.varOfMean(strata(h).values)
    }.sum > cfg.eps * cfg.eps

    def stop(est: Estimate): Boolean =
      (tracker.triples >= minTriples && est.moe <= cfg.eps) ||
      tracker.seconds >= cfg.maxCostSeconds || unreachable

    openH.foreach(h => (0 until initial).foreach(_ => drawIn(h)))
    var est = estimate()
    while (!stop(est)) {
      var i = 0
      while (i < cfg.clusterBatch) { drawIn(next()); i += 1 }
      est = estimate()
    }
    EvalResult(est.value, est.moe, draws, tracker.entities, tracker.triples,
      tracker.seconds, est.moe <= cfg.eps)
  }
}
