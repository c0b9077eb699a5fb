package repro.evolve

import org.scalatest.funsuite.AnyFunSuite

import repro.core._
import repro.evolve.IncrementalEval._
import repro.kg.{LabelModels, LocalKGGen}

import scala.util.Random

class IncrementalSpec extends AnyFunSuite {
  private val cfg = EvalConfig()
  private val m   = 5

  /** MOVIE-like base at 90% accuracy, small enough for many trials. */
  private def makeBase(seed: Long): KGSummary =
    KGSummary(LocalKGGen.movieClusters(20000, LabelModels.REM(0.1), new Random(seed), 0))

  private def makeBatch(base: KGSummary, frac: Double, acc: Double,
                        rng: Random, batchNo: Int): Array[Cluster] =
    LocalKGGen.movieClustersByTriples((base.numTriples * frac).toLong,
      LabelModels.REM(1 - acc), rng, 1000000L + batchNo * 100000L)

  private def truthAfter(base: KGSummary, batches: Seq[Array[Cluster]]): Double = {
    val all = base.clusters ++ batches.flatten
    all.map(_.tau.toLong).sum.toDouble / all.map(_.size.toLong).sum
  }

  // ---- Baseline ----

  test("Baseline re-evaluates the merged KG and converges") {
    val base = makeBase(1)
    val rng = new Random(2)
    val ev = new BaselineEvaluator(m, cfg, rng)
    ev.initialize(base)
    val batch = makeBatch(base, 0.3, 0.9, rng, 0)
    val r = ev.applyUpdate(batch)
    assert(r.converged && r.moe <= cfg.eps)
    assert(math.abs(r.estimate - truthAfter(base, Seq(batch))) < 0.06)
  }

  // ---- RS ----

  test("RS estimate stays near the truth after an update") {
    val base = makeBase(3)
    val rng = new Random(4)
    val ev = new ReservoirEvaluator(capacity = 30, m, cfg, rng)
    ev.initialize(base)
    val batch = makeBatch(base, 0.3, 0.9, rng, 0)
    val r = ev.applyUpdate(batch)
    assert(r.converged)
    assert(math.abs(r.estimate - truthAfter(base, Seq(batch))) < 0.08)
  }

  test("RS is unbiased over repeated trials") {
    val base = makeBase(5)
    val ests = (0 until 60).map { t =>
      val rng = new Random(100 + t)
      val ev = new ReservoirEvaluator(30, m, cfg, rng)
      ev.initialize(base)
      ev.applyUpdate(makeBatch(base, 0.3, 0.9, rng, 0)).estimate
    }
    val batchTruth = 0.9 // both strata sit at 90%
    assert(math.abs(Stats.mean(ests) - batchTruth) < 0.015)
  }

  test("RS pays only for clusters that enter the reservoir (plus top-ups)") {
    val base = makeBase(6)
    val rng = new Random(7)
    val ev = new ReservoirEvaluator(30, m, cfg, rng)
    ev.initialize(base)
    val batch = makeBatch(base, 0.2, 0.9, rng, 0)
    val r = ev.applyUpdate(batch)
    // far fewer new annotations than the batch size
    assert(r.newEntities < batch.length / 10)
    assert(r.costSeconds == cfg.cost.seconds(r.newEntities.toLong, r.newTriples))
  }

  test("RS insertion count stays near the Prop 3 bound across a batch") {
    val base = makeBase(8)
    val rng = new Random(9)
    val ev = new ReservoirEvaluator(30, m, cfg, rng)
    ev.initialize(base)
    val before = ev.totalInsertions
    val batch = makeBatch(base, 0.5, 0.9, rng, 0)
    ev.applyUpdate(batch)
    val inserted = ev.totalInsertions - before
    // |R| log(N_j/N_i) with N_j/N_i ≈ 1.5 -> ≈ 12; allow generous slack
    assert(inserted < 60, s"inserted $inserted")
  }

  test("RS top-ups stop at the annotation budget, unconverged") {
    // ε = 1% needs thousands of draws; a 30-entry reservoir alone misses it
    val tight  = EvalConfig(eps = 0.01, maxCostSeconds = 7200.0)
    val base   = makeBase(19)
    val rng    = new Random(20)
    val ev     = new ReservoirEvaluator(30, m, tight, rng)
    ev.initialize(base)
    val r = ev.applyUpdate(makeBatch(base, 0.1, 0.9, rng, 0))
    val perDraw = tight.cost.c1 + m * tight.cost.c2
    assert(!r.converged && r.moe > tight.eps)
    assert(r.costSeconds >= tight.maxCostSeconds)
    assert(r.costSeconds <= tight.maxCostSeconds + tight.clusterBatch * perDraw,
      s"cost ${r.costSeconds}")
  }

  // ---- exact snapshots over a seeded stream ----

  /** The spec's small base and ten 10% batches at 90% accuracy. */
  private def seededStream(): (KGSummary, IndexedSeq[Array[Cluster]]) = {
    val base = makeBase(30)
    val gen  = new Random(31)
    (base, (0 until 10).map(b => makeBatch(base, 0.1, 0.9, gen, b)))
  }

  test("Baseline snapshots equal static TWCS on each merged KG") {
    val (base, batches) = seededStream()
    val ev = new BaselineEvaluator(m, cfg, new Random(33))
    ev.initialize(base)
    val got = batches.map(ev.applyUpdate)
    val ref = new Random(33)
    val want = batches.indices.map { i =>
      val r = StaticEval.twcs(KGSummary(base.clusters ++ batches.take(i + 1).flatten), m, cfg, ref)
      SnapshotResult(r.estimate, r.moe, r.entities, r.triples, r.costSeconds, r.converged)
    }
    assert(got == want)
  }

  test("RS snapshots over a seeded stream are pinned") {
    val (base, batches) = seededStream()
    val ev = new ReservoirEvaluator(30, m, cfg, new Random(32))
    ev.initialize(base)
    // recorded from the rebuild-per-update implementation this one replaced
    val pinned = Seq(
      SnapshotResult(0.8322222222222223, 0.04994574022473298, 19, 93L, 3180.0, converged = true),
      SnapshotResult(0.8724999999999999, 0.04961711386787674, 11, 55L, 1870.0, converged = true),
      SnapshotResult(0.8533333333333332, 0.04849163261252926, 17, 82L, 2815.0, converged = true),
      SnapshotResult(0.8703703703703701, 0.045879429712566075, 19, 80L, 2855.0, converged = true),
      SnapshotResult(0.88, 0.04849163261252925, 16, 74L, 2570.0, converged = true),
      SnapshotResult(0.8975000000000002, 0.04836046224167907, 10, 50L, 1700.0, converged = true),
      SnapshotResult(0.8777777777777778, 0.04698337599556064, 16, 78L, 2670.0, converged = true),
      SnapshotResult(0.8675, 0.04931843778237599, 11, 51L, 1770.0, converged = true),
      SnapshotResult(0.8875000000000002, 0.04820746276861072, 11, 53L, 1820.0, converged = true),
      SnapshotResult(0.8825, 0.048053976161657144, 14, 65L, 2255.0, converged = true))
    assert(batches.map(ev.applyUpdate) == pinned)
  }

  test("RS charges a cluster drawn twice in a round once (Eq 4)") {
    // ten clusters spread from 0% to 90% accurate: the MoE needs ~150 top-ups
    val base  = KGSummary(Array.tabulate(10)(i => Cluster(i.toLong, 20, 2 * i)))
    val batch = Array.tabulate(3)(i => Cluster(100L + i, 20, 10 + i))
    val ev = new ReservoirEvaluator(30, m, cfg, new Random(40))
    ev.initialize(base)
    val r = ev.applyUpdate(batch)
    assert(r.converged)
    assert(r.newEntities <= base.numClusters + batch.length, s"${r.newEntities} entities")
    assert(r.costSeconds == cfg.cost.seconds(r.newEntities.toLong, r.newTriples))
  }

  test("SS snapshots over a seeded stream are pinned") {
    val (base, batches) = seededStream()
    val ev = new StratifiedEvaluator(m, cfg, new Random(34))
    ev.initialize(base)
    // recorded from the implementation with its own SS batch loop
    val pinned = Seq(
      SnapshotResult(0.9031939708226556, 0.04453117130831835, 5, 24L, 825.0, converged = true),
      SnapshotResult(0.9012609879820029, 0.041596905989977694, 5, 25L, 850.0, converged = true),
      SnapshotResult(0.9027039577295869, 0.039099247353511925, 4, 22L, 730.0, converged = true),
      SnapshotResult(0.9010801707159527, 0.037995460518218005, 5, 22L, 775.0, converged = true),
      SnapshotResult(0.9076772406345119, 0.035461502347841733, 5, 25L, 850.0, converged = true),
      SnapshotResult(0.9109459843688236, 0.03360495630160739, 5, 22L, 775.0, converged = true),
      SnapshotResult(0.9091027313280984, 0.03211665126762648, 5, 24L, 825.0, converged = true),
      SnapshotResult(0.9074868490754314, 0.03079836098380547, 5, 25L, 850.0, converged = true),
      SnapshotResult(0.9123517568584882, 0.029178794635041947, 5, 19L, 700.0, converged = true),
      SnapshotResult(0.9127344795948629, 0.028132025770160725, 4, 25L, 805.0, converged = true))
    assert(batches.map(ev.applyUpdate) == pinned)
  }

  // ---- SS ----

  test("SS estimate stays near the truth after an update") {
    val base = makeBase(10)
    val rng = new Random(11)
    val ev = new StratifiedEvaluator(m, cfg, rng)
    ev.initialize(base)
    val batch = makeBatch(base, 0.3, 0.5, rng, 0)
    val r = ev.applyUpdate(batch)
    assert(r.converged && r.moe <= cfg.eps)
    assert(math.abs(r.estimate - truthAfter(base, Seq(batch))) < 0.06)
  }

  test("SS handles a sequence of updates, one stratum per batch") {
    val base = makeBase(12)
    val rng = new Random(13)
    val ev = new StratifiedEvaluator(m, cfg, rng)
    ev.initialize(base)
    val batches = (0 until 3).map(b => makeBatch(base, 0.1, 0.9, rng, b))
    val rs = batches.map(ev.applyUpdate)
    rs.foreach(r => assert(r.converged))
    assert(math.abs(rs.last.estimate - truthAfter(base, batches)) < 0.05)
  }

  test("SS reuses base annotations: update cost is far below a fresh run") {
    val base = makeBase(14)
    val rng = new Random(15)
    val baseline = new BaselineEvaluator(m, cfg, new Random(16))
    baseline.initialize(base)
    val ss = new StratifiedEvaluator(m, cfg, rng)
    ss.initialize(base)
    val batch = makeBatch(base, 0.1, 0.9, rng, 0)
    val bCost = baseline.applyUpdate(batch).costSeconds
    val sCost = ss.applyUpdate(batch).costSeconds
    assert(sCost < bCost * 0.6, s"ss=$sCost baseline=$bCost")
  }

  test("mean per-update cost orders SS < RS < Baseline in the standard setting") {
    val base = makeBase(17)
    def meanCost(mk: Random => Array[Cluster] => SnapshotResult): Double = {
      val costs = (0 until 25).map { t =>
        val rng = new Random(300 + t)
        val run = mk(rng)
        run(makeBatch(base, 0.3, 0.9, rng, 0)).costSeconds
      }
      Stats.mean(costs)
    }
    val b = meanCost { rng => val e = new BaselineEvaluator(m, cfg, rng); e.initialize(base); e.applyUpdate }
    val r = meanCost { rng => val e = new ReservoirEvaluator(30, m, cfg, rng); e.initialize(base); e.applyUpdate }
    val s = meanCost { rng => val e = new StratifiedEvaluator(m, cfg, rng); e.initialize(base); e.applyUpdate }
    assert(s < r, s"SS=$s RS=$r")
    assert(r < b, s"RS=$r Baseline=$b")
  }

  // ---- fault tolerance (Fig 9) ----

  test("RS sheds an injected bias through turnover and re-randomizes; SS is sticky") {
    val base = makeBase(18)
    val batches = 12
    val runs = 12

    /** (mean signed deviation per batch, mean per-run |estimate move|). */
    def stats(mk: Random => Array[Cluster] => SnapshotResult): (Seq[Double], Double) = {
      val trajs = (0 until runs).map { r =>
        val rng = new Random(1900 + r * 131)
        val apply = mk(rng)
        (0 until batches).map(b => apply(makeBatch(base, 0.1, 0.9, rng, b)).estimate - 0.9)
      }
      val traj = (0 until batches).map(b => Stats.mean(trajs.map(_(b))))
      val vol = Stats.mean(trajs.map(t =>
        Stats.mean(t.sliding(2).map(w => math.abs(w(1) - w(0))).toSeq)))
      (traj, vol)
    }

    val (rs, rsVol) = stats { rng =>
      val e = new ReservoirEvaluator(30, m, cfg, rng, initBias = -0.07)
      e.initialize(base); e.applyUpdate
    }
    val (ss, ssVol) = stats { rng =>
      val e = new StratifiedEvaluator(m, cfg, rng, initBias = -0.07)
      e.initialize(base); e.applyUpdate
    }

    // RS turnover has shed a visible share of the injection by batch 12
    assert(math.abs(rs.last) < math.abs(rs.head) * 0.85 + 0.005,
      s"RS ${rs.head} -> ${rs.last}")
    // SS still carries most of its bias (pure weight dilution)
    assert(math.abs(ss.last) > math.abs(ss.head) * 0.3, s"SS ${ss.head} -> ${ss.last}")
    // and RS re-randomizes while SS trajectories are dilution-smooth
    assert(rsVol > 1.5 * ssVol, s"RS vol $rsVol vs SS vol $ssVol")
  }

  test("SnapshotResult converts cost to hours") {
    assert(SnapshotResult(0.9, 0.01, 1, 1, 1800.0, converged = true).costHours == 0.5)
  }
}
