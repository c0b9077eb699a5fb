package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.logical
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.core.{KGSummary, LocalSamplers, Stats}

import scala.util.Random

class SparkSamplersSpec extends SparkSpec {
  import spark.implicits._

  /** 4 clusters with sizes 1/2/3/6 and known labels. */
  private lazy val triples: DataFrame = Seq(
    (1L, "pA", "o1", 1),
    (2L, "pA", "o2", 1), (2L, "pB", "o3", 0),
    (3L, "pA", "o1", 1), (3L, "pB", "o4", 1), (3L, "pC", "o5", 0),
    (4L, "pA", "o1", 1), (4L, "pA", "o2", 1), (4L, "pB", "o3", 1),
    (4L, "pB", "o4", 0), (4L, "pC", "o5", 0), (4L, "pC", "o6", 1)
  ).toDF("subject", "predicate", "object", "label").cache()

  // ---- cluster summary ----

  test("clusterSummary matches DuckDB's groupBy (oracle)") {
    Oracle.assertEquivalent(
      SparkSamplers.clusterSummary(triples),
      "SELECT CAST(subject AS BIGINT) AS subject, COUNT(*) AS size, " +
        "SUM(CAST(label AS BIGINT)) AS tau FROM t GROUP BY subject",
      "t" -> triples)
  }

  test("KGSummary.fromTriples reflects the DataFrame aggregation") {
    val kg = KGSummary.fromTriples(triples)
    assert(kg.numClusters == 4)
    assert(kg.numTriples == 12)
    assert(math.abs(kg.accuracy - 8.0 / 12) < 1e-12)
    assert(kg.clusters.find(_.id == 4L).get.tau == 4)
  }

  test("fromTriples summarises each DataFrame once") {
    val kg = KGSummary.fromTriples(triples)
    assert(KGSummary.fromTriples(triples) eq kg)
    val other = triples.repartition(3)
    assert(!(KGSummary.fromTriples(other) eq kg))
    assert(KGSummary.fromTriples(other).clusters.sortBy(_.id).toSeq == kg.clusters.sortBy(_.id).toSeq)
  }

  test("fromTriples keeps no summary alive that nothing else references") {
    // a strong value would outlive a released KG until its key is expunged
    val ref = new java.lang.ref.WeakReference(KGSummary.fromTriples(triples.repartition(2)))
    var tries = 0
    while (ref.get() != null && tries < 10) { System.gc(); Thread.sleep(20); tries += 1 }
    assert(ref.get() == null)
  }

  // ---- SRS ----

  test("srsTriples returns exactly n distinct triples from the input") {
    val s = SparkSamplers.srsTriples(triples, 5, seed = 1).collect()
    assert(s.length == 5)
    assert(s.distinct.length == 5)
    val all = triples.collect().map(_.toSeq).toSet
    assert(s.forall(r => all.contains(r.toSeq)))
  }

  test("srsTriples with n = |G| returns the whole KG") {
    assert(SparkSamplers.srsTriples(triples, 12, seed = 2).count() == 12)
  }

  test("srsTriples is deterministic in its seed") {
    val a = SparkSamplers.srsTriples(triples, 4, seed = 3).collect().map(_.toSeq).toSet
    val b = SparkSamplers.srsTriples(triples, 4, seed = 3).collect().map(_.toSeq).toSet
    assert(a == b)
  }

  test("srsTriples is (statistically) uniform over triples") {
    // one large draw: each triple appears at most once; over seeds the
    // count per subject should be size-proportional
    val counts = (0 until 40).flatMap { s =>
      SparkSamplers.srsTriples(triples, 6, seed = 100 + s)
        .groupBy("subject").count().collect()
        .map(r => r.getAs[Long]("subject") -> r.getAs[Long]("count"))
    }.groupBy(_._1).view.mapValues(_.map(_._2).sum).toMap
    // cluster 4 holds half the triples -> about half of all sampled rows
    val total = counts.values.sum.toDouble
    assert(math.abs(counts(4L) / total - 0.5) < 0.1)
  }

  // ---- WCS / RCS first stage ----

  test("wcsClusterDraws yields one row per draw") {
    val d = SparkSamplers.wcsClusterDraws(triples, 25, seed = 4)
    assert(d.count() == 25)
    assert(d.select("draw_id").distinct().count() == 25)
  }

  test("wcsClusterDraws frequencies are proportional to cluster size") {
    val d = SparkSamplers.wcsClusterDraws(triples, 3000, seed = 5)
      .groupBy("subject").count().collect()
      .map(r => r.getAs[Long]("subject") -> r.getAs[Long]("count")).toMap
    assert(math.abs(d(4L) / 3000.0 - 0.5) < 0.04)  // 6/12
    assert(math.abs(d(1L) / 3000.0 - 1.0 / 12) < 0.03)
  }

  test("rcsClusterDraws frequencies are uniform over clusters") {
    val d = SparkSamplers.rcsClusterDraws(triples, 2000, seed = 6)
      .groupBy("subject").count().collect()
      .map(r => r.getAs[Long]("subject") -> r.getAs[Long]("count")).toMap
    Seq(1L, 2L, 3L, 4L).foreach { s =>
      assert(math.abs(d(s) / 2000.0 - 0.25) < 0.04, s"subject $s")
    }
  }

  test("first-stage draws are LocalSamplers draws over the collected summary") {
    val kg = KGSummary.fromTriples(triples)
    def subjects(draws: DataFrame): Seq[Long] =
      draws.collect().sortBy(_.getAs[Long]("draw_id")).map(_.getAs[Long]("subject")).toSeq
    Seq(41L, 42L).foreach { seed =>
      val wcsRng = new Random(seed)
      assert(subjects(SparkSamplers.wcsClusterDraws(triples, 30, seed)) ==
        Seq.fill(30)(LocalSamplers.wcsDraw(kg, wcsRng).cluster.id), s"WCS seed $seed")
      val rcsRng = new Random(seed)
      assert(subjects(SparkSamplers.rcsClusterDraws(triples, 30, seed)) ==
        Seq.fill(30)(LocalSamplers.rcsDraw(kg, rcsRng).cluster.id), s"RCS seed $seed")
    }
  }

  test("expandDraws keeps duplicate first-stage draws as independent replicates") {
    val draws = Seq((0L, 4L), (1L, 4L)).toDF("draw_id", "subject")
    val x = SparkSamplers.expandDraws(draws, triples)
    assert(x.count() == 12) // 6 triples x 2 draws
    assert(x.groupBy("draw_id").count().collect().forall(_.getAs[Long]("count") == 6))
  }

  test("expandDraws equals the join of draws and triples, duplicates included (oracle)") {
    val draws = Seq((0L, 4L), (1L, 2L), (2L, 4L), (3L, 1L), (4L, 2L)).toDF("draw_id", "subject")
    Oracle.assertEquivalent(
      SparkSamplers.expandDraws(draws, triples),
      "SELECT d.draw_id, t.* FROM d JOIN t USING (subject)",
      "d" -> draws, "t" -> triples)
  }

  test("zero draws give zero rows with the named columns, which no estimate accepts") {
    val none = Seq.empty[(Long, Long)].toDF("draw_id", "subject")
    Seq(SparkSamplers.expandDraws(none, triples),
        SparkSamplers.secondStage(none, triples, m = 2, seed = 1)).foreach { x =>
      assert(x.columns.toSeq == Seq("subject", "draw_id", "predicate", "object", "label"))
      assert(x.count() == 0)
      assertThrows[IllegalArgumentException](SparkEstimators.clusterEstimate(x, Stats.zAlpha(0.05)))
    }
  }

  // ---- TWCS second stage ----

  test("twcsSample annotates at most m triples per draw, all from one cluster") {
    val s = SparkSamplers.twcsSample(triples, n = 50, m = 2, seed = 7)
    val per = s.groupBy("draw_id")
      .agg(count(lit(1)).as("cnt"), countDistinct(col("subject")).as("subs"))
      .collect()
    assert(per.length == 50)
    assert(per.forall(r => r.getAs[Long]("cnt") <= 2 && r.getAs[Long]("subs") == 1))
  }

  test("secondStage samples within a cluster without replacement") {
    val draws = Seq((0L, 4L)).toDF("draw_id", "subject")
    val s = SparkSamplers.secondStage(draws, triples, m = 4, seed = 8).collect()
    assert(s.length == 4)
    assert(s.map(_.toSeq).distinct.length == 4)
  }

  test("secondStage with m above the cluster size returns the full cluster") {
    val draws = Seq((0L, 2L)).toDF("draw_id", "subject")
    assert(SparkSamplers.secondStage(draws, triples, m = 99, seed = 9).count() == 2)
  }

  test("secondStage does not depend on how the triples are partitioned") {
    val draws = Seq((0L, 4L), (1L, 3L), (2L, 4L)).toDF("draw_id", "subject")
    val spread = triples.repartition(3)
    def rows(t: DataFrame, seed: Long): Seq[String] =
      SparkSamplers.secondStage(draws, t, m = 2, seed).collect().map(_.mkString("|")).sorted.toSeq
    (50L to 59L).foreach(seed => assert(rows(triples, seed) == rows(spread, seed), s"seed $seed"))
  }

  test("secondStage keeps each row of a cluster at rate m/M_i") {
    // 1200 independent draws of cluster 4 (M = 6) in one call, m = 2
    val n = 1200
    val draws = (0 until n).map(k => (k.toLong, 4L)).toDF("draw_id", "subject")
    val s = SparkSamplers.secondStage(draws, triples, m = 2, seed = 60).collect()
    assert(s.groupBy(_.getAs[Long]("draw_id")).values.forall(rs => rs.length == 2 && rs.distinct.length == 2))
    val kept = s.groupBy(r => (r.getAs[String]("predicate"), r.getAs[String]("object"))).view.mapValues(_.length).toMap
    assert(kept.size == 6)
    kept.foreach { case (row, c) => assert(math.abs(c.toDouble / n - 2.0 / 6) < 0.05, s"$row kept $c/$n") }
  }

  // ---- reservoir ----

  test("aResKeys produces keys in (0, 1]") {
    val keys = SparkSamplers.aResKeys(SparkSamplers.clusterSummary(triples), seed = 10)
      .select("key").collect().map(_.getAs[Double]("key"))
    assert(keys.length == 4)
    assert(keys.forall(k => k > 0.0 && k <= 1.0))
  }

  test("aResKeys favours larger clusters (keys closer to 1)") {
    // u^(1/size): across seeds, the size-6 cluster should out-rank size-1
    val wins = (0 until 60).count { s =>
      val keys = SparkSamplers.aResKeys(SparkSamplers.clusterSummary(triples), seed = 100 + s)
        .select("subject", "key").collect()
        .map(r => r.getAs[Long]("subject") -> r.getAs[Double]("key")).toMap
      keys(4L) > keys(1L)
    }
    assert(wins > 40, s"size-6 cluster won only $wins/60 seeds")
  }

  test("reservoirMerge keeps the top-capacity keys (oracle)") {
    val current = Seq((1L, 3L, 2L, 0.91), (2L, 1L, 1L, 0.35), (3L, 5L, 5L, 0.78))
      .toDF("subject", "size", "tau", "key")
    val incoming = Seq((10L, 4L, 4L, 0.95), (11L, 2L, 0L, 0.10))
      .toDF("subject", "size", "tau", "key")
    val merged = SparkSamplers.reservoirMerge(current, incoming, capacity = 3)
    Oracle.assertEquivalent(
      merged,
      """SELECT CAST(subject AS BIGINT) AS subject, CAST(size AS BIGINT) AS size,
        |       CAST(tau AS BIGINT) AS tau, CAST(key AS DOUBLE) AS key
        |FROM (SELECT *, row_number() OVER (ORDER BY CAST(key AS DOUBLE) DESC,
        |                                   CAST(subject AS BIGINT)) AS rn
        |      FROM (SELECT * FROM cur UNION ALL SELECT * FROM inc))
        |WHERE rn <= 3""".stripMargin,
      "cur" -> current, "inc" -> incoming)
  }

  test("reservoirMerge never exceeds its capacity") {
    val a = Seq((1L, 1L, 1L, 0.5), (2L, 1L, 0L, 0.6)).toDF("subject", "size", "tau", "key")
    val b = Seq((3L, 1L, 1L, 0.7), (4L, 1L, 1L, 0.8)).toDF("subject", "size", "tau", "key")
    assert(SparkSamplers.reservoirMerge(a, b, 2).count() == 2)
    // and it keeps the two largest keys
    val kept = SparkSamplers.reservoirMerge(a, b, 2).select("subject").collect()
      .map(_.getAs[Long]("subject")).toSet
    assert(kept == Set(3L, 4L))
  }

  // ---- plans ----

  test("no sampler plans a window without partitionBy (one task would see every row)") {
    val keyed = SparkSamplers.aResKeys(SparkSamplers.clusterSummary(triples), seed = 11)
    Seq(
      "srsTriples"      -> SparkSamplers.srsTriples(triples, 5, seed = 1),
      "wcsClusterDraws" -> SparkSamplers.wcsClusterDraws(triples, 5, seed = 2),
      "rcsClusterDraws" -> SparkSamplers.rcsClusterDraws(triples, 5, seed = 3),
      "twcsSample"      -> SparkSamplers.twcsSample(triples, n = 5, m = 2, seed = 4),
      "reservoirMerge"  -> SparkSamplers.reservoirMerge(keyed, keyed, capacity = 2)
    ).foreach { case (name, df) =>
      val global = df.queryExecution.optimizedPlan.collect {
        case w: logical.Window if w.partitionSpec.isEmpty => w
      }
      assert(global.isEmpty, s"$name plans an unpartitioned window")
    }
  }
}
