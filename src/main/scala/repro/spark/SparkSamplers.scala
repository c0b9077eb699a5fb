package repro.spark

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StructType

import repro.core.{KGSummary, LocalSamplers}

import scala.jdk.CollectionConverters._
import scala.util.Random

/** DataFrame implementations of the paper's sampling designs. Spark runs
  * only the work that grows with |G|: the cluster summary (built once per
  * DataFrame by [[KGSummary.fromTriples]]), one subject-filtered fetch of
  * the drawn clusters' triples, and top-n selections. Every draw, the TWCS
  * second stage included, comes from [[LocalSamplers]] on the driver, as in
  * the Monte-Carlo; so a sample touches only the ≤ n drawn clusters once the
  * summary exists.
  *
  * Input "triples" DataFrames must carry at least `subject` (long) and
  * `label` (0/1 int); extra columns (predicate, object) pass through.
  * Draw randomness is seeded so jobs are reproducible.
  */
object SparkSamplers {

  /** (subject, size, tau) per entity cluster — groupBy aggregation. */
  def clusterSummary(triples: DataFrame): DataFrame =
    KGSummary.clusterSummaryDF(triples)

  /** SRS of exactly n triples without replacement: the n smallest of a
    * uniform key per triple, which Spark plans as a per-partition top-n.
    */
  def srsTriples(triples: DataFrame, n: Long, seed: Long): DataFrame =
    triples
      .withColumn("__srs_r", rand(seed))
      .orderBy(col("__srs_r"))
      .limit(math.toIntExact(n))
      .drop("__srs_r")

  /** n with-replacement cluster draws with P(cluster i) = M_i/M, as (draw_id, subject). */
  def wcsClusterDraws(triples: DataFrame, n: Int, seed: Long): DataFrame =
    clusterDraws(triples, n, seed)(LocalSamplers.wcsDraw)

  /** n uniform (unweighted) cluster draws with replacement, as (draw_id, subject). */
  def rcsClusterDraws(triples: DataFrame, n: Int, seed: Long): DataFrame =
    clusterDraws(triples, n, seed)(LocalSamplers.rcsDraw)

  /** n successive draws from `new Random(seed)` over the collected summary. */
  private def clusterDraws(triples: DataFrame, n: Int, seed: Long)
                          (draw: (KGSummary, Random) => LocalSamplers.ClusterDraw): DataFrame = {
    val kg  = KGSummary.fromTriples(triples)
    val rng = new Random(seed)
    val rows = (0 until n).map(k => (k.toLong, draw(kg, rng).cluster.id))
    triples.sparkSession.createDataFrame(rows).toDF("draw_id", "subject")
  }

  /** All triples of the drawn clusters, tagged by draw: the annotation set of
    * RCS/WCS, as (subject, draw_id, other triple columns), in draw_id order.
    * Duplicate first-stage draws of a cluster yield duplicate rows on
    * purpose — each draw is an independent Hansen–Hurwitz replicate.
    */
  def expandDraws(draws: DataFrame, triples: DataFrame): DataFrame = {
    val (schema, perDraw) = fetch(draws, triples)
    triples.sparkSession.createDataFrame(perDraw.flatten.asJava, schema)
  }

  /** TWCS sample: WCS first stage, then per draw an SRS of at most m triples
    * without replacement inside the cluster (see [[secondStage]]).
    */
  def twcsSample(triples: DataFrame, n: Int, m: Int, seed: Long): DataFrame = {
    val draws = wcsClusterDraws(triples, n, seed)
    secondStage(draws, triples, m, seed + 1)
  }

  /** Second-stage SRS of min(m, M_i) triples per (draw_id, cluster), on the
    * driver: [[LocalSamplers.choose]] from `new Random(seed)` picks each
    * draw's rows, draws taken in draw_id order, so a cluster drawn twice is
    * re-sampled independently and the sample does not depend on how
    * `triples` is partitioned.
    */
  def secondStage(draws: DataFrame, triples: DataFrame, m: Int, seed: Long): DataFrame = {
    require(m >= 1, s"second stage of $m triples")
    val rng = new Random(seed)
    val (schema, perDraw) = fetch(draws, triples)
    val kept = perDraw.flatMap(rows => LocalSamplers.choose(rows.size, math.min(m, rows.size), rng).map(rows))
    triples.sparkSession.createDataFrame(kept.asJava, schema)
  }

  /** Cluster rows in a fixed order, whatever the fetch order: by column values. */
  private val byValues: Ordering[Row] =
    Ordering.by[Row, Seq[String]](_.toSeq.map(String.valueOf))(Ordering.Implicits.seqOrdering)

  /** The joined rows of each draw, in draw_id order; each draw holds its
    * cluster's triples in [[byValues]] order. Spark runs one job: a filter on
    * the drawn subjects, an `InSet` it pushes into the scan (cached batches
    * and Parquet row groups are pruned by subject min/max). The ≤ n draws
    * are collected and deduplicated on the driver: a `distinct()` on the
    * DataFrame would cost a job.
    */
  private def fetch(draws: DataFrame, triples: DataFrame): (StructType, Seq[IndexedSeq[Row]]) = {
    val ts   = triples.schema
    val subj = ts.fieldIndex("subject")
    val rest = ts.indices.filter(_ != subj)
    val schema = StructType(ts(subj) +: draws.schema("draw_id") +: rest.map(ts(_)))
    val ds = draws.select("draw_id", "subject").collect().map(r => (r.getLong(0), r.getLong(1))).sortBy(_._1)
    val subjects = ds.map(_._2).distinct
    val clusters: Map[Long, Array[Row]] =
      if (subjects.isEmpty) Map.empty
      else triples.where(col("subject").isin(subjects.toIndexedSeq: _*)).collect()
        .groupBy(_.getLong(subj)).view.mapValues(_.sorted(byValues)).toMap
    val perDraw = ds.toSeq.map { case (id, s) =>
      clusters.getOrElse(s, Array.empty[Row]).toIndexedSeq.map(t => Row.fromSeq(s +: id +: rest.map(t.get)))
    }
    (schema, perDraw)
  }

  /** Efraimidis–Spirakis A-Res keys: key_i = u^(1/M_i) with u ~ U(0,1).
    * Input: cluster summary (subject, size, tau); adds `key`.
    * The size-m prefix by descending key is a size-weighted sample without
    * replacement — the reservoir invariant maintained on evolving KGs.
    */
  def aResKeys(summary: DataFrame, seed: Long): DataFrame =
    summary.withColumn("key", pow(rand(seed), lit(1.0) / col("size")))

  /** Merge reservoir states: keep the `capacity` largest keys of the union
    * (a per-partition top-n). Both inputs must have (subject, size, tau, key).
    */
  def reservoirMerge(current: DataFrame, incoming: DataFrame, capacity: Int): DataFrame =
    current.unionByName(incoming)
      .orderBy(col("key").desc, col("subject"))
      .limit(capacity)
}
