package repro.testutil

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{GraphOps, SparseGraph}
import repro.linalg.Dense

/** Helpers to lift small driver-side graphs into the distributed layer. */
object LocalGraphs {

  /** SparseGraph from an undirected edge list. */
  def graph(spark: SparkSession, n: Int, undirected: Seq[(Int, Int)]): SparseGraph = {
    import spark.implicits._
    GraphOps.fromUndirected(
      spark, n, undirected.map { case (a, b) => (a.toLong, b.toLong) }.toDF("src", "dst"))
  }

  /** Labels DataFrame (node, cls) from a map. */
  def labels(spark: SparkSession, m: Map[Int, Int]): DataFrame = {
    import spark.implicits._
    m.toSeq.map { case (node, cls) => (node.toLong, cls) }.toDF("node", "cls")
  }

  /** Wide (node, v) DataFrame from a dense n×k matrix, one row per node. */
  def wideFormat(spark: SparkSession, m: Dense): DataFrame = {
    import spark.implicits._
    (0 until m.rows).map(i => (i.toLong, Array.tabulate(m.cols)(m(i, _)))).toDF("node", "v")
  }

  /** Explode a wide matrix to long (node, cls, v) rows, omitting exact
    * zeros, so it can be compared with SQL over the DuckDB oracle.
    */
  def longFormat(df: DataFrame): DataFrame =
    df.select(col("node"), posexplode(col("v")).as(Seq("cls", "v"))).where(col("v") =!= 0.0)

  /** Collect a wide DataFrame back to dense for comparison; absent nodes
    * are zero rows.
    */
  def toDense(df: DataFrame, n: Int, k: Int): Dense = {
    val out = Dense.zeros(n, k).data
    df.select("node", "v").collect().foreach { r =>
      val i = r.getLong(0).toInt
      r.getSeq[Double](1).zipWithIndex.foreach { case (v, j) => out(i * k + j) = v }
    }
    new Dense(n, k, out)
  }
}
