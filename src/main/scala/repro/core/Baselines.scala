package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Homophily-assuming SSL baselines (§2.4), used by the paper's sanity
  * check (Fig. 6i): on graphs with arbitrary compatibilities these
  * methods collapse, which is the motivation for compatibility-aware
  * propagation in the first place.
  */
object Baselines {

  /** Harmonic functions method (Zhu et al. [65]): iterate F ← D⁻¹·W·F
    * with labeled nodes clamped to their one-hot rows.
    */
  def harmonic(
      g: SparseGraph,
      seedLabels: DataFrame,
      k: Int,
      iterations: Int = 20): DataFrame = {
    val x = GraphOps.materializeLabeled(seedLabels, k)(GraphOps.oneHot(_, k))
    val seedNodes = GraphOps.materialize(seedLabels.select("node"))
    var f = x
    for (_ <- 1 to iterations) {
      val avgd = GraphOps
        .multiply(g.edges, f, k)
        .join(g.degrees.withColumnRenamed("node", "__n"), col("node") === col("__n"))
        .select(col("node"), GraphOps.vector(k)(i => col("v")(i) / col("deg")).as("v"))
      val clamped = avgd
        .join(seedNodes.withColumnRenamed("node", "__s"), col("node") === col("__s"), "left_anti")
        .unionByName(x)
      f = GraphOps.materialize(clamped)
    }
    f
  }

  /** MultiRankWalk (Lin & Cohen [33]): per class c, a random walk with
    * restarts to that class's seeds — F ← ᾱ·U + α·W^col·F with U the
    * column-normalized seed indicator matrix (‖U_:c‖₁ = 1).
    */
  def multiRankWalk(
      g: SparseGraph,
      seedLabels: DataFrame,
      k: Int,
      alpha: Double = 0.85,
      iterations: Int = 20): DataFrame = {
    val perClass = seedLabels.groupBy("cls").agg(count(lit(1)).as("__cnt"))
    val u = GraphOps.materializeLabeled(seedLabels, k)(
      _.join(perClass, Seq("cls"))
        .select(col("node"), GraphOps.indicator(k, col("cls"), lit(1.0) / col("__cnt")).as("v")))
    var f = u
    for (_ <- 1 to iterations) {
      // W^col·F: scale each sender's row by α/deg before the hop.
      val scaled = f
        .join(g.degrees.withColumnRenamed("node", "__n"), col("node") === col("__n"))
        .select(col("node"), GraphOps.vector(k)(i => col("v")(i) * alpha / col("deg")).as("v"))
      f = GraphOps.materialize(
        GraphOps.plus(k)(GraphOps.scale(u, 1.0 - alpha), GraphOps.messages(g.edges, scaled)))
    }
    f
  }
}
