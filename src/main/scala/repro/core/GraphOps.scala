package repro.core

import org.apache.spark.sql.{Column, DataFrame, Observation, SparkSession}
import org.apache.spark.sql.functions._
import repro.linalg.Dense

/** An undirected graph held as a DataFrame of directed edge pairs.
  *
  * ``edges`` has columns (src: Long, dst: Long); every undirected edge
  * appears in both directions, there are no self-loops and no duplicates,
  * so W is the symmetric 0/1 adjacency matrix. Nodes are 0..n−1.
  */
final case class SparseGraph(n: Long, edges: DataFrame) {

  /** Number of undirected edges m = |E|. */
  lazy val m: Long = edges.count() / 2

  /** Node degrees (node: Long, deg: Double); degree-0 nodes are absent. */
  lazy val degrees: DataFrame = {
    val d = edges
      .groupBy(col("src").as("node"))
      .agg(count(lit(1)).cast("double").as("deg"))
      .localCheckpoint(true)
    d
  }
}

/** Distributed sparse linear algebra over the wide n×k layout.
  *
  * An n×k matrix (beliefs F, label matrix X, path-count sketches N) is a
  * DataFrame with one row per node, columns (node: Long, v: array<double>)
  * where `v` holds the node's k-vector; absent nodes are zero rows. The
  * node's k-vector is the unit of work, as in the paper's O(m·k·ℓ) cost
  * model: W·F is one edge join plus one `groupBy(node)` that sums arrays
  * elementwise, and F·H or a scaling is a row-local map with no shuffle.
  * Everything is plain Catalyst expressions (no UDFs), so the DuckDB
  * oracle can check results once they are exploded to (node, cls, v).
  */
object GraphOps {

  /** Materialize and truncate lineage — required inside iterative loops,
    * where each step references the previous one (or two) results.
    */
  def materialize(df: DataFrame): DataFrame = df.localCheckpoint(true)

  /** A k-entry array column built entry by entry. */
  def vector(k: Int)(entry: Int => Column): Column = array((0 until k).map(entry): _*)

  /** Aggregate: the elementwise sum of the k-vectors in `v` over a group. */
  def sumRows(k: Int, v: Column = col("v")): Column = vector(k)(i => sum(v(i)))

  /** The terms of W·F before they are summed: every edge sends its dst's
    * row, all columns but `node`, to its src, as a row with node = src.
    */
  def messages(edges: DataFrame, f: DataFrame): DataFrame =
    edges
      .join(f.withColumnRenamed("node", "__n"), col("dst") === col("__n"))
      .drop("dst", "__n")
      .withColumnRenamed("src", "node")

  /** Elementwise sum of n×k matrices (or of message rows), in one
    * `groupBy(node)` aggregate however many parts there are.
    */
  def plus(k: Int)(parts: DataFrame*): DataFrame =
    parts.reduce(_ unionByName _).groupBy("node").agg(sumRows(k).as("v"))

  /** W·F — one hop of message passing: every node sums its neighbors' rows. */
  def multiply(edges: DataFrame, f: DataFrame, k: Int): DataFrame =
    plus(k)(messages(edges, f))

  /** F·H — each node's row times the small matrix H, row-locally; H ships
    * inside the expression, so there is no join and no shuffle.
    */
  def applyH(f: DataFrame, h: Dense): DataFrame =
    f.withColumn("v", vector(h.cols)(c => (0 until h.rows).map(j => col("v")(j) * h(j, c)).reduce(_ + _)))

  /** Scalar multiple. */
  def scale(f: DataFrame, s: Double): DataFrame =
    f.withColumn("v", transform(col("v"), _ * s))

  /** One-hot n×k matrix from (node, cls) labels; unlabeled nodes are absent. */
  def oneHot(labels: DataFrame, k: Int): DataFrame =
    labels.select(col("node"), indicator(k, col("cls")).as("v"))

  /** Centered label matrix X̃: a node labeled c gets the residual row
    * e_c − 1/k (Section 3.1); unlabeled nodes stay absent (all-zero).
    */
  def centeredOneHot(labels: DataFrame, k: Int): DataFrame =
    labels.select(col("node"), indicator(k, col("cls"), lit(1.0 - 1.0 / k), lit(-1.0 / k)).as("v"))

  /** The k-vector with `hit` at class `cls` and `miss` elsewhere. */
  def indicator(k: Int, cls: Column, hit: Column = lit(1.0), miss: Column = lit(0.0)): Column =
    vector(k)(j => when(cls === j, hit).otherwise(miss))

  /** Materialize `build(labels)`, and fail fast if a class id in `labels`
    * lies outside [0, k). The range is read from an `observe` on the job
    * that materializes, so the check costs no extra pass over the data.
    */
  def materializeLabeled(labels: DataFrame, k: Int)(build: DataFrame => DataFrame): DataFrame = {
    val range = Observation()
    val out = materialize(build(labels.observe(range, min("cls").as("lo"), max("cls").as("hi"))))
    val seen = range.get
    Seq(seen("lo"), seen("hi")).foreach {
      case c: Number if c.longValue < 0 || c.longValue >= k =>
        throw new IllegalArgumentException(s"seed label class id $c is outside [0, $k) for k = $k")
      case _ => // in range, or no labels at all
    }
    out
  }

  /** argmax over classes: (node, cls) with the highest belief; ties break
    * toward the smallest class id, and an all-zero row maps to class 0.
    */
  def argmaxLabels(f: DataFrame): DataFrame =
    f.select(col("node"), (array_position(col("v"), array_max(col("v"))) - 1).cast("int").as("cls"))

  /** Spectral radius ρ(W) by distributed power iteration (symmetric W).
    *
    * The iterate starts at W·1, the degree vector. Each further iteration
    * is one edge join and one aggregate that computes w = W·v/‖v‖, with
    * the scale 1/‖v‖ folded into the sum; ‖w‖, the estimate of ρ, comes
    * from an `observe` on the checkpoint that materializes w. Iteration
    * stops once the estimate moves by less than 1e-6 relative, or after
    * `iters` products with W in all, counting W·1.
    */
  def spectralRadius(g: SparseGraph, iters: Int = 25): Double = {
    val start = g.degrees.agg(sum(col("deg") * col("deg")), count(lit(1))).first()
    if (start.isNullAt(0)) return 0.0 // no edges
    var norm = math.sqrt(start.getDouble(0))
    var rho = norm / math.sqrt(start.getLong(1).toDouble)
    var v = g.degrees.select(col("node"), col("deg").as("v"))
    var it = 1
    var moved = true
    while (moved && it < iters) {
      val sq = Observation()
      v = materialize(
        messages(g.edges, v)
          .groupBy("node").agg((sum("v") / norm).as("v"))
          .observe(sq, sum(col("v") * col("v")).as("sq")))
      norm = math.sqrt(sq.get("sq").asInstanceOf[Double])
      moved = math.abs(norm - rho) > 1e-6 * norm
      rho = norm
      it += 1
    }
    rho
  }

  /** Explicit ℓ-th adjacency power as a (src, dst, cnt) path-count table.
    *
    * This is the *naive* evaluation strategy the paper warns against
    * (§4.6): the intermediate result densifies as ~d^(ℓ−1)·m entries. Kept
    * as the comparison arm of the factorized-summation experiment (T5).
    */
  def explicitPower(edges: DataFrame, l: Int): DataFrame = {
    require(l >= 1, "power must be >= 1")
    var p = edges.withColumn("cnt", lit(1.0))
    for (_ <- 2 to l) {
      p = materialize(
        p.join(
            edges.withColumnRenamed("src", "mid").withColumnRenamed("dst", "dst2"),
            col("dst") === col("mid"))
          .groupBy(col("src"), col("dst2").as("dst"))
          .agg(sum("cnt").as("cnt")))
    }
    p
  }

  /** Build a SparseGraph from an undirected edge list (one direction),
    * deduplicating, dropping self-loops and adding reverse edges.
    */
  def fromUndirected(spark: SparkSession, n: Long, undirected: DataFrame): SparseGraph = {
    val e = undirected.select(col("src").cast("long"), col("dst").cast("long"))
      .where(col("src") =!= col("dst"))
    val canon = e.select(
      least(col("src"), col("dst")).as("src"),
      greatest(col("src"), col("dst")).as("dst")
    ).distinct()
    val both = canon.unionByName(canon.select(col("dst").as("src"), col("src").as("dst")))
    SparseGraph(n, materialize(both))
  }
}
