package repro.core

import org.apache.spark.sql.{Column, DataFrame, Observation}
import org.apache.spark.sql.functions._
import repro.linalg.Dense

/** The factorized graph representations ("sketches") of §4.3–4.6.
  *
  * For each path length ℓ ∈ [ℓmax] we hold the k×k co-occurrence counts
  *
  *   M⁽ℓ⁾     = Xᵀ·Wℓ·X          (all paths — biased, Thm. 4.1)
  *   M_NB⁽ℓ⁾  = Xᵀ·W_NB⁽ℓ⁾·X     (non-backtracking paths — consistent)
  *
  * computed without ever materializing Wℓ: the recurrence of Prop. 4.3
  * is pushed through the n×k matrices (Algorithm 4.4),
  *
  *   N_NB⁽ℓ⁾ = W·N_NB⁽ℓ⁻¹⁾ − (D−I)·N_NB⁽ℓ⁻²⁾,
  *   N_NB⁽¹⁾ = W·X,  N_NB⁽²⁾ = W·N_NB⁽¹⁾ − D·X,
  *
  * which costs O(m·k·ℓmax) total (Prop. 4.5). The sketches are O(k²·ℓmax)
  * — independent of the graph — so estimation runs on the driver.
  */
final case class Sketches(
    k: Int,
    lmax: Int,
    nLabeled: Long,
    mFull: IndexedSeq[Dense],
    mNB: IndexedSeq[Dense]) {

  require(mFull.length == lmax && mNB.length == lmax, "need one matrix per length")

  /** Observed length-ℓ statistics P̂⁽ℓ⁾ over all paths (1-based ℓ). */
  def pFull(l: Int, variant: Int = 1): Dense = Sketch.normalize(mFull(l - 1), variant)

  /** Observed length-ℓ statistics P̂_NB⁽ℓ⁾ over non-backtracking paths. */
  def pNB(l: Int, variant: Int = 1): Dense = Sketch.normalize(mNB(l - 1), variant)
}

object Sketch {

  /** Normalize a count matrix M into an observed statistics matrix P̂.
    *
    * Variant 1 (Eq. 9): row-stochastic, `diag(M·1)⁻¹·M` — the paper's
    * recommended default. Variant 2 (Eq. 10): symmetric LGC scaling
    * `diag(M·1)^{-1/2}·M·diag(M·1)^{-1/2}`. Variant 3 (Eq. 11): global
    * scale so the mean entry is 1/k.
    */
  def normalize(m: Dense, variant: Int): Dense = variant match {
    case 1 => m.rowNormalized
    case 2 =>
      val rs = m.rowSums.map(s => if (s > 0) 1.0 / math.sqrt(s) else 0.0)
      Dense.diag(rs) * m * Dense.diag(rs)
    case 3 =>
      val total = m.sum
      if (total == 0) Dense.fill(m.rows, m.cols)(1.0 / m.cols) else m.scale(m.cols / total)
    case other => throw new IllegalArgumentException(s"unknown normalization variant $other")
  }

  /** Algorithm 4.4: compute all sketches for ℓ ∈ [ℓmax] in one pass.
    *
    * Both the full-path and the non-backtracking families are produced
    * (the full-path family feeds the biased estimator P̂⁽ℓ⁾ used as the
    * comparison arm of Thm. 4.1, and ℓ ≤ 2 of it feeds LCE).
    *
    * One row per node carries its label `lbl`, its degree `deg`, and the
    * wide rows `full` = N⁽ℓ⁾, `nb` = N_NB⁽ℓ⁾ and `nbPrev` = N_NB⁽ℓ⁻¹⁾. A
    * hop unions the messages over `edges` with one self row per node that
    * holds −(deg−c)·N_NB⁽ℓ⁻²⁾, sums both families in one `groupBy(node)`,
    * and checkpoints; Xᵀ·N⁽ℓ⁾ and Xᵀ·N_NB⁽ℓ⁾ are read from an `observe` on
    * that same checkpoint.
    *
    * @throws IllegalArgumentException if a seed class id is outside [0, k)
    */
  def compute(g: SparseGraph, seedLabels: DataFrame, k: Int, lmax: Int): Sketches = {
    require(lmax >= 1, "lmax must be >= 1")
    import GraphOps.{indicator, sumRows, vector}
    val zeros = vector(k)(_ => lit(0.0))

    // ℓ = 0: N⁽⁰⁾ = N_NB⁽⁰⁾ = X and N_NB⁽⁻¹⁾ = 0, on every node with an
    // edge or a label, so each later hop keeps the same node set.
    val labeled = Observation()
    var state = GraphOps.materializeLabeled(seedLabels, k) { l =>
      val x = l.select(col("node"), col("cls").as("lbl"), indicator(k, col("cls")).as("v"))
      x.unionByName(g.degrees.withColumn("v", zeros), allowMissingColumns = true)
        .groupBy("node")
        .agg(max("lbl").as("lbl"), coalesce(max("deg"), lit(0.0)).as("deg"), sumRows(k).as("v"))
        .select(col("node"), col("lbl"), col("deg"), col("v").as("full"), col("v").as("nb"), zeros.as("nbPrev"))
        .observe(labeled, count(col("lbl")).as("n"))
    }
    val nLabeled = labeled.get("n").asInstanceOf[Long]

    val mFull = Vector.newBuilder[Dense]
    val mNB = Vector.newBuilder[Dense]
    for (l <- 1 to lmax) {
      // ℓ = 2 subtracts D·X; ℓ ≥ 3 subtracts (D−I)·N_NB⁽ℓ⁻²⁾ (Prop. 4.3);
      // at ℓ = 1 N_NB⁽⁻¹⁾ = 0, so both families are W·X.
      val c = if (l == 2) 0.0 else 1.0
      val sent = GraphOps.messages(g.edges, state.select("node", "full", "nb"))
      val self = state.select(col("node"), col("lbl"), col("deg"), zeros.as("full"),
        vector(k)(i => col("nbPrev")(i) * (lit(c) - col("deg"))).as("nb"), col("nb").as("carry"))
      val m = Observation()
      val counts = collapsed("full", k) ++ collapsed("nb", k)
      state = GraphOps.materialize(
        sent.unionByName(self, allowMissingColumns = true)
          .groupBy("node")
          .agg(max("lbl").as("lbl"), max("deg").as("deg"),
            sumRows(k, col("full")).as("full"), sumRows(k, col("nb")).as("nb"), sumRows(k, col("carry")).as("nbPrev"))
          .observe(m, counts.head, counts.tail: _*))
      val got = m.get
      def matrix(family: String) = new Dense(k, k, Array.tabulate(k * k)(i =>
        Option(got(s"${family}_${i / k}_${i % k}")).fold(0.0)(_.asInstanceOf[Double])))
      mFull += matrix("full")
      mNB += matrix("nb")
    }
    Sketches(k, lmax, nLabeled, mFull.result(), mNB.result())
  }

  /** Xᵀ·N as k² aggregates over the state rows: entry (c, d) sums column
    * `family`'s d-th entry over the nodes labeled c.
    */
  private def collapsed(family: String, k: Int): Seq[Column] =
    for (c <- 0 until k; d <- 0 until k)
      yield sum(when(col("lbl") === c, col(family)(d))).as(s"${family}_${c}_$d")
}
