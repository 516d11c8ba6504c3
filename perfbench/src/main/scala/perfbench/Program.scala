package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Estimators, GraphOps, LinBP, Sketch, Sketches, SparseGraph}
import repro.eval.Accuracy
import repro.jobs.JobSession
import repro.linalg.Dense

/** The benchmark's only caller of the program (`repro.*`).
  *
  * Everything else in the benchmark sees plain arrays, Spark frames and
  * the opaque handles below, so an API change in the program touches
  * this file only.
  */
object Program {

  type Mat = Array[Array[Double]]

  /** An ingested graph. */
  final class Graph private[Program] (private[Program] val g: SparseGraph)

  /** The k×k sketches of one `Sketch.compute` call. */
  final class SketchOut private[Program] (private[Program] val s: Sketches) {
    def lmax: Int = s.lmax
    def mFull: IndexedSeq[Mat] = s.mFull.map(toMat)
    def mNB: IndexedSeq[Mat] = s.mNB.map(toMat)
  }

  /** An estimated H and the objective evaluations it took. */
  final case class Fit(h: Mat, evals: Int)

  /** The program's own session builder, with its shuffle-partition and
    * broadcast settings; the master comes from `SPARK_MASTER`.
    */
  def session(): SparkSession = JobSession.create("perfbench")

  def ingest(spark: SparkSession, n: Long, undirected: DataFrame): Graph =
    new Graph(GraphOps.fromUndirected(spark, n, undirected))

  def m(g: Graph): Long = g.g.m

  /** Directed edge pairs (src: Long, dst: Long), both directions. */
  def edges(g: Graph): DataFrame = g.g.edges

  /** Node degrees (node: Long, deg: Double), materialized. */
  def degrees(g: Graph): DataFrame = g.g.degrees

  def materialize(df: DataFrame): DataFrame = GraphOps.materialize(df)

  def sketch(g: Graph, seeds: DataFrame, k: Int, lmax: Int): SketchOut =
    new SketchOut(Sketch.compute(g.g, seeds, k, lmax))

  def mce(sk: SketchOut, variant: Int): Fit = fit(Estimators.mce(sk.s, variant))

  def lce(sk: SketchOut): Fit = fit(Estimators.lce(sk.s))

  def dcer(sk: SketchOut, lmax: Int, lambda: Double, restarts: Int): Fit =
    fit(Estimators.dcer(sk.s, lmax, lambda, restarts = restarts))

  /** Holdout with ρ(W) computed by the call. */
  def holdout(g: Graph, seeds: DataFrame, k: Int, b: Int, maxEvals: Int, iterations: Int, s: Double,
              seed: Long): Fit =
    fit(Estimators.holdout(g.g, seeds, k, b, maxEvals, iterations, s, seed))

  def spectralRadius(g: Graph): Double = GraphOps.spectralRadius(g.g)

  /** LinBP beliefs F as (node: Long, cls: Int, v: Double). */
  def linbp(g: Graph, seeds: DataFrame, h: Mat, iterations: Int, s: Double, rho: Double): DataFrame =
    LinBP.run(g.g, seeds, fromMat(h), iterations, s, rhoW = Some(rho))

  /** Predicted labels (node: Long, cls: Int), lazily planned. */
  def argmax(f: DataFrame): DataFrame = GraphOps.argmaxLabels(f)

  def accuracy(predictions: DataFrame, truth: DataFrame, seeds: DataFrame): Double =
    Accuracy.accuracyOf(predictions, truth, seeds)

  private def fit(r: Estimators.EstimationResult): Fit = Fit(toMat(r.h), r.evals)

  private def toMat(d: Dense): Mat = Array.tabulate(d.rows, d.cols)((i, j) => d(i, j))

  private def fromMat(m: Mat): Dense = Dense.fromRows(m.toSeq.map(_.toSeq))
}
