package repro.core

import org.apache.spark.JobCounter
import repro.SparkSpec
import repro.testutil.{DenseRef, LocalGraphs}

/** Spark jobs per sketch hop, per LinBP iteration and per ρ(W) product
  * on a fixed small graph. At the graph sizes of the evaluation the
  * fixed cost of a job dominates each step, so a step that starts more
  * jobs is a regression even when every result stays correct.
  */
class JobBudgetSpec extends SparkSpec {

  private val k = 3
  private val MaxJobsPerStep = 5
  private lazy val g = LocalGraphs.graph(spark, 60, DenseRef.randomEdges(60, 200, seed = 3))
  private lazy val seeds = LocalGraphs.labels(spark, (0 until 60 by 4).map(i => i -> (i % k)).toMap)

  /** Jobs per step: the difference between a long and a one-step run. */
  private def jobsPerStep(steps: Int)(run: Int => Any): Double = {
    run(steps) // warm up: degrees and the graph's checkpoints
    val one = JobCounter(spark.sparkContext)(run(1))
    val many = JobCounter(spark.sparkContext)(run(steps))
    (many - one).toDouble / (steps - 1)
  }

  test(s"a sketch hop starts at most $MaxJobsPerStep Spark jobs") {
    val perHop = jobsPerStep(5)(lmax => Sketch.compute(g, seeds, k, lmax))
    assert(perHop <= MaxJobsPerStep, s"$perHop jobs per hop")
  }

  test(s"a LinBP iteration starts at most $MaxJobsPerStep Spark jobs") {
    val h = CompatibilityMatrix.planted(k, 8.0)
    val rho = GraphOps.spectralRadius(g)
    val perIter = jobsPerStep(10)(it => LinBP.run(g, seeds, h, iterations = it, rhoW = Some(rho)))
    assert(perIter <= MaxJobsPerStep, s"$perIter jobs per iteration")
  }

  test(s"a ρ(W) product starts at most $MaxJobsPerStep Spark jobs") {
    // The cap binds: five products still move the estimate past four.
    assert(GraphOps.spectralRadius(g, iters = 4) < GraphOps.spectralRadius(g, iters = 5))
    val perProduct = jobsPerStep(5)(cap => GraphOps.spectralRadius(g, iters = cap))
    assert(perProduct <= MaxJobsPerStep, s"$perProduct jobs per product")
  }
}
