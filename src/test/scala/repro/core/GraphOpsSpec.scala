package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.linalg.Dense
import repro.testutil.{DenseRef, LocalGraphs}

class GraphOpsSpec extends SparkSpec {

  private lazy val n = 40
  private lazy val edgeList = DenseRef.randomEdges(n, 120, seed = 11)
  private lazy val w = DenseRef.adjacency(n, edgeList)
  private lazy val g = LocalGraphs.graph(spark, n, edgeList)
  private lazy val labelMap = (0 until n).map(i => i -> (i % 3)).toMap
  private lazy val labelsDf = LocalGraphs.labels(spark, labelMap)

  test("fromUndirected symmetrizes, dedups and drops self-loops") {
    import spark.implicits._
    val messy = Seq((1L, 2L), (2L, 1L), (1L, 2L), (3L, 3L), (2L, 4L)).toDF("src", "dst")
    val sg = GraphOps.fromUndirected(spark, 5, messy)
    val got = sg.edges.as[(Long, Long)].collect().toSet
    assert(got == Set((1L, 2L), (2L, 1L), (2L, 4L), (4L, 2L)))
    assert(sg.m == 2)
  }

  test("edges are exactly symmetric") {
    import spark.implicits._
    val e = g.edges.as[(Long, Long)].collect().toSet
    assert(e.map(_.swap) == e)
    assert(e.forall { case (a, b) => a != b })
  }

  test("degrees match the dense adjacency row sums") {
    val degs = g.degrees.collect().map(r => r.getLong(0).toInt -> r.getDouble(1)).toMap
    val expected = w.rowSums
    (0 until n).foreach { i =>
      assert(degs.getOrElse(i, 0.0) == expected(i), s"node $i")
    }
  }

  test("degrees match the DuckDB oracle") {
    Oracle.assertEquivalent(
      g.degrees,
      "SELECT src AS node, CAST(COUNT(*) AS DOUBLE) AS deg FROM edges GROUP BY src",
      "edges" -> g.edges)
  }

  test("multiply W·F matches the dense reference") {
    val f = Dense.random(n, 3, seed = 5)
    val got = LocalGraphs.toDense(
      GraphOps.multiply(g.edges, LocalGraphs.wideFormat(spark, f), 3), n, 3)
    assert(got.approxEquals(w * f, 1e-9))
  }

  test("multiply W·X matches the DuckDB oracle") {
    val x = GraphOps.oneHot(labelsDf, 3)
    Oracle.assertEquivalent(
      LocalGraphs.longFormat(GraphOps.multiply(g.edges, x, 3)),
      """SELECT e.src AS node, x.cls AS cls, CAST(COUNT(*) AS DOUBLE) AS v
         FROM edges e JOIN labels x ON e.dst = x.node
         GROUP BY e.src, x.cls""",
      "edges" -> g.edges, "labels" -> labelsDf)
  }

  test("applyH F·H matches the dense reference") {
    val f = Dense.random(n, 3, seed = 6)
    val h = Dense.random(3, 3, seed = 7)
    val got = LocalGraphs.toDense(
      GraphOps.applyH(LocalGraphs.wideFormat(spark, f), h), n, 3)
    assert(got.approxEquals(f * h, 1e-9))
  }

  test("applyH supports non-square H (k_in != k_out)") {
    val f = Dense.random(n, 2, seed = 8)
    val h = Dense.random(2, 4, seed = 9)
    val got = LocalGraphs.toDense(
      GraphOps.applyH(LocalGraphs.wideFormat(spark, f), h), n, 4)
    assert(got.approxEquals(f * h, 1e-9))
  }

  test("plus, minus and scale match the dense reference") {
    val a = Dense.random(n, 3, seed = 10)
    val b = Dense.random(n, 3, seed = 11)
    val c = Dense.random(n, 3, seed = 12)
    val da = LocalGraphs.wideFormat(spark, a)
    val db = LocalGraphs.wideFormat(spark, b)
    val dc = LocalGraphs.wideFormat(spark, c)
    assert(LocalGraphs.toDense(GraphOps.plus(3)(da, db), n, 3).approxEquals(a + b, 1e-9))
    assert(LocalGraphs.toDense(GraphOps.plus(3)(da, db, dc), n, 3).approxEquals(a + b + c, 1e-9))
    assert(LocalGraphs.toDense(GraphOps.plus(3)(da, GraphOps.scale(db, -1.0)), n, 3)
      .approxEquals(a - b, 1e-9))
    assert(LocalGraphs.toDense(GraphOps.scale(da, -2.5), n, 3).approxEquals(a.scale(-2.5), 1e-9))
  }

  test("oneHot and centeredOneHot match the dense reference") {
    val partial = labelMap.filter(_._1 < 10)
    val ldf = LocalGraphs.labels(spark, partial)
    assert(LocalGraphs.toDense(GraphOps.oneHot(ldf, 3), n, 3)
      .approxEquals(DenseRef.oneHot(n, 3, partial), 1e-12))
    assert(LocalGraphs.toDense(GraphOps.centeredOneHot(ldf, 3), n, 3)
      .approxEquals(DenseRef.centeredOneHot(n, 3, partial), 1e-12))
  }

  test("M⁽¹⁾ = XᵀWX matches the DuckDB oracle") {
    import spark.implicits._
    val m1 = Sketch.compute(g, labelsDf, 3, lmax = 1).mFull(0)
    val asDf = (for { c <- 0 until 3; d <- 0 until 3 } yield (c, d, m1(c, d))).toDF("c", "d", "v")
    Oracle.assertEquivalent(
      asDf.where(col("v") =!= 0.0),
      """SELECT xs.cls AS c, xd.cls AS d, CAST(COUNT(*) AS DOUBLE) AS v
         FROM edges e
         JOIN labels xs ON e.src = xs.node
         JOIN labels xd ON e.dst = xd.node
         GROUP BY xs.cls, xd.cls""",
      "edges" -> g.edges, "labels" -> labelsDf)
  }

  private def argmaxOf(rows: (Long, Seq[Double])*): Map[Long, Int] = {
    import spark.implicits._
    GraphOps.argmaxLabels(rows.toDF("node", "v")).as[(Long, Int)].collect().toMap
  }

  test("argmaxLabels picks the max belief with ties to the smaller class") {
    val got = argmaxOf(
      0L -> Seq(0.2, 0.9, 0.1),  // clear winner: 1
      1L -> Seq(0.5, 0.5, 0.1),  // tie: 0
      2L -> Seq(0.1, 0.7, 0.7))  // tie: 1
    assert(got == Map(0L -> 1, 1L -> 0, 2L -> 1))
  }

  test("argmaxLabels handles negative beliefs") {
    val got = argmaxOf(
      0L -> Seq(-0.5, -0.2, -0.1),  // least negative: 2
      1L -> Seq(-0.1, -0.3, -0.1),  // tie among negatives: 0
      2L -> Seq(-0.4, 0.0, -0.6))   // zero beats negatives: 1
    assert(got == Map(0L -> 2, 1L -> 0, 2L -> 1))
  }

  test("argmaxLabels maps an all-zero row to class 0") {
    assert(argmaxOf(5L -> Seq(0.0, 0.0, 0.0)) == Map(5L -> 0))
  }

  test("distributed spectral radius matches the dense reference") {
    val expected = w.spectralRadius()
    val got = GraphOps.spectralRadius(g, iters = 40)
    assert(math.abs(got - expected) / expected < 0.01, s"got $got expected $expected")
  }

  private def assertRho(edges: Seq[(Int, Int)], nodes: Int): Unit = {
    val expected = DenseRef.adjacency(nodes, edges).spectralRadius()
    val got = GraphOps.spectralRadius(LocalGraphs.graph(spark, nodes, edges))
    assert(math.abs(got - expected) <= 0.01 * expected, s"got $got expected $expected")
  }

  test("spectral radius of an even cycle (bipartite, eigenvalues ±ρ)") {
    assertRho((0 until 8).map(i => (i, (i + 1) % 8)), 8)
  }

  test("spectral radius of a star") {
    assertRho((1 to 9).map(i => (0, i)), 10)
  }

  test("spectral radius of two disconnected components is the larger one's") {
    val clique = for (i <- 0 until 5; j <- i + 1 until 5) yield (i, j)
    val path = (5 until 11).map(i => (i, i + 1))
    assertRho(clique ++ path, 12)
  }

  test("spectral radius of a graph with no edges is 0") {
    assert(GraphOps.spectralRadius(LocalGraphs.graph(spark, 4, Seq.empty)) == 0.0)
  }

  test("explicitPower matches dense W^ℓ for ℓ = 1..3") {
    for (l <- 1 to 3) {
      val p = GraphOps.explicitPower(g.edges, l).collect()
        .map(r => (r.getLong(0).toInt, r.getLong(1).toInt) -> r.getDouble(2)).toMap
      val expected = w.pow(l)
      for (i <- 0 until n; j <- 0 until n) {
        assert(p.getOrElse((i, j), 0.0) == expected(i, j), s"l=$l ($i,$j)")
      }
    }
  }

  test("wideFormat/toDense round-trips, longFormat keeps the nonzeros") {
    val f = Dense.random(7, 4, seed = 21)
    val wide = LocalGraphs.wideFormat(spark, f)
    assert(LocalGraphs.toDense(wide, 7, 4).approxEquals(f, 0))
    val long = LocalGraphs.longFormat(wide).collect()
      .map(r => (r.getLong(0).toInt, r.getInt(1)) -> r.getDouble(2)).toMap
    assert(long == (for (i <- 0 until 7; j <- 0 until 4 if f(i, j) != 0.0) yield (i, j) -> f(i, j)).toMap)
  }
}
