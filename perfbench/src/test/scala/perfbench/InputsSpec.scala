package perfbench

class InputsSpec extends SparkSuite {

  private val spec = PipelineSmall.spec

  private def ingested(in: Inputs, slices: Int) = {
    val g = Program.ingest(spark, in.n, in.edgeFrame(spark, slices))
    val edges = Program.edges(g).collect().map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq
    val seeds = in.seedFrame(spark, slices).collect().map(r => (r.getLong(0), r.getInt(1))).sorted.toSeq
    (edges, seeds)
  }

  test("the same seed gives identical edges and seeds at two slice counts") {
    val a = Inputs.generate(spec, 7)
    val b = Inputs.generate(spec, 7)
    assert(a.src.sameElements(b.src) && a.dst.sameElements(b.dst) && a.seeds.sameElements(b.seeds))
    val (e1, s1) = ingested(a, 1)
    val (e7, s7) = ingested(b, 7)
    assert(e1 == e7)
    assert(s1 == s7)
    assert(e1.size == 2 * a.m)
  }

  test("another seed gives other inputs") {
    val a = Inputs.generate(spec, 7)
    val b = Inputs.generate(spec, 8)
    assert(!a.src.sameElements(b.src))
    assert(!a.seeds.sameElements(b.seeds))
  }

  test("n, m, class sizes and seed counts match the workload") {
    for (w <- Workload.all; seed <- Seq(1L, 2L)) {
      val in = Inputs.generate(w.spec, seed)
      val s = w.spec
      assert(in.n == s.n && in.cls.length == s.n)
      assert(in.classSizes.sum == s.n)
      assert(in.classSizes.max - in.classSizes.min <= 1)
      for (c <- 0 until s.k) assert(in.cls.count(_ == c) == in.classSizes(c))
      // Self-loops and duplicate draws are the only loss.
      assert(math.abs(in.src.length - s.edgeDraws) <= s.k * s.k)
      assert(in.m <= in.src.length && in.m >= 0.95 * s.edgeDraws, s"m = ${in.m}")
      for (c <- 0 until s.k) {
        val want = math.max(1, math.round(s.f * in.classSizes(c)).toInt)
        assert(in.seeds.count(v => in.cls(v) == c) == want)
      }
      assert(in.seeds.distinct.length == in.seeds.length)
    }
  }

  test("the drawn degrees follow a power law: low ranks get more edges") {
    val in = Inputs.generate(spec, 3)
    val first = in.classSizes(0)
    val head = (0 until first / 10).map(in.degree).sum
    val tail = (first - first / 10 until first).map(in.degree).sum
    assert(head > 2 * tail, s"head $head, tail $tail")
  }
}
