package perfbench

class TraceSpec extends SparkSuite {

  test("two traced passes of pipeline-small give identical jobs, stages and shuffle counts") {
    val run = new Run(spark, Inputs.generate(PipelineSmall.spec, 1), new Ops)
    val tr = new Tracer(spark, traced = true)
    for (p <- 0 to 1) {
      run.ingest(tr, p)
      tr.span("pass", p)(PipelineSmall.pass(run, tr, p))
    }
    val spans = tr.spans()
    tr.close()
    assert(run.ops.failed == 0)
    def counts(p: Int): Map[String, Seq[Long]] =
      spans.filter(_.pass == p).groupBy(_.name).map { case (name, ss) =>
        val c = new Counts
        ss.foreach(s => c += s.counts)
        name -> Seq(c.jobs, c.stages, c.shuffleWriteBytes, c.shuffleReadRecords)
      }
    val (a, b) = (counts(0), counts(1))
    assert(a.keySet == Set("ingest", "pass", "sketch", "estimators", "rho", "linbp", "score.argmax", "score.accuracy"))
    assert(a == b)
    assert(a("sketch").head > 0 && a("estimators").head == 0)
    assert(spans.filter(_.name != "pass").forall(s => spans.exists(p => p.name == "pass" && p.id == s.parent) || s.name == "ingest"))
  }
}
