package main

import (
	"fmt"
	"math"
	"runtime/metrics"
)

// layerCounters is a snapshot of the counters the program itself keeps,
// summed over nodes, or the sum of their increments over the traced
// phases.
type layerCounters struct {
	evals, matches   float64
	records, fsyncs  float64
	walBytes         float64
	ckptFull, ckptDt float64
	gc               float64
	// fsyncP99 is not a counter: add keeps the latest reading.
	fsyncP99 float64
}

// add accumulates the increments in o, which minus produced.
func (c *layerCounters) add(o layerCounters) {
	c.evals += o.evals
	c.matches += o.matches
	c.records += o.records
	c.fsyncs += o.fsyncs
	c.walBytes += o.walBytes
	c.ckptFull += o.ckptFull
	c.ckptDt += o.ckptDt
	c.gc += o.gc
	c.fsyncP99 = o.fsyncP99
}

// minus returns the increments from snapshot o to snapshot c.
func (c layerCounters) minus(o layerCounters) layerCounters {
	return layerCounters{
		evals: c.evals - o.evals, matches: c.matches - o.matches,
		records: c.records - o.records, fsyncs: c.fsyncs - o.fsyncs,
		walBytes: c.walBytes - o.walBytes,
		ckptFull: c.ckptFull - o.ckptFull, ckptDt: c.ckptDt - o.ckptDt,
		gc: c.gc - o.gc, fsyncP99: c.fsyncP99,
	}
}

func readLayers(nodes []*node) layerCounters {
	var c layerCounters
	for _, n := range nodes {
		e, m := n.dec.Counts()
		c.evals += float64(e)
		c.matches += float64(m)
		reg := n.tel.Registry()
		ck := reg.Counter("masc_store_checkpoint_records_total", "", "kind")
		c.ckptFull += float64(ck.With("full").Value())
		c.ckptDt += float64(ck.With("delta").Value())
		if n.st != nil {
			st := n.st.Stats()
			c.records += float64(st.Records)
			c.fsyncs += float64(st.Fsyncs)
			c.walBytes += reg.Histogram("masc_store_record_bytes", "", nil).With().Sum()
			c.fsyncP99 = reg.Histogram("masc_store_fsync_seconds", "", nil).With().Quantile(0.99)
		}
	}
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	c.gc = float64(s[0].Value.Uint64())
	return c
}

// perLayer turns the traced window's events and counters into the
// per-layer metrics. msg is non-empty when the stages fail to account
// for the server-side time or an op left no trace.
func perLayer(events map[string][]traceEvent, ops []tracedOp,
	c layerCounters, process bool) (map[string]metric, string) {
	var s layerSums
	missing, incomplete := 0, 0
	for _, op := range ops {
		evs := events[op.Conv]
		if op.Inst != "" {
			evs = append(append([]traceEvent(nil), evs...), events[op.Inst]...)
		}
		if len(evs) == 0 {
			missing++
			continue
		}
		if !s.add(evs, process) {
			incomplete++
		}
	}
	n := float64(s.ops)
	if n == 0 {
		return map[string]metric{}, "no traced ops"
	}
	us := func(ns int64) float64 { return float64(ns) / n / 1e3 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	busSelf := s.admit + s.pre + s.recov + s.post + s.finish
	local := s.ops - s.forwarded
	unattributed := 100 * ratio(float64(s.server-s.covered), float64(s.server))
	m := map[string]metric{
		"ingress.self_us":            {us(s.ingress), "us"},
		"ingress.req_bytes":          {float64(s.reqBytes) / n, "B"},
		"ingress.resp_bytes":         {float64(s.respBytes) / n, "B"},
		"cluster.forwarded_ratio":    {float64(s.forwarded) / n, "ratio"},
		"cluster.route_us":           {ratio(float64(s.route), float64(local)) / 1e3, "us"},
		"cluster.hop_us":             {ratio(float64(s.hop), float64(s.forwarded)) / 1e3, "us"},
		"bus.admit_us":               {us(s.admit), "us"},
		"bus.pre_us":                 {us(s.pre), "us"},
		"bus.post_us":                {us(s.post), "us"},
		"bus.finish_us":              {us(s.finish), "us"},
		"bus.self_us":                {us(busSelf), "us"},
		"bus.attempts_per_op":        {float64(s.attempts) / n, "count"},
		"bus.overhead_x":             {ratio(float64(busSelf+s.backend), float64(s.backend)), "x"},
		"bus.recovery_us":            {us(s.recov), "us"},
		"bus.recovered_ratio":        {float64(s.recovered) / n, "ratio"},
		"policy.evals_per_op":        {c.evals / n, "count"},
		"policy.matches_per_op":      {c.matches / n, "count"},
		"backend.us_per_attempt":     {ratio(float64(s.backend), float64(s.attempts)) / 1e3, "us"},
		"backend.drift_pct":          {s.drift(), "%"},
		"workflow.start_us":          {us(s.wfStart), "us"},
		"workflow.invoke_us":         {us(s.wfInvoke), "us"},
		"workflow.self_us":           {us(s.wfSelf), "us"},
		"workflow.activities_per_op": {float64(s.activities) / n, "count"},
		"checkpoint.save_us":         {us(s.ckptSave), "us"},
		"checkpoint.finish_us":       {us(s.ckptFinish), "us"},
		"checkpoint.full_per_op":     {c.ckptFull / n, "count"},
		"checkpoint.delta_per_op":    {c.ckptDt / n, "count"},
		"store.records_per_op":       {c.records / n, "count"},
		"store.fsyncs_per_op":        {c.fsyncs / n, "count"},
		"store.records_per_fsync":    {ratio(c.records, c.fsyncs), "count"},
		"store.fsync_p99_ms":         {c.fsyncP99 * 1e3, "ms"},
		"store.wal_bytes_per_op":     {c.walBytes / n, "B"},
		"runtime.gc_per_kop":         {c.gc / n * 1000, "count"},
		"trace.unattributed_pct":     {unattributed, "%"},
	}
	// Stages tile the server-side time by construction, so coverage
	// alone cannot catch a stage taken with the wrong sign or counted
	// twice; a negative sum can.
	stages := []struct {
		name string
		ns   int64
	}{
		{"ingress", s.ingress}, {"cluster.route", s.route}, {"cluster.hop", s.hop},
		{"bus.admit", s.admit}, {"bus.pre", s.pre}, {"bus.recovery", s.recov},
		{"bus.post", s.post}, {"bus.finish", s.finish}, {"backend", s.backend},
		{"workflow.start", s.wfStart}, {"workflow.invoke", s.wfInvoke}, {"workflow.self", s.wfSelf},
		{"checkpoint.save", s.ckptSave}, {"checkpoint.finish", s.ckptFinish},
	}
	var msg string
	for _, st := range stages {
		if st.ns < 0 {
			msg = fmt.Sprintf("stage %s sums to %d ns, less than zero", st.name, st.ns)
			break
		}
	}
	switch {
	case msg != "":
	case missing > 0:
		msg = fmt.Sprintf("%d of %d traced ops left no spans", missing, len(ops))
	case incomplete > 0:
		msg = fmt.Sprintf("%d of %d traced ops left a span open", incomplete, len(ops))
	case math.Abs(unattributed) > unattributedTolerance:
		msg = fmt.Sprintf("stages leave %.2f%% of server-side time unattributed (tolerance %.0f%%)",
			unattributed, unattributedTolerance)
	}
	return m, msg
}
