// Command masc-bench is the repository's performance benchmark: it
// assembles mascd's gateway in-process, serves it over loopback HTTP,
// drives it from a seeded load generator in a second process, checks
// every answer, and prints one JSON result line. See README.md for the
// workloads, the metrics, and the mascd options it mirrors.
//
//	go run . -workload gateway -seed 1 -seconds 24 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
)

// workload is one traffic mix and the topology that serves it.
type workload struct {
	// rate is the open-loop phase's fixed rate in ops/s: about a third
	// of the median closed-loop throughput measured on a 2-vCPU loopback
	// VM, chosen once and never derived at run time.
	rate float64
	// closedRate, when set, makes each closed-loop phase send a fixed
	// number of ops, closedRate times the phase's length, rather than
	// run for that length. process-durable needs it: the engine and the
	// store keep every finished instance, so the heap a round sees and
	// the memory a run ends with follow how many instances ran before
	// it. With a fixed count they do not move with throughput.
	closedRate float64
	// failRate is the share of invocations retailer A fails.
	failRate float64
	durable  bool
	nodes    int
}

var workloads = map[string]workload{
	"gateway":         {rate: 800, nodes: 1},
	"faults":          {rate: 800, failRate: 0.25, nodes: 1},
	"process-durable": {rate: 250, closedRate: 1000, durable: true, nodes: 1},
	"cluster-sprayed": {rate: 700, nodes: 2},
}

const (
	// setups is how many times a run builds its topology; setup_s is
	// the median.
	setups = 61
	// rounds is how many closed-plus-open rounds the measured time is
	// split into.
	rounds = 12
	// warmupMinOps and warmupMax bound the warm-up, which otherwise runs
	// until every bounded ring is full, in closed-loop slices of
	// warmupSliceOps ops.
	warmupMinOps   = 2000
	warmupMax      = 30 * time.Second
	warmupSliceOps = 250
	// monitorWindow is the MonitoringStore's default message window.
	monitorWindow = 1024
	// unattributedTolerance is how much of the traced server-side time,
	// in percent, the stage times may leave unexplained.
	unattributedTolerance = 5.0
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

func main() {
	var o options
	var trace int
	var generate bool
	var urls string
	flag.StringVar(&o.workload, "workload", "gateway", "workload: gateway, faults, process-durable, cluster-sprayed")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 24, "measured seconds (closed plus open phases)")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", "", "directory for the stores a run opens (default: the system temp dir)")
	flag.BoolVar(&generate, "generate", false, "run as the load generator of a parent masc-bench")
	flag.StringVar(&urls, "urls", "", "generator: comma-separated node base URLs")
	flag.Parse()
	o.trace = trace == 1
	var err error
	if generate {
		err = generatorMain(o.workload, o.seed, strings.Split(urls, ","))
	} else {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "masc-bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	dir, err := os.MkdirTemp(o.workdir, "masc-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	base := nodeConfig{failRate: w.failRate, seed: o.seed, tr: tr}
	boot := func(k int) ([]*node, error) {
		if w.nodes > 1 {
			return bootCluster(w.nodes, base)
		}
		cfg := base
		if w.durable {
			cfg.dataDir = fmt.Sprintf("%s/data-%d", dir, k)
		}
		n, err := bootNode(cfg)
		if err != nil {
			return nil, err
		}
		return []*node{n}, nil
	}
	var nodes []*node
	setupTimes := make([]float64, setups)
	for k := range setupTimes {
		// Each set-up starts from a collected heap, so the collector
		// does not charge one set-up for the garbage of the last.
		runtime.GC()
		start := time.Now()
		nodes, err = boot(k)
		setupTimes[k] = time.Since(start).Seconds()
		if err != nil {
			return err
		}
		if k < setups-1 {
			closeAll(nodes)
		}
	}
	defer func() { closeAll(nodes) }()

	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url
	}
	gen, err := startGenerator(o, urls)
	if err != nil {
		return err
	}
	defer gen.stop()

	// Warm-up: closed-loop slices until every bounded ring has wrapped.
	var warmOps int64
	for start := time.Now(); warmOps < warmupMinOps || !ringsFull(nodes); {
		if time.Since(start) > warmupMax {
			return fmt.Errorf("warm-up: bounded rings not full after %d ops", warmOps)
		}
		rep, err := gen.closed(0, warmupSliceOps)
		if err != nil {
			return err
		}
		warmOps += rep.OK
	}

	rec := runRecord(o, w)
	m := map[string]metric{}
	correct := true
	// The measured time is split into rounds, each a closed-loop phase
	// then an open-loop phase; a metric is the median over rounds, so a
	// burst of host noise spoils one round, not the run, and both loops
	// sample the same stretch of host conditions.
	half := time.Duration(o.seconds) * time.Second / rounds / 2
	closedOps := int64(w.closedRate * half.Seconds())
	var r roundSeries
	probe := newSpeedProbe()
	// layers sums the program's own counters over the traced phases;
	// events collects their spans.
	var layers, before layerCounters
	events := map[string][]traceEvent{}
	for k := 0; k < rounds; k++ {
		t0, err := readCPUTimes()
		if err != nil {
			return err
		}
		if o.trace {
			// Tracing off and on for the same time or number of ops, in
			// alternate order from round to round, so that neither side
			// always meets the collector's cycles or the larger heap:
			// the CPU difference is the tracing overhead.
			for i := 0; i < 2; i++ {
				traced := i == k%2
				tr.on.Store(traced)
				cl, err := measureClosed(gen, half/2, closedOps/2)
				if err != nil {
					return err
				}
				if traced {
					r.TracedCPU = append(r.TracedCPU, cl.cpu)
				} else {
					r.CPU = append(r.CPU, cl.cpu)
				}
			}
			tr.on.Store(true)
			tr.take()
			before = readLayers(nodes)
		} else {
			ns, err := probe.read()
			if err != nil {
				return err
			}
			r.Probe = append(r.Probe, ns)
			cl, err := measureClosed(gen, half, closedOps)
			if err != nil {
				return err
			}
			r.RawThroughput = append(r.RawThroughput, cl.throughput)
			r.RawCPU = append(r.RawCPU, cl.cpu)
			r.Allocs = append(r.Allocs, cl.allocs)
			r.AllocBytes = append(r.AllocBytes, cl.allocBytes)
		}
		// Only open-loop phases are traced: per-layer times are measured
		// at the fixed rate, not under saturation.
		open, err := gen.open(w.rate, half, o.trace)
		if err != nil {
			return err
		}
		r.RawP50 = append(r.RawP50, open.P50)
		r.P99 = append(r.P99, open.P99)
		r.Lag50 = append(r.Lag50, open.Lag50)
		if o.trace {
			tr.on.Store(false)
			layers.add(readLayers(nodes).minus(before))
			tr.settle()
			for key, ev := range tr.take() {
				events[key] = ev
			}
		}
		t1, err := readCPUTimes()
		if err != nil {
			return err
		}
		r.Steal = append(r.Steal, stealShare(t0, t1))
	}
	if !o.trace {
		// The host's speed is taken over the run, because one probe can
		// meet the collector's marking on the other core; steal is
		// taken per round, because storms come and go within a run.
		speed := refProbeNs / median(r.Probe)
		for k, steal := range r.Steal {
			h := hostScale{speed: speed, avail: 1 - steal}
			r.Throughput = append(r.Throughput, r.RawThroughput[k]/h.wall())
			r.CPU = append(r.CPU, r.RawCPU[k]*h.speed)
			r.P50 = append(r.P50, r.RawP50[k]*h.wall())
		}
	}
	keep := cleanRounds(r.Steal)
	fin, err := gen.finish()
	if err != nil {
		return err
	}
	if !o.trace {
		m["setup_s"] = metric{median(setupTimes), "s"}
		m["throughput_ops_s"] = metric{medianOf(r.Throughput, keep), "ops/s"}
		m["cpu_us_per_op"] = metric{medianOf(r.CPU, keep), "us"}
		m["allocs_per_op"] = metric{medianOf(r.Allocs, keep), "count"}
		m["alloc_bytes_per_op"] = metric{medianOf(r.AllocBytes, keep), "B"}
		m["latency_p50_ms"] = metric{medianOf(r.P50, keep), "ms"}
		// The p99 is recorded but is no end-to-end metric: its spread
		// across seeds exceeds any bound a gate could use (README.md).
		rec["latency_p99_ms"] = fin.P99
	} else {
		var msg string
		m, msg = perLayer(events, fin.Traced, layers, w.durable)
		m["loadgen.lag_p50_ms"] = metric{medianOf(r.Lag50, keep), "ms"}
		m["loadgen.lag_p99_ms"] = metric{fin.Lag99, "ms"}
		m["loadgen.latency_p99_ms"] = metric{fin.P99, "ms"}
		m["loadgen.fail_ratio"] = metric{float64(fin.Failed) / float64(fin.Attempted), "ratio"}
		m["trace.overhead_pct"] = metric{(meanOf(r.TracedCPU, keep)/meanOf(r.CPU, keep) - 1) * 100, "%"}
		if msg != "" {
			correct = false
			rec["trace_error"] = msg
		}
	}

	if w.nodes > 1 {
		var fwd, fwdErr uint64
		for _, n := range nodes {
			reg := n.tel.Registry()
			fwd += reg.Counter("masc_cluster_forwarded_total", "", "direction").With("out").Value()
			fwdErr += reg.Counter("masc_cluster_forward_errors_total", "").With().Value()
		}
		rec["forwarded"], rec["forwarded_predicted"] = fwd, fin.Forwards
		if int64(fwd) != fin.Forwards || fwdErr != 0 {
			correct = false
			rec["forward_error"] = fmt.Sprintf("forwarded %d exchanges (%d forward errors), ring predicts %d",
				fwd, fwdErr, fin.Forwards)
		}
	}

	closeAll(nodes)
	nodes = nil
	if !o.trace {
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		m["max_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MiB"}
	} else {
		m["runtime.goroutines_end"] = metric{float64(runtime.NumGoroutine()), "count"}
	}

	res := result{
		Correct:   correct && fin.Failed == 0,
		Attempted: fin.Attempted,
		Failed:    fin.Failed,
		Metrics:   m,
	}
	rec["setup_s_each"] = setupTimes
	rec["ops"] = map[string]int64{"warmup": warmOps, "open_due": int64(fin.OpenOps)}
	rec["rounds"] = r
	rec["rounds_kept"] = keep
	if fin.FirstErr != "" {
		rec["first_failure"] = fin.FirstErr
	}
	if err := emit(map[string]interface{}{"run": rec}); err != nil {
		return err
	}
	summary(o.workload, m)
	return emit(res)
}

func emit(v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// summary prints the metrics as a table on stderr.
func summary(name string, m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "%-16s %-26s %14.4f %s\n", name, k, m[k].Value, m[k].Unit)
	}
}

// runRecord describes the host and the run, for the output.
func runRecord(o options, w workload) map[string]interface{} {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		vcs := map[string]string{}
		for _, s := range bi.Settings {
			vcs[s.Key] = s.Value
		}
		if rev := vcs["vcs.revision"]; rev != "" {
			commit = rev
			if vcs["vcs.modified"] == "true" {
				commit += " (modified)"
			}
		}
	}
	rates := map[string]float64{}
	for name, wl := range workloads {
		rates[name] = wl.rate
	}
	return map[string]interface{}{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"traffic":    "loopback HTTP/1.1, server and generator in separate processes",
		"rate_ops_s": w.rate,
		"rates":      rates,
		"clients":    runtime.NumCPU(),
	}
}

// ringsFull reports whether every node's bounded rings have wrapped:
// the journal, the decision ring, and the MonitoringStore window.
func ringsFull(nodes []*node) bool {
	for _, n := range nodes {
		if n.tel.Logs().Len() < telemetry.DefaultJournalCapacity ||
			n.dec.Len() < decision.DefaultCapacity ||
			n.gateway.Monitor().Store().Len() < monitorWindow {
			return false
		}
	}
	return true
}

// roundSeries holds one value per round for each metric taken as a
// median over rounds.
type roundSeries struct {
	Throughput []float64 `json:"throughput_ops_s,omitempty"`
	CPU        []float64 `json:"cpu_us_per_op,omitempty"`
	Allocs     []float64 `json:"allocs_per_op,omitempty"`
	AllocBytes []float64 `json:"alloc_bytes_per_op,omitempty"`
	P50        []float64 `json:"latency_p50_ms"`
	P99        []float64 `json:"latency_p99_ms"`
	Lag50      []float64 `json:"lag_p50_ms"`
	// TracedCPU is the traced run's CPU per op with tracing on; its
	// CPU holds the same with tracing off.
	TracedCPU []float64 `json:"traced_cpu_us_per_op,omitempty"`
	// Steal is each round's share of the host's CPU time stolen.
	Steal []float64 `json:"steal_share"`
	// Probe is the speed probe's ns per step; the Raw series hold
	// throughput, CPU per op and p50 as measured, which Throughput, CPU
	// and P50 scale to the reference host.
	Probe         []float64 `json:"probe_ns,omitempty"`
	RawThroughput []float64 `json:"raw_throughput_ops_s,omitempty"`
	RawCPU        []float64 `json:"raw_cpu_us_per_op,omitempty"`
	RawP50        []float64 `json:"raw_latency_p50_ms"`
}

// closedStats is one closed-loop phase's per-op costs.
type closedStats struct{ throughput, cpu, allocs, allocBytes float64 }

// measureClosed runs a closed-loop phase and divides the server
// process's CPU time and heap allocations over its succeeded ops.
func measureClosed(gen *genProc, d time.Duration, ops int64) (closedStats, error) {
	before := sample()
	rep, err := gen.closed(d, ops)
	after := sample()
	if err != nil {
		return closedStats{}, err
	}
	if rep.OK == 0 {
		return closedStats{}, fmt.Errorf("a closed-loop phase completed no ops")
	}
	n := float64(rep.OK)
	return closedStats{
		throughput: n / rep.Elapsed,
		cpu:        (after.cpu - before.cpu) / n * 1e6,
		allocs:     (after.allocs - before.allocs) / n,
		allocBytes: (after.allocBytes - before.allocBytes) / n,
	}, nil
}

// processSample is process-wide CPU time and heap allocation totals.
type processSample struct{ cpu, allocs, allocBytes float64 }

var sampleNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes"}

func sample() processSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return processSample{
		cpu:        tv(ru.Utime) + tv(ru.Stime),
		allocs:     float64(s[0].Value.Uint64()),
		allocBytes: float64(s[1].Value.Uint64()),
	}
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between the order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
