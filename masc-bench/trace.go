package main

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/cluster"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/workflow"
)

// The traced run wraps layer boundaries through public seams only and
// records one event per boundary crossing, in memory, keyed by the
// conversation ID the client stamps on each request (or, inside a
// hosted process, by the instance ID the engine stamps on each
// invocation; the client maps one to the other from the response).
// A nil *tracer is the untraced run: every wrapper returns what it was
// given.

type evKind uint8

const (
	evFwdStart    evKind = iota // http.Handler around cluster.Node.Forward
	evFwdEnd                    //
	evIngStart                  // http.Handler around the SOAP/HTTP endpoint
	evIngEnd                    //
	evSvcStart                  // transport.Handler inside transport.HTTPHandler
	evSvcEnd                    //
	evBusStart                  // transport.Invoker handed to workflow.NewEngine
	evBusEnd                    //
	evModReq                    // timing bus.Module, request hook
	evModResp                   // timing bus.Module, response hook
	evBackStart                 // transport.Invoker handed to bus.New
	evBackEnd                   //
	evActStart                  // RuntimeService.ActivityStarted, any activity
	evInvokeStart               // ActivityStarted of an invoke activity
	evInvokeEnd                 // ActivityCompleted of an invoke activity
	evCkptStart                 // PersistenceService save hooks
	evCkptEnd                   //
	evFinStart                  // PersistenceService.InstanceFinished
	evFinEnd                    //
)

type traceEvent struct {
	kind evKind
	t    int64 // ns since tracer start, monotonic
	n    int64 // bytes, on ingress events
}

type tracer struct {
	on   atomic.Bool
	base time.Time
	// open counts HTTP spans started and not yet ended. A client may
	// hold its answer before the handler around it returns, so a phase
	// can end with spans still open.
	open atomic.Int64

	mu     sync.Mutex
	events map[string][]traceEvent
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), events: make(map[string][]traceEvent)}
}

// now is the tracer's clock, in ns since it started.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(key string, kind evKind, n int64) {
	if key == "" {
		return
	}
	t.mu.Lock()
	t.events[key] = append(t.events[key], traceEvent{kind: kind, t: t.now(), n: n})
	t.mu.Unlock()
}

// settle waits, for at most a few seconds, until every HTTP span
// started so far has ended, so that take sees each traced op whole.
func (t *tracer) settle() {
	for deadline := time.Now().Add(5 * time.Second); t.open.Load() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// take removes and returns every event recorded so far.
func (t *tracer) take() map[string][]traceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	ev := t.events
	t.events = make(map[string][]traceEvent)
	return ev
}

// envKey is the span key of an envelope inside the gateway: the process
// instance when the engine sent it, else the client's conversation.
func envKey(env *soap.Envelope) string {
	if id := soap.ProcessInstanceID(env); id != "" {
		return id
	}
	return soap.ConversationID(env)
}

func (t *tracer) forward(h http.Handler) http.Handler { return t.httpSpan(h, evFwdStart, false) }
func (t *tracer) ingress(h http.Handler) http.Handler { return t.httpSpan(h, evIngStart, true) }

// httpSpan records start (kind) and end (kind+1) around h, keyed by
// the conversation header; with bytes it also records the request and
// response body sizes.
func (t *tracer) httpSpan(h http.Handler, kind evKind, bytes bool) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		key := r.Header.Get(cluster.ConversationHTTPHeader)
		t.open.Add(1)
		defer t.open.Add(-1)
		t.record(key, kind, r.ContentLength)
		if !bytes {
			h.ServeHTTP(w, r)
			t.record(key, kind+1, 0)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		t.record(key, kind+1, cw.n)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// service wraps the SOAP service behind transport.HTTPHandler.
func (t *tracer) service(h transport.Handler) transport.Handler {
	if t == nil {
		return h
	}
	return transport.HandlerFunc(func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		if !t.on.Load() {
			return h.Serve(ctx, req)
		}
		key := soap.ConversationID(req)
		t.record(key, evSvcStart, 0)
		resp, err := h.Serve(ctx, req)
		t.record(key, evSvcEnd, 0)
		return resp, err
	})
}

// invoker records start (kind) and end (kind+1) around inv.
func (t *tracer) invoker(inv transport.Invoker, kind evKind) transport.Invoker {
	if t == nil {
		return inv
	}
	return transport.InvokerFunc(func(ctx context.Context, addr string, req *soap.Envelope) (*soap.Envelope, error) {
		if !t.on.Load() {
			return inv.Invoke(ctx, addr, req)
		}
		key := envKey(req)
		t.record(key, kind, 0)
		resp, err := inv.Invoke(ctx, addr, req)
		t.record(key, kind+1, 0)
		return resp, err
	})
}

// downstream wraps the backend transport handed to bus.New.
func (t *tracer) downstream(inv transport.Invoker) transport.Invoker {
	return t.invoker(inv, evBackStart)
}

// engineInvoker wraps the gateway as the workflow engine's invoker.
func (t *tracer) engineInvoker(inv transport.Invoker) transport.Invoker {
	return t.invoker(inv, evBusStart)
}

// module is the timing bus.Module appended to the VEP pipeline: its
// request hook runs just before the monitor's pre-check, its response
// hook just after the post-check.
func (t *tracer) module() bus.Module { return timingModule{t} }

type timingModule struct{ t *tracer }

func (timingModule) ModuleName() string { return "masc-bench-timing" }

func (m timingModule) ProcessRequest(mc *bus.MessageContext) error {
	if m.t.on.Load() {
		m.t.record(envKey(mc.Request), evModReq, 0)
	}
	return nil
}

func (m timingModule) ProcessResponse(mc *bus.MessageContext) error {
	if m.t.on.Load() {
		m.t.record(envKey(mc.Request), evModResp, 0)
	}
	return nil
}

// runtimeService decorates the persistence service registered with the
// engine, timing its save hooks and the invoke activities between them.
func (t *tracer) runtimeService(p *workflow.PersistenceService) workflow.RuntimeService {
	if t == nil {
		return p
	}
	return &timedPersistence{t: t, p: p}
}

type timedPersistence struct {
	t *tracer
	p *workflow.PersistenceService
}

var _ workflow.InstanceUpdateObserver = (*timedPersistence)(nil)

func (d *timedPersistence) save(inst *workflow.Instance, kind evKind, fn func()) {
	if !d.t.on.Load() {
		fn()
		return
	}
	d.t.record(inst.ID(), kind, 0)
	fn()
	d.t.record(inst.ID(), kind+1, 0)
}

func (d *timedPersistence) InstanceCreated(inst *workflow.Instance) {
	d.save(inst, evCkptStart, func() { d.p.InstanceCreated(inst) })
}

func (d *timedPersistence) InstanceUpdated(inst *workflow.Instance) {
	d.save(inst, evCkptStart, func() { d.p.InstanceUpdated(inst) })
}

func (d *timedPersistence) InstanceFinished(inst *workflow.Instance, s workflow.State, err error) {
	d.save(inst, evFinStart, func() { d.p.InstanceFinished(inst, s, err) })
}

func (d *timedPersistence) ActivityStarted(inst *workflow.Instance, a workflow.Activity) {
	if d.t.on.Load() {
		d.t.record(inst.ID(), evActStart, 0)
		if _, ok := a.(*workflow.Invoke); ok {
			d.t.record(inst.ID(), evInvokeStart, 0)
		}
	}
	d.p.ActivityStarted(inst, a)
}

func (d *timedPersistence) ActivityCompleted(inst *workflow.Instance, a workflow.Activity, err error) {
	if _, ok := a.(*workflow.Invoke); ok && d.t.on.Load() {
		d.t.record(inst.ID(), evInvokeEnd, 0)
	}
	d.save(inst, evCkptStart, func() { d.p.ActivityCompleted(inst, a, err) })
}

// layerSums accumulates per-stage time (ns) and counts over traced ops.
type layerSums struct {
	ops, forwarded                  int
	server, covered                 int64
	ingress, reqBytes, respBytes    int64
	route, hop                      int64
	admit, pre, post, finish, recov int64
	backend                         int64
	attempts, recovered             int
	wfStart, wfInvoke, wfSelf       int64
	activities                      int
	ckptSave, ckptFinish            int64
	backends                        []backendSample
}

// backendSample is one backend attempt: when it started and how long
// it took, for the drift guard.
type backendSample struct{ start, dur int64 }

// exchange is one mediated exchange inside an op: gateway entry and
// exit, the timing module's hooks, and the backend attempts between.
type exchange struct {
	enter, modReq, modResp, exit int64
	backs                        [][2]int64
}

// add folds one op's events into s and reports whether it could: an op
// whose ingress or forward span never ended has no server-side time.
// evs holds the op's events in the order they were recorded, which is
// causal order for one op. process says the op ran as a hosted
// instance: the gateway is entered through the engine's invoker rather
// than through the SOAP service.
func (s *layerSums) add(evs []traceEvent, process bool) bool {
	var (
		fwd                 [][2]int64
		ing, svc, fin       [2]int64
		cur                 *exchange
		exs                 []exchange
		firstAct            int64 = -1
		ckptBefore, ckptAll int64
		ckptStart, invStart int64
		invokes             int64
		acts                int
	)
	enterKind, exitKind := evSvcStart, evSvcEnd
	if process {
		enterKind, exitKind = evBusStart, evBusEnd
	}
	for _, e := range evs {
		switch e.kind {
		case evFwdStart:
			fwd = append(fwd, [2]int64{e.t, -1})
		case evFwdEnd:
			// Forward spans nest: the innermost open one ends first.
			for i := len(fwd) - 1; i >= 0; i-- {
				if fwd[i][1] < 0 {
					fwd[i][1] = e.t
					break
				}
			}
		case evIngStart:
			ing[0] = e.t
			s.reqBytes += e.n
		case evIngEnd:
			ing[1] = e.t
			s.respBytes += e.n
		}
		switch e.kind {
		case enterKind:
			cur = &exchange{enter: e.t}
		case evModReq:
			if cur != nil {
				cur.modReq = e.t
			}
		case evBackStart:
			if cur != nil {
				cur.backs = append(cur.backs, [2]int64{e.t, -1})
			}
		case evBackEnd:
			if cur != nil && len(cur.backs) > 0 {
				cur.backs[len(cur.backs)-1][1] = e.t
			}
		case evModResp:
			if cur != nil {
				cur.modResp = e.t
			}
		case exitKind:
			if cur != nil {
				cur.exit = e.t
				exs = append(exs, *cur)
				cur = nil
			}
		}
		switch e.kind {
		case evSvcStart:
			svc[0] = e.t
		case evSvcEnd:
			svc[1] = e.t
		case evActStart:
			acts++
			if firstAct < 0 {
				firstAct = e.t
			}
		case evInvokeStart:
			invStart = e.t
		case evInvokeEnd:
			invokes += e.t - invStart
		case evCkptStart:
			ckptStart = e.t
		case evCkptEnd:
			ckptAll += e.t - ckptStart
			if firstAct < 0 {
				ckptBefore += e.t - ckptStart
			}
		case evFinStart:
			fin[0] = e.t
		case evFinEnd:
			fin[1] = e.t
		}
	}

	if ing[0] == 0 || ing[1] == 0 {
		return false
	}
	for _, f := range fwd {
		if f[1] < 0 {
			return false
		}
	}
	s.ops++
	server := ing[1] - ing[0]
	covered := int64(0)
	if len(fwd) > 0 {
		outer := fwd[0][1] - fwd[0][0]
		server = outer
		if len(fwd) > 1 {
			s.forwarded++
			s.hop += outer - (ing[1] - ing[0])
		} else {
			s.route += outer - (ing[1] - ing[0])
		}
		covered += outer - (ing[1] - ing[0])
	}
	s.server += server
	ingSelf := (ing[1] - ing[0]) - (svc[1] - svc[0])
	s.ingress += ingSelf
	covered += ingSelf

	var busTotal int64
	for _, x := range exs {
		busTotal += x.exit - x.enter
		if x.modReq == 0 || x.modResp == 0 || len(x.backs) == 0 {
			continue // incomplete: its time stays unattributed
		}
		first, last := x.backs[0], x.backs[len(x.backs)-1]
		var back int64
		for _, b := range x.backs {
			back += b[1] - b[0]
			s.backends = append(s.backends, backendSample{start: b[0], dur: b[1] - b[0]})
		}
		recov := (last[1] - first[1]) - (back - (first[1] - first[0]))
		s.admit += x.modReq - x.enter
		s.pre += first[0] - x.modReq
		s.recov += recov
		s.post += x.modResp - last[1]
		s.finish += x.exit - x.modResp
		s.backend += back
		s.attempts += len(x.backs)
		if len(x.backs) > 1 {
			s.recovered++
		}
		covered += x.exit - x.enter
	}

	if process && firstAct >= 0 {
		start := (firstAct - svc[0]) - ckptBefore
		finish := fin[1] - fin[0]
		s.wfStart += start
		s.wfInvoke += invokes - busTotal
		s.wfSelf += (svc[1] - svc[0]) - start - ckptAll - invokes - finish
		s.ckptSave += ckptAll
		s.ckptFinish += finish
		s.activities += acts
		covered += svc[1] - svc[0] - busTotal
	}
	s.covered += covered
	return true
}

// drift compares the median backend attempt time in the last tenth of
// the traced window with the first tenth, in percent. Medians, because
// a tenth holds few attempts and a mean follows its slowest one.
func (s *layerSums) drift() float64 {
	b := s.backends
	if len(b) < 20 {
		return 0
	}
	sort.Slice(b, func(i, j int) bool { return b[i].start < b[j].start })
	t0, t1 := b[0].start, b[len(b)-1].start
	span := (t1 - t0) / 10
	var first, last []float64
	for _, x := range b {
		switch {
		case x.start <= t0+span:
			first = append(first, float64(x.dur))
		case x.start >= t1-span:
			last = append(last, float64(x.dur))
		}
	}
	if len(first) == 0 || len(last) == 0 {
		return 0
	}
	return (median(last)/median(first) - 1) * 100
}
