package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/cluster"
	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/xmltree"
)

// opKind is one kind of request in a workload's mix.
type opKind uint8

const (
	opCatalog opKind = iota // small getCatalog
	opOrder                 // submitOrder
	opPadded                // getCatalog with a 16 KiB padding element
	opProcess               // one OrderingProcess instance
)

// paddingBytes sizes the mix's large requests; the retailer echoes the
// padding, so the response is as large.
const paddingBytes = 16 << 10

// template is one request body with the conversation ID cut out, plus
// what a correct response to it must contain.
type template struct {
	kind           opKind
	path           string
	prefix, suffix []byte
	// products is how many Product elements a catalog answer lists;
	// lines is how many order lines must read "shipped".
	products, lines int
	customer        string
}

const convPlaceholder = "@@CONV@@"

func newTemplate(kind opKind, payload *xmltree.Element, action, path string) template {
	env := soap.NewRequest(payload)
	soap.Addressing{To: "vep:Retailer", Action: action}.Apply(env)
	bus.SetConversationID(env, convPlaceholder)
	text := env.MustEncode()
	i := strings.Index(text, convPlaceholder)
	return template{
		kind:   kind,
		path:   path,
		prefix: []byte(text[:i]),
		suffix: []byte(text[i+len(convPlaceholder):]),
	}
}

// generator turns an op index into a request. Op i depends only on the
// seed and i, so a seed fixes every run's inputs whatever order the
// clients take them in.
type generator struct {
	seed    uint64
	process bool
	catalog []template // by category
	padded  []template
	orders  []template
	nodes   int
	ring    *cluster.Ring
}

// categoryProducts counts the default catalog's products per category.
func categoryProducts() map[string]int {
	out := map[string]int{}
	for _, p := range scm.DefaultCatalog() {
		out[p.Category]++
	}
	return out
}

func newGenerator(seed int64, process bool, nodes int) *generator {
	g := &generator{seed: uint64(seed), process: process, nodes: nodes}
	counts := categoryProducts()
	cats := make([]string, 0, len(counts))
	for c := range counts {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	if process {
		// Each request starts one instance, which orders mascd's demo
		// item for customer cust-api.
		for _, c := range cats {
			t := newTemplate(opProcess, scm.NewGetCatalogRequest(c, 0), "getCatalog", "/process/OrderingProcess")
			t.lines, t.customer = 1, "cust-api"
			g.catalog = append(g.catalog, t)
		}
		return g
	}
	const path = "/vep/Retailer"
	for _, c := range cats {
		t := newTemplate(opCatalog, scm.NewGetCatalogRequest(c, 0), "getCatalog", path)
		t.products = counts[c]
		g.catalog = append(g.catalog, t)
		p := newTemplate(opPadded, scm.NewGetCatalogRequest(c, paddingBytes), "getCatalog", path)
		p.products = counts[c]
		g.padded = append(g.padded, p)
	}
	skus := scm.DefaultCatalog()
	for i := 0; i < 16; i++ {
		cust := fmt.Sprintf("cust-%d", i)
		items := []scm.OrderItem{{SKU: skus[i%len(skus)].SKU, Qty: 1 + i%3}}
		if i%2 == 1 {
			items = append(items, scm.OrderItem{SKU: skus[(i*5+3)%len(skus)].SKU, Qty: 1})
		}
		t := newTemplate(opOrder, scm.NewSubmitOrderRequest(cust, items, 0), "submitOrder", path)
		t.lines, t.customer = len(items), cust
		g.orders = append(g.orders, t)
	}
	if nodes > 1 {
		ids := make([]string, nodes)
		for i := range ids {
			ids[i] = nodeID(i)
		}
		g.ring = cluster.NewRing(0, ids...)
	}
	return g
}

// mix64 is SplitMix64's finalizer: a cheap, well-spread hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// op is one generated request.
type op struct {
	t    *template
	conv string
	node int
	// forwards is whether the cluster ring places conv on another node
	// than the one the client sends it to.
	forwards bool
}

// op returns request i: the gateway mix is 80% small getCatalog, 15%
// submitOrder, 5% 16 KiB padded getCatalog; the process workload sends
// small getCatalog requests that each start one instance.
func (g *generator) op(i uint64) op {
	h := mix64(g.seed*0x9e3779b97f4a7c15 + i)
	o := op{conv: "urn:masc:bench:" + strconv.FormatUint(g.seed, 10) + ":" + strconv.FormatUint(i, 10)}
	pick := h % 100
	switch {
	case g.process || pick < 80:
		o.t = &g.catalog[(h>>8)%uint64(len(g.catalog))]
	case pick < 95:
		o.t = &g.orders[(h>>8)%uint64(len(g.orders))]
	default:
		o.t = &g.padded[(h>>8)%uint64(len(g.padded))]
	}
	if g.nodes > 1 {
		o.node = int((h >> 24) % uint64(g.nodes))
		o.forwards = g.ring.Owner(o.conv) != nodeID(o.node)
	}
	return o
}

// client sends ops over loopback HTTP and checks each answer.
type client struct {
	gen  *generator
	urls []string
	http *http.Client
	// tracing makes do note every succeeded op for the trace.
	tracing atomic.Bool

	attempted, failed, forwards atomic.Int64
	firstErr                    atomic.Value // string

	tracedMu sync.Mutex
	traced   []tracedOp
}

// tracedOp names a succeeded op's span keys: its conversation and, for
// a hosted process, the instance that served it.
type tracedOp struct {
	Conv string `json:"conv"`
	Inst string `json:"inst,omitempty"`
}

func newClient(gen *generator, urls []string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{
		gen:  gen,
		urls: urls,
		http: &http.Client{Transport: tr, Timeout: 30 * time.Second},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends op i and reports whether it succeeded and passed its check.
func (c *client) do(i uint64) bool {
	o := c.gen.op(i)
	c.attempted.Add(1)
	if o.forwards {
		c.forwards.Add(1)
	}
	body := make([]byte, 0, len(o.t.prefix)+len(o.conv)+len(o.t.suffix))
	body = append(append(append(body, o.t.prefix...), o.conv...), o.t.suffix...)
	req, err := http.NewRequest(http.MethodPost, c.urls[o.node]+o.t.path, bytes.NewReader(body))
	if err != nil {
		return c.fail(err.Error())
	}
	req.Header.Set("Content-Type", "text/xml; charset=utf-8")
	req.Header.Set(cluster.ConversationHTTPHeader, o.conv)
	resp, err := c.http.Do(req)
	if err != nil {
		return c.fail(err.Error())
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return c.fail(err.Error())
	}
	if resp.StatusCode != http.StatusOK {
		return c.fail(fmt.Sprintf("%s: HTTP %d: %.200s", o.t.path, resp.StatusCode, out))
	}
	if msg := check(o, out); msg != "" {
		return c.fail(msg)
	}
	if c.tracing.Load() {
		op := tracedOp{Conv: o.conv}
		if o.t.kind == opProcess {
			op.Inst = headerText(out, soap.ProcessInstanceHeader)
		}
		c.tracedMu.Lock()
		c.traced = append(c.traced, op)
		c.tracedMu.Unlock()
	}
	return true
}

func (c *client) fail(msg string) bool {
	c.failed.Add(1)
	c.firstErr.CompareAndSwap(nil, msg)
	return false
}

// check validates one answer against what its request must produce.
func check(o op, body []byte) string {
	t := o.t
	if t.kind != opProcess && !bytes.Contains(body, []byte(o.conv)) {
		return "response does not carry the request's conversation ID"
	}
	switch t.kind {
	case opCatalog, opPadded:
		if n := bytes.Count(body, []byte(":Product>")) / 2; n != t.products {
			return fmt.Sprintf("getCatalog: %d products, want %d", n, t.products)
		}
		if t.kind == opPadded && len(body) < paddingBytes {
			return "padded getCatalog: padding not echoed"
		}
	case opOrder, opProcess:
		if !bytes.Contains(body, []byte("-"+t.customer+"</")) || !bytes.Contains(body, []byte(":orderID>ord-")) {
			return "submitOrder: no confirmation for " + t.customer
		}
		if n := bytes.Count(body, []byte(":status>shipped<")); n != t.lines {
			return fmt.Sprintf("submitOrder: %d lines shipped, want %d", n, t.lines)
		}
		if t.kind == opProcess && headerText(body, soap.ProcessInstanceHeader) == "" {
			return "process: response names no instance"
		}
	}
	return ""
}

// headerText returns the text of the first element with the given
// local name, or "".
func headerText(body []byte, local string) string {
	tag := []byte(":" + local + ">")
	i := bytes.Index(body, tag)
	if i < 0 {
		return ""
	}
	rest := body[i+len(tag):]
	j := bytes.IndexByte(rest, '<')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// loadResult is one phase's outcome.
type loadResult struct {
	ok      int64
	elapsed time.Duration
	// latency and lag in the open loop, in ns, one per op.
	latency, lag []float64
}

// closedLoop runs clients back to back until d has passed or, when
// ops > 0, until ops ops have been sent.
func closedLoop(c *client, next *atomic.Uint64, clients int, d time.Duration, ops int64) loadResult {
	var ok atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	end := next.Load() + uint64(ops)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ops > 0 {
					i := next.Add(1) - 1
					if i >= end {
						return
					}
					if c.do(i) {
						ok.Add(1)
					}
					continue
				}
				if !time.Now().Before(deadline) {
					return
				}
				if c.do(next.Add(1) - 1) {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if ops > 0 {
		// Each client overshot by one index: the next phase starts at end.
		next.Store(end)
	}
	return loadResult{ok: ok.Load(), elapsed: time.Since(start)}
}

// openLoop sends rate ops/s for d on a fixed schedule, whatever the
// answers' pace, with at most clients requests in flight. Each op is
// timed from the moment it was due, so a stalled answer also delays
// (and is charged to) the ops queued behind it.
func openLoop(c *client, next *atomic.Uint64, clients int, rate float64, d time.Duration) loadResult {
	n := int(rate * d.Seconds())
	res := loadResult{latency: make([]float64, n), lag: make([]float64, n)}
	interval := float64(time.Second) / rate
	var slot atomic.Int64
	var ok atomic.Int64
	var wg sync.WaitGroup
	base := next.Load()
	next.Add(uint64(n))
	start := time.Now().Add(time.Millisecond)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pc, err := newPacer()
			if err != nil {
				c.fail("pacer: " + err.Error())
				return
			}
			defer pc.close()
			for {
				k := int(slot.Add(1) - 1)
				if k >= n {
					return
				}
				due := start.Add(time.Duration(math.Round(float64(k) * interval)))
				if err := pc.sleepUntil(due); err != nil {
					c.fail("pacer: " + err.Error())
					return
				}
				sent := time.Now()
				if c.do(base + uint64(k)) {
					ok.Add(1)
				}
				res.lag[k] = float64(sent.Sub(due))
				res.latency[k] = float64(time.Since(due))
			}
		}()
	}
	wg.Wait()
	res.ok = ok.Load()
	res.elapsed = time.Since(start)
	return res
}
