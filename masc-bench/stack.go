package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/cluster"
	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/faultinject"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/policy/compile"
	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/store"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/telemetry/flightrec"
	"github.com/masc-project/masc/internal/telemetry/slo"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/workflow"
	"github.com/masc-project/masc/internal/xmltree"
)

// benchPolicies is mascd's built-in retry-then-substitute recovery
// policy plus one monitoring policy with a pre- and a post-condition on
// getCatalog (the pair policies/scm-recovery.xml ships). retryDelay is
// mascd's 2s on the fault-free workloads, where the policy never fires,
// and 0s on faults, so recovery cost is CPU, not sleeping.
const benchPolicies = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="masc-bench">
  <MonitoringPolicy name="retailer-monitoring" subject="vep:Retailer" operation="getCatalog">
    <PreCondition name="category-present">//getCatalog/category != ''</PreCondition>
    <PostCondition name="catalog-nonempty">count(//Product) > 0</PostCondition>
  </MonitoringPolicy>
  <AdaptationPolicy name="retry-then-failover" subject="vep:Retailer" priority="10" kind="correction">
    <OnEvent type="fault.detected"/>
    <Actions>
      <Retry maxAttempts="3" delay="%s"/>
      <Substitute selection="bestResponseTime"/>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`

// orderingProcessXML is mascd's OrderingProcess without its TrackOrder
// step: getEvents returns every event ever logged, so each instance
// would cost more than the one before it.
const orderingProcessXML = `
<process xmlns="urn:masc:workflow" name="OrderingProcess">
  <variables>
    <variable name="catalogReq"/>
    <variable name="catalog"/>
    <variable name="orderReq"/>
    <variable name="confirmation"/>
  </variables>
  <sequence name="main">
    <invoke name="BrowseCatalog" endpoint="vep:Retailer" operation="getCatalog"
            input="catalogReq" output="catalog" timeout="10s"/>
    <if name="HasStock" test="count(//catalog/getCatalogResponse/Product) > 0">
      <then>
        <invoke name="PlaceOrder" endpoint="vep:Retailer" operation="submitOrder"
                input="orderReq" output="confirmation" timeout="10s"/>
      </then>
      <else>
        <terminate name="NoStock"/>
      </else>
    </if>
  </sequence>
</process>`

// ampleStock keeps every warehouse SKU far above the restock threshold,
// so no order in a run ever takes the restock path.
const ampleStock = 1 << 30

// nodeConfig selects what one gateway node wires beyond mascd's
// default-flag set-up.
type nodeConfig struct {
	// failRate makes retailer A fail this share of invocations.
	failRate float64
	seed     int64
	// dataDir, when set, opens a batched-fsync store there, as mascd
	// -data-dir does, and hosts the process with persistence.
	dataDir string
	// id and seeds put the node in a static-membership cluster.
	id    string
	seeds []cluster.NodeInfo
	ln    net.Listener
	// tr, when set, wraps the layer boundaries (traced run only).
	tr *tracer
}

// node is one in-process mascd-style gateway served over loopback HTTP.
type node struct {
	url      string
	tel      *telemetry.Telemetry
	gateway  *bus.Bus
	dec      *decision.Recorder
	st       *store.Store
	srv      *http.Server
	serveErr chan error
	closers  []func()
}

// bootNode assembles a gateway the way cmd/mascd's run() does at default
// flags (plus -data-dir when cfg.dataDir is set) and starts serving it.
func bootNode(cfg nodeConfig) (n *node, err error) {
	n = &node{}
	defer func() {
		if err != nil {
			if n.srv == nil && cfg.ln != nil {
				_ = cfg.ln.Close()
			}
			n.close()
		}
	}()
	network := transport.NewNetwork()
	dcfg := scm.DeployConfig{Retailers: 2, InitialStock: ampleStock}
	if cfg.failRate > 0 {
		dcfg.RetailerInjectors = map[int]faultinject.Injector{
			0: faultinject.NewFailureRate(cfg.failRate, cfg.seed),
		}
	}
	deployment, err := scm.Deploy(network, nil, dcfg)
	if err != nil {
		return n, err
	}

	n.tel = telemetry.New(0)
	events := event.NewBus()
	repo := policy.NewRepository()
	if err := compile.Enable(repo, compile.Options{Registry: n.tel.Registry(), Journal: n.tel.Logs()}); err != nil {
		return n, err
	}
	retryDelay := "2s"
	if cfg.failRate > 0 {
		retryDelay = "0s"
	}
	if _, err := repo.LoadXML(fmt.Sprintf(benchPolicies, retryDelay)); err != nil {
		return n, err
	}
	n.dec = decision.NewRecorder(0, n.tel.Registry())
	if cfg.dataDir != "" {
		n.st, err = store.Open(cfg.dataDir, store.Options{Sync: store.SyncBatched, Metrics: n.tel.Registry()})
		if err != nil {
			return n, err
		}
		n.closers = append(n.closers, func() { _ = n.st.Close() })
	}

	busOpts := []bus.Option{
		bus.WithPolicyRepository(repo),
		bus.WithEventBus(events),
		bus.WithTelemetry(n.tel),
		bus.WithDecisions(n.dec),
	}
	if n.st != nil {
		busOpts = append(busOpts, bus.WithStore(n.st))
	}
	n.gateway = bus.New(cfg.tr.downstream(network), busOpts...)
	n.closers = append(n.closers, n.tel.Tracer.TapEventBus(events))
	vep, err := n.gateway.CreateVEP(bus.VEPConfig{
		Name:      "Retailer",
		Services:  deployment.RetailerAddrs,
		Contract:  scm.RetailerContract(),
		Selection: policy.SelectRoundRobin,
	})
	if err != nil {
		return n, err
	}
	if cfg.tr != nil {
		vep.Pipeline().Append(cfg.tr.module())
	}

	telemetry.NewRuntimeCollector(n.tel.Registry())
	sloEngine := slo.NewEngine(
		slo.DeriveObjectives(repo, []string{bus.SubjectPrefix + "Retailer"}, slo.Objective{Availability: 0.99}),
		slo.Options{Registry: n.tel.Registry(), Journal: n.tel.Logs(), Decisions: n.dec})
	n.gateway.SetInvocationObserver(sloEngine)
	sloStop := make(chan struct{})
	sloDone := make(chan struct{})
	go func() {
		defer close(sloDone)
		t := time.NewTicker(10 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-sloStop:
				return
			case <-t.C:
				sloEngine.Tick()
			}
		}
	}()
	n.closers = append(n.closers, func() { close(sloStop); <-sloDone })

	if cfg.dataDir != "" {
		rec, err := flightrec.New(flightrec.Options{
			Dir:       filepath.Join(cfg.dataDir, "flightrec"),
			Telemetry: n.tel,
			SLOState:  func() interface{} { return sloEngine.Status() },
			Decisions: n.dec,
			Node:      cfg.id,
		})
		if err != nil {
			return n, err
		}
		rec.Attach(events)
		n.closers = append(n.closers, rec.Close)
		dlog, err := decision.OpenLog(filepath.Join(cfg.dataDir, "decisions"),
			decision.LogOptions{Metrics: n.tel.Registry()})
		if err != nil {
			return n, err
		}
		n.dec.SetSink(dlog)
		n.closers = append(n.closers, func() { _ = dlog.Close() })
	}

	engine := workflow.NewEngine(cfg.tr.engineInvoker(n.gateway),
		workflow.WithEventBus(events),
		workflow.WithTelemetry(n.tel))
	def, err := workflow.ParseDefinitionString(orderingProcessXML)
	if err != nil {
		return n, err
	}
	engine.Deploy(def)
	if n.st != nil {
		persist := workflow.NewPersistenceServiceWith(n.st, n.tel, workflow.PersistenceOptions{})
		engine.AddRuntimeService(cfg.tr.runtimeService(persist))
		if _, err := persist.Recover(engine); err != nil {
			return n, err
		}
		// Drain the checkpoint queue before the store closes.
		n.closers = append(n.closers, persist.Close)
	}

	// As in mascd, cluster forwarding wraps the endpoints outermost, so
	// a proxied request keeps its full URL.
	vepH := http.StripPrefix("/vep/", cfg.tr.ingress(vepHandler(n.gateway, n.tel, cfg.tr)))
	procH := http.StripPrefix("/process/", cfg.tr.ingress(processHandler(engine, cfg.tr)))
	if cfg.id != "" {
		cnode, err := cluster.NewNode(cluster.Config{
			NodeID:            cfg.id,
			Advertise:         "http://" + cfg.ln.Addr().String(),
			Seeds:             cfg.seeds,
			HeartbeatInterval: -1,
			Telemetry:         n.tel,
		})
		if err != nil {
			return n, err
		}
		vepH = cfg.tr.forward(cnode.Forward(clusterKey, vepH))
		procH = cfg.tr.forward(cnode.Forward(clusterKey, procH))
	}
	mux := http.NewServeMux()
	mux.Handle("/vep/", vepH)
	mux.Handle("/process/", procH)

	ln := cfg.ln
	if ln == nil {
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return n, err
		}
	}
	n.url = "http://" + ln.Addr().String()
	n.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	n.serveErr = make(chan error, 1)
	go func() { n.serveErr <- n.srv.Serve(ln) }()
	return n, nil
}

// close stops the server, then releases the node's resources in reverse
// order of acquisition, as mascd's deferred closes do.
func (n *node) close() {
	if n.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = n.srv.Shutdown(ctx)
		cancel()
		if err := <-n.serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "masc-bench: serve:", err)
		}
		n.srv = nil
	}
	for i := len(n.closers) - 1; i >= 0; i-- {
		n.closers[i]()
	}
	n.closers = nil
}

// vepHandler mirrors mascd's: SOAP posts to /vep/<name> mediate through
// the bus, each under a gateway trace that adopts a caller trace ID.
func vepHandler(gateway *bus.Bus, tel *telemetry.Telemetry, tr *tracer) http.Handler {
	return &transport.HTTPHandler{Service: tr.service(transport.HandlerFunc(
		func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
			name := soap.ReadAddressing(req).To
			if name == "" {
				name = "vep:Retailer"
			}
			traceID, _ := soap.TraceContext(req)
			ctx, span := tel.Traces().StartTraceID(ctx, "gateway "+name, traceID)
			span.SetAttr("route", name)
			resp, err := gateway.Invoke(ctx, name, req)
			span.EndErr(err)
			return resp, err
		}))}
}

// defaultProcessInputs mirrors mascd's demo order for the hosted
// process: one 32in TV for customer cust-api.
func defaultProcessInputs() map[string]*xmltree.Element {
	return map[string]*xmltree.Element{
		"catalogReq": scm.NewGetCatalogRequest("tv", 0),
		"orderReq":   scm.NewSubmitOrderRequest("cust-api", []scm.OrderItem{{SKU: "605002", Qty: 1}}, 0),
	}
}

// processHandler mirrors mascd's: each SOAP post to /process/<name>
// runs one instance through a ProcessHost.
func processHandler(e *workflow.Engine, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Path
		if _, err := e.Definition(name); err != nil {
			http.NotFound(w, r)
			return
		}
		host := &workflow.ProcessHost{
			Engine:     e,
			Definition: name,
			InputVar:   "catalogReq",
			Defaults:   defaultProcessInputs(),
			OutputVar:  "confirmation",
		}
		h := &transport.HTTPHandler{Service: tr.service(host)}
		h.ServeHTTP(w, r)
	})
}

// clusterKey mirrors mascd's: the X-Masc-Conversation header, else the
// ConversationID inside the SOAP envelope.
func clusterKey(r *http.Request, body []byte) string {
	if v := r.Header.Get(cluster.ConversationHTTPHeader); v != "" {
		return v
	}
	if len(body) == 0 {
		return ""
	}
	env, err := soap.Decode(string(body))
	if err != nil {
		return ""
	}
	return soap.ConversationID(env)
}

// bootCluster starts n static-membership nodes on loopback, as
// experiments.bootBenchCluster does, each a full gateway node.
func bootCluster(n int, base nodeConfig) ([]*node, error) {
	lns := make([]net.Listener, n)
	seeds := make([]cluster.NodeInfo, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				_ = l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		seeds[i] = cluster.NodeInfo{ID: nodeID(i), Addr: "http://" + ln.Addr().String()}
	}
	nodes := make([]*node, 0, n)
	for i, ln := range lns {
		cfg := base
		cfg.id, cfg.seeds, cfg.ln = nodeID(i), seeds, ln
		nd, err := bootNode(cfg)
		if err != nil {
			for _, l := range lns[i+1:] {
				_ = l.Close()
			}
			closeAll(nodes)
			return nil, err
		}
		nodes = append(nodes, nd)
	}
	return nodes, nil
}

func nodeID(i int) string { return fmt.Sprintf("node-%d", i) }

func closeAll(nodes []*node) {
	for _, n := range nodes {
		n.close()
	}
}
