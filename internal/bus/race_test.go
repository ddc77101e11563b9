package bus

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/qos"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/store"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/xmltree"
)

// These tests exist for `go test -race`: they hammer the selection
// strategies and the VEP registration surface from many goroutines and
// assert only basic invariants — the race detector does the real work.

func fastHandler() transport.HandlerFunc {
	return func(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		op := req.PayloadName().Local
		return soap.NewRequest(xmltree.New("urn:scm", op+"Response")), nil
	}
}

func TestSelectorsConcurrentOrder(t *testing.T) {
	tracker := qos.NewTracker(time.Minute)
	sels := map[string]selector{
		"first":      firstSelector{},
		"roundRobin": &roundRobinSelector{},
		"bestQoS":    &bestQoSSelector{tracker: tracker, minSamples: 3},
		"random":     newSelector(policy.SelectRandom, nil, 0, 42),
	}
	candidates := []string{"inproc://a", "inproc://b", "inproc://c"}

	for name, sel := range sels {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						// Interleave QoS recording so bestQoS re-ranks
						// while other goroutines are ordering.
						tracker.Record(candidates[i%len(candidates)],
							time.Duration(1+g)*time.Millisecond, i%7 != 0)
						got := sel.order(candidates)
						if len(got) != len(candidates) {
							t.Errorf("order returned %d candidates, want %d", len(got), len(candidates))
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

func TestRegisterDeregisterDuringInvoke(t *testing.T) {
	net := transport.NewNetwork()
	stable := []string{"inproc://a", "inproc://b"}
	for _, addr := range stable {
		net.Register(addr, fastHandler())
	}
	// Churned services exist on the network the whole time; only their
	// VEP membership flaps.
	var churned []string
	for i := 0; i < 4; i++ {
		addr := fmt.Sprintf("inproc://churn-%d", i)
		churned = append(churned, addr)
		net.Register(addr, fastHandler())
	}

	b := New(net, WithSeed(7))
	v, err := b.CreateVEP(VEPConfig{
		Name:      "Retailer",
		Contract:  scmContract(),
		Services:  stable,
		Selection: policy.SelectRoundRobin,
		Protection: &policy.ProtectionPolicy{
			Name:      "guard",
			Admission: &policy.AdmissionSpec{MaxInFlight: 32, MaxQueue: 32},
			Breaker:   &policy.BreakerSpec{FailureThreshold: 3, Cooldown: time.Second},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var invokers, churners sync.WaitGroup

	// Membership churn: register/deregister equivalent services while
	// invocations are in flight.
	churners.Add(1)
	go func() {
		defer churners.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			addr := churned[i%len(churned)]
			v.RegisterService(addr)
			v.Services()
			v.BreakerStates()
			v.DeregisterService(addr)
		}
	}()

	// Invokers: every call must land on a registered handler and
	// produce a non-fault response.
	for g := 0; g < 8; g++ {
		invokers.Add(1)
		go func() {
			defer invokers.Done()
			for i := 0; i < 150; i++ {
				resp, err := v.Invoke(context.Background(), "", catalogReq(t))
				if err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				if resp.IsFault() {
					t.Errorf("invoke returned fault: %s", resp.Fault.String)
					return
				}
			}
		}()
	}

	// Reconfiguring protection mid-flight must also be safe.
	churners.Add(1)
	go func() {
		defer churners.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v.ApplyProtection(&policy.ProtectionPolicy{
				Name:      fmt.Sprintf("guard-%d", i),
				Admission: &policy.AdmissionSpec{MaxInFlight: 32, MaxQueue: 32},
			})
			v.AdmissionDepths()
			time.Sleep(time.Millisecond)
		}
	}()

	finished := make(chan struct{})
	go func() {
		invokers.Wait()
		close(stop)
		churners.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("goroutines did not finish")
	}
}

// TestDLQConcurrentUseKeepsDurableRecordsInStep adds dead letters to a
// store-bound queue from several goroutines while others read it. Each
// retained letter must keep exactly one durable record, so the store
// holds as many records as the ring after the evictions.
func TestDLQConcurrentUseKeepsDurableRecordsInStep(t *testing.T) {
	const (
		capacity = 8
		writers  = 4
		perW     = 50
	)
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	q := NewDeadLetterQueue(capacity)
	q.bindStore(st)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				q.Add(DeadLetter{Endpoint: fmt.Sprintf("inproc://%d/%d", w, i), Envelope: logEnv()})
				if i%10 == 0 {
					_ = q.Letters()
					_ = q.Len()
				}
			}
		}(w)
	}
	wg.Wait()

	if q.Len() != capacity || q.Dropped() != writers*perW-capacity {
		t.Fatalf("len = %d dropped = %d, want %d and %d", q.Len(), q.Dropped(), capacity, writers*perW-capacity)
	}
	records := st.List(SpaceDLQ)
	if len(records) != capacity {
		t.Fatalf("durable records = %d, want %d", len(records), capacity)
	}
	for _, l := range q.Letters() {
		found := false
		for _, raw := range records {
			p, _, err := decodePersisted(raw)
			if err == nil && p.Endpoint == l.Endpoint {
				found = true
			}
		}
		if !found {
			t.Fatalf("retained letter %s has no durable record", l.Endpoint)
		}
	}
}
