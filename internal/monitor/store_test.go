package monitor

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/wsdl"
	"github.com/masc-project/masc/internal/xmltree"
)

// seqMessage is the i-th message of a test sequence; Operation carries
// i so order checks can read it back.
func seqMessage(i int, instance string) StoredMessage {
	return StoredMessage{
		InstanceID: instance,
		Operation:  strconv.Itoa(i),
		Envelope:   soap.NewRequest(xmltree.New("", "m")),
	}
}

func TestStoreQueryOldestFirstAcrossWraps(t *testing.T) {
	const limit = 5
	s := NewStore(limit)
	for i := 0; i < 4*limit+3; i++ {
		s.Record(seqMessage(i, "p"))
		got := s.Query(Filter{})
		first := max(0, i+1-limit)
		if len(got) != i+1-first {
			t.Fatalf("after %d records: %d retained", i+1, len(got))
		}
		for j, m := range got {
			if want := strconv.Itoa(first + j); m.Operation != want {
				t.Fatalf("after %d records: position %d holds message %s, want %s", i+1, j, m.Operation, want)
			}
		}
	}
}

// bruteCounts recounts the retained messages per instance from Query.
func bruteCounts(s *Store) map[string]int {
	out := map[string]int{}
	for _, m := range s.Query(Filter{}) {
		out[m.InstanceID]++
	}
	return out
}

func TestStoreCountsBoundedAndExact(t *testing.T) {
	const limit = 16
	s := NewStore(limit)
	for i := 0; i < 1000; i++ {
		// A mix of recurring instances, one-off instances, and
		// uncorrelated ("") messages.
		var inst string
		switch {
		case i%7 == 0:
			inst = ""
		case i%3 == 0:
			inst = fmt.Sprintf("once-%d", i)
		default:
			inst = fmt.Sprintf("p%d", i%11)
		}
		s.Record(seqMessage(i, inst))

		want := bruteCounts(s)
		s.mu.Lock()
		counts := len(s.counts)
		s.mu.Unlock()
		if counts > limit {
			t.Fatalf("after %d records: %d count entries exceed the %d-message window", i+1, counts, limit)
		}
		if counts != len(want) {
			t.Fatalf("after %d records: %d count entries, %d instances retained", i+1, counts, len(want))
		}
		for inst, n := range want {
			if got := s.CountForInstance(inst); got != n {
				t.Fatalf("after %d records: CountForInstance(%q) = %d, brute force %d", i+1, inst, got, n)
			}
		}
	}
	if n := s.CountForInstance("once-3"); n != 0 {
		t.Fatalf("evicted instance still counted: %d", n)
	}
}

func TestStoreResetClearsCounts(t *testing.T) {
	s := NewStore(3)
	for i := 0; i < 5; i++ {
		s.Record(seqMessage(i, "p"))
	}
	s.Reset()
	if n := s.CountForInstance("p"); n != 0 {
		t.Fatalf("count after Reset = %d", n)
	}
	s.mu.Lock()
	counts := len(s.counts)
	s.mu.Unlock()
	if counts != 0 {
		t.Fatalf("%d count entries survive Reset", counts)
	}
	// The ring restarts from empty: order and counts hold again.
	for i := 0; i < 4; i++ {
		s.Record(seqMessage(i, "q"))
	}
	got := s.Query(Filter{})
	if len(got) != 3 || got[0].Operation != "1" || got[2].Operation != "3" {
		t.Fatalf("after Reset and 4 records: %+v", got)
	}
	if n := s.CountForInstance("q"); n != 3 {
		t.Fatalf("count after Reset and refill = %d, want 3", n)
	}
}

// TestStoreConcurrentUse runs writers and readers together; run it
// under -race. The final counts must still match the retained window.
func TestStoreConcurrentUse(t *testing.T) {
	const limit = 64
	s := NewStore(limit)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Record(seqMessage(i, fmt.Sprintf("p%d", (w+i)%9)))
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = s.CountForInstance(fmt.Sprintf("p%d", i%9))
				if got := s.Query(Filter{InstanceID: "p1"}); len(got) > limit {
					t.Errorf("Query returned %d > limit messages", len(got))
					return
				}
				_ = s.Len()
			}
		}()
	}
	wg.Wait()
	if s.Len() != limit {
		t.Fatalf("len = %d, want %d", s.Len(), limit)
	}
	for inst, n := range bruteCounts(s) {
		if got := s.CountForInstance(inst); got != n {
			t.Fatalf("CountForInstance(%q) = %d, brute force %d", inst, got, n)
		}
	}
}

func TestInterceptStoresOncePublishesThenChecks(t *testing.T) {
	m, _, rec, _ := setup(t)
	bad := reqEnv(t, `<getCatalog xmlns="urn:scm"><category></category></getCatalog>`)
	v := m.Intercept("vep:Retailer", "getCatalog", bad, retailerContract(), wsdl.Request)
	if v == nil || v.Check != "category-set" {
		t.Fatalf("violation = %v, want category-set", v)
	}
	if n := m.Store().CountForInstance("proc-1"); n != 1 {
		t.Fatalf("CountForInstance = %d, want 1", n)
	}
	evs := rec.Events()
	if len(evs) != 2 || evs[0].Type != event.TypeMessageIntercepted || evs[1].Type != event.TypeFaultDetected {
		t.Fatalf("events = %+v, want message.intercepted then fault.detected", evs)
	}
}

// BenchmarkStoreRecord measures Record on a full window; ns/op should
// not depend on the window size.
func BenchmarkStoreRecord(b *testing.B) {
	for _, limit := range []int{1024, 65536} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			s := NewStore(limit)
			env := soap.NewRequest(xmltree.New("", "m"))
			ids := make([]string, 64)
			for i := range ids {
				ids[i] = fmt.Sprintf("p%d", i)
			}
			for i := 0; i < limit; i++ {
				s.Record(StoredMessage{InstanceID: ids[i%len(ids)], Envelope: env})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Record(StoredMessage{InstanceID: ids[i%len(ids)], Envelope: env})
			}
		})
	}
}
