package bus

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/store"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/transport"
)

func openBusStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStopDrainsPendingToDLQ is the regression test for the silent
// message drop on shutdown: Stop must move still-pending messages into
// the DLQ, count them, audit the drain, and fail their outcome
// channels.
func TestStopDrainsPendingToDLQ(t *testing.T) {
	inv := &flakyInvoker{failFor: 1000}
	reg := telemetry.NewRegistry()
	j := telemetry.NewJournal(0)
	q := NewRetryQueue(RetryQueueConfig{
		Invoker:      inv,
		Policy:       policy.RetryAction{MaxAttempts: 5, Delay: time.Hour},
		PollInterval: time.Millisecond,
		Metrics:      reg,
		Journal:      j,
	})

	done := q.Enqueue("inproc://log", logEnv())
	// First attempt fails; the hour-long backoff parks the message.
	waitFor(t, "first failed attempt", func() bool { return inv.count() >= 1 && q.Pending() == 1 })

	q.Stop()

	if q.Pending() != 0 {
		t.Fatalf("pending after stop = %d", q.Pending())
	}
	letters := q.DLQ().Letters()
	if len(letters) != 1 || letters[0].Endpoint != "inproc://log" || letters[0].Attempts != 1 {
		t.Fatalf("DLQ after stop = %+v", letters)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrDrained) {
			t.Fatalf("outcome = %v, want ErrDrained", err)
		}
	default:
		t.Fatal("outcome channel empty after drain")
	}
	var expo strings.Builder
	reg.WritePrometheus(&expo)
	if !strings.Contains(expo.String(), `masc_retryqueue_deliveries_total{outcome="drained"} 1`) {
		t.Fatalf("drained outcome not counted:\n%s", expo.String())
	}
	audits := j.Entries(telemetry.Query{Kinds: []telemetry.Kind{telemetry.KindAudit}})
	if len(audits) != 1 || audits[0].Fields["drained"] != "1" {
		t.Fatalf("audit entries = %+v", audits)
	}
	// Stop again: idempotent, nothing more drained.
	q.Stop()
	if q.DLQ().Len() != 1 {
		t.Fatal("second Stop drained again")
	}
}

// TestRetryEntriesSurviveCrash: a message parked in retry backoff when
// the middleware crashes re-enqueues from the store on the next start
// and is delivered, after which its durable record is gone.
func TestRetryEntriesSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	st1 := openBusStore(t, dir)
	inv1 := &flakyInvoker{failFor: 1000}
	q1 := NewRetryQueue(RetryQueueConfig{
		Invoker:      inv1,
		Policy:       policy.RetryAction{MaxAttempts: 5, Delay: time.Hour},
		PollInterval: time.Millisecond,
		Store:        st1,
	})
	q1.Enqueue("inproc://log", logEnv())
	waitFor(t, "message parked in backoff", func() bool { return inv1.count() >= 1 && q1.Pending() == 1 })

	// Crash: the store is abandoned first, so the in-memory shutdown
	// below cannot touch durable state.
	st1.Abandon()
	q1.Stop()

	st2 := openBusStore(t, dir)
	defer st2.Close()
	inv2 := &flakyInvoker{} // now succeeds
	q2 := NewRetryQueue(RetryQueueConfig{
		Invoker:      inv2,
		Policy:       policy.RetryAction{MaxAttempts: 5, Delay: time.Millisecond},
		PollInterval: time.Millisecond,
		Store:        st2,
	})
	defer q2.Stop()

	// The persisted entry re-enqueues (backoff collapsed) and delivers.
	waitFor(t, "redelivery after restart", func() bool { return inv2.count() >= 1 })
	waitFor(t, "retry record settled", func() bool { return len(st2.List(SpaceRetry)) == 0 })
	if q2.DLQ().Len() != 0 {
		t.Fatalf("recovered message dead-lettered: %+v", q2.DLQ().Letters())
	}
}

// TestDLQSurvivesRestart: dead letters written through the store reload
// on the next start in their original order, one durable record per
// retained letter, preserving endpoint, attempt count, and error.
func TestDLQSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st1 := openBusStore(t, dir)
	inv := &flakyInvoker{failFor: 1000}
	q1 := NewRetryQueue(RetryQueueConfig{
		Invoker:      inv,
		Policy:       policy.RetryAction{MaxAttempts: 1, Delay: time.Millisecond},
		PollInterval: time.Millisecond,
		Store:        st1,
	})
	endpoints := []string{"inproc://log", "inproc://log-b", "inproc://log-c"}
	for _, ep := range endpoints {
		select {
		case err := <-q1.Enqueue(ep, logEnv()):
			if err == nil {
				t.Fatal("expected dead-letter outcome")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("message never settled")
		}
	}
	q1.Stop()
	st1.Close()

	st2 := openBusStore(t, dir)
	defer st2.Close()
	q2 := NewRetryQueue(RetryQueueConfig{
		Invoker:      &flakyInvoker{},
		Policy:       policy.RetryAction{MaxAttempts: 1, Delay: time.Millisecond},
		PollInterval: time.Millisecond,
		Store:        st2,
	})
	defer q2.Stop()

	letters := q2.DLQ().Letters()
	if len(letters) != len(endpoints) {
		t.Fatalf("reloaded DLQ = %+v", letters)
	}
	for i, l := range letters {
		if l.Endpoint != endpoints[i] {
			t.Fatalf("reloaded letter %d endpoint = %q, want %q", i, l.Endpoint, endpoints[i])
		}
	}
	if got := len(st2.List(SpaceDLQ)); got != q2.DLQ().Len() {
		t.Fatalf("durable DLQ records = %d, retained letters = %d", got, q2.DLQ().Len())
	}
	l := letters[0]
	if l.Endpoint != "inproc://log" || l.Attempts != 2 || l.LastErr == "" {
		t.Fatalf("reloaded letter = %+v", l)
	}
	if l.Envelope == nil || l.Envelope.PayloadName().Local != "logEvent" {
		t.Fatalf("reloaded envelope = %+v", l.Envelope)
	}
	if len(st2.List(SpaceRetry)) != 0 {
		t.Fatal("dead-lettered message still has a retry record")
	}
}

// TestDLQEvictionDeletesDurableRecords: the capacity bound applies to
// the durable records too, not only the in-memory ring.
func TestDLQEvictionDeletesDurableRecords(t *testing.T) {
	dir := t.TempDir()
	st := openBusStore(t, dir)
	defer st.Close()

	dlq := NewDeadLetterQueue(2)
	dlq.bindStore(st)
	for i := 0; i < 3; i++ {
		dlq.Add(DeadLetter{Endpoint: "inproc://log", Envelope: logEnv(), Attempts: i + 1})
	}
	if dlq.Len() != 2 || dlq.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d", dlq.Len(), dlq.Dropped())
	}
	if got := len(st.List(SpaceDLQ)); got != 2 {
		t.Fatalf("durable DLQ records = %d, want 2", got)
	}
	// The survivors are the two newest letters.
	letters := dlq.Letters()
	if letters[0].Attempts != 2 || letters[1].Attempts != 3 {
		t.Fatalf("survivors = %+v", letters)
	}
}

// TestBusWithStoreWiresRetryQueue: the bus-level option reaches queues
// built through NewRetryQueueFor.
func TestBusWithStoreWiresRetryQueue(t *testing.T) {
	dir := t.TempDir()
	st := openBusStore(t, dir)
	defer st.Close()

	n := transport.NewNetwork()
	b := New(n, WithStore(st))
	q := b.NewRetryQueueFor(policy.RetryAction{MaxAttempts: 1, Delay: time.Hour}, time.Millisecond)
	q.Enqueue("inproc://nowhere", logEnv())
	waitFor(t, "durable retry record", func() bool { return len(st.List(SpaceRetry)) == 1 })
	q.Stop()
	// Clean stop: drained to the durable DLQ, retry space empty.
	if len(st.List(SpaceRetry)) != 0 || len(st.List(SpaceDLQ)) != 1 {
		t.Fatalf("retry=%d dlq=%d after stop",
			len(st.List(SpaceRetry)), len(st.List(SpaceDLQ)))
	}
}
