package bus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/clock"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/xmltree"
)

// flakyInvoker fails the first failFor attempts.
type flakyInvoker struct {
	mu      sync.Mutex
	calls   int
	failFor int
}

func (f *flakyInvoker) Invoke(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls <= f.failFor {
		return nil, errors.New("delivery failed")
	}
	return soap.NewRequest(xmltree.New("", "ok")), nil
}

func (f *flakyInvoker) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func logEnv() *soap.Envelope {
	return soap.NewRequest(xmltree.NewText("urn:scm", "logEvent", "order received"))
}

func TestRetryQueueDeliversImmediately(t *testing.T) {
	inv := &flakyInvoker{}
	q := NewRetryQueue(RetryQueueConfig{
		Invoker:      inv,
		Policy:       policy.RetryAction{MaxAttempts: 3, Delay: time.Millisecond},
		PollInterval: time.Millisecond,
	})
	defer q.Stop()

	done := q.Enqueue("inproc://log", logEnv())
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delivery never completed")
	}
	if inv.count() != 1 {
		t.Fatalf("calls = %d", inv.count())
	}
}

func TestRetryQueueRedelivers(t *testing.T) {
	inv := &flakyInvoker{failFor: 2}
	q := NewRetryQueue(RetryQueueConfig{
		Invoker:      inv,
		Policy:       policy.RetryAction{MaxAttempts: 3, Delay: time.Millisecond},
		PollInterval: time.Millisecond,
	})
	defer q.Stop()

	done := q.Enqueue("inproc://log", logEnv())
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("redelivery never completed")
	}
	if inv.count() != 3 {
		t.Fatalf("calls = %d, want 3", inv.count())
	}
	if q.DLQ().Len() != 0 {
		t.Fatal("successful message dead-lettered")
	}
}

func TestRetryQueueDeadLetters(t *testing.T) {
	inv := &flakyInvoker{failFor: 1000}
	q := NewRetryQueue(RetryQueueConfig{
		Invoker:      inv,
		Policy:       policy.RetryAction{MaxAttempts: 2, Delay: time.Millisecond},
		PollInterval: time.Millisecond,
	})
	defer q.Stop()

	done := q.Enqueue("inproc://log", logEnv())
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("dead-lettered delivery reported success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dead-lettering never completed")
	}
	letters := q.DLQ().Letters()
	if len(letters) != 1 {
		t.Fatalf("dead letters = %d", len(letters))
	}
	dl := letters[0]
	if dl.Endpoint != "inproc://log" || dl.Attempts != 3 || dl.LastErr == "" {
		t.Fatalf("dead letter = %+v", dl)
	}
	if inv.count() != 3 { // initial + 2 retries
		t.Fatalf("calls = %d", inv.count())
	}
	if q.Pending() != 0 {
		t.Fatal("dead-lettered message still pending")
	}
}

func TestRetryQueueFaultResponseCountsAsFailure(t *testing.T) {
	faulty := transport.InvokerFunc(func(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
		return soap.NewFaultEnvelope(soap.FaultServer, "refused"), nil
	})
	q := NewRetryQueue(RetryQueueConfig{
		Invoker:      faulty,
		Policy:       policy.RetryAction{MaxAttempts: 1, Delay: time.Millisecond},
		PollInterval: time.Millisecond,
	})
	defer q.Stop()
	done := q.Enqueue("x", logEnv())
	select {
	case err := <-done:
		var f *soap.Fault
		if !errors.As(err, &f) {
			t.Fatalf("err = %v, want fault", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("never finished")
	}
}

func TestRetryQueueBackoffScheduleOnFakeClock(t *testing.T) {
	fc := clock.NewFakeAtZero()
	inv := &flakyInvoker{failFor: 1000}
	q := NewRetryQueue(RetryQueueConfig{
		Clock:        fc,
		Invoker:      inv,
		Policy:       policy.RetryAction{MaxAttempts: 2, Delay: 10 * time.Second, Backoff: policy.BackoffExponential},
		PollInterval: time.Second,
	})
	defer q.Stop()

	q.Enqueue("x", logEnv())
	waitCalls := func(n int) {
		deadline := time.Now().Add(2 * time.Second)
		for inv.count() < n {
			if time.Now().After(deadline) {
				t.Fatalf("calls = %d, want %d", inv.count(), n)
			}
			fc.BlockUntilWaiters(1, time.Second)
			fc.Advance(time.Second)
		}
	}
	// First attempt after one poll tick.
	waitCalls(1)
	// First retry due 10s later.
	for i := 0; i < 10; i++ {
		fc.BlockUntilWaiters(1, time.Second)
		fc.Advance(time.Second)
	}
	waitCalls(2)
	// Second retry due 20s later (exponential).
	for i := 0; i < 20; i++ {
		fc.BlockUntilWaiters(1, time.Second)
		fc.Advance(time.Second)
	}
	waitCalls(3)
}

func TestRetryQueueStopIdempotent(t *testing.T) {
	q := NewRetryQueue(RetryQueueConfig{
		Invoker:      &flakyInvoker{},
		Policy:       policy.RetryAction{MaxAttempts: 1, Delay: time.Millisecond},
		PollInterval: time.Millisecond,
	})
	q.Stop()
	q.Stop() // second stop must not panic or hang
}

func TestBusRetryQueueIntegration(t *testing.T) {
	svc := &scriptedService{failFor: 1}
	net := transport.NewNetwork()
	net.Register("inproc://logging", svc.handler())
	b := New(net)
	q := b.NewRetryQueueFor(policy.RetryAction{MaxAttempts: 3, Delay: time.Millisecond}, time.Millisecond)
	defer q.Stop()

	done := q.Enqueue("inproc://logging", logEnv())
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("never delivered")
	}
	if svc.count() != 2 {
		t.Fatalf("calls = %d", svc.count())
	}
}

func TestDeadLetterQueueBounded(t *testing.T) {
	q := NewDeadLetterQueue(3)
	for i := 0; i < 5; i++ {
		q.Add(DeadLetter{Endpoint: fmt.Sprintf("inproc://%d", i)})
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d, want capacity 3", q.Len())
	}
	if q.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", q.Dropped())
	}
	letters := q.Letters()
	// Drop-oldest: the three most recent survive.
	for i, want := range []string{"inproc://2", "inproc://3", "inproc://4"} {
		if letters[i].Endpoint != want {
			t.Fatalf("letters[%d] = %q, want %q", i, letters[i].Endpoint, want)
		}
	}

	// The zero value is capped at the default, not unbounded.
	var z DeadLetterQueue
	for i := 0; i < DefaultDLQCapacity+10; i++ {
		z.Add(DeadLetter{})
	}
	if z.Len() != DefaultDLQCapacity {
		t.Fatalf("zero-value len = %d, want %d", z.Len(), DefaultDLQCapacity)
	}
}
