package bus

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/store"
)

// Store spaces used by the messaging layer.
const (
	// SpaceRetry holds one record per message awaiting (re)delivery.
	SpaceRetry = "retry"
	// SpaceDLQ holds one record per retained dead letter.
	SpaceDLQ = "dlq"
)

// persistedMessage is the durable form of a queuedMessage / DeadLetter:
// the envelope travels as its canonical XML text so the record is
// self-describing and survives schema evolution of the in-memory types.
type persistedMessage struct {
	Endpoint string    `json:"endpoint"`
	Envelope string    `json:"envelope"`
	Attempts int       `json:"attempts"`
	Due      time.Time `json:"due,omitempty"`
	LastErr  string    `json:"lastErr,omitempty"`
	Time     time.Time `json:"time,omitempty"`
}

// persistSeqKey renders a sequence number as a fixed-width key so the
// store's sorted listing yields FIFO order.
func persistSeqKey(n uint64) string { return fmt.Sprintf("%016d", n) }

// decodePersisted parses a durable record back into its parts.
func decodePersisted(raw []byte) (persistedMessage, *soap.Envelope, error) {
	var p persistedMessage
	if err := json.Unmarshal(raw, &p); err != nil {
		return p, nil, err
	}
	env, err := soap.Decode(p.Envelope)
	if err != nil {
		return p, nil, err
	}
	return p, env, nil
}

// sortedRecords lists a space in key order (the persist-sequence FIFO
// order).
func sortedRecords(st *store.Store, space string) []struct {
	Key string
	Raw []byte
} {
	m := st.List(space)
	out := make([]struct {
		Key string
		Raw []byte
	}, 0, len(m))
	for k, v := range m {
		out = append(out, struct {
			Key string
			Raw []byte
		}{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// persistMessage journals a pending retry entry (insert or update; the
// message keeps its key across redelivery attempts). Store errors are
// swallowed: the only failure mode is a closed store during shutdown,
// where the in-memory queue is already draining.
func (q *RetryQueue) persistMessage(m *queuedMessage) {
	if q.st == nil || m.key == "" {
		return
	}
	raw, err := json.Marshal(persistedMessage{
		Endpoint: m.endpoint,
		Envelope: m.envelope.MustEncode(),
		Attempts: m.attempts,
		Due:      m.due,
		LastErr:  m.lastErr,
	})
	if err == nil {
		_ = q.st.Put(SpaceRetry, m.key, raw)
	}
}

// unpersistMessage removes a settled retry entry (delivered, dead, or
// drained).
func (q *RetryQueue) unpersistMessage(m *queuedMessage) {
	if q.st == nil || m.key == "" {
		return
	}
	_ = q.st.Delete(SpaceRetry, m.key)
}

// loadPersisted rebuilds the pending queue from the store, in original
// enqueue order. Persisted due times are discarded: a restart collapses
// any pending backoff and redelivery resumes immediately (the attempt
// count, which drives dead-lettering, is preserved). Returns the next
// free persist sequence.
func (q *RetryQueue) loadPersisted() uint64 {
	var maxSeq uint64
	now := q.clk.Now()
	for _, rec := range sortedRecords(q.st, SpaceRetry) {
		var n uint64
		if _, err := fmt.Sscanf(rec.Key, "%d", &n); err == nil && n > maxSeq {
			maxSeq = n
		}
		p, env, err := decodePersisted(rec.Raw)
		if err != nil {
			// Undecodable records are dropped from the queue but kept in
			// the store for post-mortem inspection.
			continue
		}
		q.pending = append(q.pending, &queuedMessage{
			endpoint: p.Endpoint,
			envelope: env,
			attempts: p.Attempts,
			due:      now,
			lastErr:  p.LastErr,
			key:      rec.Key,
		})
	}
	q.pendingGauge.Set(float64(len(q.pending)))
	return maxSeq + 1
}

// bindStore attaches durable write-through to the dead-letter queue and
// reloads retained letters, oldest first. Called once, on the empty
// queue, before the queue reader starts.
func (q *DeadLetterQueue) bindStore(st *store.Store) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.st = st
	for _, rec := range sortedRecords(st, SpaceDLQ) {
		var n uint64
		if _, err := fmt.Sscanf(rec.Key, "%d", &n); err == nil && n >= q.seq {
			q.seq = n + 1
		}
		p, env, err := decodePersisted(rec.Raw)
		if err != nil {
			continue
		}
		q.pushLocked(keyedLetter{key: rec.Key, letter: DeadLetter{
			Endpoint: p.Endpoint,
			Envelope: env,
			Attempts: p.Attempts,
			LastErr:  p.LastErr,
			Time:     p.Time,
		}})
	}
}

// persistLetterLocked journals one dead letter and returns its record
// key. Caller holds q.mu.
func (q *DeadLetterQueue) persistLetterLocked(d DeadLetter) string {
	key := persistSeqKey(q.seq)
	q.seq++
	raw, err := json.Marshal(persistedMessage{
		Endpoint: d.Endpoint,
		Envelope: d.Envelope.MustEncode(),
		Attempts: d.Attempts,
		LastErr:  d.LastErr,
		Time:     d.Time,
	})
	if err == nil {
		_ = q.st.Put(SpaceDLQ, key, raw)
	}
	return key
}
