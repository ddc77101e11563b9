package monitor

import (
	"testing"
	"time"

	"github.com/masc-project/masc/internal/clock"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/qos"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/wsdl"
)

// auditSetup builds a monitor with a journal attached.
func auditSetup(t *testing.T) (*Monitor, *qos.Tracker, *telemetry.Journal, *clock.Fake) {
	t.Helper()
	repo := policy.NewRepository()
	if _, err := repo.LoadXML(monitorPolicyDoc); err != nil {
		t.Fatal(err)
	}
	fc := clock.NewFakeAtZero()
	tracker := qos.NewTracker(0, qos.WithClock(fc))
	j := telemetry.NewJournal(64)
	m := New(repo,
		WithClock(fc),
		WithQoSTracker(tracker),
		WithJournal(j),
	)
	return m, tracker, j, fc
}

func TestSLAViolationAuditCarriesQoSSnapshot(t *testing.T) {
	m, tracker, j, fc := auditSetup(t)
	tracker.Record("inproc://retailer-a", 300*time.Millisecond, true)
	fc.Advance(time.Second)
	tracker.Record("inproc://retailer-a", 500*time.Millisecond, true)

	if vs := m.CheckQoS("vep:Retailer", "inproc://retailer-a"); len(vs) != 1 {
		t.Fatalf("violations = %+v", vs)
	}
	audits := j.Entries(telemetry.Query{Kinds: []telemetry.Kind{telemetry.KindAudit}})
	if len(audits) != 1 {
		t.Fatalf("audit entries = %d, want 1", len(audits))
	}
	a := audits[0]
	if a.Component != "monitor" || a.Level != telemetry.LevelWarn {
		t.Fatalf("audit entry = %+v", a)
	}
	for k, want := range map[string]string{
		"subject":     "vep:Retailer",
		"target":      "inproc://retailer-a",
		"policy":      "retailer-sla",
		"check":       "rt",
		"fault_type":  FaultSLAViolation,
		"invocations": "2",
		"failures":    "0",
		"reliability": "1.0000",
	} {
		if a.Fields[k] != want {
			t.Errorf("field %s = %q, want %q", k, a.Fields[k], want)
		}
	}
	// The QoS evidence (mean/p95 response) rides along.
	if a.Fields["mean_response"] == "" || a.Fields["p95_response"] == "" {
		t.Fatalf("QoS snapshot missing from audit: %+v", a.Fields)
	}
}

func TestInvocationFaultAuditCorrelatedByConversation(t *testing.T) {
	m, _, j, _ := auditSetup(t)
	env := reqEnv(t, `<getCatalog xmlns="urn:scm"><category>tv</category></getCatalog>`)

	if ft := m.ReportInvocationFault("vep:Retailer", "getCatalog", "inproc://a", env, transport.ErrTimeout); ft != FaultTimeout {
		t.Fatalf("fault type = %q", ft)
	}
	// reqEnv stamps ProcessInstanceID proc-1; with no explicit
	// conversation header the audit correlates by the fallback.
	audits := j.Entries(telemetry.Query{Conversation: "proc-1", Kinds: []telemetry.Kind{telemetry.KindAudit}})
	if len(audits) != 1 {
		t.Fatalf("audit entries = %d, want 1", len(audits))
	}
	a := audits[0]
	if a.Fields["fault_type"] != FaultTimeout || a.Fields["target"] != "inproc://a" {
		t.Fatalf("audit fields = %+v", a.Fields)
	}
}

func TestPolicyViolationAudited(t *testing.T) {
	m, _, j, _ := auditSetup(t)
	bad := reqEnv(t, `<getCatalog xmlns="urn:scm"><category></category></getCatalog>`)
	if v := m.Intercept("vep:Retailer", "getCatalog", bad, retailerContract(), wsdl.Request); v == nil {
		t.Fatal("empty category accepted")
	}
	audits := j.Entries(telemetry.Query{Kinds: []telemetry.Kind{telemetry.KindAudit}})
	if len(audits) != 1 {
		t.Fatalf("audit entries = %d, want 1", len(audits))
	}
	if audits[0].Fields["policy"] != "retailer-checks" || audits[0].Fields["check"] != "category-set" {
		t.Fatalf("audit fields = %+v", audits[0].Fields)
	}
}

func TestMonitorWithoutJournalIsSilent(t *testing.T) {
	m, tracker, _, fc := auditSetup(t)
	m.journal = nil
	tracker.Record("t", 300*time.Millisecond, true)
	fc.Advance(time.Second)
	tracker.Record("t", 500*time.Millisecond, true)
	if vs := m.CheckQoS("vep:Retailer", "t"); len(vs) != 1 {
		t.Fatalf("violations = %+v", vs)
	}
}
