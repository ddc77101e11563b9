package soap

import (
	"testing"

	"github.com/masc-project/masc/internal/xmltree"
)

// encodeCases covers every shape Encode serializes: headers plus
// payload, payload only, no body content at all, and faults with and
// without actor and detail.
func encodeCases(t *testing.T) map[string]*Envelope {
	t.Helper()
	withHeaders := NewRequest(payload(t, `<submitOrder xmlns="urn:scm" ref="a&amp;b"><qty>2</qty><note>"quoted" &lt;note&gt;</note></submitOrder>`))
	Addressing{MessageID: "urn:msg:1", To: "inproc://retailer-a", ReplyTo: "inproc://client", RelatesTo: "proc-42"}.Apply(withHeaders)
	SetProcessInstanceID(withHeaders, "proc-42")
	SetConversationID(withHeaders, "conv-1")

	headersOnly := &Envelope{}
	SetConversationID(headersOnly, "conv-2")

	detailed := NewFaultEnvelope(FaultServer, "warehouse <unavailable>")
	detailed.Fault.Actor = "urn:warehouse-a"
	detailed.Fault.Detail = payload(t, `<info xmlns="urn:scm"><retryAfter>2</retryAfter></info>`)
	SetConversationID(detailed, "conv-3")

	return map[string]*Envelope{
		"headers+payload": withHeaders,
		"payload only":    NewRequest(payload(t, `<getCatalog xmlns="urn:scm"><category>tv</category></getCatalog>`)),
		"headers only":    headersOnly,
		"empty":           &Envelope{},
		"fault":           NewFaultEnvelope(FaultClient, "bad request"),
		"fault+detail":    detailed,
	}
}

// TestEncodeMatchesToXML pins the wire output of Encode's shallow view
// to the serialization of the deep-copied ToXML document.
func TestEncodeMatchesToXML(t *testing.T) {
	for name, env := range encodeCases(t) {
		got, err := env.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := xmltree.MustMarshalString(env.ToXML()); got != want {
			t.Errorf("%s:\nEncode:          %s\nMarshal(ToXML): %s", name, got, want)
		}
	}
}

// TestEncodeLeavesParentsUntouched checks that Encode neither copies
// into nor re-parents the envelope's own header blocks and payload.
func TestEncodeLeavesParentsUntouched(t *testing.T) {
	root := payload(t, `<wrapper><op xmlns="urn:x"><v>1</v></op></wrapper>`)
	op := root.Children[0]
	env := NewRequest(op)
	holder := xmltree.New("urn:h", "Holder")
	hdr := xmltree.NewText("urn:h", "Tag", "t")
	holder.Append(hdr)
	env.SetHeader(hdr)
	SetConversationID(env, "c")
	conv := env.Header(NamespaceMASC, ConversationHeader)

	if _, err := env.Encode(); err != nil {
		t.Fatal(err)
	}
	if op.Parent() != root {
		t.Fatalf("payload parent = %v, want the original wrapper", op.Parent())
	}
	if hdr.Parent() != holder {
		t.Fatalf("header parent = %v, want its original holder", hdr.Parent())
	}
	if conv.Parent() != nil {
		t.Fatalf("detached header gained parent %v", conv.Parent())
	}
	if env.Payload != op || env.Headers[0] != hdr || env.Headers[1] != conv || len(env.Headers) != 2 {
		t.Fatal("Encode replaced the envelope's own elements")
	}
}

func BenchmarkEncode(b *testing.B) {
	env := NewRequest(xmltree.MustParseString(`<submitOrder xmlns="urn:scm"><item sku="tv-1">2</item><item sku="dvd-9">1</item></submitOrder>`))
	Addressing{MessageID: "urn:msg:1", To: "inproc://retailer-a", Action: "urn:scm/submitOrder"}.Apply(env)
	SetProcessInstanceID(env, "proc-1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := env.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}
