package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

// oracleMarshalString is the original fmt/encoding-xml marshaler, kept
// only as the reference the append-based Marshal must match byte for
// byte.
func oracleMarshalString(e *Element) string {
	var sb strings.Builder
	m := &oracleMarshaler{prefixes: map[string]string{}}
	m.collect(e)
	if err := m.write(&sb, e, true); err != nil {
		panic(err)
	}
	return sb.String()
}

type oracleMarshaler struct {
	prefixes map[string]string // namespace URI -> prefix
	order    []string          // URIs in order of first use
}

func (m *oracleMarshaler) collect(e *Element) {
	m.need(e.Name.Space)
	for _, a := range e.Attrs {
		m.need(a.Name.Space)
	}
	for _, c := range e.Children {
		m.collect(c)
	}
}

func (m *oracleMarshaler) need(space string) {
	if space == "" {
		return
	}
	if _, ok := m.prefixes[space]; ok {
		return
	}
	m.prefixes[space] = "ns" + strconv.Itoa(len(m.order)+1)
	m.order = append(m.order, space)
}

func (m *oracleMarshaler) qname(n Name) string {
	if n.Space == "" {
		return n.Local
	}
	return m.prefixes[n.Space] + ":" + n.Local
}

func (m *oracleMarshaler) write(w io.Writer, e *Element, root bool) error {
	if _, err := fmt.Fprintf(w, "<%s", m.qname(e.Name)); err != nil {
		return err
	}
	if root {
		for _, uri := range m.order {
			if _, err := fmt.Fprintf(w, ` xmlns:%s="%s"`, m.prefixes[uri], oracleEscape(uri)); err != nil {
				return err
			}
		}
	}
	for _, a := range e.Attrs {
		if _, err := fmt.Fprintf(w, ` %s="%s"`, m.qname(a.Name), oracleEscape(a.Value)); err != nil {
			return err
		}
	}
	if len(e.Children) == 0 && e.Text == "" {
		_, err := io.WriteString(w, "/>")
		return err
	}
	if _, err := io.WriteString(w, ">"); err != nil {
		return err
	}
	if e.Text != "" {
		if err := xml.EscapeText(w, []byte(e.Text)); err != nil {
			return err
		}
	}
	for _, c := range e.Children {
		if err := m.write(w, c, false); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "</%s>", m.qname(e.Name))
	return err
}

func oracleEscape(s string) string {
	var sb strings.Builder
	if err := xml.EscapeText(&sb, []byte(s)); err != nil {
		return s
	}
	return sb.String()
}

// fuzzTree builds a document exercising every marshaler branch from
// fuzzed strings: text and attribute values in several namespaces, a
// namespace first used by an attribute, a repeated namespace, an empty
// element, and nesting.
func fuzzTree(text, attr, spaceA, spaceB, local string) *Element {
	if local == "" {
		local = "x"
	}
	root := New(spaceA, "root")
	root.SetAttr("", "plain", attr)
	root.SetAttr(spaceB, "q", text)
	child := NewText(spaceB, local, text)
	child.SetAttr(spaceA, "a", attr)
	child.SetAttr(spaceA+spaceB, "third", text+attr)
	root.Append(child)
	root.Append(New(spaceA, "empty"))
	inner := New("", local)
	inner.Text = attr
	inner.Append(NewText(spaceB, "leaf", text))
	child.Append(inner)
	return root
}

// FuzzMarshalEquivalence checks that the append-based MarshalString
// emits exactly what the original encoding/xml-based marshaler did,
// escaping included, for arbitrary (also invalid) character data.
func FuzzMarshalEquivalence(f *testing.F) {
	seeds := [][5]string{
		{"plain", "value", "urn:a", "urn:b", "x"},
		{`say "hi"`, `it's`, "urn:q\"", "urn:'b'", "quote"},
		{"a & b < c > d", "&amp;<>", "urn:a&b", "urn:<b>", "amp"},
		{"tab\tnl\ncr\r", "\r\n\t", "urn:a", "urn:a", "ws"},
		{"\x00\x01\x08\x0b\x0c\x1f\x7f", "\x1b[0m", "urn:c0\x01", "", "c0"},
		{"bad \xff\xfe utf8 \xc3", "\xe2\x82", "urn:\x80", "urn:b", "inv"},
		{"\ufffe\uffff", "\ufffd", "urn:fffd\ufffd", "urn:\ufffe", "nonchar"},
		{"ünïcödé ✓ 𝄞", "日本語", "urn:ü", "urn:日本", "uni"},
		{"", "", "", "", ""},
		{"", "", "urn:same", "urn:same", "same"},
		{"]]>", "<!--", "http://schemas.xmlsoap.org/soap/envelope/", "urn:masc:headers", "cdata"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], s[2], s[3], s[4])
	}
	f.Fuzz(func(t *testing.T, text, attr, spaceA, spaceB, local string) {
		e := fuzzTree(text, attr, spaceA, spaceB, local)
		got, err := MarshalString(e)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleMarshalString(e); got != want {
			t.Fatalf("marshal differs from oracle:\ngot:  %q\nwant: %q", got, want)
		}
		var sb strings.Builder
		if err := Marshal(&sb, e); err != nil || sb.String() != got {
			t.Fatalf("Marshal = %q, %v; MarshalString = %q", sb.String(), err, got)
		}
	})
}

// TestMarshalMatchesOracleOnParsedDocuments runs the oracle comparison
// over the repository's typical document shapes.
func TestMarshalMatchesOracleOnParsedDocuments(t *testing.T) {
	docs := []string{
		`<a/>`,
		`<a b="c">text</a>`,
		`<ns:a xmlns:ns="urn:x"><b/><c d="e&amp;f"/></ns:a>`,
		`<a xmlns="urn:d"><b xmlns="urn:e" xmlns:f="urn:f" f:g="h"/></a>`,
		`<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/" xmlns:m="urn:masc:headers">` +
			`<s:Header><m:ProcessInstanceID>p&lt;1&gt;</m:ProcessInstanceID></s:Header>` +
			`<s:Body><o:submitOrder xmlns:o="urn:scm"><qty>2</qty><note>it&apos;s &quot;ok&quot;</note></o:submitOrder></s:Body></s:Envelope>`,
		`<a xml:lang="en">t</a>`,
	}
	for _, d := range docs {
		e := MustParseString(d)
		if got, want := MustMarshalString(e), oracleMarshalString(e); got != want {
			t.Errorf("%s:\ngot:  %q\nwant: %q", d, got, want)
		}
	}
}

var marshalSink string

func BenchmarkMarshal(b *testing.B) {
	e := MustParseString(`<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/" xmlns:m="urn:masc:headers">` +
		`<s:Header><m:ProcessInstanceID>p-1</m:ProcessInstanceID><m:ConversationID>c-1</m:ConversationID></s:Header>` +
		`<s:Body><o:submitOrder xmlns:o="urn:scm"><item sku="tv-1">2</item><item sku="dvd-9">1</item><note>fast &amp; cheap</note></o:submitOrder></s:Body></s:Envelope>`)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			marshalSink, _ = MarshalString(e)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			marshalSink = oracleMarshalString(e)
		}
	})
}
