package xmltree

import (
	"io"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Marshal serializes the subtree rooted at e as a standalone XML
// document fragment. Namespace prefixes are generated deterministically
// (document order of first use) and declared on the root element.
func Marshal(w io.Writer, e *Element) error {
	s, _ := MarshalString(e) // never fails
	_, err := io.WriteString(w, s)
	return err
}

// MarshalString serializes e and returns the result as a string. It
// never fails; the error result is kept for symmetry with Marshal.
func MarshalString(e *Element) (string, error) {
	bp := bufPool.Get().(*[]byte)
	*bp = appendMarshal((*bp)[:0], e)
	s := string(*bp)
	if cap(*bp) <= maxPooledBuf {
		bufPool.Put(bp)
	}
	return s, nil
}

// MustMarshalString is MarshalString without its always-nil error.
func MustMarshalString(e *Element) string {
	s, _ := MarshalString(e)
	return s
}

// bufPool recycles marshal buffers; a buffer that grew past
// maxPooledBuf is dropped rather than pinned in the pool.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

const maxPooledBuf = 64 << 10

// appendMarshal appends the serialization of e to b.
func appendMarshal(b []byte, e *Element) []byte {
	var inline [8]string
	ns := namespaces(inline[:0]).collect(e)
	return ns.element(b, e, true)
}

// namespaces lists the namespace URIs used in e's subtree in document
// order of first use; the i-th gets prefix ns<i+1>. Documents use a
// handful of namespaces, so a linear scan over a small slice beats a
// map.
type namespaces []string

func (ns namespaces) collect(e *Element) namespaces {
	ns = ns.need(e.Name.Space)
	for _, a := range e.Attrs {
		ns = ns.need(a.Name.Space)
	}
	for _, c := range e.Children {
		ns = ns.collect(c)
	}
	return ns
}

func (ns namespaces) need(space string) namespaces {
	if space != "" && ns.index(space) < 0 {
		ns = append(ns, space)
	}
	return ns
}

func (ns namespaces) index(space string) int {
	for i, s := range ns {
		if s == space {
			return i
		}
	}
	return -1
}

func (ns namespaces) qname(b []byte, n Name) []byte {
	if n.Space != "" {
		b = appendPrefix(b, ns.index(n.Space))
		b = append(b, ':')
	}
	return append(b, n.Local...)
}

func appendPrefix(b []byte, i int) []byte {
	return strconv.AppendInt(append(b, "ns"...), int64(i+1), 10)
}

func (ns namespaces) element(b []byte, e *Element, root bool) []byte {
	b = append(b, '<')
	b = ns.qname(b, e.Name)
	if root {
		for i, uri := range ns {
			b = append(b, " xmlns:"...)
			b = appendPrefix(b, i)
			b = append(b, `="`...)
			b = appendEscaped(b, uri)
			b = append(b, '"')
		}
	}
	for _, a := range e.Attrs {
		b = append(b, ' ')
		b = ns.qname(b, a.Name)
		b = append(b, `="`...)
		b = appendEscaped(b, a.Value)
		b = append(b, '"')
	}
	if len(e.Children) == 0 && e.Text == "" {
		return append(b, "/>"...)
	}
	b = append(b, '>')
	b = appendEscaped(b, e.Text)
	for _, c := range e.Children {
		b = ns.element(b, c, false)
	}
	b = append(b, "</"...)
	b = ns.qname(b, e.Name)
	return append(b, '>')
}

// appendEscaped appends s escaped exactly as encoding/xml.EscapeText
// escapes it: the five markup characters and \t \n \r become character
// references, and bytes that are not valid UTF-8 or runes outside the
// XML character range become U+FFFD. Runs that need no escaping are
// copied in one append.
func appendEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		var esc string
		width := 1
		if c < utf8.RuneSelf {
			switch c {
			case '"':
				esc = "&#34;"
			case '\'':
				esc = "&#39;"
			case '&':
				esc = "&amp;"
			case '<':
				esc = "&lt;"
			case '>':
				esc = "&gt;"
			case '\t':
				esc = "&#x9;"
			case '\n':
				esc = "&#xA;"
			case '\r':
				esc = "&#xD;"
			default:
				if c >= 0x20 {
					i++
					continue
				}
				esc = "\uFFFD"
			}
		} else {
			var r rune
			r, width = utf8.DecodeRuneInString(s[i:])
			if inCharacterRange(r) && (r != utf8.RuneError || width != 1) {
				i += width
				continue
			}
			esc = "\uFFFD"
		}
		b = append(b, s[last:i]...)
		b = append(b, esc...)
		i += width
		last = i
	}
	return append(b, s[last:]...)
}

// inCharacterRange reports whether r is an XML 1.0 Char.
func inCharacterRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
