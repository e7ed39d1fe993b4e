package obs

import (
	"strings"
	"testing"
)

// FuzzParseTraceHeader asserts the X-Transched-Trace parser's contract
// on arbitrary header values, the untrusted input every request may
// carry:
//
//  1. ParseTraceHeader never panics;
//  2. an accepted value has nonzero trace and span IDs, and renders
//     back (HeaderValue) to the input up to the case of its hex digits;
//  3. a rejected value returns the zero SpanContext.
func FuzzParseTraceHeader(f *testing.F) {
	valid := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}.HeaderValue()
	for _, v := range []string{
		valid,
		strings.ToUpper(valid),
		"0123456789abcdef0123456789abcdef-0123456789abcdef",
		"",
		"abc",
		valid[:48],
		valid + "0",
		strings.Replace(valid, "-", "_", 1),
		"g" + valid[1:],
		valid[:33] + "zzzzzzzzzzzzzzzz",
		strings.Repeat("0", 32) + "-" + valid[33:],
		valid[:33] + strings.Repeat("0", 16),
		" " + valid[1:],
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		c, ok := ParseTraceHeader(v) // must never panic
		if !ok {
			if c != (SpanContext{}) {
				t.Fatalf("rejected %q but returned %+v", v, c)
			}
			return
		}
		if c.Trace.IsZero() || c.Span.IsZero() {
			t.Fatalf("accepted %q with a zero ID: %+v", v, c)
		}
		if got := c.HeaderValue(); !strings.EqualFold(got, v) {
			t.Fatalf("accepted %q renders back as %q", v, got)
		}
	})
}
