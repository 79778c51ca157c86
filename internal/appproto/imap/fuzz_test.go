package imap

import (
	"bytes"
	"testing"
)

// FuzzParse feeds the plaintext session parser arbitrary bytes as both
// directions: no panic, no run-away literal scan, and counts the stream
// can account for.
func FuzzParse(f *testing.F) {
	var session []byte
	for _, turn := range (&Session{User: "u", Polls: 2, BytesPerPoll: 3000}).Turns() {
		session = append(session, turn.Data...)
	}
	f.Add(session)
	for _, s := range []string{
		// Literal markers: unclosed, empty, negative, overflowing,
		// nested, back to back, a closing brace first.
		"* 1 FETCH (BODY[] {123",
		"{}{-5}{+7}{ 9}{1e3}",
		"{9223372036854775807}{9223372036854775807}",
		"{{{12}}}{3}{4}",
		"}{5",
		// FETCH commands: no surrounding spaces, several on a line, bare
		// CR and LF as separators.
		"a1 FETCH 1 BODY[]\r\nFETCH\r\na2 FETCH 2 FETCH 3\r\n",
		"a FETCH b\ra FETCH c\na FETCH d",
		"a OK LOGIN completed\r\nOK LOGIN",
		"\x16\x03\x01\x00\x2f",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := Parse(stream, stream)
		if lines := bytes.Count(stream, []byte("\r\n")) + 1; r.FetchCount < 0 || r.FetchCount > lines {
			t.Fatalf("%d FETCH commands in a %d-line stream", r.FetchCount, lines)
		}
		if r.LoggedIn != bytes.Contains(stream, []byte("OK LOGIN")) {
			t.Fatalf("LoggedIn = %v", r.LoggedIn)
		}
		if r.FetchedBytes != 0 && !bytes.ContainsAny(stream, "{") {
			t.Fatalf("%d fetched bytes without a literal marker", r.FetchedBytes)
		}
		if IsTLS(stream) && (len(stream) < 3 || stream[0] != 0x16) {
			t.Fatalf("IsTLS(%x)", stream)
		}
	})
}
