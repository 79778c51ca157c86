// Package imap models the two flavors of IMAP the paper's email analysis
// sees: plaintext IMAP4 (which LBNL phased out between D0 and D1) and
// IMAP over SSL (IMAP/S, port 993), whose payload is opaque — the paper
// analyzes it purely at the transport layer. The generator produces a
// polling session: a handshake, then FETCH polls every PollInterval with
// the mailbox data flowing server → client; the plaintext parser recovers
// command counts and fetched bytes.
package imap

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"enttrace/internal/appproto/filler"
)

// Session describes one IMAP session for generation.
type Session struct {
	User string
	// Polls is how many FETCH polls the session performs (the paper
	// observes clients polling every ~10 minutes within 50-minute
	// sessions).
	Polls int
	// BytesPerPoll is the mailbox payload returned per poll.
	BytesPerPoll int
	// PollInterval separates successive polls.
	PollInterval time.Duration
	// TLS produces an IMAP/S-style opaque byte stream instead of
	// plaintext commands.
	TLS bool
}

// Turn is one paced send within the session.
type Turn struct {
	FromClient bool
	// Delay before this turn relative to the previous one (zero for
	// RTT-paced command/response steps; the generator adds RTT itself).
	Delay time.Duration
	Data  []byte
}

// Turns renders the session.
func (s *Session) Turns() []Turn {
	if s.TLS {
		return s.tlsTurns()
	}
	var t []Turn
	srv := func(delay time.Duration, str string) {
		t = append(t, Turn{Delay: delay, Data: []byte(str)})
	}
	cli := func(delay time.Duration, str string) {
		t = append(t, Turn{FromClient: true, Delay: delay, Data: []byte(str)})
	}
	srv(0, "* OK imap.lbl.gov IMAP4rev1 ready\r\n")
	cli(0, fmt.Sprintf("a1 LOGIN %s secret\r\n", s.User))
	srv(0, "a1 OK LOGIN completed\r\n")
	cli(0, "a2 SELECT INBOX\r\n")
	srv(0, "* 17 EXISTS\r\na2 OK [READ-WRITE] SELECT completed\r\n")
	for i := 0; i < s.Polls; i++ {
		delay := time.Duration(0)
		if i > 0 {
			delay = s.PollInterval
		}
		tag := fmt.Sprintf("a%d", 3+i)
		cli(delay, tag+" FETCH 1:* (FLAGS BODY[])\r\n")
		srv(0, fmt.Sprintf("* 1 FETCH (BODY[] {%d}\r\n", s.BytesPerPoll))
		t = append(t, Turn{Data: mailbox(s.BytesPerPoll)})
		srv(0, ")\r\n"+tag+" OK FETCH completed\r\n")
	}
	cli(0, "a99 LOGOUT\r\n")
	srv(0, "* BYE\r\na99 OK LOGOUT completed\r\n")
	return t
}

// tlsTurns emits an opaque TLS-like session: a handshake exchange then
// sized application records. The analyzer can only see sizes and timing,
// exactly the paper's situation with encrypted IMAP/S.
func (s *Session) tlsTurns() []Turn {
	var t []Turn
	t = append(t, Turn{FromClient: true, Data: tlsRecord(0x16, 200)}) // ClientHello
	t = append(t, Turn{Data: tlsRecord(0x16, 1800)})                  // ServerHello+cert
	t = append(t, Turn{FromClient: true, Data: tlsRecord(0x16, 300)}) // key exchange
	t = append(t, Turn{Data: tlsRecord(0x14, 40)})                    // ChangeCipherSpec
	for i := 0; i < s.Polls; i++ {
		delay := time.Duration(0)
		if i > 0 {
			delay = s.PollInterval
		}
		t = append(t, Turn{FromClient: true, Delay: delay, Data: tlsRecord(0x17, 80)})
		t = append(t, Turn{Data: tlsRecord(0x17, s.BytesPerPoll)})
	}
	t = append(t, Turn{FromClient: true, Data: tlsRecord(0x15, 24)}) // close_notify
	return t
}

// tlsRecord builds a TLS-framed record with deterministic pseudo-random
// body (high-entropy-looking but reproducible).
func tlsRecord(typ byte, n int) []byte {
	out := make([]byte, 5+n)
	out[0] = typ
	out[1], out[2] = 3, 1 // TLS 1.0, the 2004-era version
	out[3] = byte(n >> 8)
	out[4] = byte(n)
	state := uint32(n)*2654435761 + uint32(typ)
	for i := 5; i < len(out); i++ {
		state = state*1664525 + 1013904223
		out[i] = byte(state >> 24)
	}
	return out
}

// mailbox builds n bytes of message payload.
func mailbox(n int) []byte {
	return filler.Bytes(n, "From: someone@lbl.gov\r\nSubject: status\r\n\r\nbody text follows here\r\n")
}

// Result summarizes a parsed plaintext IMAP session.
type Result struct {
	LoggedIn     bool
	FetchCount   int
	FetchedBytes int
}

// Parse recovers session facts from the two plaintext stream directions.
func Parse(clientStream, serverStream []byte) Result {
	var r Result
	r.LoggedIn = bytes.Contains(serverStream, []byte("OK LOGIN"))
	for _, ln := range strings.Split(string(clientStream), "\r\n") {
		if strings.Contains(ln, " FETCH ") {
			r.FetchCount++
		}
	}
	// Literal sizes: {N} markers in the server stream.
	rest := serverStream
	for {
		idx := bytes.IndexByte(rest, '{')
		if idx < 0 {
			break
		}
		end := bytes.IndexByte(rest[idx:], '}')
		if end < 0 {
			break
		}
		if n, err := strconv.Atoi(string(rest[idx+1 : idx+end])); err == nil {
			r.FetchedBytes += n
		}
		rest = rest[idx+end:]
	}
	return r
}

// IsTLS sniffs whether a stream begins with a TLS handshake record, as
// IMAP/S does and plaintext IMAP does not. The analyzer does not call
// it: it tells the two apart by port.
func IsTLS(stream []byte) bool {
	return len(stream) >= 3 && stream[0] == 0x16 && stream[1] == 3
}
