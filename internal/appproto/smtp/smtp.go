// Package smtp models SMTP dialogues for the paper's email analysis
// (§5.1.2): a generator producing byte-exact client/server command
// streams for a message of a given size, and a parser extracting the
// transaction outcome and transferred message size from reassembled
// streams. SMTP sessions exchange control information and a unidirectional
// bulk transfer, both proportional to RTT — which is why the paper finds
// internal SMTP connections an order of magnitude shorter than WAN ones.
package smtp

import (
	"fmt"

	"enttrace/internal/appproto/filler"
)

// Dialogue describes one SMTP session for generation.
type Dialogue struct {
	ClientHost  string
	From, To    string
	MessageSize int
	// Rejected produces a server that refuses the MAIL command (550).
	Rejected bool
}

// Turn is one alternating step of a dialogue: who sends, and what.
type Turn struct {
	FromClient bool
	Data       []byte
}

// Turns renders the dialogue as an alternating sequence of sends,
// which the generator paces at the path RTT.
func (d *Dialogue) Turns() []Turn {
	var t []Turn
	srv := func(s string) { t = append(t, Turn{Data: []byte(s)}) }
	cli := func(s string) { t = append(t, Turn{FromClient: true, Data: []byte(s)}) }
	srv("220 smtp.lbl.gov ESMTP ready\r\n")
	cli(fmt.Sprintf("HELO %s\r\n", d.ClientHost))
	srv("250 smtp.lbl.gov\r\n")
	cli(fmt.Sprintf("MAIL FROM:<%s>\r\n", d.From))
	if d.Rejected {
		srv("550 rejected: policy\r\n")
		cli("QUIT\r\n")
		srv("221 bye\r\n")
		return t
	}
	srv("250 ok\r\n")
	cli(fmt.Sprintf("RCPT TO:<%s>\r\n", d.To))
	srv("250 ok\r\n")
	cli("DATA\r\n")
	srv("354 go ahead\r\n")
	t = append(t, Turn{FromClient: true, Data: message(d.MessageSize)})
	srv("250 queued\r\n")
	cli("QUIT\r\n")
	srv("221 bye\r\n")
	return t
}

// message builds an n-byte RFC822-ish message ending with the dot
// terminator.
func message(n int) []byte {
	const terminator = "\r\n.\r\n"
	msg := make([]byte, n, n+len(terminator))
	head := copy(msg, "Subject: report\r\nMIME-Version: 1.0\r\n\r\n")
	filler.Fill(msg[head:], "The quick brown fox jumps over the lazy dog 0123456789.\r\n")
	return append(msg, terminator...)
}

// Result summarizes a parsed SMTP session.
type Result struct {
	// Accepted reports that the server accepted the message (250 after
	// DATA).
	Accepted bool
	// Rejected reports a 5xx reply to MAIL/RCPT.
	Rejected bool
	// MessageBytes is the size of the DATA payload seen.
	MessageBytes int
}

// Parse extracts the outcome from the two reassembled directions of an
// SMTP connection handed over whole. It is a one-chunk feed of
// StreamParser.
func Parse(clientStream, serverStream []byte) Result {
	var cli, srv StreamParser
	cli.InitClient(0)
	srv.InitServer(0)
	cli.Data(clientStream)
	srv.Data(serverStream)
	return ResultOf(&cli, &srv)
}
